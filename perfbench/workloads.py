"""The four workloads: seeded inputs, the CLI operations and their oracles.

A workload builder writes its inputs into ``indir`` and returns the list of
operations. Each operation is a ``shufflesc`` command line (run with
``--json``) plus an oracle that judges its parsed JSON report after all
operations have finished. Oracles use other code paths than the operation
they judge: formulas, the bitmap BFS against the subset construction, or
numpy steps of the benchmark's own.

The seed picks a random relabelling of stored base inputs: conjugation of
the letter list by row and column permutations that fix 1, and state and
letter renaming of the DFA pair. Relabelling keeps every count (reached
subsets, generations, frontier sizes, subset-construction states, kappa),
so each seed gives different inputs but the same amount of work. Fresh
independent draws do not: one random minimal 4x6 pair over 8 letters takes
3.8 to 12 s.
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from shufflesc.reach import ExtremalLetter, bfs_reach
from shufflesc.shuffle import count_valid_subsets

import make_data

Check = Callable[[dict], "str | None"]


class Op(NamedTuple):
    name: str
    argv: list[str]
    check: Check


def f_bound(m: int, n: int) -> int:
    """f(m, n), written out here so the oracle does not call the program."""
    return 2 ** (m * n - 1) + 2 ** ((m - 1) * (n - 1)) * (2 ** (m - 1) - 1) * (
        2 ** (n - 1) - 1
    )


def valid_mask(codes: np.ndarray, m: int, n: int) -> np.ndarray:
    """Condition (C) on encodings: a cell in row 1 and a cell in column 1.
    Cell (p, q) is bit (p-1)*n + (q-1)."""
    row1 = (1 << n) - 1
    col1 = sum(1 << (p * n) for p in range(m))
    return ((codes & row1) != 0) & ((codes & col1) != 0)


def step_tables(s, t, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Successor of an encoding x under letter (s, t) is
    lo[x & 4095] | hi[x >> 12]: each table entry ORs, over the set cells of
    its 12-bit chunk, the bits of (s(p), q) and (p, t(q))."""
    cells = m * n
    images = np.zeros(cells, dtype=np.int64)
    for p, q in product(range(m), range(n)):
        images[p * n + q] = (1 << ((s[p] - 1) * n + q)) | (
            1 << (p * n + t[q] - 1)
        )
    chunk = np.arange(4096, dtype=np.int64)
    tables = []
    for base in (0, 12):
        table = np.zeros(4096, dtype=np.int64)
        for bit in range(12):
            if base + bit < cells:
                table[(chunk >> bit) & 1 == 1] |= images[base + bit]
        tables.append(table)
    return tables[0], tables[1]


def full_alphabet_reached(m: int, n: int, generations: int) -> int:
    """Subsets reached from {(1,1)} within `generations` steps over the full
    alphabet, by the benchmark's own step: every successor of a state is a
    row part (its cells moved by some s) OR a column part (moved by some t)."""
    s_all = np.array(list(product(range(m), repeat=m)), dtype=np.int64)
    t_all = np.array(list(product(range(n), repeat=n)), dtype=np.int64)
    seen = np.zeros(1 << (m * n), dtype=bool)
    seen[1] = True
    frontier = [1]
    for _ in range(generations):
        succ = np.zeros_like(seen)
        for x in frontier:
            rows = np.zeros(len(s_all), dtype=np.int64)
            cols = np.zeros(len(t_all), dtype=np.int64)
            for p, q in product(range(m), range(n)):
                if x >> (p * n + q) & 1:
                    rows |= np.int64(1) << (s_all[:, p] * n + q)
                    cols |= np.int64(1) << (p * n + t_all[:, q])
            succ[np.unique(rows)[:, None] | np.unique(cols)[None, :]] = True
        new = succ & ~seen
        seen |= new
        frontier = np.flatnonzero(new).tolist()
    return int(seen.sum())


def _expect(payload: dict, **want) -> str | None:
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    return None


# -- reach_full -------------------------------------------------------------


def reach_full(seed: int, indir: Path, outdir: Path) -> list[Op]:
    """Full-alphabet BFS to completion at 2x5 and 3x4, three generations at
    4x4 (up to 1,079 frontier states times 65,536 letters) and one at 2x6
    (one state times 186,624 letters). The seed is not used."""

    def complete(m: int, n: int) -> Check:
        def check(p: dict) -> str | None:
            f = f_bound(m, n)
            if count_valid_subsets(m, n) != f:
                return f"count_valid_subsets({m},{n}) disagrees with f = {f}"
            return _expect(p, m=m, n=n, bound=f, reached=f, complete=True)
        return check

    def partial(m: int, n: int, gens: int) -> Check:
        def check(p: dict) -> str | None:
            return _expect(
                p, m=m, n=n, bound=f_bound(m, n), complete=False,
                generations=gens, reached=full_alphabet_reached(m, n, gens),
            )
        return check

    ops = [Op(f"reach {m} {n}", ["reach", str(m), str(n)], complete(m, n))
           for m, n in ((2, 5), (3, 4))]
    ops += [Op(f"reach {m} {n} --max-generations {g}",
               ["reach", str(m), str(n), "--max-generations", str(g)],
               partial(m, n, g))
            for m, n, g in ((4, 4, 3), (2, 6, 1))]
    return ops


# -- reach_letters ----------------------------------------------------------


def random_fixing_one(rng: random.Random, size: int) -> list[int]:
    """Images of a random permutation of 1..size that fixes 1."""
    rest = list(range(2, size + 1))
    rng.shuffle(rest)
    return [1] + rest


def conjugate(images: list[int], perm: list[int]) -> list[int]:
    """perm . images . perm^-1, so that the result maps perm(i) to
    perm(images(i))."""
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[perm[i] - 1] = perm[img - 1]
    return out


def seeded_letters(seed: int) -> tuple[dict, list[dict]]:
    pool = json.loads(make_data.POOL_FILE.read_text())["letters"]
    rng = random.Random(seed)
    pi = random_fixing_one(rng, pool["m"])
    sigma = random_fixing_one(rng, pool["n"])
    letters = [{"s": conjugate(a["s"], pi), "t": conjugate(a["t"], sigma)}
               for a in pool["letters"]]
    rng.shuffle(letters)
    return pool, letters


def checkpoint_visited(directory: Path, m: int, n: int) -> tuple[dict, np.ndarray]:
    """Header and visited encodings of the checkpoint LATEST names."""
    name = (directory / "LATEST").read_text().strip()
    raw = (directory / name).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    nbytes = ((1 << (m * n)) + 7) // 8
    bits = np.unpackbits(np.frombuffer(raw[nl + 1:nl + 1 + nbytes], dtype=np.uint8),
                         bitorder="little")
    return header, np.flatnonzero(bits)


def closure_failure(visited: np.ndarray, letters: list[dict], m: int, n: int) -> str | None:
    """Why `visited` is not {(1,1)}-rooted, valid and closed, or None."""
    member = np.zeros(1 << (m * n), dtype=bool)
    member[visited] = True
    if not member[1]:
        return "visited set misses {(1,1)}"
    if not valid_mask(visited, m, n).all():
        return "visited set holds a subset violating condition (C)"
    for a in letters:
        lo, hi = step_tables(a["s"], a["t"], m, n)
        succ = lo[visited & 4095] | hi[visited >> 12]
        if not member[succ].all():
            return f"visited set is not closed under letter {a}"
    return None


def reach_letters(seed: int, indir: Path, outdir: Path) -> list[Op]:
    """BFS over a seeded 32-letter list on the 4x6 grid with a checkpoint per
    generation: stop halfway, then resume to the fixpoint."""
    pool, letters = seeded_letters(seed)
    m, n = pool["m"], pool["n"]
    half = pool["generations"] // 2
    letters_file = indir / "letters.json"
    letters_file.write_text(json.dumps(letters, indent=1) + "\n")
    ckpt = outdir / "ckpt"
    base = ["reach", str(m), str(n), "--alphabet", str(letters_file),
            "--checkpoint-dir", str(ckpt)]

    def check_final(p: dict) -> str | None:
        bad = _expect(p, reached=pool["reached"], generations=pool["generations"],
                      bound=f_bound(m, n), complete=False)
        if bad:
            return bad
        header, visited = checkpoint_visited(ckpt, m, n)
        if header["visited_count"] != visited.size or visited.size != p["reached"]:
            return f"final checkpoint holds {visited.size} subsets, report {p['reached']}"
        if header["frontier_len"] != 0:
            return "final checkpoint has a nonempty frontier"
        return closure_failure(visited, letters, m, n)

    return [
        Op(f"reach {m} {n} letters --max-generations {half}",
           base + ["--max-generations", str(half)],
           lambda p: _expect(p, generations=half, complete=False)),
        Op(f"reach {m} {n} letters --resume", base + ["--resume"], check_final),
    ]


# -- certify ----------------------------------------------------------------


def certify(seed: int, indir: Path, outdir: Path) -> list[Op]:
    """Certificate for every instance up to 4x4, written to a file: per-subset
    tables with every justification kind, the largest at 4x4. The seed is not
    used."""
    m, n = 4, 4
    out = outdir / "cert.json"

    def check(p: dict) -> str | None:
        bad = _expect(p, m=m, n=n, verified=True)
        if bad:
            return bad
        want = {f"{a}x{b}" for a in range(1, m + 1) for b in range(1, n + 1)}
        if set(p["strategies"]) != want:
            return f"strategies do not cover every instance up to {m}x{n}"
        cert = json.loads(out.read_text())
        for e in cert["entries"]:
            if e["strategy"] != "EXHAUSTIVE":
                continue
            mi, ni = e["m"], e["n"]
            codes = np.array([int(k) for k in e["data"]["justifications"]])
            if codes.size != f_bound(mi, ni) or not valid_mask(codes, mi, ni).all():
                return f"{mi}x{ni} table does not hold exactly the valid subsets"
        return None

    return [Op(f"certify {m} {n}", ["certify", str(m), str(n), "--out", str(out)],
               check)]


# -- kappa ------------------------------------------------------------------


def dfa_dict(states: int, alphabet: list[str], transitions: list[list[int]],
             finals: list[int]) -> dict:
    return {"states": states, "alphabet": alphabet, "initial": 1,
            "finals": sorted(finals),
            "transitions": dict(zip(alphabet, transitions))}


def composed_witness() -> tuple[dict, dict]:
    """The ternary distinguishability witness at 3x4 plus the stored greedy
    letters (s on the left DFA, t on the right one)."""
    m, n = 3, 4
    greedy = json.loads(make_data.WITNESS_FILE.read_text())
    names = ["a", "b", "c"] + [f"g{i}" for i in range(len(greedy))]
    left = [[2, 3, 1], [1, 1, 1], [2, 1, 1]] + [a["s"] for a in greedy]
    right = [[1, 1, 1, 1], [2, 3, 4, 1], [4, 4, 4, 4]] + [a["t"] for a in greedy]
    return dfa_dict(m, names, left, [m]), dfa_dict(n, names, right, [n])


def relabel(dfa: dict, perm: list[int], order: list[int]) -> dict:
    """States renamed by perm (perm[0] = 1 keeps the initial state); the
    transition of letter i moves to letter order[i]."""
    names = dfa["alphabet"]
    moved = [None] * len(names)
    for i, x in enumerate(names):
        moved[order[i]] = conjugate(dfa["transitions"][x], perm)
    return dfa_dict(dfa["states"], names, moved, [perm[f - 1] for f in dfa["finals"]])


def seeded_pair(seed: int) -> tuple[dict, dict, dict]:
    pool = json.loads(make_data.POOL_FILE.read_text())["pair"]
    rng = random.Random(seed)
    order = list(range(len(pool["left"]["alphabet"])))
    rng.shuffle(order)
    left = relabel(pool["left"], random_fixing_one(rng, pool["m"]), order)
    right = relabel(pool["right"], random_fixing_one(rng, pool["n"]), order)
    return pool, left, right


def kappa(seed: int, indir: Path, outdir: Path) -> list[Op]:
    """Many small automata (exhaustive search at 2x2 over 4 letters) beside a
    few large ones (a bound-meeting 3x4 pair, a seeded random minimal 4x5 pair,
    the okhotin family at 14 states, distinguishability at 6x6)."""
    files = {}
    witness_left, witness_right = composed_witness()
    pool, left, right = seeded_pair(seed)
    for name, obj in (("w_left", witness_left), ("w_right", witness_right),
                      ("p_left", left), ("p_right", right)):
        files[name] = indir / f"{name}.json"
        files[name].write_text(json.dumps(obj, indent=1) + "\n")

    def check_pair(p: dict) -> str | None:
        m, n = pool["m"], pool["n"]
        bad = _expect(p, kappa_left=m, kappa_right=n, kappa_shuffle=pool["kappa"])
        if bad:
            return bad
        letters = [ExtremalLetter.from_dict({"s": left["transitions"][x],
                                             "t": right["transitions"][x]})
                   for x in left["alphabet"]]
        subsets = bfs_reach(m, n, letters).reached
        if subsets != pool["subsets"] or not p["kappa_shuffle"] <= subsets <= f_bound(m, n):
            return f"reach over the pair's letters gives {subsets} subsets"
        return None

    return [
        Op("search 2 2 4", ["search", "2", "2", "4"],
           lambda p: _expect(p, max=10, bound=10, met=True)),
        Op("complexity witness 3x4",
           ["complexity", str(files["w_left"]), str(files["w_right"])],
           lambda p: _expect(p, kappa_left=3, kappa_right=4,
                             kappa_shuffle=f_bound(3, 4), met=True)),
        Op("complexity random 4x5",
           ["complexity", str(files["p_left"]), str(files["p_right"])], check_pair),
        Op("okhotin 14", ["okhotin", "14"],
           lambda p: _expect(p, n=14, kappa=2 ** 12 + 1)),
        Op("distinguish 6 6", ["distinguish", "6", "6"],
           lambda p: _expect(p, states=36, uniquely_distinguishable=36,
                             all_distinguishable=True)),
    ]


WORKLOADS = {
    "reach_full": reach_full,
    "reach_letters": reach_letters,
    "certify": certify,
    "kappa": kappa,
}

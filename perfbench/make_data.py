"""Regenerate the benchmark's stored data under perfbench/data/.

    PYTHONPATH=src python3 perfbench/make_data.py

Writes two files:

* ``witness_3x4_greedy.json``: ``greedy_alphabet(3, 4)``, stored because the
  call takes about 20 s, too slow to repeat in every set-up.
* ``pool.json``: the base letter list of ``reach_letters`` and the base DFA
  pair of ``kappa``, drawn from fixed generator seeds, with the counts the
  oracles expect. Each run draws a random relabelling of these from its
  ``--seed`` (see ``workloads.py``); relabelling keeps every count below.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WITNESS_FILE = DATA / "witness_3x4_greedy.json"
POOL_FILE = DATA / "pool.json"

LETTERS_GRID = (4, 6)
LETTERS_COUNT = 32
LETTERS_SEED = 1
PAIR_GRID = (4, 5)
PAIR_LETTERS = 6
PAIR_SEED = 1


def random_images(rng: random.Random, size: int) -> list[int]:
    return [rng.randint(1, size) for _ in range(size)]


def base_letters() -> list[dict]:
    """LETTERS_COUNT uniform random extremal letters on the LETTERS_GRID."""
    m, n = LETTERS_GRID
    rng = random.Random(LETTERS_SEED)
    return [{"s": random_images(rng, m), "t": random_images(rng, n)}
            for _ in range(LETTERS_COUNT)]


def random_minimal_pair(rng: random.Random, m: int, n: int, k: int):
    """Uniform random transitions and nonempty proper final sets, redrawn
    until both DFAs are minimal (state complexity m and n)."""
    from shufflesc.automata import Dfa, Transformation, state_complexity

    names = tuple(f"x{i}" for i in range(k))
    while True:
        ks = tuple(Transformation(tuple(random_images(rng, m))) for _ in range(k))
        ls = tuple(Transformation(tuple(random_images(rng, n))) for _ in range(k))
        fk = frozenset(rng.sample(range(1, m + 1), rng.randint(1, m - 1)))
        fl = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        K, L = Dfa(m, names, ks, fk), Dfa(n, names, ls, fl)
        if state_complexity(K) == m and state_complexity(L) == n:
            return K, L


def base_pair():
    m, n = PAIR_GRID
    return random_minimal_pair(random.Random(PAIR_SEED), m, n, PAIR_LETTERS)


def pair_letters(K, L) -> list:
    """The pair's letters (K_a, L_a) as extremal letters."""
    from shufflesc.reach import ExtremalLetter

    return [ExtremalLetter(s, t) for s, t in zip(K.transitions, L.transitions)]


def greedy_letters() -> list[dict]:
    from shufflesc.reach import greedy_alphabet

    return [a.to_dict() for a in greedy_alphabet(3, 4)]


def build_pool() -> dict:
    from shufflesc import automata, reach, shuffle

    m, n = LETTERS_GRID
    letters = base_letters()
    alphabet = [reach.ExtremalLetter.from_dict(a) for a in letters]
    full = reach.bfs_reach(m, n, alphabet)
    K, L = base_pair()
    subsets = len(automata.determinize(shuffle.build_shuffle_nfa(K, L).nfa)[1])
    by_reach = reach.bfs_reach(K.state_count, L.state_count, pair_letters(K, L))
    if subsets != by_reach.reached:
        raise SystemExit(
            f"determinize found {subsets} subsets, reach {by_reach.reached}"
        )
    return {
        "letters": {
            "m": m, "n": n, "seed": LETTERS_SEED, "letters": letters,
            "reached": full.reached, "generations": full.generations,
        },
        "pair": {
            "m": K.state_count, "n": L.state_count, "seed": PAIR_SEED,
            "left": automata.dfa_to_dict(K), "right": automata.dfa_to_dict(L),
            "subsets": subsets, "kappa": shuffle.shuffle_state_complexity(K, L),
        },
    }


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    DATA.mkdir(exist_ok=True)
    write_json(POOL_FILE, build_pool())
    write_json(WITNESS_FILE, greedy_letters())
    print(f"wrote {POOL_FILE} and {WITNESS_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reachability in the extremal subset automaton.

The extremal automaton over the m x n grid carries one input letter for
every pair of transformations (s, t) from T_m x T_n; a subset S steps to
{(s(p), q)} union {(p, t(q))} over its members. This module explores that
automaton exhaustively (BFS over a dense visited bitmap, with checkpoints).
Over a letter list each block of frontier subsets steps on every letter at
once and is filtered against that bitmap, and a generation's blocks are
shared among one thread per available CPU; the new generation comes back
as ascending uint32, the same for any thread count. Over the full
alphabet every generation is a union of orbits under the permutations of
rows 2..m and columns 2..n, so BFS steps one subset per orbit and marks the
whole orbit visited (_orbit_generation). A subset's successors over the full
alphabet are its row parts OR its column parts, and _line_parts finds the
distinct parts of a chunk of subsets with one sort of integer keys per line,
so no letter is enumerated. The module also replays the inductive reduction
arguments that substitute for BFS where exhaustive search is out of reach:

  * containment reduction: a row/column containing another strips the
    duplicated entries and restores them with a one-point map;
  * single-element reduction: a cell alone in its row and column drops to
    the (m-1) x (n-1) sub-instance, re-anchored by a transposition pair;
  * permutation reduction: columns forming full orbit classes under a row
    permutation phi pull back through the letter (phi; psi);
  * the Sperner limit C(m, floor(m/2)) forcing containment whenever a grid
    has more distinct columns than any antichain allows.

Certificates assembled from these reductions are hierarchical: per-subset
justification tables where the grid is small enough to enumerate, and
instance- or column-family-level rules above that.

Subsets are integer encodings, and the line rules (empty line, containment,
single element) run on uint64 arrays of them: a table is built from one
array pass per batch of subsets, and only the subsets no line rule covers
go through the permutation search one at a time. The lemmas take an
encoding and return encodings and image tuples. A line-rule row stores only
its kind: the verifier reads the same array pass, requires each row to name
the rule it finds, and replays every kind in batch. Both sides read one
such pass per instance (_instance_rules) and one column-family scan
(_family_scan), kept from certify until verify_certificate returns.
Neither side builds a ProductSubset or a letter object; extremal_step is
the step on those.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, islice, permutations, product
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .automata import ARRAY_BLOCK, Transformation, _block_step, _step_tables, int_in
from .shuffle import (
    ENUM_GUARD_CELLS,
    GridSizeError,
    ProductSubset,
    bound_f,
    cell_successors,
    col1_mask,
    row1_mask,
    valid_encodings,
)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, inconsistent, or corrupted."""


class CertificationGapError(RuntimeError):
    """Certification could not justify some subsets; `gaps` lists them."""

    def __init__(self, gaps: list[str]):
        super().__init__(
            "certification gaps:\n" + "\n".join(f"  - {g}" for g in gaps[:20])
            + ("" if len(gaps) <= 20 else f"\n  ... and {len(gaps) - 20} more")
        )
        self.gaps = gaps


# -- extremal letters --------------------------------------------------------


@dataclass(frozen=True)
class ExtremalLetter:
    """A letter of the extremal alphabet: s acts on rows, t on columns."""

    s: Transformation
    t: Transformation

    def to_dict(self) -> dict:
        return {"s": list(self.s.images), "t": list(self.t.images)}

    @classmethod
    def from_dict(cls, obj: dict, where: str = "letter") -> "ExtremalLetter":
        """The one reader of a JSON letter: exactly the keys s and t, each a
        list of images that makes a Transformation; ValueError, prefixed by
        where, names the first field that is not."""
        maps = []
        for key, images in zip("st", _fields(obj, where, s=list, t=list)):
            try:
                maps.append(Transformation(tuple(images)))
            except ValueError as e:
                raise ValueError(f"{where}: field {key!r}: {e}") from None
        return cls(*maps)


def load_letters(path) -> list[ExtremalLetter]:
    """Letter list from a JSON list of letters, each read by
    ExtremalLetter.from_dict; ValueError names the file, and the line of a
    JSON syntax error or the first malformed entry."""
    with open(path, encoding="utf-8") as fh:
        try:
            arr = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(arr, list):
        raise ValueError(f"{path}: expected a JSON list of letters")
    for i, obj in enumerate(arr):
        try:
            arr[i] = ExtremalLetter.from_dict(obj)
        except ValueError as e:
            raise ValueError(f'{path}: letter {i} is not {{"s": [...], "t": [...]}}'
                             f" ({e!r})") from None
    return arr


def dump_letters(letters: Sequence[ExtremalLetter], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([a.to_dict() for a in letters], fh, indent=1)
        fh.write("\n")


def alphabet_id(alphabet) -> str:
    """'full', or a hash identifying an explicit letter list."""
    if isinstance(alphabet, str):
        if alphabet != "full":
            raise ValueError("alphabet must be 'full' or a letter list")
        return "full"
    blob = json.dumps([a.to_dict() for a in alphabet], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def extremal_step(S: ProductSubset, a: ExtremalLetter) -> ProductSubset:
    """S . a = {(s(p), q)} union {(p, t(q))} over (p, q) in S: the row part
    of S under s OR its column part under t."""
    if a.s.degree != S.m or a.t.degree != S.n:
        raise ValueError("letter degree does not match the grid")
    m, n = S.m, S.n
    return ProductSubset(
        m, n, _row_map(S.bits, a.s.images, m, n) | _col_map(S.bits, a.t.images, m, n)
    )


# -- the step kernel ---------------------------------------------------------
#
# Subsets are encodings: a Python int, or a uint64 or intp array of them
# (intp where they index a bitmap, always below 2^24). Masks and shifts are
# Python ints, which keep an array's dtype under numpy 2's promotion rules
# (NEP 50), so the same code steps one subset or many. An image may also be
# a uint64 array, one image per encoding, so the same code steps many
# subsets each by its own letter.


def _row_map(enc, images: Sequence, m: int, n: int):
    """Row part of the step: row p of enc moves onto row images[p-1]."""
    rowmask = (1 << n) - 1
    out = enc & 0
    for p in range(m):
        out |= ((enc >> p * n) & rowmask) << (images[p] - 1) * n
    return out


def _col_map(enc, images: Sequence, m: int, n: int):
    """Column part of the step: column q of enc moves onto column images[q-1]."""
    colmask = col1_mask(m, n)
    out = enc & 0
    for q in range(n):
        out |= (enc >> q & colmask) << images[q] - 1
    return out


#: keys one _line_parts chunk may hold: a chunk has as many encodings as
#: fit when each takes the most keys it can, min(k^k, 2^(m*n)) parts times
#: k images of one line, for k = max(m, n)
LINE_KEYS = 1 << 16


def _line_parts(x: np.ndarray, m: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each encoding in x (an intp array), in order: its distinct row
    parts R over all s in T_m and its distinct column parts C over all t in
    T_n, each ascending. Every successor of x[i] over the full alphabet is
    R[a] | C[b] for some a, b.

    A chunk of encodings is mapped at once, as keys i << m*n | part for
    its i-th encoding: each occupied line of each encoding moves onto all k
    of its images, and one in-place sort of the keys merges duplicates
    after every line, so an encoding with j occupied rows costs at most m^j
    row parts, not m^m."""
    cells = m * n
    k = max(m, n)
    size = max(1, LINE_KEYS // (min(k ** k, 1 << cells) * k))
    for lo in range(0, x.size, size):
        chunk = x[lo:lo + size]
        owners = np.arange(chunk.size + 1) << cells
        parts = []
        for stride, lines in zip((n, 1), _lines(chunk, m, n)):
            shifts = np.arange(len(lines)) * stride
            keys = owners[:-1]
            for line in lines:
                line = line[keys >> cells]
                hit = line != 0
                grown = (keys[hit, None] | line[hit, None] << shifts).ravel()
                keys = np.concatenate((keys[~hit], grown))
                keys.sort()
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            parts.append((keys & (1 << cells) - 1, np.searchsorted(keys, owners)))
        (R, r), (C, c) = parts
        for i in range(chunk.size):
            yield R[r[i]:r[i + 1]], C[c[i]:c[i + 1]]


def _lines(x, m: int, n: int) -> tuple[list, list]:
    """Rows and columns of x (an encoding or an array of them) as masks:
    rows[p-1] holds column q at bit q-1, and cols[q-1] holds row p at bit
    (p-1)*n, as col1_mask does."""
    rowmask = (1 << n) - 1
    colmask = col1_mask(m, n)
    return [x >> p * n & rowmask for p in range(m)], [x >> q & colmask for q in range(n)]


CHUNK_BITS = 12


class _LetterStep:
    """A letter list as _successor_bitmap steps it: the intp chunk tables of
    automata._step_tables over its cell_successors, and the visited bitmap
    to filter against and mark. len() counts the letters. The threads of one
    generation read the tables and filter against and mark the one bitmap."""

    def __init__(self, alphabet: Sequence[ExtremalLetter], m: int, n: int, visited: np.ndarray):
        succ = cell_successors([(a.s.images, a.t.images) for a in alphabet], m, n)
        self.tables = _step_tables(succ, m * n, CHUNK_BITS).astype(np.intp)
        self.visited = visited

    def __len__(self) -> int:
        return self.tables.shape[-1]

    def share(self, frontier: np.ndarray, rows: int) -> list[np.ndarray]:
        """The new successors of one share of a frontier, as uint32 arrays
        (half of intp's bytes; visited has < 2^32 entries): each block of
        rows steps on all letters through automata._block_step, and its
        successors not yet visited are marked at once."""
        new = []
        for lo in range(0, frontier.size, rows):
            succ = _block_step(self.tables, frontier[lo:lo + rows].astype(np.intp), CHUNK_BITS)
            succ = succ[~self.visited[succ]]
            self.visited[succ] = True
            new.append(succ.astype(np.uint32))
        return new


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _successor_bitmap(frontier: np.ndarray, m: int, n: int, alphabet) -> np.ndarray:
    """One BFS step of the frontier. Over the full alphabet ("full"): a
    dense bool bitmap of all successors, into which each state's R | C
    products from _line_parts are scattered. Over a letter list (a
    _LetterStep): the new generation, uint32 and ascending, marked in the
    step's visited bitmap.

    The frontier is cut into k contiguous shares of whole blocks of
    ARRAY_BLOCK // letters rows, k the smaller of the available CPUs and the
    block count, and each share runs _LetterStep.share on its own thread
    (the first on the calling thread, so one CPU starts none); numpy's
    gathers and masks release the GIL. The race between the threads is
    benign: two of them may both find a successor unvisited and keep it,
    as may two rows of one block, but a thread marks only what it keeps, so
    every successor new to the generation is kept at least once. So one
    sort of all survivors with an adjacent-difference mask gives the same
    array for any k. A worker's
    exception is raised here, after every thread has ended. On 2 CPUs the
    second thread added about 0.5 MB to the peak RSS of a whole 32-letter
    4x6 run (only 2 CPUs were measured)."""
    if isinstance(alphabet, str):  # full alphabet
        out = np.zeros(1 << (m * n), dtype=bool)
        for R, C in _line_parts(frontier.astype(np.intp), m, n):
            out[R[:, None] | C[None, :]] = True
        return out
    rows = max(1, ARRAY_BLOCK // max(len(alphabet), 1))
    blocks = -(-frontier.size // rows)
    k = min(_available_cpus(), blocks)
    cuts = [i * blocks // k * rows for i in range(k)] + [frontier.size]
    parts: list = [None] * k

    def run(i: int) -> None:
        try:
            parts[i] = alphabet.share(frontier[cuts[i]:cuts[i + 1]], rows)
        except BaseException as e:  # raised in the caller
            parts[i] = e

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    for thread in threads:
        thread.start()
    try:
        if k:
            run(0)
    finally:
        for thread in threads:
            thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    new = np.concatenate([np.empty(0, dtype=np.uint32)] + [a for part in parts for a in part])
    parts.clear()  # frees the blocks before the sort
    new.sort()
    keep = np.ones(new.size, dtype=bool)
    np.not_equal(new[1:], new[:-1], out=keep[1:])
    return new[keep]


# -- orbits under row and column permutations that fix 1 ----------------------
#
# G = S_{m-1} x S_{n-1} acts on subsets by g.S = {(sigma(p), tau(q))}, where
# sigma permutes rows 2..m and tau columns 2..n; g.S is _col_map(_row_map(S,
# sigma), tau). Full-alphabet BFS expands one subset per orbit of G.

KEY_BATCH = 4096


def _orbit_keys(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """A key for each encoding in x that is constant on its G-orbit and is
    itself a member of that orbit.

    For each permutation of the smaller factor's lines 2..k, the other
    factor's lines 2..k are sorted by mask value, which makes the result
    the same for every element of the other factor; the key is the least
    result. Two subsets in one orbit differ by some (sigma, tau), and the
    minimum over the smaller factor absorbs its part, so they get the same
    key; a key is g.S for some g, so subsets of two orbits never share one."""
    rows_first = m <= n
    shift = 1 if rows_first else n  # from one sorted line to the next
    key = None
    for perm in permutations(range(2, min(m, n) + 1)):
        images = (1, *perm)
        if rows_first:
            _, lines = _lines(_row_map(x, images, m, n), m, n)
        else:
            lines, _ = _lines(_col_map(x, images, m, n), m, n)
        rest = lines[1:]
        # an insertion sorting network of minimum and xor: on 4,096 keys it
        # took 0.79 ms at 4x4 (1.05 ms at 4x5) against 2.10 ms (2.18 ms) for
        # np.sort(axis=0) over the stacked lines
        for i in range(1, len(rest)):
            for j in range(i, 0, -1):
                low = np.minimum(rest[j - 1], rest[j])
                rest[j - 1], rest[j] = low, rest[j - 1] ^ rest[j] ^ low
        y = lines[0]
        for i, line in enumerate(rest, 1):
            y = y | line << i * shift
        key = y if key is None else np.minimum(key, y)
    return key


def _orbit_representatives(x: np.ndarray, bitmap: np.ndarray, m: int, n: int) -> np.ndarray:
    """The distinct orbit keys of x, ascending. bitmap must be all False; on
    return it holds exactly those keys."""
    for start in range(0, x.size, KEY_BATCH):
        bitmap[_orbit_keys(x[start:start + KEY_BATCH], m, n)] = True
    return np.flatnonzero(bitmap)


def _orbit_generators(m: int, n: int) -> list[tuple]:
    """(map, images) pairs for the swap (2 3) and the cycle (2 3 ... k) of
    rows and of columns, which generate G; a factor of order 1 or 2 needs
    fewer."""
    gens = []
    for step, k in ((_row_map, m), (_col_map, n)):
        if k >= 3:
            swap, cycle = (1, 3, 2, *range(4, k + 1)), (1, *range(3, k + 1), 2)
            gens += [(step, images) for images in dict.fromkeys([swap, cycle])]
    return gens


def _mark_orbits(reps: np.ndarray, bitmap: np.ndarray, m: int, n: int) -> None:
    """Mark the whole G-orbit of each of reps in bitmap, which holds reps
    already, by closure under _orbit_generators. Each generator is a
    bijection and its images are filtered against the bitmap before the
    next one runs, so no encoding enters the frontier twice."""
    gens = _orbit_generators(m, n)
    frontier = reps
    while frontier.size and gens:
        found = []
        for step, images in gens:
            img = step(frontier, images, m, n)
            img = img[~bitmap[img]]
            bitmap[img] = True
            found.append(img)
        frontier = np.concatenate(found)


def _orbit_generation(reps: np.ndarray, visited: np.ndarray, m: int, n: int):
    """One full-alphabet BFS generation from the orbit representatives of
    the last one: mark the new generation in visited, and return its
    representatives and the whole generation, both ascending.

    Each generation is a union of G-orbits, so stepping one subset per
    orbit is enough. For g in G and a letter a = (s, t), write g a g^-1
    for (sigma s sigma^-1, tau t tau^-1), again a letter. Then g.(S.a) =
    (g.S).(g a g^-1): both sides are {(sigma s(p), tau q)} union {(sigma p,
    tau t(q))} over (p, q) in S. Conjugation by g permutes the full
    alphabet, and g fixes {(1,1)}, so by induction g maps the subsets at
    distance d from {(1,1)} onto themselves for every d. Hence the new
    generation is the union of the orbits of the representatives' new
    successors, and visited, a union of generations, is a union of orbits.
    """
    succ = _successor_bitmap(reps, m, n, "full")
    np.greater(succ, visited, out=succ)  # succ & ~visited, in place
    new = np.flatnonzero(succ)
    succ[new] = False
    reps = _orbit_representatives(new, succ, m, n)
    _mark_orbits(reps, succ, m, n)
    visited |= succ
    return reps, np.flatnonzero(succ)


# -- reach report ------------------------------------------------------------


@dataclass(frozen=True)
class ReachReport:
    """Outcome of a reachability exploration: what BFS measured, from which
    bound, complete, alphabet_id and lineage follow. Equality ignores
    elapsed_seconds, so a resumed run compares equal to an uninterrupted one."""

    m: int
    n: int
    alphabet: object  # "full" or a tuple of ExtremalLetter
    reached: int
    unreached_sample: tuple[int, ...]
    generations: int
    elapsed_seconds: float = field(compare=False)

    #: the fields of a report document in the order to_dict writes them, and their types
    FIELDS = {"m": int, "n": int, "alphabet": object, "alphabet_id": str, "bound": int,
              "reached": int, "complete": bool, "unreached_sample": list, "lineage": str,
              "generations": int, "elapsed_seconds": object}

    @property
    def bound(self) -> int:
        return bound_f(self.m, self.n)

    @property
    def complete(self) -> bool:
        return self.reached == self.bound

    @property
    def alphabet_id(self) -> str:
        return alphabet_id(self.alphabet)

    @property
    def lineage(self) -> str:
        return hashlib.sha256(f"{self.m}:{self.n}:{self.alphabet_id}".encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        obj = {key: getattr(self, key) for key in self.FIELDS}
        if not isinstance(self.alphabet, str):
            obj["alphabet"] = [a.to_dict() for a in self.alphabet]
        obj["unreached_sample"] = list(self.unreached_sample)
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "ReachReport":
        """ValueError names the first field that is missing, unknown,
        mistyped or out of range, or does not follow from the others."""
        m, n, alphabet, _, _, reached, _, sample, _, generations, elapsed = _fields(
            obj, "reach report", **cls.FIELDS)
        if not (m >= 1 and n >= 1 and m * n <= ENUM_GUARD_CELLS):
            raise ValueError(f"reach report: fields 'm', 'n' give {m}x{n}, not a grid "
                             f"of 1 to {ENUM_GUARD_CELLS} cells")
        for key in ("reached", "generations", "elapsed_seconds"):
            if type(obj[key]) not in (int, float) or obj[key] < 0:
                raise ValueError(f"reach report: field {key!r} is {obj[key]!r}, not a number >= 0")
        if len(sample) > 32 or not all(int_in(x, 0, (1 << m * n) - 1) for x in sample):
            raise ValueError("reach report: field 'unreached_sample' is not at most 32 subsets")
        if isinstance(alphabet, list):
            alphabet = tuple(ExtremalLetter.from_dict(a, f"reach report: alphabet[{i}]")
                             for i, a in enumerate(alphabet))
            if any((a.s.degree, a.t.degree) != (m, n) for a in alphabet):
                raise ValueError(f"reach report: field 'alphabet' holds a letter not of "
                                 f"degrees ({m}, {n})")
        elif alphabet != "full":
            raise ValueError("reach report: field 'alphabet' is neither 'full' nor a list")
        report = cls(m, n, alphabet, reached, tuple(sample), generations, elapsed)
        for key, value in report.to_dict().items():  # only derived values can differ
            if obj[key] != value:
                raise ValueError(f"reach report: field {key!r} is {obj[key]!r}, but the "
                                 f"other fields give {value!r}")
        return report


# -- checkpoints -------------------------------------------------------------


def _checkpoint_name(generation: int) -> str:
    return f"gen-{generation:06d}.ckpt"


#: The frontier body: raw little-endian uint64 entries, 8 bytes each, in
#: ascending order. A header without this value is refused.
FRONTIER_ENCODING = "u64le"


def write_checkpoint(
    directory, m: int, n: int, aid: str, generation: int,
    visited: np.ndarray, frontier: np.ndarray,
) -> None:
    """Write gen-<generation>.ckpt and point LATEST at it: a JSON header
    line, the visited bitmap packed little-endian, a newline, then the
    frontier as FRONTIER_ENCODING bytes. A frontier that read_checkpoint
    would refuse raises ValueError before anything is written."""
    if np.any(frontier[1:] <= frontier[:-1]):  # BFS frontiers are already strictly ascending
        frontier = np.sort(frontier)
        if np.any(frontier[1:] == frontier[:-1]):
            raise ValueError("frontier repeats an entry; no checkpoint written")
    if frontier.size and frontier[-1] >= (1 << m * n):
        raise ValueError(f"frontier entry outside 0..2^{m * n}-1; no checkpoint written")
    if not visited[frontier].all():
        raise ValueError("frontier entry missing from the visited bitmap; no checkpoint written")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bitmap = np.packbits(visited, bitorder="little")  # hashed and written uncopied
    words = bitmap.view(np.uint64) if bitmap.size % 8 == 0 else bitmap
    body = np.ascontiguousarray(frontier, dtype="<u8")
    header = {
        "m": m,
        "n": n,
        "alphabet_id": aid,
        "generation": generation,
        "visited_count": int(np.bitwise_count(words).sum()),
        "frontier_len": int(frontier.size),
        "frontier_encoding": FRONTIER_ENCODING,
        "bitmap_sha256": hashlib.sha256(bitmap).hexdigest(),
        "frontier_sha256": hashlib.sha256(body).hexdigest(),
    }
    name = _checkpoint_name(generation)
    _write_atomically(directory / name, [
        json.dumps(header, sort_keys=True).encode() + b"\n", bitmap, b"\n", body,
    ])
    _write_atomically(directory / "LATEST", [(name + "\n").encode()])


def _write_atomically(path: Path, parts: list) -> None:
    """Write through a temp file in the same directory, then rename it over
    path, so a crash leaves either the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.writelines(parts)
    os.replace(tmp, path)


def read_checkpoint(directory, m: int, n: int, aid: str):
    """Load the checkpoint LATEST names; refuse on any header/hash
    inconsistency, and a LATEST that is not gen-<g>.ckpt in directory or
    names a file whose header generation is not g. The header is read by
    _fields: exactly write_checkpoint's keys, each of its type, an int
    field refusing a bool."""
    directory = Path(directory)
    pointer = directory / "LATEST"
    if not pointer.exists():
        raise CheckpointError(f"no LATEST pointer in {directory}")
    name = pointer.read_text().strip()
    digits = re.fullmatch(r"gen-([0-9]+)\.ckpt", name)
    if digits is None or name != _checkpoint_name(int(digits[1])):
        raise CheckpointError(f"LATEST names {name!r}, not a gen-NNNNNN.ckpt file in {directory}")
    path = directory / name
    if not path.exists():
        raise CheckpointError(f"missing checkpoint file {path}")
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(raw[:nl])
    except json.JSONDecodeError as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("frontier_encoding") != FRONTIER_ENCODING:
        raise CheckpointError(
            f"checkpoint frontier_encoding={header.get('frontier_encoding')!r}, "
            f"not {FRONTIER_ENCODING!r}: written by an older shufflesc; start a new run"
        )
    try:
        _, _, _, generation, visited_count, frontier_len, _, bitmap_sha256, frontier_sha256 = (
            _fields(header, "checkpoint header", m=int, n=int, alphabet_id=str,
                    generation=int, visited_count=int, frontier_len=int,
                    frontier_encoding=str, bitmap_sha256=str, frontier_sha256=str))
    except ValueError as e:
        raise CheckpointError(str(e)) from None
    if generation < 0:
        raise CheckpointError(f"checkpoint generation {generation!r}: not an int >= 0")
    if generation != int(digits[1]):
        raise CheckpointError(f"{name} holds checkpoint generation {generation}")
    for key, val in (("m", m), ("n", n), ("alphabet_id", aid)):
        if header[key] != val:
            raise CheckpointError(
                f"checkpoint {key}={header[key]!r} does not match run {key}={val!r}"
            )
    total = 1 << (m * n)
    nbytes = (total + 7) // 8
    bitmap = raw[nl + 1:nl + 1 + nbytes]
    if len(bitmap) != nbytes or raw[nl + 1 + nbytes:nl + 2 + nbytes] != b"\n":
        raise CheckpointError("truncated visited bitmap")
    if hashlib.sha256(bitmap).hexdigest() != bitmap_sha256:
        raise CheckpointError("visited bitmap hash mismatch; refusing to resume")
    visited = np.unpackbits(
        np.frombuffer(bitmap, dtype=np.uint8), bitorder="little"
    )[:total].view(bool)
    body = raw[nl + 2 + nbytes:]
    if len(body) % 8:
        raise CheckpointError(
            f"frontier body of {len(body)} bytes is not a whole number of 8-byte entries"
        )
    frontier = np.frombuffer(body, dtype="<u8").astype(np.uint64, copy=False)
    if frontier.size != frontier_len:
        raise CheckpointError("frontier length does not match header")
    if np.count_nonzero(visited) != visited_count:
        raise CheckpointError("visited count does not match header")
    if frontier.size and frontier.max() >= total:
        raise CheckpointError(f"frontier entry outside 0..2^{m * n}-1")
    if hashlib.sha256(body).hexdigest() != frontier_sha256:
        raise CheckpointError("frontier hash mismatch; refusing to resume")
    if np.any(frontier[1:] <= frontier[:-1]):
        raise CheckpointError("frontier entries are not strictly ascending")
    if not visited[frontier].all():
        raise CheckpointError("frontier entry missing from the visited bitmap")
    return generation, visited, frontier


# -- BFS ---------------------------------------------------------------------


def bfs_reach(
    m: int,
    n: int,
    alphabet="full",
    *,
    checkpoint_dir=None,
    resume: bool = False,
    max_generations: int | None = None,
) -> ReachReport:
    """Fixpoint of extremal_step from {(1,1)}; counts reached subsets.

    Each generation is one _successor_bitmap call on this thread; over a
    letter list that call steps the frontier's shares on one thread per
    available CPU and returns the new generation as ascending uint32, which
    is the next frontier as it is. Checkpoints are written once per
    completed generation when checkpoint_dir is given. A letter list whose
    s or t does not have degree m or n, or a negative max_generations,
    raises ValueError.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if max_generations is not None and max_generations < 0:
        raise ValueError(f"max_generations must be >= 0, not {max_generations}")
    if m * n > ENUM_GUARD_CELLS:
        raise GridSizeError(
            f"visited bitmap for {m}x{n} needs 2^{m * n} bits, beyond the "
            f"{ENUM_GUARD_CELLS}-cell guard"
        )
    aid = alphabet_id(alphabet)
    for i, a in enumerate([] if isinstance(alphabet, str) else alphabet):
        if (a.s.degree, a.t.degree) != (m, n):
            raise ValueError(f"letter {i} {a.to_dict()} has degrees "
                             f"({a.s.degree}, {a.t.degree}), not ({m}, {n})")
    start_time = time.monotonic()
    total = 1 << (m * n)
    if resume:
        if checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint directory")
        generation, visited, frontier = read_checkpoint(checkpoint_dir, m, n, aid)
    else:
        generation = 0
        visited = np.zeros(total, dtype=bool)
        init = 1  # encoding of {(1,1)}
        visited[init] = True
        frontier = np.array([init], dtype=np.uint64)
        if checkpoint_dir is not None:
            write_checkpoint(checkpoint_dir, m, n, aid, 0, visited, frontier)

    full = isinstance(alphabet, str)
    if full:
        reps = _orbit_representatives(frontier, np.zeros(total, dtype=bool), m, n)
    else:
        letters = _LetterStep(alphabet, m, n, visited)
    steps = 0
    while frontier.size and (max_generations is None or steps < max_generations):
        if full:
            reps, frontier = _orbit_generation(reps, visited, m, n)
        else:
            frontier = _successor_bitmap(frontier, m, n, letters)
        generation += 1
        steps += 1
        if checkpoint_dir is not None:
            write_checkpoint(checkpoint_dir, m, n, aid, generation, visited, frontier)

    unreached: list[int] = []
    for chunk in valid_encodings(m, n):
        unreached += chunk[~visited[chunk]][:32 - len(unreached)].tolist()
        if len(unreached) == 32:
            break
    return ReachReport(m, n, alphabet if full else tuple(alphabet),
                       int(np.count_nonzero(visited)), tuple(unreached), generation,
                       time.monotonic() - start_time)


# -- reductions --------------------------------------------------------------
#
# The line rules (INITIAL, SHRINK, CONTAINMENT, SINGLE_ELEMENT) are tried on
# an array of encodings at once: each rule is a loop over lines or line
# pairs with one array operation per pair, so a subset table costs the same
# Python work as one subset. reduce_containment and reduce_single_element
# are that function applied to one encoding. Every lemma takes and returns
# encodings and image tuples, and steps with _row_map | _col_map.

#: the line rules, in the order _first_rule tries them; rule code k names
#: _RULES[k - 1], and code 0 means no rule applies
_RULES = ("INITIAL", "SHRINK", "CONTAINMENT", "SINGLE_ELEMENT")
_AXES = ("row", "column")


def _first_rule(enc: np.ndarray, m: int, n: int, rules: Sequence[str] = _RULES):
    """For each encoding, the first of `rules` that applies, in that order,
    and the fields of its row: arrays (rule code, axis, i, j, pred).

      * INITIAL: the encoding is {(1,1)}.
      * SHRINK: the first empty column, else the first empty row; axis
        (0 row, 1 column) and i = its index.
      * CONTAINMENT: the first ordered row pair, then column pair, (i = inner,
        j = outer) with line i a nonempty subset of line j; pred = enc
        minus line i's entries in line j, and the letter (i -> j) on that
        axis restores enc from pred. pred is valid when enc is, so no
        validity test is needed: each removed cell has a twin in line i, so
        the other axis keeps its first line; and the first line of this axis
        empties only when j = 1 and line i equals line 1, but then the pair
        (1, i) comes earlier and applies.
      * SINGLE_ELEMENT (m, n >= 2): the first row p whose only cell (p, q) is
        also alone in column q; i = p, j = q. Without SHRINK before it, it
        also fires on grids with an empty line.
    """
    shape = enc.shape
    rule = np.zeros(shape, np.uint8)
    axis, first, second = (np.zeros(shape, np.uint8) for _ in range(3))
    pred = np.zeros_like(enc)
    open_ = np.ones(shape, bool)

    def take(code, hit, ax=0, i=0, j=0, smaller=None):
        hit &= open_
        rule[hit], axis[hit], first[hit], second[hit] = code, ax, i, j
        if smaller is not None:
            pred[hit] = smaller[hit]
        open_[hit] = False

    rows, cols = _lines(enc, m, n)
    rowmask, colmask = (1 << n) - 1, col1_mask(m, n)
    for name in rules:
        code = _RULES.index(name) + 1
        if name == "INITIAL":
            take(code, enc == 1)
        elif name == "SHRINK":
            for ax, lines in ((1, cols), (0, rows)):
                for i, line in enumerate(lines, start=1):
                    take(code, line == 0, ax, i)
        elif name == "CONTAINMENT":
            for ax, lines, stride in ((0, rows, n), (1, cols, 1)):
                for i, line in enumerate(lines, start=1):
                    for j, other in enumerate(lines, start=1):
                        if j != i:
                            smaller = enc & ~(line << (j - 1) * stride)
                            hit = (line != 0) & ((line & ~other) == 0)
                            take(code, hit, ax, i, j, smaller)
        elif m >= 2 and n >= 2:  # SINGLE_ELEMENT
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    cross = rowmask << (p - 1) * n | colmask << q - 1
                    take(code, (enc & cross) == 1 << (p - 1) * n + q - 1, 0, p, q)
    return rule, axis, first, second, pred


def _first_rule_of(enc: int, m: int, n: int, rules: Sequence[str]) -> tuple:
    """_first_rule on one encoding, for any grid size: (the name of the rule
    or None, axis, i, j, pred) as ints."""
    rule, *fields = (int(a[0]) for a in
                     _first_rule(np.array([enc], dtype=object), m, n, rules))
    return (_RULES[rule - 1] if rule else None, *fields)


def _point_images(m: int, n: int, axis: np.ndarray, inner: np.ndarray,
                  outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images (s, t) of each containment letter, as (m, N) and (n, N)
    uint64 arrays holding letter k's images in column k: the map (inner ->
    outer) on rows (axis 0) or columns (axis 1), the identity on the other
    axis."""
    return tuple(np.where((axis == ax) & (lines == inner), outer, lines).astype(np.uint64)
                 for ax, lines in enumerate((np.arange(1, m + 1)[:, None],
                                             np.arange(1, n + 1)[:, None])))


def _require_valid(enc: int, m: int, n: int, lemma: str) -> None:
    """ValueError unless enc encodes a valid subset of the m x n grid: a cell
    in row 1 and one in column 1."""
    if not (int_in(enc, 0, (1 << m * n) - 1) and enc & row1_mask(m, n) and enc & col1_mask(m, n)):
        raise ValueError(f"{lemma} reduction expects a valid subset of the {m}x{n} grid")


def reduce_containment(enc: int, m: int, n: int) -> tuple[str, int, int, int] | None:
    """(axis, inner, outer, pred) for the first ordered row pair, then
    column pair, of the valid subset enc of the m x n grid whose line inner
    is contained in line outer, or None. pred, enc without line inner's
    entries in line outer, is valid (see _first_rule), and the letter
    (inner -> outer) on that axis, the identity on the other, restores enc."""
    _require_valid(enc, m, n, "containment")
    rule, axis, inner, outer, pred = _first_rule_of(enc, m, n, ("CONTAINMENT",))
    return (_AXES[axis], inner, outer, pred) if rule else None


def _drop_lines(enc, m: int, n: int, p: int, q: int):
    """Delete row p and column q of an encoding or an array of them (0
    deletes none of that axis); the rows and columns above them slide down
    by one, so the result encodes a subset of the smaller grid."""
    width = n - (q > 0)
    rows, _ = _lines(enc, m, n)
    if p:
        del rows[p - 1]
    out = enc & 0
    for i, row in enumerate(rows):
        if q:  # keep columns below q, move those above it down by one
            row = row & (1 << q - 1) - 1 | row >> q << q - 1
        out |= row << i * width
    return out


def _single_element_anchor(m: int, n: int, p: int, q: int) -> tuple[tuple, tuple, int, int]:
    """(s, t, k, anchor) of the single-element lemma's case for the cell
    (p, q), m, n >= 2: the images of the letter a = ((1 p'), (1 q')), where
    p' is p, or 2 if p = 1, and q' likewise, and the encoding that a^k sends
    {(1,1)} to. The anchor is {(1,1), (p',q')} with k = 2 when p and q are
    both 1 or both not 1, else {(p',1), (1,q')} with k = 1. The proof states
    a^2 for all four cases, but when exactly one of p, q is 1 a single
    application gives the anchor and a^2 does not.
    """
    pp, qq = max(p, 2), max(q, 2)
    s = (pp, *range(2, pp), 1, *range(pp + 1, m + 1))  # the transposition (1 p')
    t = (qq, *range(2, qq), 1, *range(qq + 1, n + 1))
    if (p == 1) == (q == 1):
        return s, t, 2, 1 | 1 << (pp - 1) * n + qq - 1
    return s, t, 1, 1 << (pp - 1) * n | 1 << qq - 1


def reduce_single_element(enc: int, m: int, n: int) -> tuple[int, int] | None:
    """(p, q) for the first row p of the valid subset enc of the m x n grid
    whose only cell (p, q) is also alone in its column, or None when enc
    has an empty line or containment applies. enc without row p and column
    q (_drop_lines) lies in the (m-1) x (n-1) grid, and
    _single_element_anchor(m, n, p, q) re-anchors it."""
    _require_valid(enc, m, n, "single-element")
    rule, _, p, q, _ = _first_rule_of(enc, m, n, _RULES[1:])
    return (p, q) if rule == "SINGLE_ELEMENT" else None


def reduce_permutation(enc: int, m: int, n: int, phi: Sequence[int]) -> tuple[int, tuple] | None:
    """Pull the valid subset enc of the m x n grid back through the letter
    (phi; psi) when its columns form full orbit classes under the row
    permutation phi, given as its images; returns (pred, psi images).

    Standing assumptions of the underlying lemma: columns pairwise distinct
    and nonempty, first row with at least two elements.

    Why pred = phi^-1(S without column k) works, k being the first column
    after column 1 that phi moves: phi permutes the columns of S, so psi,
    sending column j to the column of S equal to phi^-1(column j), is a
    permutation. Under (phi; psi) the row part of pred is phi(pred) = S
    without column k, and the column part moves each column of pred onto
    an equal column of S, so it stays inside S; column k comes back from
    the column j of S equal to phi(column k), and j != k as phi moves
    column k. So pred . (phi; psi) = S, with |column k| fewer members.

    Returns None when the class structure fails, pred is invalid, or the
    edge does not replay; never returns a non-replayable pair.
    """
    _require_valid(enc, m, n, "permutation")
    if sorted(phi) != list(range(1, m + 1)):
        raise ValueError("phi must be a permutation of the rows")
    rows, cols = _lines(enc, m, n)
    col_of = {c: q for q, c in enumerate(cols, start=1)}
    if 0 in col_of or len(col_of) != n or rows[0].bit_count() < 2:
        return None
    images = [_row_map(c, phi, m, n) for c in cols]
    if any(U not in col_of for U in images):
        return None
    moved = [q for q in range(2, n + 1) if images[q - 1] != cols[q - 1]]
    if not moved:
        return None  # every class is fixed (column 1 alone cannot move)
    k = moved[0]
    inverse = sorted(range(1, m + 1), key=lambda p: phi[p - 1])  # phi(p) -> p
    psi = tuple(col_of[_row_map(c, inverse, m, n)] for c in cols)
    pred = _row_map(enc & ~(cols[k - 1] << k - 1), inverse, m, n)
    if (not pred & row1_mask(m, n) or not pred & col1_mask(m, n)
            or _row_map(pred, phi, m, n) | _col_map(pred, psi, m, n) != enc
            or pred.bit_count() >= enc.bit_count()):
        return None
    return pred, psi


def _first_reductions(encs: Sequence[int], mi: int, ni: int) -> tuple[tuple, list] | None:
    """The first row permutation phi, in permutations order, under which
    reduce_permutation reduces every one of the valid subsets encs of
    (mi, ni), with its (pred, psi) for each of them, or None if none
    does."""
    for phi in permutations(range(1, mi + 1)):
        found = []
        for enc in encs:
            reduction = reduce_permutation(enc, mi, ni, phi)
            if reduction is None:
                break
            found.append(reduction)
        else:
            return phi, found
    return None


def sperner_limit(m: int) -> int:
    """Largest antichain of subsets of an m-set: C(m, floor(m/2))."""
    if m < 1:
        raise ValueError("m must be positive")
    return math.comb(m, m // 2)


# -- certification -----------------------------------------------------------

STRATEGY_EXHAUSTIVE = "EXHAUSTIVE"
STRATEGY_SPERNER = "SPERNER"
STRATEGY_FAMILY = "FAMILY"

#: instances with at most this many grid cells get per-subset tables
DEFAULT_EXHAUSTIVE_CELLS = 16

#: subsets per batch when a table is built or replayed: large enough that
#: array operations dominate, small enough that the per-row lists a batch
#: holds stay well under the size of the table
TABLE_BATCH = 4096

#: the fields of each justification row kind; a row holds exactly these. A
#: line-rule row holds only its kind: the verifier derives its claim
ROW_FIELDS = {
    **dict.fromkeys(_RULES, frozenset({"kind"})),
    "PERMUTATION": frozenset({"kind", "pred", "letter"}),
}


def _fields(obj, where: str, **kinds: type) -> list:
    """The values of the named fields of obj, each of its given type (an
    int field refuses a bool); ValueError names the first field that is
    missing or mistyped, then the first that is not named."""
    for key, kind in kinds.items():
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
        if not isinstance(obj[key], kind) or kind is int and isinstance(obj[key], bool):
            raise ValueError(f"{where}: field {key!r} is not a {kind.__name__}")
    for key in obj:
        if key not in kinds:
            raise ValueError(f"{where}: unknown field {key!r}")
    return [obj[key] for key in kinds]


@dataclass
class InstanceEntry:
    m: int
    n: int
    strategy: str
    data: dict

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "strategy": self.strategy, "data": self.data}

    @classmethod
    def from_dict(cls, obj: dict) -> "InstanceEntry":
        """ValueError names a missing, mistyped or unknown field; the
        verifier checks `data`, recording a malformed one as a failure."""
        return cls(*_fields(obj, "certificate entry", m=int, n=int, strategy=str, data=object))


@dataclass
class Certificate:
    """Reachability certificate for every instance (m', n') <= (m, n).

    Instances of at most DEFAULT_EXHAUSTIVE_CELLS cells carry a table with
    a row for every valid subset S, holding only what the verifier cannot
    derive (ROW_FIELDS). A line-rule row holds only its kind, the first
    rule _first_rule finds for S, and the verifier derives the rest:
    INITIAL (S = {(1,1)}); SHRINK (the first empty line; S without it is
    justified in a smaller instance); CONTAINMENT (the first contained
    line; pred = S without its twins, restored by a one-point letter);
    SINGLE_ELEMENT (the first cell (p, q) alone in its row and column; S
    without them is justified in the (m-1) x (n-1) instance, and the
    lemma's letter, power and anchor for (p, q) replay). A PERMUTATION row,
    where no line rule applies, stores a pred and a letter: a justified
    valid pred, smaller than S, with pred . letter = S. Larger instances
    carry Sperner or column-family rules; none is taken on trust.

    Every row points to something strictly smaller, so no chain of rows
    can cycle: CONTAINMENT and PERMUTATION lead to a predecessor in the
    same instance (derived, or stored), which the verifier refuses unless it
    has fewer members than S; SHRINK and SINGLE_ELEMENT point into an
    instance with smaller m + n.
    Chains descend on (m + n, |S|) and end at INITIAL or at an
    instance-level rule (SPERNER, FAMILY).
    """

    m: int
    n: int
    entries: list[InstanceEntry]

    def entry(self, m: int, n: int) -> InstanceEntry | None:
        for e in self.entries:
            if (e.m, e.n) == (m, n):
                return e
        return None

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "entries": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, obj: dict) -> "Certificate":
        """ValueError names a missing, mistyped or unknown field."""
        m, n, entries = _fields(obj, "certificate", m=int, n=int, entries=list)
        return cls(m, n, [InstanceEntry.from_dict(e) for e in entries])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))


class _RuleBatch(NamedTuple):
    """A batch of valid encodings of an instance, its _first_rule arrays
    and its table keys str(enc)."""

    encs: np.ndarray
    rules: tuple[np.ndarray, ...]
    keys: tuple[str, ...]


@cache
def _instance_rules(mi: int, ni: int) -> tuple[_RuleBatch, ...]:
    """A _RuleBatch for each TABLE_BATCH valid encodings of (mi, ni), in
    ascending order, every array read-only. Kept until verify_certificate
    returns, so a certify and the verification after it derive each once."""
    batches = []
    for chunk in valid_encodings(mi, ni):
        for start in range(0, chunk.size, TABLE_BATCH):
            encs = chunk[start:start + TABLE_BATCH]
            rules = _first_rule(encs, mi, ni)
            for a in (encs, *rules):
                a.setflags(write=False)
            batches.append(_RuleBatch(encs, rules, tuple(map(str, encs.tolist()))))
    return tuple(batches)


def _exhaustive_entry(mi: int, ni: int, gaps: list[str]) -> InstanceEntry:
    """A row for every valid subset: the name of the first line rule that
    applies (_first_rule), else its reduction by _first_reductions."""
    table: dict[str, dict] = {}
    for _, rules, keys in _instance_rules(mi, ni):
        for key, code in zip(keys, rules[0].tolist()):
            if code:  # each row gets a dict of its own
                table[key] = {"kind": _RULES[code - 1]}
            elif found := _first_reductions([int(key)], mi, ni):
                phi, [(pred, psi)] = found
                table[key] = {"kind": "PERMUTATION", "pred": pred,
                              "letter": {"s": list(phi), "t": list(psi)}}
            else:
                gaps.append(f"instance ({mi},{ni}): subset encoding {key} unjustified")
    return InstanceEntry(mi, ni, STRATEGY_EXHAUSTIVE, {"justifications": table})


@cache
def _family_scan(
    mi: int, ni: int
) -> tuple[int, list[tuple[tuple[frozenset[int], ...], list[int]]]]:
    """Probe every set of `ni` distinct nonempty columns covering all `mi`
    rows, once for each member put at position 1 with the others after it
    in listed order; column sets leaving a row empty are skipped, as SHRINK
    covers every arrangement of them. Each representative is valid, since
    column 1 is nonempty and some column holds row 1. A representative
    needs phi when neither containment nor the single-element reduction
    applies. Returns the number of representatives probed and, in scan
    order, each column set with a representative needing phi, together with
    those representatives' encodings. Column sets are taken TABLE_BATCH at
    a time, so memory stays bounded however many there are. The builder
    and the verifier share one scan per instance, kept until
    verify_certificate returns: no caller may change its lists."""
    rows = range(1, mi + 1)
    # the nonempty subsets of Q_mi, by size, then lexicographically
    columns = [frozenset(c) for size in rows for c in combinations(rows, size)]
    dtype = np.uint64 if mi * ni <= 64 else object  # object: Python ints
    masks = np.array([sum(1 << (i - 1) * ni for i in c) for c in columns], dtype)
    combos_left = combinations(range(len(columns)), ni)
    probed, needing = 0, []
    while batch := list(islice(combos_left, TABLE_BATCH)):
        combos = np.array(batch, np.intp)
        cols = masks[combos]
        covering = np.bitwise_or.reduce(cols, axis=1) == col1_mask(mi, ni)
        combos, cols = combos[covering], cols[covering]
        reps = np.zeros_like(cols)
        for first in range(ni):
            order = [first] + [k for k in range(ni) if k != first]
            for position, k in enumerate(order):
                reps[:, first] |= cols[:, k] << position
        needs = _first_rule(reps, mi, ni, ("CONTAINMENT", "SINGLE_ELEMENT"))[0] == 0
        probed += reps.size
        needing += [(tuple(columns[k] for k in combos[c].tolist()),
                     [int(rep) for rep in reps[c][needs[c]]])
                    for c in np.flatnonzero(needs.any(axis=1)).tolist()]
    return probed, needing


def _family_entry(mi: int, ni: int, gaps: list[str]) -> InstanceEntry:
    """Column-family rule entry for instances too large to enumerate.

    Any valid subset with an empty row or column shrinks; with duplicate,
    contained, or single-element structure it reduces by the containment or
    single-element lemmas. What is left is determined, up to arrangement,
    by a set of `ni` distinct nonempty columns covering every row; whether
    the reduction chain succeeds depends on the arrangement only through
    the member sitting at position 1, so each (column set, position-1
    member) pair is probed on a representative arrangement. Families where
    the chain bottoms out record the phi of _first_reductions on their
    representatives, which the verifier replays on each of them.
    """
    reps_checked, needing = _family_scan(mi, ni)
    families: list[dict] = []
    for combo, reps in needing:
        found = _first_reductions(reps, mi, ni)
        if found is None:
            gaps.append(
                f"instance ({mi},{ni}): column family "
                f"{sorted(sorted(c) for c in combo)} has no permutation witness"
            )
        else:
            families.append({
                "columns": sorted(sorted(c) for c in combo),
                "phi": list(found[0]),
            })
    return InstanceEntry(
        mi, ni, STRATEGY_FAMILY,
        {"families": families, "representatives_checked": reps_checked},
    )


def certify(m: int, n: int) -> Certificate:
    """Certificate that every valid subset of every instance (m', n') with
    m' <= m and n' <= n is reachable in its extremal automaton.

    Raises CertificationGapError with the unjustified subsets if the
    reduction lemmas do not suffice, and ValueError unless m, n >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    gaps: list[str] = []
    entries: list[InstanceEntry] = []
    for mi in range(1, m + 1):
        for ni in range(1, n + 1):
            if mi * ni <= DEFAULT_EXHAUSTIVE_CELLS:
                entries.append(_exhaustive_entry(mi, ni, gaps))
            elif ni > sperner_limit(mi):
                entries.append(InstanceEntry(mi, ni, STRATEGY_SPERNER, {"axis": "column"}))
            elif mi > sperner_limit(ni):
                entries.append(InstanceEntry(mi, ni, STRATEGY_SPERNER, {"axis": "row"}))
            else:
                entries.append(_family_entry(mi, ni, gaps))
    if gaps:
        raise CertificationGapError(gaps)
    return Certificate(m, n, entries)


# -- certificate verification ------------------------------------------------


def _letter_images(obj, m: int, n: int) -> tuple[tuple, tuple] | None:
    """(s, t) of a row's letter, or None unless ExtremalLetter.from_dict
    reads obj as a letter of degrees (m, n)."""
    try:
        a = ExtremalLetter.from_dict(obj)
    except ValueError:
        return None
    return (a.s.images, a.t.images) if (a.s.degree, a.t.degree) == (m, n) else None


#: stands for a valid subset that a table does not list
_ABSENT = object()


def _table(entry: InstanceEntry) -> dict | None:
    """The justification table of an EXHAUSTIVE entry, or None if it has none."""
    table = entry.data.get("justifications") if isinstance(entry.data, dict) else None
    return table if isinstance(table, dict) else None


class _Tables:
    """What each instance justifies, by its first entry: every valid subset
    for an instance-level rule, else what its table lists, as a bitmap built
    from one lookup of each valid subset in the table."""

    def __init__(self, entries: Sequence[InstanceEntry]):
        #: instance -> table of its first entry, or None if that entry
        #: covers every valid subset
        self.covered: dict[tuple[int, int], dict | None] = {}
        for entry in entries:
            if (entry.m, entry.n) not in self.covered:
                self.covered[(entry.m, entry.n)] = (
                    (_table(entry) or {}) if entry.strategy == STRATEGY_EXHAUSTIVE else None)
        self._listed: dict[tuple[int, int, int], np.ndarray] = {}

    def rows(self, table: dict, mi: int, ni: int) -> list[list]:
        """table's row of each valid subset of (mi, ni), _ABSENT where it
        lists none, one list per batch of _instance_rules, looked up by its
        keys; the listed bitmap is kept from the same lookups."""
        rows, listed = [], np.zeros(1 << mi * ni, bool)
        for encs, _, keys in _instance_rules(mi, ni):
            rows.append([table.get(key, _ABSENT) for key in keys])
            listed[encs] = [row is not _ABSENT for row in rows[-1]]
        self._listed[(id(table), mi, ni)] = listed
        return rows

    def listed(self, table: dict, mi: int, ni: int) -> np.ndarray:
        """The bool bitmap of the valid subsets of (mi, ni) that table lists."""
        key = (id(table), mi, ni)
        if key not in self._listed:
            self.rows(table, mi, ni)
        return self._listed[key]


def _record_first(bad: dict[int, str], where: str, encs: np.ndarray, checks) -> np.ndarray:
    """For each row i of a batch, record the text of the first check that
    fails at i as bad[encs[i]]; checks are (failing mask, text of i) pairs.
    Returns the mask of the rows that pass them all."""
    ok = np.ones(encs.shape, bool)
    for failing, text in checks:
        for i in np.flatnonzero(failing & ok).tolist():
            bad[int(encs[i])] = f"{where}{int(encs[i])}: {text(i)}"
        ok &= ~failing
    return ok


def _require_justified(
    tables: _Tables, mi: int, ni: int, subs: np.ndarray, where: str,
    encs: np.ndarray, bad: dict[int, str],
) -> None:
    """Record a failure for each row i whose subset subs[i] of (mi, ni) is
    not justified there."""
    if (mi, ni) not in tables.covered:
        _record_first(bad, where, encs, [
            (np.ones(encs.shape, bool), lambda i: f"refers to missing instance ({mi},{ni})")])
        return
    table = tables.covered[(mi, ni)]
    if table is None:  # SPERNER / FAMILY entries cover every valid subset
        return
    listed = tables.listed(table, mi, ni)
    _record_first(bad, where, encs, [(~listed[subs], lambda i: (
        f"referenced subset {int(subs[i])} of ({mi},{ni}) is unjustified"))])


def _require_dropped(
    tables: _Tables, mi: int, ni: int, encs: np.ndarray, P: np.ndarray, Q: np.ndarray,
    where: str, bad: dict[int, str],
) -> None:
    """Record a failure for each row i whose S without row P[i] and column
    Q[i] (0 drops none of that axis) is not justified in the smaller
    instance."""
    for p, q in sorted(set(zip(P.tolist(), Q.tolist()))):
        group = (P == p) & (Q == q)
        _require_justified(tables, mi - (p > 0), ni - (q > 0),
                           _drop_lines(encs[group], mi, ni, p, q), where, encs[group], bad)


def _replay_single(tables: _Tables, mi: int, ni: int, encs: np.ndarray, P: np.ndarray,
                   Q: np.ndarray, where: str, bad: dict[int, str]) -> None:
    """SINGLE_ELEMENT rows, each subset encs[i] with its lone cell (P[i],
    Q[i]): the lemma's anchor replays (once for each cell), and S without
    row p and column q is justified in the (mi-1) x (ni-1) instance."""
    anchored = np.zeros(encs.shape, bool)
    for p, q in set(zip(P.tolist(), Q.tolist())):
        s, t, power, anchor = _single_element_anchor(mi, ni, p, q)
        probe = 1
        for _ in range(power):
            probe = _row_map(probe, s, mi, ni) | _col_map(probe, t, mi, ni)
        anchored[(P == p) & (Q == q)] = probe == anchor
    ok = _record_first(bad, where, encs, [
        (~anchored, lambda i: "SINGLE_ELEMENT anchor does not replay")])
    _require_dropped(tables, mi, ni, encs[ok], P[ok], Q[ok], where, bad)


def _replay_edges(tables: _Tables, mi: int, ni: int, kind: str, encs: np.ndarray,
                  preds: np.ndarray, s: np.ndarray, t: np.ndarray, where: str,
                  bad: dict[int, str]) -> None:
    """Rows of one edge kind, each subset encs[i] with its pred preds[i] and
    letter (s[:, i], t[:, i]), uint64 image arrays of shapes (mi, N) and
    (ni, N): pred . (s, t) = S, stepped with each row's own images, then
    pred has fewer members than S, is valid, and is justified in the same
    instance."""
    if not encs.size:
        return
    image = _row_map(preds, s, mi, ni) | _col_map(preds, t, mi, ni)
    ok = _record_first(bad, where, encs, [
        (image != encs, lambda i: f"{kind} edge does not replay"),
        (np.bitwise_count(preds) >= np.bitwise_count(encs),
         lambda i: f"{kind} predecessor is not smaller"),
        (((preds & row1_mask(mi, ni)) == 0) | ((preds & col1_mask(mi, ni)) == 0),
         lambda i: f"{kind} predecessor is invalid"),
    ])
    _require_justified(tables, mi, ni, preds[ok], where, encs[ok], bad)


def _check_rows(mi: int, ni: int, rows: list, encs: list[int], rule: np.ndarray,
                bad: dict[int, str]) -> tuple[np.ndarray, list]:
    """The checks of each row of the valid subsets encs on its own, rows[k]
    the table's row of encs[k] (from _Tables.rows): listed,
    a known kind with exactly its fields, the kind of the first line rule
    (rule, from _first_rule) or PERMUTATION where none applies, and a
    PERMUTATION row's pred in range and letter shape. Records a failing row
    in bad; returns the mask of the line-rule rows that pass, and the
    PERMUTATION edges (enc, pred, s, t) left to replay."""
    where = f"({mi},{ni}) subset "
    derived = [None] + [{"kind": kind} for kind in _RULES]
    passed = np.zeros(len(encs), bool)
    edges = []
    for k, (enc, j, code) in enumerate(zip(encs, rows, rule.tolist())):
        if code and j == derived[code]:
            passed[k] = True
            continue
        if j is _ABSENT:
            bad[enc] = f"({mi},{ni}): valid subset {enc} has no justification"
            continue
        kind = j.get("kind") if isinstance(j, dict) else None
        fields = ROW_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            bad[enc] = f"{where}{enc}: unknown justification kind {kind!r}"
        elif j.keys() != fields:
            bad[enc] = (f"{where}{enc}: {kind} row has fields {sorted(map(str, j))}, "
                        f"not {sorted(fields)}")
        elif code:
            bad[enc] = f"{where}{enc}: {kind} row, but {_RULES[code - 1]} applies first"
        elif kind != "PERMUTATION":
            bad[enc] = f"{where}{enc}: {kind} row, but no line rule applies"
        else:  # one edge, pred . letter = S
            pred, images = j["pred"], _letter_images(j["letter"], mi, ni)
            if not int_in(pred, 0, (1 << mi * ni) - 1):
                bad[enc] = f"{where}{enc}: {kind} predecessor {pred!r} is outside the grid"
            elif images is None:
                bad[enc] = (f"{where}{enc}: {kind} letter is not a pair of transformations "
                            f"of degrees {mi} and {ni}")
            else:
                edges.append((enc, pred, *images))
    return passed, edges


def _verify_exhaustive(tables: _Tables, entry: InstanceEntry, failures: list[str]) -> None:
    """Take each batch's line rules from _instance_rules (_first_rule's
    arrays), check each row on its own against them, then replay each kind
    in batch. A row reports at most one failure, the first check it fails;
    failures are listed in ascending order of subset."""
    mi, ni = entry.m, entry.n
    table = _table(entry)
    if table is None:
        failures.append(f"({mi},{ni}): EXHAUSTIVE entry has no justifications table")
        return
    _exact_data(entry, {"justifications"}, failures)
    rows = tables.rows(table, mi, ni)
    where = f"({mi},{ni}) subset "
    bad: dict[int, str] = {}
    for (batch, (rule, axis, i, j, pred), _), looked_up in zip(_instance_rules(mi, ni), rows):
        passed, edges = _check_rows(mi, ni, looked_up, batch.tolist(), rule, bad)
        shrink, contained, single = (passed & (rule == _RULES.index(kind) + 1)
                                     for kind in ("SHRINK", "CONTAINMENT", "SINGLE_ELEMENT"))
        on_column = axis[shrink] == 1
        _require_dropped(tables, mi, ni, batch[shrink], np.where(on_column, 0, i[shrink]),
                         np.where(on_column, i[shrink], 0), where, bad)
        _replay_single(tables, mi, ni, batch[single], i[single], j[single], where, bad)
        _replay_edges(tables, mi, ni, "CONTAINMENT", batch[contained], pred[contained],
                      *_point_images(mi, ni, axis[contained], i[contained], j[contained]),
                      where, bad)
        encs, preds, s, t = zip(*edges) if edges else ((),) * 4
        _replay_edges(tables, mi, ni, "PERMUTATION", np.array(encs, np.uint64),
                      np.array(preds, np.uint64), np.array(s, np.uint64).reshape(-1, mi).T,
                      np.array(t, np.uint64).reshape(-1, ni).T, where, bad)
    failures.extend(bad[enc] for enc in sorted(bad))
    extra = len(table) - int(np.count_nonzero(tables.listed(table, mi, ni)))
    if extra:
        failures.append(f"({mi},{ni}): table keys that are not valid subsets: {extra}")


def _exact_data(entry: InstanceEntry, keys: set[str], failures: list[str]) -> bool:
    """Whether the dict entry.data holds exactly keys; records a failure if not."""
    if entry.data.keys() == keys:
        return True
    failures.append(f"({entry.m},{entry.n}): {entry.strategy} data has keys "
                    f"{sorted(map(str, entry.data))}, not {sorted(keys)}")
    return False


def _verify_family(entry: InstanceEntry, failures: list[str]) -> None:
    """Record one failure, and stop, unless the data reads {"families":
    [{"columns": [[rows]], "phi": [a permutation of 1..m]}, ...], ...}.
    Then run the scan again: representatives_checked must be the number
    it probes, and the stored phi of each column set it finds needing one
    must reduce every representative. A column set stored twice, or one
    the scan does not need, is a failure."""
    mi, ni = entry.m, entry.n
    families = entry.data.get("families") if isinstance(entry.data, dict) else None
    if not isinstance(families, list):
        failures.append(f"({mi},{ni}): FAMILY entry has no families list")
        return
    stored = {}
    for k, fam in enumerate(families):
        shaped = isinstance(fam, dict) and fam.keys() == {"columns", "phi"}
        cols, phi = (fam["columns"], fam["phi"]) if shaped else (None, None)
        if not (shaped and isinstance(cols, list)
                and all(isinstance(c, list) and all(int_in(i, 1, mi) for i in c)
                        for c in cols)
                and isinstance(phi, list) and len(phi) == mi
                and all(int_in(i, 1, mi) for i in phi) and len(set(phi)) == mi):
            failures.append(f"({mi},{ni}): family {k} is not {{'columns': [[rows]], "
                            f"'phi': [a permutation of 1..{mi}]}}")
            return
        stored[frozenset(frozenset(c) for c in cols)] = tuple(phi)
    if len(stored) < len(families):
        failures.append(f"({mi},{ni}): families that repeat an earlier column set: "
                        f"{len(families) - len(stored)}")
    probed, needing = _family_scan(mi, ni)
    if _exact_data(entry, {"families", "representatives_checked"}, failures):
        checked = entry.data["representatives_checked"]
        if type(checked) is not int or checked != probed:  # bool is refused too
            failures.append(f"({mi},{ni}): representatives_checked is {checked!r}, "
                            f"but the scan probes {probed}")
    for combo, reps in needing:
        phi = stored.pop(frozenset(combo), None)
        if phi is None:
            failures.append(f"({mi},{ni}): family {sorted(sorted(c) for c in combo)} "
                            f"needs a permutation witness but none is stored")
            continue
        failures.extend(f"({mi},{ni}): stored phi does not reduce representative {rep}"
                        for rep in reps if reduce_permutation(rep, mi, ni, phi) is None)
    failures.extend(f"({mi},{ni}): family {sorted(sorted(c) for c in columns)} "
                    f"needs no permutation witness but one is stored" for columns in stored)


def verify_certificate(
    c: Certificate, failures: list[str] | None = None
) -> bool:
    """Replay every certificate row and instance rule; True iff all of
    them hold. Nothing is taken on trust; malformed data is a failure, not
    an exception.

    Of the certificate only its rows and instance data are read. What the
    checks derive from (m', n') alone, the line rules and table keys of
    tabulated instances (_instance_rules) and the column-family scans
    (_family_scan), is reused from a certify earlier in the same process
    and dropped when this returns. That is no trust: they come from the
    same code, run in this process, never from a certificate, and every row
    is still checked against them, every edge and stored phi replayed.

    Missing instances are listed up to the first 20, in (m, n) order, then
    counted. Pass a list to collect human-readable failure descriptions.
    """
    if failures is None:
        failures = []
    try:
        if c.m < 1 or c.n < 1:
            failures.append(f"certificate for {c.m}x{c.n} covers no instance")
        tables = _Tables(c.entries)
        missing = (f"missing instance entry ({mi},{ni})" for mi in range(1, c.m + 1)
                   for ni in range(1, c.n + 1) if (mi, ni) not in tables.covered)
        failures.extend(islice(missing, 20))
        unlisted = max(c.m, 0) * max(c.n, 0) - 20 - sum(
            int_in(mi, 1, c.m) and int_in(ni, 1, c.n) for mi, ni in tables.covered)
        if unlisted > 0:
            failures.append(f"... and {unlisted} more missing instance entries")
        for entry in c.entries:
            mi, ni = entry.m, entry.n
            if not (int_in(mi, 1, c.m) and int_in(ni, 1, c.n)):
                failures.append(f"({mi},{ni}): entry outside the {c.m}x{c.n} grid")
            elif entry.strategy == STRATEGY_EXHAUSTIVE and mi * ni > ENUM_GUARD_CELLS:
                failures.append(f"({mi},{ni}): EXHAUSTIVE entry beyond the "
                                f"{ENUM_GUARD_CELLS}-cell guard")
            elif entry.strategy == STRATEGY_SPERNER:
                axis = entry.data.get("axis") if isinstance(entry.data, dict) else None
                if axis not in _AXES:
                    failures.append(f"({mi},{ni}): Sperner rule with unknown axis")
                    continue
                if axis == "column" and ni <= sperner_limit(mi):
                    failures.append(f"({mi},{ni}): Sperner rule needs n > C(m, floor(m/2))")
                if axis == "row" and mi <= sperner_limit(ni):
                    failures.append(f"({mi},{ni}): Sperner rule needs m > C(n, floor(n/2))")
                _exact_data(entry, {"axis"}, failures)
            elif entry.strategy == STRATEGY_EXHAUSTIVE:
                _verify_exhaustive(tables, entry, failures)
            elif entry.strategy == STRATEGY_FAMILY:
                _verify_family(entry, failures)
            else:
                failures.append(f"({mi},{ni}): unknown strategy {entry.strategy!r}")
    finally:
        _instance_rules.cache_clear()
        _family_scan.cache_clear()
    return not failures


# -- direct-smaller property -------------------------------------------------


@dataclass(frozen=True)
class DirectSmallerReport:
    m: int
    n: int
    checked: int
    exceptions: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.exceptions


def direct_smaller_check(m: int, n: int) -> DirectSmallerReport:
    """Verify that every valid subset of size >= 3 is one extremal-letter
    step away from some strictly smaller valid subset."""
    if m * n > 16:
        raise GridSizeError(
            f"direct_smaller_check enumerates pairs; {m}x{n} exceeds 16 cells"
        )
    valid = np.concatenate(list(valid_encodings(m, n))).astype(np.intp)
    sizes = np.bitwise_count(valid)
    covered = np.zeros(1 << (m * n), dtype=bool)
    for size, (R, C) in zip(sizes.tolist(), _line_parts(valid, m, n)):
        succ = R[:, None] | C[None, :]
        covered[succ[np.bitwise_count(succ) > size]] = True
    large = valid[sizes >= 3]
    return DirectSmallerReport(m, n, large.size, tuple(large[~covered[large]].tolist()))


# -- greedy alphabet ---------------------------------------------------------


def greedy_alphabet(m: int, n: int) -> list[ExtremalLetter]:
    """Grow a letter list, each step adding the letter that discovers the
    most new subsets from the current closure (ties to the first letter in
    lexicographic order of the image tuples of (s, t)). No minimality claim.

    A letter's successors are its row part under s OR its column part under
    t. Each round maps the closure once through every map of the factor
    with fewer maps and keeps these parts, min(m^m, n^n) arrays of the
    closure's size (27 at 3x4, about 0.7 MB), then once through each map of
    the other factor, and scores every letter by the OR of its two parts."""
    if m * n > ENUM_GUARD_CELLS:
        raise GridSizeError("greedy_alphabet exceeds the enumeration guard")
    bound = bound_f(m, n)
    total = 1 << (m * n)
    factors = [(list(product(range(1, k + 1), repeat=k)), step)
               for k, step in ((m, _row_map), (n, _col_map))]
    rows_kept = len(factors[0][0]) <= len(factors[1][0])
    (kept_maps, kept_step), (other_maps, other_step) = factors[::1 if rows_kept else -1]
    letters: list[ExtremalLetter] = []
    in_closure = np.zeros(total, dtype=bool)
    in_closure[1] = True
    fresh = np.zeros(total, dtype=bool)  # cleared after each letter
    while np.count_nonzero(in_closure) < bound:
        closure = np.flatnonzero(in_closure)
        kept_parts = [kept_step(closure, x, m, n) for x in kept_maps]
        best_gain, best = 0, None
        for y in other_maps:
            other_part = other_step(closure, y, m, n)
            for x, kept_part in zip(kept_maps, kept_parts):
                succ = other_part | kept_part
                new = succ[~in_closure[succ]]
                fresh[new] = True  # distinct new subsets, counted without a sort
                gain = np.count_nonzero(fresh)
                fresh[new] = False
                letter = (x, y) if rows_kept else (y, x)
                if gain > best_gain or gain and gain == best_gain and letter < best:
                    best_gain, best = gain, letter
        if best is None:
            raise RuntimeError(
                f"greedy alphabet stalled at {np.count_nonzero(in_closure)} of {bound}"
            )
        letters.append(ExtremalLetter(Transformation(best[0]), Transformation(best[1])))
        step = _LetterStep(letters, m, n, in_closure)
        frontier = closure
        while frontier.size:
            frontier = _successor_bitmap(frontier, m, n, step)
    return letters

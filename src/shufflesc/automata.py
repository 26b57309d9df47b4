"""Core automata machinery.

Transformations (total maps on {1..n}), complete DFAs given as one
transformation per letter, NFAs, and the standard constructions: subset
construction, Moore refinement and minimization, canonical forms.

The subset construction and Moore refinement come in two forms that give
the same automaton and partition, numbered in different orders.
subset_table and refine loop over one (state, letter) pair at a time in
Python and number states and blocks in order of first occurrence, the
numbering determinize and minimize return. The one Python subset BFS is
subset_order, which memoizes each letter's steps: subset_table runs it on
fresh memos, the exhaustive search on memos shared across multisets.
subset_table_array steps a whole BFS generation, and refine_array a whole
refinement round, through numpy arrays and number in sort order, of which
subset_complexity reads only the class count. subset_complexity, which the shuffle complexity of
one pair (the `complexity` and `okhotin` commands) goes through, takes the
arrays for every NFA of up to 64 states, the most a uint64 subset holds,
and the loop above that. The loop also serves determinize and the
exhaustive search, which builds thousands of tables of a few dozen subsets
each: numpy costs microseconds per call, and on arrays `search 2 2 4` took
1.5 to 2.3 s instead of 0.2 to 0.3 s. The tests keep the loop as the
reference for the arrays.

The arrays step subsets through _step_tables, the successors on every
letter of every value of each fixed-width chunk of an encoding, and
_block_step, which reads them with one row gather per chunk for all
letters. This is the one subset-step kernel: subset_table_array and the
letter-list BFS of reach share it, with 8- and 12-bit chunks, because
each caller ran slower with the other's width.

subset_table_array finds the id of each stepped subset in one of two
stores, in the same loop. Up to DENSE_ID_CELLS (16) states it is a dense
int32 array indexed by encoding, at most 256 KiB, and a lookup is one
gather instead of a binary search. Above 16 states the array would cost
far more than the tables it serves (4 MiB at 20 states, where the
benchmark's random 4x5 pair reaches 6,159 subsets), so the known subsets
stay sorted and a lookup is a searchsorted.

States are 1-based everywhere; this convention leaks into file formats and
reports on purpose, so internal code never exposes 0-based offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np


class FormatError(ValueError):
    """A DFA file failed to parse; `where` names the offending field."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


def int_in(x, lo: int, hi: int) -> bool:
    """x is an int, not a bool, with lo <= x <= hi."""
    return type(x) is int and lo <= x <= hi


@dataclass(frozen=True)
class Transformation:
    """A total map on {1..n}, stored as the image tuple [1t, 2t, ..., nt]."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("empty transformation")
        for q, img in enumerate(self.images, start=1):
            if not int_in(img, 1, n):
                raise ValueError(f"image of {q} is {img!r}, not in 1..{n}")

    @property
    def degree(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: one Transformation per letter, initial state 1."""

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[Transformation, ...]  # aligned with alphabet
    finals: frozenset[int]
    initial: int = 1

    def __post_init__(self):
        if not int_in(self.state_count, 1, float("inf")):
            raise ValueError("state_count must be positive")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        if len(self.transitions) != len(self.alphabet):
            raise ValueError("one transformation per letter required")
        for x, t in zip(self.alphabet, self.transitions):
            if t.degree != self.state_count:
                raise ValueError(f"transformation for {x!r} has wrong degree")
        for f in self.finals:
            if not int_in(f, 1, self.state_count):
                raise ValueError(f"final state {f} out of range")
        if not int_in(self.initial, 1, self.state_count):
            raise ValueError("initial state out of range")


@dataclass(frozen=True)
class Nfa:
    """NFA with a single initial state; transitions[q-1][i] is delta(q, alphabet[i])."""

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[frozenset[int], ...], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        if not int_in(self.state_count, 1, float("inf")):
            raise ValueError("state_count must be positive")
        if len(self.transitions) != self.state_count:
            raise ValueError("one transition row per state required")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("one successor set per letter required")
            for succs in row:
                for s in succs:
                    if not int_in(s, 1, self.state_count):
                        raise ValueError(f"successor {s} out of range")
        if not int_in(self.initial, 1, self.state_count):
            raise ValueError("initial state out of range")
        for f in self.finals:
            if not int_in(f, 1, self.state_count):
                raise ValueError(f"final state {f} out of range")


def subset_order(steps, start: int) -> list[int]:
    """The subsets reachable from start, in BFS discovery order. Subsets
    are bitmasks with bit q-1 for NFA state q; steps holds one (memo,
    images) pair per letter, images[q-1] the successors of q on it and memo
    its step of each subset stepped so far, which calls over the same
    letters may share. After a call memo[s] holds every returned s."""
    seen = {start}
    order = [start]
    for current in order:  # order grows while it is scanned
        members = None
        for memo, images in steps:
            nxt = memo.get(current)
            if nxt is None:
                if members is None:
                    members = [q for q in range(current.bit_length()) if current >> q & 1]
                nxt = 0
                for q in members:
                    nxt |= images[q]
                memo[current] = nxt
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def _memo_table(steps, subsets: list[int]) -> list[tuple[int, ...]]:
    """table[i][li], the id of the successor of subsets[i] on letter li,
    read from the memos of the subset_order(steps, ...) call that returned
    subsets; the subset subsets[i] has id i+1."""
    ids = {s: i for i, s in enumerate(subsets, 1)}
    columns = [list(map(ids.__getitem__, map(memo.__getitem__, subsets))) for memo, _ in steps]
    return list(zip(*columns)) or [()] * len(subsets)  # () if no letters


def subset_table(succ, start: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Accessible subset automaton as a table, in BFS discovery order:
    subset_order on a fresh memo per letter, then _memo_table. succ[li][q-1]
    holds the successors of NFA state q on letter li, start the initial
    subset; subsets[i] is the subset of state i+1 and table[i][li] the id
    of its successor."""
    steps = [({}, images) for images in succ]
    subsets = subset_order(steps, start)
    return subsets, _memo_table(steps, subsets)


#: The arrays hold a subset as one uint64 with a bit per NFA state, so 64
#: states is the most they can encode.
ARRAY_MAX_CELLS = 64
#: (state, letter) pairs that one _block_step call steps, in subset_table_array
#: and reach's letter-list BFS; this bounds its temporaries to a few hundred KB.
ARRAY_BLOCK = 1 << 14
#: Up to this many NFA states subset_table_array keeps the ids of known
#: subsets in a dense int32 array of 2^cells entries, above it in a
#: _SortedIds (see the module docstring).
DENSE_ID_CELLS = 16


class _SortedIds:
    """Ids of known subsets by searchsorted on their sorted encodings, read
    and written like subset_table_array's dense id array: self[x] is the id
    of each subset in x, or 0 for an unknown one, and self[x] = ids records
    unknown subsets x, which must be ascending, as a generation's new
    subsets from np.unique are."""

    def __init__(self, dtype):
        self.keys = np.empty(0, dtype=dtype)
        self.ids = np.empty(0, dtype=np.int32)

    def __getitem__(self, x: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.keys, x)
        np.minimum(at, self.keys.size - 1, out=at)
        return np.where(self.keys[at] == x, self.ids[at], 0)

    def __setitem__(self, x: np.ndarray, ids: np.ndarray) -> None:
        at = np.searchsorted(self.keys, x)
        self.keys, self.ids = np.insert(self.keys, at, x), np.insert(self.ids, at, ids)


def _step_tables(succ, cells: int, bits: int) -> np.ndarray:
    """tables[j, v, li], the successors on letter li of the states whose
    bits are set in v, read as chunk j (bits j*bits to (j+1)*bits - 1) of
    an encoding. A subset x steps on letter li to the OR over j of
    tables[j, x >> bits*j & (1 << bits) - 1, li]; uint32 up to 32 states,
    uint64 above."""
    dtype = np.uint32 if cells <= 32 else np.uint64
    k = len(succ)
    chunks = -(-cells // bits)
    masks = np.zeros((chunks * bits, k), dtype=dtype)
    masks[:cells] = np.array(succ, dtype=dtype).reshape(k, cells).T
    masks = masks.reshape(chunks, bits, k)
    tables = np.zeros((chunks, 1 << bits, k), dtype=dtype)
    for b in range(bits):
        tables[:, 1 << b:2 << b] = tables[:, :1 << b] | masks[:, b:b + 1]
    return tables


def _block_step(tables: np.ndarray, x: np.ndarray, bits: int) -> np.ndarray:
    """step[i, li], the successor of subset x[i] on letter li, through
    _step_tables(..., bits) in its own (chunk, value, letter) layout: one
    row gather per chunk steps x[i] on every letter at once."""
    mask = (1 << bits) - 1
    step = tables[0][x & mask]
    for j in range(1, len(tables)):
        step |= tables[j][x >> bits * j & mask]
    return step


def subset_table_array(succ, start: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """subset_table, one BFS generation at a time on arrays, for an NFA of
    1 to 64 states (cells): the same subsets and successors, numbered
    differently.

    Each frontier block steps through _block_step, and its successors look
    up their ids among the subsets known before the generation, 0 marking a
    new one: in a dense array indexed by encoding up to DENSE_ID_CELLS
    states, by searchsorted in a _SortedIds above. The generation's new
    subsets, deduplicated by np.unique, become the next frontier in
    ascending order and take the next ids in that order. Returns subsets
    (uint32 up to 32 states, uint64 above) and the int32 table, table[i, li]
    the id of the successor of state i+1 on letter li; state 1 is start.
    """
    k = len(succ)
    tables = _step_tables(succ, cells, 8)
    rows = max(1, ARRAY_BLOCK // max(k, 1))
    if cells <= DENSE_ID_CELLS:
        known = np.zeros(1 << cells, dtype=np.int32)
    else:
        known = _SortedIds(tables.dtype)
    frontier = np.array([start], dtype=tables.dtype)
    known[frontier] = 1
    size = 1  # subsets known so far
    subsets, table = [frontier], []
    while frontier.size:
        ids, miss_at, miss = [], [], []
        for lo in range(0, frontier.size, rows):
            step = _block_step(tables, frontier[lo:lo + rows], 8).ravel()
            ids.append(known[step])
            lost = np.flatnonzero(ids[-1] == 0)
            miss_at.append(lost + lo * k)
            miss.append(step[lost])
        ids = np.concatenate(ids).reshape(frontier.size, k)
        frontier, new = np.unique(np.concatenate(miss), return_inverse=True)
        ids.ravel()[np.concatenate(miss_at)] = new + size + 1
        table.append(ids)
        subsets.append(frontier)
        known[frontier] = np.arange(size + 1, size + 1 + frontier.size, dtype=np.int32)
        size += frontier.size
    return np.concatenate(subsets), np.concatenate(table)


def subset_complexity(succ, start: int, cells: int, final_mask: int) -> int:
    """Number of Moore classes of the accessible subset automaton of an
    NFA of `cells` states (subset_table's succ and start), a subset being
    final when it meets final_mask; on arrays up to ARRAY_MAX_CELLS."""
    if cells <= ARRAY_MAX_CELLS:
        subsets, table = subset_table_array(succ, start, cells)
        return int(refine_array(table, subsets & final_mask != 0).max())
    subsets, table = subset_table(succ, start)
    return max(refine(table, [s & final_mask for s in subsets]))


def determinize(a: Nfa) -> tuple[Dfa, list[frozenset[int]]]:
    """Accessible subset automaton of `a`.

    Returns the DFA together with the subset carried by each new state id
    (state i corresponds to subsets[i-1]; state 1 is {initial}).
    """
    succ = [[sum(1 << s - 1 for s in targets) for targets in letter]
            for letter in zip(*a.transitions)]
    subsets, table = subset_table(succ, 1 << a.initial - 1)
    final_mask = sum(1 << (f - 1) for f in a.finals)
    finals = frozenset(i for i, s in enumerate(subsets, 1) if s & final_mask)
    transitions = tuple(map(Transformation, zip(*table)))
    return Dfa(len(subsets), a.alphabet, transitions, finals), [
        frozenset(q + 1 for q in range(a.state_count) if s >> q & 1) for s in subsets
    ]


def _bfs_order(images, initial: int) -> tuple[list[int], dict[int, int]]:
    """States reachable from `initial` in BFS discovery order, visiting the
    letters in the order of `images` (images[li][q-1] is the successor of q
    on letter li), and pos[q], the 1-based position of each in that order."""
    order = [initial]
    pos = {initial: 1}
    for q in order:  # order grows while it is scanned
        for img in images:
            nxt = img[q - 1]
            if nxt not in pos:
                pos[nxt] = len(order) + 1
                order.append(nxt)
    return order, pos


def refine(table: Sequence[Sequence[int]], accepting: Iterable) -> list[int]:
    """Moore partition refinement: the Nerode classes of a complete DFA.

    table[q-1][li] is the successor (1-based) of state q on letter li;
    accepting gives each state's finality as a truthy value. States are
    split by finality, then by the blocks of their successors, until no
    block splits. Returns block[q-1], the block of state q, with blocks
    numbered 1, 2, ... in order of first occurrence from state 1; for an
    accessible DFA the largest block number is its state complexity.
    """
    block = [1 if f else 0 for f in accepting]
    count = len(set(block))
    while True:
        lookup = [0, *block]  # lookup[q] is the block of state q
        ids: dict[tuple, int] = {}
        new_block = [
            ids.setdefault((b, *map(lookup.__getitem__, row)), len(ids) + 1)
            for b, row in zip(block, table)
        ]
        if len(ids) == count:
            return new_block
        block, count = new_block, len(ids)


def refine_array(table: np.ndarray, accepting: np.ndarray) -> np.ndarray:
    """refine on arrays, for a table as subset_table_array gives it and a
    bool array of finality: the same partition, as an int32 array of block
    numbers 1, 2, ..., numbered in the sort order of their signatures.

    Each round writes the signature (block, successor blocks) of every
    state as one row, sorts the rows as raw bytes, and numbers the distinct
    ones. (One sort of byte rows took 0.9 ms per round at 3,392 states and
    40 letters, where a lexsort over the 41 columns took 9.7 ms.)"""
    states, k = table.shape
    block = accepting.astype(np.int32)
    count = 2 if 0 < np.count_nonzero(block) < states else 1
    signature = np.empty((states, k + 1), dtype=np.int32)
    rows = signature.view(np.dtype((np.void, signature.itemsize * (k + 1)))).ravel()
    lookup = np.zeros(states + 1, dtype=np.int32)  # lookup[q]: block of state q
    starts = np.ones(states, dtype=bool)
    while True:
        signature[:, 0] = lookup[1:] = block
        signature[:, 1:] = lookup[table]
        order = np.argsort(rows)
        ordered = rows[order]
        starts[1:] = ordered[1:] != ordered[:-1]
        new_block = np.empty(states, dtype=np.int32)
        new_block[order] = np.cumsum(starts, dtype=np.int32)
        groups = np.count_nonzero(starts)
        if groups == count:
            return new_block
        block, count = new_block, groups


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA of the same language: refine the rows of
    bfs_key in the alphabet's order, which leave out the unreachable
    states; each block becomes the state of its number, with the initial
    state in 1."""
    count, rows, finals = bfs_key(d, range(len(d.alphabet)))
    states = range(1, count + 1)
    final = set(finals)
    block = refine(rows, [q in final for q in states])
    reps = dict(zip(block, states))  # one state of each block, in block order
    transitions = tuple(
        Transformation(tuple(block[rows[q - 1][li] - 1] for q in reps.values()))
        for li in range(len(d.alphabet))
    )
    return Dfa(len(reps), d.alphabet, transitions, frozenset(block[f - 1] for f in finals))


def state_complexity(d: Dfa) -> int:
    """Number of states of the minimal complete DFA for L(d)."""
    return minimize(d).state_count


def bfs_key(d: Dfa, letter_order: Sequence[int]) -> tuple:
    """Key of a DFA under state relabeling with the letter order fixed,
    and the one relabeling of its reachable part, which minimize refines.

    The states reachable from the initial state are renumbered in BFS
    discovery order, visiting letters in the given order, so the initial
    state is 1; the others are left out. The key is (reachable state count,
    rows, sorted reachable finals), where row i lists the successors of
    state i+1 over the letters in that order.
    """
    images = [d.transitions[li].images for li in letter_order]
    order, pos = _bfs_order(images, d.initial)
    rows = tuple(tuple(pos[img[q - 1]] for img in images) for q in order)
    finals = tuple(sorted(pos[f] for f in d.finals if f in pos))
    return (len(order), rows, finals)


def canonical_key(*dfas: Dfa, finals: bool = True) -> tuple:
    """Key of DFAs over one alphabet, equal iff their reachable parts are
    isomorphic under state relabeling of each (initial fixed) and one joint
    letter renaming: the least tuple of their bfs_keys over all letter
    orders, blind to the final sets unless finals. It costs k! bfs_keys for
    k letters."""
    size = 3 if finals else 2
    return min(tuple(bfs_key(d, perm)[:size] for d in dfas)
               for perm in permutations(range(len(dfas[0].alphabet))))


# -- DFA file format ---------------------------------------------------------
#
# One UTF-8 JSON object:
#   {"states": m, "alphabet": ["a","b"], "initial": 1, "finals": [2],
#    "transitions": {"a": [2,1], "b": [1,1]}}
# where transitions[x][q-1] is delta(q, x).


def dfa_to_dict(d: Dfa) -> dict:
    return {
        "states": d.state_count,
        "alphabet": list(d.alphabet),
        "initial": d.initial,
        "finals": sorted(d.finals),
        "transitions": {
            x: list(t.images) for x, t in zip(d.alphabet, d.transitions)
        },
    }


def dfa_from_dict(obj: dict) -> Dfa:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object", "$")
    for key in obj:
        if key not in ("states", "alphabet", "initial", "finals", "transitions"):
            raise FormatError("unknown field", str(key))
    try:
        m = obj["states"]
    except KeyError:
        raise FormatError("missing field", "states") from None
    if type(m) is not int or m < 1:  # bool is refused too
        raise FormatError(f"expected a positive integer, got {m!r}", "states")
    alphabet = obj.get("alphabet")
    if not isinstance(alphabet, list) or not alphabet or not all(
        isinstance(x, str) and x for x in alphabet
    ):
        raise FormatError("expected a nonempty list of nonempty strings", "alphabet")
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("duplicate letters", "alphabet")
    initial = obj.get("initial", 1)
    if not int_in(initial, 1, m):
        raise FormatError(f"state {initial!r} out of range 1..{m}", "initial")
    finals = obj.get("finals")
    if not isinstance(finals, list):
        raise FormatError("expected a list of states", "finals")
    for i, f in enumerate(finals):
        if not int_in(f, 1, m):
            raise FormatError(f"state {f!r} out of range 1..{m}", f"finals[{i}]")
    if len(set(finals)) != len(finals):
        raise FormatError("repeated states", "finals")
    trans = obj.get("transitions")
    if not isinstance(trans, dict):
        raise FormatError("expected an object keyed by letter", "transitions")
    if set(trans) != set(alphabet):
        missing = sorted(set(alphabet) - set(trans))
        extra = sorted(set(trans) - set(alphabet))
        raise FormatError(
            f"letters do not match alphabet (missing {missing}, extra {extra})",
            "transitions",
        )
    transitions = []
    for x in alphabet:
        row = trans[x]
        if not isinstance(row, list) or len(row) != m:
            raise FormatError(f"expected a list of {m} states", f"transitions[{x!r}]")
        for qi, img in enumerate(row):
            if not int_in(img, 1, m):
                raise FormatError(
                    f"state {img!r} out of range 1..{m}", f"transitions[{x!r}][{qi}]"
                )
        transitions.append(Transformation(tuple(row)))
    return Dfa(m, tuple(alphabet), tuple(transitions), frozenset(finals), initial)


def load_dfa(path) -> Dfa:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON at line {e.lineno}: {e.msg}", str(path))
    try:
        return dfa_from_dict(obj)
    except FormatError as e:
        raise FormatError(str(e), str(path)) from None


def dump_dfa(d: Dfa, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dfa_to_dict(d), fh, indent=1)
        fh.write("\n")

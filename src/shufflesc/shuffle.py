"""Shuffle of regular languages: the shuffle step on the state grid, from
which the product NFA and the subset table of the state-complexity
computation are built, the validity condition on subsets, and f(m,n)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .automata import Dfa, Nfa, Transformation, subset_complexity

#: Grid enumeration guard: brute-force ops refuse grids with more cells.
ENUM_GUARD_CELLS = 24


class GridSizeError(ValueError):
    """A brute-force grid operation exceeded the m*n <= 24 guard."""


def _check_guard(m: int, n: int) -> None:
    if m * n > ENUM_GUARD_CELLS:
        raise GridSizeError(
            f"grid {m}x{n} has {m * n} cells, beyond the enumeration guard "
            f"of {ENUM_GUARD_CELLS}"
        )


@dataclass(frozen=True)
class ProductSubset:
    """Subset of the m x n state grid, bit-indexed by (p-1)*n + (q-1).

    The `bits` field read as an unsigned integer is the normative encoding
    used in reports, checkpoints, and unreached-sample listings.
    """

    m: int
    n: int
    bits: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("grid dimensions must be positive")
        if self.bits < 0 or self.bits >> (self.m * self.n):
            raise ValueError("bits outside the grid")

    @staticmethod
    def index(p: int, q: int, n: int) -> int:
        return (p - 1) * n + (q - 1)

    @classmethod
    def from_pairs(cls, m: int, n: int, pairs: Iterable[tuple[int, int]]) -> "ProductSubset":
        bits = 0
        for p, q in pairs:
            if not (1 <= p <= m and 1 <= q <= n):
                raise ValueError(f"state ({p},{q}) outside the {m}x{n} grid")
            bits |= 1 << cls.index(p, q, n)
        return cls(m, n, bits)

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        bits = self.bits
        while bits:
            i = (bits & -bits).bit_length() - 1
            out.append((i // self.n + 1, i % self.n + 1))
            bits &= bits - 1
        return out

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        p, q = pair
        if not (1 <= p <= self.m and 1 <= q <= self.n):
            return False
        return bool(self.bits >> self.index(p, q, self.n) & 1)

    def row(self, p: int) -> frozenset[int]:
        content = self.bits >> (p - 1) * self.n & ((1 << self.n) - 1)
        return frozenset(q for q in range(1, self.n + 1) if content >> (q - 1) & 1)

    def column(self, q: int) -> frozenset[int]:
        return frozenset(
            p for p in range(1, self.m + 1)
            if self.bits >> self.index(p, q, self.n) & 1
        )


def row1_mask(m: int, n: int) -> int:
    return (1 << n) - 1


def col1_mask(m: int, n: int) -> int:
    """Bit (p-1)*n for every row p: the geometric sum of 2^(p*n), p < m."""
    return ((1 << m * n) - 1) // ((1 << n) - 1)


def is_valid(s: ProductSubset) -> bool:
    """Condition (C): the subset holds a state in row 1 and one in column 1."""
    return bool(s.bits & row1_mask(s.m, s.n)) and bool(s.bits & col1_mask(s.m, s.n))


def projections(s: ProductSubset) -> tuple[frozenset[int], frozenset[int]]:
    """Occupied rows and occupied columns of the subset."""
    rows = frozenset(p for p in range(1, s.m + 1) if s.row(p))
    cols = frozenset(q for q in range(1, s.n + 1) if s.column(q))
    return rows, cols


def bound_f(m: int, n: int) -> int:
    """Upper bound on the shuffle state complexity: the number of valid
    subsets of the m x n grid. Exact arbitrary-precision arithmetic."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return (
        (1 << (m * n - 1))
        + (1 << ((m - 1) * (n - 1))) * ((1 << (m - 1)) - 1) * ((1 << (n - 1)) - 1)
    )


#: encodings tested per chunk of the valid-subset scan; a chunk's arange and
#: masked copies take 512 KiB apiece, and up to 16 cells the scan is one chunk
VALID_SCAN_CHUNK = 1 << 16


def valid_encodings(m: int, n: int) -> Iterator[np.ndarray]:
    """Encodings of the subsets satisfying Condition (C), in ascending order.

    Scans all 2^(mn) encodings VALID_SCAN_CHUNK at a time and tests the two
    masks directly, yielding one uint64 array per chunk. Guarded at
    m*n <= 24.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    _check_guard(m, n)
    total = 1 << (m * n)
    r1 = np.uint64(row1_mask(m, n))
    c1 = np.uint64(col1_mask(m, n))
    for start in range(0, total, VALID_SCAN_CHUNK):
        x = np.arange(start, min(start + VALID_SCAN_CHUNK, total), dtype=np.uint64)
        yield x[((x & r1) != 0) & ((x & c1) != 0)]


def count_valid_subsets(m: int, n: int) -> int:
    """Exhaustive count of subsets satisfying Condition (C), independent of
    bound_f. Guarded at m*n <= 24."""
    return sum(chunk.size for chunk in valid_encodings(m, n))


@dataclass(frozen=True)
class ShuffleNfa:
    """Product NFA for K shuffle L over the m x n grid.

    Product state (p,q) is NFA state (p-1)*n + (q-1) + 1; the initial state
    is (K.initial, L.initial) and the finals are F_K x F_L.
    """

    left: Dfa
    right: Dfa
    nfa: Nfa

    @property
    def m(self) -> int:
        return self.left.state_count

    @property
    def n(self) -> int:
        return self.right.state_count

    def state_id(self, p: int, q: int) -> int:
        return (p - 1) * self.n + (q - 1) + 1

    def state_pair(self, sid: int) -> tuple[int, int]:
        return ((sid - 1) // self.n + 1, (sid - 1) % self.n + 1)


def cell_successors(letters, m: int, n: int) -> list[list[int]]:
    """succ[li][(p-1)*n + q-1], the encoding of {(s(p), q), (p, t(q))}: the
    shuffle step of cell (p, q) on the letter li = (s images, t images)."""
    return [[1 << (s[p] - 1) * n + q | 1 << p * n + t[q] - 1
             for p in range(m) for q in range(n)] for s, t in letters]


def _letters(K: Dfa, L: Dfa) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The joint letters (s images, t images) of a pair over one alphabet,
    in K's letter order: L may list the same letters in another order."""
    if set(K.alphabet) != set(L.alphabet):
        raise ValueError(f"alphabet mismatch: {list(K.alphabet)} vs {list(L.alphabet)}")
    t_of = dict(zip(L.alphabet, L.transitions))
    return [(s.images, t_of[x].images) for x, s in zip(K.alphabet, K.transitions)]


def build_shuffle_nfa(K: Dfa, L: Dfa) -> ShuffleNfa:
    """NFA with delta((p,q),a) = {(delta_K(p,a),q), (p,delta_L(q,a))}, read
    off the one or two bits of each cell_successors mask."""
    m, n = K.state_count, L.state_count
    succ = cell_successors(_letters(K, L), m, n)
    transitions = tuple(
        tuple(frozenset({(x[c] & -x[c]).bit_length(), x[c].bit_length()}) for x in succ)
        for c in range(m * n)
    )
    finals = frozenset((p - 1) * n + q for p in K.finals for q in L.finals)
    nfa = Nfa(m * n, K.alphabet, transitions, (K.initial - 1) * n + L.initial, finals)
    return ShuffleNfa(K, L, nfa)


def shuffle_state_complexity(K: Dfa, L: Dfa) -> int:
    """kappa(K shuffle L): the number of Moore classes of the accessible
    subset automaton of the shuffle NFA, built from cell_successors, a
    subset being final when it meets F_K x F_L."""
    m, n = K.state_count, L.state_count
    succ = cell_successors(_letters(K, L), m, n)
    start = 1 << (K.initial - 1) * n + L.initial - 1
    final_mask = sum(1 << (p - 1) * n + q - 1 for p in K.finals for q in L.finals)
    return subset_complexity(succ, start, m * n, final_mask)


def sigma_star_dfa(alphabet: Iterable[str]) -> Dfa:
    """One-state all-accepting DFA for Sigma^*."""
    alphabet = tuple(alphabet)
    one = Transformation((1,))
    return Dfa(1, alphabet, tuple(one for _ in alphabet), frozenset([1]))


def okhotin_witness(n: int) -> Dfa:
    """The n-state witness for the all-sided-ideal bound 2^(n-2)+1.

    Language: union over i of a_i Sigma^* a_i Sigma^* over the alphabet
    {a_1, ..., a_(n-2)}. States: 1 initial; 1+i remembers that the word
    started with a_i; n is an accepting sink.
    """
    if n < 3:
        raise ValueError("okhotin_witness requires n >= 3")
    k = n - 2
    alphabet = tuple(f"a{i}" for i in range(1, k + 1))
    transitions = []
    for i in range(1, k + 1):
        images = [0] * n
        images[0] = 1 + i                      # start: remember a_i
        for j in range(1, k + 1):              # remember-a_j states
            images[j] = n if j == i else 1 + j
        images[n - 1] = n                      # accepting sink
        transitions.append(Transformation(tuple(images)))
    return Dfa(n, alphabet, tuple(transitions), frozenset([n]))


def ideal_bound(n: int) -> int:
    """State complexity bound 2^(n-2)+1 for Sigma^* shuffle L, kappa(L)=n>=3."""
    if n < 3:
        raise ValueError("ideal_bound requires n >= 3; for n=2 use f(1,2)=2")
    return (1 << (n - 2)) + 1


def min_alphabet_lower_bound(m: int, n: int) -> int:
    """A lower bound on |Sigma| for a witness pair meeting f(m,n): mn-1,
    and 4 at 2x2, where the exhaustive search (`search 2 2 3`) finds no
    three-letter witness.

    This is weaker than the paper's abstract, which states that mn letters
    are needed for all m, n >= 2. That the least alphabet at 2x3 is 6, above
    the 5 returned here, rests on an uncommitted prototype of a pruned
    witness search (ROADMAP item 3); no committed run computes it.
    """
    if m < 2 or n < 2:
        raise ValueError("min_alphabet_lower_bound requires m, n >= 2")
    if (m, n) == (2, 2):
        return 4
    return m * n - 1

"""Exhaustive search for shuffle witness pairs over small DFA spaces.

A candidate pair over k letters is a multiset of joint letters (s, t) with
s acting on the m-state left DFA and t on the n-state right DFA, plus a
choice of final sets. Letter order never matters to the shuffle, so
multisets are generated in nondecreasing canonical order, killing letter
permutations at the source; remaining symmetry (per-DFA state relabeling
and joint letter renaming) is removed by keying reported witnesses with
automata.canonical_key. The search works on image tuples: each multiset's
subsets are first listed by automata.subset_order on its distinct letters'
shuffle.cell_successors masks, through per-letter memos shared by every
multiset, and only a multiset with at least the best kappa so far of
subsets gets a table, read from those memos, which each final-set choice
marks and refines (automata.refine). The search runs serially in one
thread. The guard formula deliberately overcounts — it prices the raw
space before the minimality and reachability filters bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, product
from string import ascii_lowercase

from .automata import (
    Dfa,
    Transformation,
    _bfs_order,
    _memo_table,
    canonical_key,
    refine,
    subset_order,
)
from .shuffle import bound_f, cell_successors, min_alphabet_lower_bound

SEARCH_GUARD_EVALUATIONS = 10**9


class SearchVolumeError(RuntimeError):
    """The raw candidate volume exceeds the evaluation guard."""


@dataclass(frozen=True)
class SearchSpace:
    """The candidate space for witness pairs with kappa(K)=m, kappa(L)=n."""

    m: int
    n: int
    k: int

    def letter_candidates(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All joint letters (s, t) as image tuples, in lexicographic order."""
        return list(product(
            product(range(1, self.m + 1), repeat=self.m),
            product(range(1, self.n + 1), repeat=self.n),
        ))

    def final_choices(self) -> int:
        """Final-set pairs the scan tries: _final_sets on each side."""
        return len(_final_sets(self.m)) * len(_final_sets(self.n))

    def volume_estimate(self) -> int:
        """Letter multisets times final-set choices, before any filtering."""
        pairs = self.m**self.m * self.n**self.n
        return math.comb(pairs + self.k - 1, self.k) * self.final_choices()


@dataclass
class SearchResult:
    maximum: int
    bound: int
    met: bool
    witnesses: list[tuple[Dfa, Dfa]]
    candidates_evaluated: int

    def summary(self) -> dict:
        return {
            "max": self.maximum,
            "bound": self.bound,
            "met": self.met,
            "candidates_evaluated": self.candidates_evaluated,
        }


def _letter_names(k: int) -> tuple[str, ...]:
    if k <= len(ascii_lowercase):
        return tuple(ascii_lowercase[:k])
    return tuple(f"x{i}" for i in range(k))


def _final_sets(size: int) -> list[frozenset[int]]:
    """The final sets a minimal DFA with `size` states can have: the
    nonempty proper subsets of its states, or, for one state, both the
    empty set and {1}, since either gives a minimal DFA."""
    if size == 1:
        return [frozenset(), frozenset([1])]
    return [frozenset(q + 1 for q in range(size) if bits >> q & 1)
            for bits in range(1, (1 << size) - 1)]


def pair_canonical_key(K: Dfa, L: Dfa, *, relaxed: bool = False) -> tuple:
    """canonical_key of a witness pair.

    relaxed drops both final sets from the key and also minimizes over the
    operand order (sound because the shuffle commutes; only for equal state
    counts) — the convention under which the 4-letter 2x2 witness is
    unique: with final sets distinguished, the exhaustive search finds
    bound-meeting variants of the same transition structure that differ
    only in which state is final on each side.
    """
    pairs = [(K, L), (L, K)] if relaxed and K.state_count == L.state_count else [(K, L)]
    return min(canonical_key(*pair, finals=not relaxed) for pair in pairs)


def _guard(space: SearchSpace, force: bool) -> None:
    volume = space.volume_estimate()
    if volume > SEARCH_GUARD_EVALUATIONS and not force:
        raise SearchVolumeError(
            f"search space for (m={space.m}, n={space.n}, k={space.k}) prices "
            f"at ~{volume:.3e} candidate evaluations, over the guard of "
            f"{SEARCH_GUARD_EVALUATIONS:.0e}; pass force=True to run anyway"
        )


def _minimal_finals(images: tuple[tuple[int, ...], ...], size: int) -> list[frozenset[int]]:
    """The F in _final_sets(size) for which the DFA with initial state 1,
    finals F and images[li][q-1] the successor of q on letter li is minimal
    with `size` states: every state reachable and no two states equivalent."""
    if len(_bfs_order(images, 1)[0]) < size:
        return []
    table = list(zip(*images)) or [()] * size  # () if no letters
    states = range(1, size + 1)
    return [F for F in _final_sets(size)
            if max(refine(table, [q in F for q in states])) == size]


def max_shuffle_complexity(
    m: int,
    n: int,
    k: int,
    result_cap: int = 10,
    *,
    force: bool = False,
    stop_at_bound: bool = False,
) -> SearchResult:
    """Exact maximum of the shuffle complexity over the deduplicated space.

    The subset count of a letter multiset bounds kappa for every choice of
    final sets, so a multiset whose subset_order is shorter than the best
    kappa so far is skipped. The others get a subset table from the same
    memos, one column per distinct letter (a repeated letter would add an
    identical column, which splits no Moore class), and each pair (F_K,
    F_L) giving minimal K and L marks the subsets meeting F_K x F_L final
    and refines the table; kappa is the number of blocks.
    candidates_evaluated counts these pairs. The pairs at the best kappa so
    far are kept as image tuples and final sets; Dfas are built and keyed
    only for those at the final maximum, in scan order. The scan is serial
    and in a fixed order, so its counts are deterministic.

    Witnesses attaining the maximum are reported in canonical form, at most
    result_cap of them (a negative cap raises ValueError). One
    representative, the one with the least strict pair_canonical_key,
    survives per class of pair_canonical_key(K, L, relaxed=True): operand
    swap allowed and final sets not distinguished, the convention under
    which the 4-letter 2x2 witness is unique. stop_at_bound returns as soon
    as some pair meets bound_f(m, n); the reported maximum is then the
    bound but the witness list may be truncated early.
    """
    if result_cap < 0:
        raise ValueError(f"result_cap must be >= 0, not {result_cap}")
    space = SearchSpace(m, n, k)
    _guard(space, force)
    bound = bound_f(m, n)
    candidates = space.letter_candidates()
    succ = cell_successors(candidates, m, n)
    memos = [{} for _ in succ]  # one per letter, shared by every multiset
    minimal_finals = cache(_minimal_finals)  # one entry per side's images

    def scan() -> tuple[int, list[tuple], int]:
        best = 0
        ties: list[tuple] = []  # (K images, L images, F_K, F_L) at kappa == best
        evaluated = 0
        for multiset in combinations_with_replacement(range(len(candidates)), k):
            steps = [(memos[i], succ[i]) for i in dict.fromkeys(multiset)]
            subsets = subset_order(steps, 1)
            if len(subsets) < best:
                continue  # cannot attain the current maximum
            table = _memo_table(steps, subsets)
            k_images = tuple(candidates[i][0] for i in multiset)
            l_images = tuple(candidates[i][1] for i in multiset)
            for FK in minimal_finals(k_images, m):
                for FL in minimal_finals(l_images, n):
                    evaluated += 1
                    final_mask = sum(1 << (p - 1) * n + q - 1 for p in FK for q in FL)
                    kappa = max(refine(table, [s & final_mask for s in subsets]))
                    if kappa > best:
                        best = kappa
                        ties = []
                    if kappa == best:
                        ties.append((k_images, l_images, FK, FL))
                    if stop_at_bound and best >= bound:
                        return best, ties, evaluated
        return best, ties, evaluated

    best, ties, evaluated = scan()
    names = _letter_names(k)
    witnesses: dict[tuple, tuple[Dfa, Dfa]] = {}
    for k_images, l_images, FK, FL in ties:
        K = Dfa(m, names, tuple(map(Transformation, k_images)), FK)
        L = Dfa(n, names, tuple(map(Transformation, l_images)), FL)
        witnesses.setdefault(pair_canonical_key(K, L), (K, L))
    # regroup the strictly-deduplicated witnesses under the relaxed key; the
    # representative is the one with the least strict key
    classes: dict[tuple, tuple] = {}
    for strict_key in sorted(witnesses):
        K, L = witnesses[strict_key]
        relaxed = pair_canonical_key(K, L, relaxed=True)
        classes.setdefault(relaxed, strict_key)
    pairs = [witnesses[classes[key]] for key in sorted(classes)][:result_cap]
    return SearchResult(best, bound, best >= bound, pairs, evaluated)


def min_witness_alphabet(m: int, n: int, k_range, *, force: bool = False) -> int | None:
    """Smallest letter count in k_range whose best pair meets the bound,
    or None. Values below the proven alphabet lower bound are skipped
    without search."""
    lower = min_alphabet_lower_bound(m, n)
    for k in k_range:
        if k < lower:
            continue
        result = max_shuffle_complexity(m, n, k, force=force, stop_at_bound=True)
        if result.met:
            return k
    return None


def count_nonisomorphic_witness_right_dfas(m: int, n: int, k: int, *, force: bool = False) -> int:
    """Number of canonically distinct right-hand DFAs in bound-meeting
    pairs, after pair-orientation normalization. Right DFAs that differ
    only in their final sets count once, the relaxation under which the
    2x3 count exceeds 60."""
    result = max_shuffle_complexity(m, n, k, result_cap=10**6, force=force)
    if not result.met:
        return 0
    return len({canonical_key(L, finals=False) for _, L in result.witnesses})

"""Exhaustive search for shuffle witness pairs over small DFA spaces.

A candidate pair over k letters is a multiset of joint letters (s, t) with
s acting on the m-state left DFA and t on the n-state right DFA, plus a
choice of final sets. Letter order never matters to the shuffle, so
multisets are generated in nondecreasing canonical order, killing letter
permutations at the source; remaining symmetry (per-DFA state relabeling
and joint letter renaming) is removed by canonicalizing reported
witnesses with automata.bfs_key. Each multiset's shuffle NFA is
determinized once with automata.subset_table; each final-set choice marks
that table's final subsets and runs automata.refine on it. The search runs
serially in one thread. The guard formula deliberately overcounts — it
prices the raw space before the minimality and reachability filters bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from string import ascii_lowercase

from .automata import (
    Dfa,
    Transformation,
    bfs_key,
    refine,
    state_complexity,
    subset_table,
    trim,
)
from .shuffle import bound_f, build_shuffle_nfa

SEARCH_GUARD_EVALUATIONS = 10**9


class SearchVolumeError(RuntimeError):
    """The raw candidate volume exceeds the evaluation guard."""


@dataclass(frozen=True)
class SearchSpace:
    """The candidate space for witness pairs with kappa(K)=m, kappa(L)=n."""

    m: int
    n: int
    k: int

    def letter_candidates(self) -> list[tuple[Transformation, Transformation]]:
        """All joint letters (s, t) in lexicographic image order."""
        out = []
        for s in product(range(1, self.m + 1), repeat=self.m):
            for t in product(range(1, self.n + 1), repeat=self.n):
                out.append((Transformation(s), Transformation(t)))
        return out

    def final_choices(self) -> int:
        """Nonempty proper final sets on each side."""
        return (2**self.m - 2) * (2**self.n - 2)

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


def _proper_final_sets(size: int) -> list[frozenset[int]]:
    out = []
    for bits in range(1, (1 << size) - 1):
        out.append(frozenset(q + 1 for q in range(size) if bits >> q & 1))
    return out


def pair_canonical_key(
    K: Dfa, L: Dfa, *, allow_swap: bool = False, ignore_finals: bool = False
) -> tuple:
    """Canonical key of a witness pair: minimum of the per-DFA relabeling
    keys over joint renamings of the shared alphabet.

    allow_swap also minimizes over the operand order (sound because the
    shuffle commutes; only available for equal state counts). ignore_finals
    drops both final sets from the key — the convention under which the
    4-letter 2x2 witness is unique: with final sets distinguished, the
    exhaustive search finds bound-meeting variants of the same transition
    structure that differ only in which state is final on each side.
    """
    size = 2 if ignore_finals else 3
    orders = [(trim(K), trim(L))]
    if allow_swap and K.state_count == L.state_count:
        orders.append(orders[0][::-1])
    return min(
        (bfs_key(first, perm)[:size], bfs_key(second, perm)[:size])
        for first, second in orders
        for perm in permutations(range(len(K.alphabet)))
    )


def right_dfa_canonical_key(L: Dfa, *, ignore_finals: bool = False) -> tuple:
    """Canonical key of one DFA under letter renaming and state relabeling;
    optionally blind to the final set. Unlike canonicalize, it renames
    letters at every alphabet size."""
    L = trim(L)
    size = 2 if ignore_finals else 3
    return min(
        bfs_key(L, perm)[:size] for perm in permutations(range(len(L.alphabet)))
    )


def _guard(space: SearchSpace, force: bool) -> None:
    volume = space.volume_estimate()
    if volume > SEARCH_GUARD_EVALUATIONS and not force:
        raise SearchVolumeError(
            f"search space for (m={space.m}, n={space.n}, k={space.k}) prices "
            f"at ~{volume:.3e} candidate evaluations, over the guard of "
            f"{SEARCH_GUARD_EVALUATIONS:.0e}; pass force=True to run anyway"
        )


def max_shuffle_complexity(
    m: int,
    n: int,
    k: int,
    result_cap: int = 10,
    *,
    force: bool = False,
    stop_at_bound: bool = False,
    dedup_swap: bool = True,
    dedup_finals: bool = True,
) -> SearchResult:
    """Exact maximum of the shuffle complexity over the deduplicated space.

    Each letter multiset gets one shuffle NFA and one subset table. Its
    reachable-subset count bounds kappa for every choice of final sets, so
    a multiset whose count is below the best kappa so far is skipped. For
    the others, each pair (F_K, F_L) giving minimal K and L marks the
    subsets meeting F_K x F_L final and refines the table; kappa is the
    number of blocks. candidates_evaluated counts these pairs. The scan is
    serial and in a fixed order, so its counts are deterministic.

    Witnesses attaining the maximum are reported in canonical form, at most
    result_cap of them (a negative cap raises ValueError); one
    representative survives per equivalence class of pair_canonical_key
    under the dedup_* convention flags (defaults: operand swap allowed,
    final sets not distinguished — the convention under which the 4-letter
    2x2 witness is unique). stop_at_bound returns
    as soon as some pair meets bound_f(m, n); the reported maximum is then
    the bound but the witness list may be truncated early.
    """
    if result_cap < 0:
        raise ValueError(f"result_cap must be >= 0, not {result_cap}")
    space = SearchSpace(m, n, k)
    _guard(space, force)
    bound = bound_f(m, n)
    names = _letter_names(k)
    left_finals = _proper_final_sets(m)
    right_finals = _proper_final_sets(n)
    candidates = space.letter_candidates()

    def scan() -> tuple[int, dict[tuple, tuple[Dfa, Dfa]], int]:
        best = 0
        witnesses: dict[tuple, tuple[Dfa, Dfa]] = {}
        evaluated = 0
        for multiset in combinations_with_replacement(range(len(candidates)), k):
            letters = [candidates[i] for i in multiset]
            k_trans = tuple(s for s, _ in letters)
            l_trans = tuple(t for _, t in letters)
            sh = build_shuffle_nfa(
                Dfa(m, names, k_trans, frozenset([1])),
                Dfa(n, names, l_trans, frozenset([1])),
            )
            subsets, table = subset_table(sh.nfa)
            if len(subsets) < best:
                continue  # cannot attain the current maximum
            lefts = [
                K for FK in left_finals
                if state_complexity(K := Dfa(m, names, k_trans, FK)) == m
            ]
            rights = [
                L for FL in right_finals
                if state_complexity(L := Dfa(n, names, l_trans, FL)) == n
            ]
            for K in lefts:
                for L in rights:
                    evaluated += 1
                    final_mask = sum(
                        1 << (sh.state_id(p, q) - 1) for p in K.finals for q in L.finals
                    )
                    kappa = max(refine(table, [s & final_mask for s in subsets]))
                    if kappa > best:
                        best = kappa
                        witnesses = {}
                    if kappa == best:
                        witnesses.setdefault(pair_canonical_key(K, L), (K, L))
                    if stop_at_bound and best >= bound:
                        return best, witnesses, evaluated
        return best, witnesses, evaluated

    best, witnesses, evaluated = scan()
    # regroup the strictly-deduplicated witnesses under the requested
    # convention; the representative is the one with the least strict key
    classes: dict[tuple, tuple] = {}
    for strict_key in sorted(witnesses):
        K, L = witnesses[strict_key]
        relaxed = pair_canonical_key(
            K, L, allow_swap=dedup_swap, ignore_finals=dedup_finals
        )
        classes.setdefault(relaxed, strict_key)
    pairs = [witnesses[classes[key]] for key in sorted(classes)][:result_cap]
    return SearchResult(best, bound, best >= bound, pairs, evaluated)


def min_witness_alphabet(m: int, n: int, k_range, *, force: bool = False) -> int | None:
    """Smallest letter count in k_range whose best pair meets the bound,
    or None. Values below the proven alphabet lower bound are skipped
    without search."""
    from .shuffle import min_alphabet_lower_bound

    lower = min_alphabet_lower_bound(m, n)
    for k in k_range:
        if k < lower:
            continue
        result = max_shuffle_complexity(m, n, k, force=force, stop_at_bound=True)
        if result.met:
            return k
    return None


def count_nonisomorphic_witness_right_dfas(
    m: int,
    n: int,
    k: int,
    *,
    ignore_finals: bool = True,
    force: bool = False,
) -> int:
    """Number of canonically distinct right-hand DFAs in bound-meeting
    pairs, after pair-orientation normalization. ignore_finals (the
    default, matching the relaxation under which the 2x3 count exceeds 60)
    makes right DFAs differing only in final sets count once."""
    result = max_shuffle_complexity(
        m, n, k, result_cap=10**6, force=force,
        dedup_swap=True, dedup_finals=ignore_finals,
    )
    if not result.met:
        return 0
    keys = {
        right_dfa_canonical_key(L, ignore_finals=ignore_finals)
        for _, L in result.witnesses
    }
    return len(keys)

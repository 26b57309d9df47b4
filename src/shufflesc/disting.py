"""Distinguishability of subset-automaton states via unique in-transitions.

If every state of an NFA is uniquely distinguishable — some word is
accepted from it and from no other state — then all subsets of its subset
automaton are pairwise inequivalent. Unique distinguishability propagates
backwards along unique in-transitions: edges (p, x, q) where p is the only
state whose successor set on x contains q. With a single final state the
empty word seeds the closure, which is exactly how the ternary witness
family below gets its full complement of distinguishable product states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, Nfa, Transformation, _step_tables, refine


@dataclass(frozen=True)
class UniqueInEdge:
    """Edge (src, letter, dst) where src is the only letter-predecessor of dst."""

    src: int
    letter: str
    dst: int


def unique_in_subgraph(a: Nfa) -> list[UniqueInEdge]:
    """All unique in-transitions of the NFA, in (letter, dst) order."""
    edges = []
    for i, letter in enumerate(a.alphabet):
        for dst in range(1, a.state_count + 1):
            preds = [
                src
                for src in range(1, a.state_count + 1)
                if dst in a.transitions[src - 1][i]
            ]
            if len(preds) == 1:
                edges.append(UniqueInEdge(preds[0], letter, dst))
    return edges


def uniquely_distinguishable(a: Nfa) -> frozenset[int]:
    """States certified uniquely distinguishable by backward closure.

    The seed is the final state when it is unique (only it accepts the
    empty word); each unique in-transition whose target is in the set pulls
    its source in. Sound but not complete: states outside the closure are
    not claimed indistinguishable, and an NFA with several final states
    yields the empty closure.
    """
    if len(a.finals) != 1:
        return frozenset()
    closed = set(a.finals)
    edges = unique_in_subgraph(a)
    changed = True
    while changed:
        changed = False
        for e in edges:
            if e.dst in closed and e.src not in closed:
                closed.add(e.src)
                changed = True
    return frozenset(closed)


def subsets_pairwise_distinct(a: Nfa) -> bool:
    """Sound certificate: True when every state is uniquely distinguishable,
    which forces all subset-automaton states to be pairwise inequivalent."""
    return len(uniquely_distinguishable(a)) == a.state_count


def brute_subsets_pairwise_distinct(a: Nfa) -> bool:
    """Oracle: partition refinement over all 2^state_count subsets.

    The step table of the whole powerset automaton (reachable subsets or
    not) is automata._step_tables with one chunk of all n bits, which is
    passed to automata.refine; True iff every subset lands in its own block.
    """
    n = a.state_count
    if n > 12:
        raise ValueError(f"oracle enumerates 2^{n} subsets; limit is 12 states")
    total = 1 << n
    final_mask = sum(1 << (f - 1) for f in a.finals)
    succ = [[sum(1 << (s - 1) for s in targets) for targets in letter]
            for letter in zip(*a.transitions)]
    # row enc steps subset enc on every letter; state enc + 1 of the
    # powerset automaton carries subset enc
    table = (_step_tables(succ, n, n)[0] + 1).tolist()
    return max(refine(table, [enc & final_mask for enc in range(total)])) == total


def ternary_witness(m: int, n: int) -> tuple[Dfa, Dfa]:
    """The three-letter distinguishability witness pair.

    K over {a, b, c}: a cycles 1 -> 2 -> ... -> m -> 1, b is constant 1,
    c sends 1 to 2 and everything else to 1; final state m. L swaps the
    roles: a constant 1, b the cycle, c constant n; final state n. Both are
    minimal, so their complexities are exactly m and n. The closure of
    uniquely_distinguishable covers every state of their shuffle NFA, so
    its reachable subsets are pairwise inequivalent. Three letters do not
    reach every valid subset, though: the shuffle's complexity stays below
    f(m, n), for example 9 of 10 at 2x2 and 509 of 3392 at 3x4.
    """
    if m < 2 or n < 2:
        raise ValueError("the witness family needs m, n >= 2")
    k_a = Transformation(tuple(i + 1 if i < m else 1 for i in range(1, m + 1)))
    k_b = Transformation((1,) * m)
    k_c = Transformation(tuple(2 if i == 1 else 1 for i in range(1, m + 1)))
    l_a = Transformation((1,) * n)
    l_b = Transformation(tuple(j + 1 if j < n else 1 for j in range(1, n + 1)))
    l_c = Transformation((n,) * n)
    K = Dfa(m, ("a", "b", "c"), (k_a, k_b, k_c), frozenset([m]))
    L = Dfa(n, ("a", "b", "c"), (l_a, l_b, l_c), frozenset([n]))
    return K, L

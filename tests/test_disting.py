"""Unique in-transitions, the distinguishability closure, and the ternary witness."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesc.automata import Nfa, state_complexity
from shufflesc.disting import (
    UniqueInEdge,
    brute_subsets_pairwise_distinct,
    subsets_pairwise_distinct,
    ternary_witness,
    unique_in_subgraph,
    uniquely_distinguishable,
)
from shufflesc.shuffle import bound_f, build_shuffle_nfa, shuffle_state_complexity


def witness_product(m, n):
    K, L = ternary_witness(m, n)
    return build_shuffle_nfa(K, L)


@st.composite
def nfa_strategy(draw, max_states=6, max_letters=3):
    count = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    states = st.integers(1, count)
    transitions = tuple(
        tuple(
            frozenset(draw(st.sets(states, max_size=count))) for _ in range(k)
        )
        for _ in range(count)
    )
    return Nfa(
        state_count=count,
        alphabet=tuple("abc"[:k]),
        transitions=transitions,
        initial=draw(states),
        finals=frozenset(draw(st.sets(states, max_size=count))),
    )


class TestUniqueInSubgraph:
    def test_drawn_spanning_edges_present_4x5(self):
        # a drawn diagram of the (4,5) witness shows a spanning set of
        # unique in-transitions; every drawn edge must be in the computed
        # subgraph, which also contains further edges with the same property
        sh = witness_product(4, 5)
        m, n = 4, 5
        edges = {
            (sh.state_pair(e.src), e.letter, sh.state_pair(e.dst))
            for e in unique_in_subgraph(sh.nfa)
        }
        drawn = [
            ((i - 1, j), "a", (i, j))
            for i in range(2, m + 1)
            for j in range(2, n + 1)
        ]
        drawn += [((m, j - 1), "b", (m, j)) for j in range(2, n + 1)]
        drawn += [((i, 1), "b", (i, 2)) for i in range(2, m + 1)]
        drawn.append(((1, 1), "c", (2, 1)))
        for edge in drawn:
            assert edge in edges
        assert len(edges) == 35  # full subgraph, independent per-edge scan

    def test_state_34_has_unique_a_edge_from_24(self):
        sh = witness_product(4, 5)
        edges = unique_in_subgraph(sh.nfa)
        assert (
            UniqueInEdge(sh.state_id(2, 4), "a", sh.state_id(3, 4)) in edges
        )

    def test_single_state_self_loop(self):
        a = Nfa(
            state_count=1,
            alphabet=("a",),
            transitions=((frozenset([1]),),),
            initial=1,
            finals=frozenset([1]),
        )
        assert unique_in_subgraph(a) == [UniqueInEdge(1, "a", 1)]

    def test_two_predecessors_block_uniqueness(self):
        a = Nfa(
            state_count=3,
            alphabet=("a",),
            transitions=(
                (frozenset([3]),),
                (frozenset([3]),),
                (frozenset(),),
            ),
            initial=1,
            finals=frozenset([3]),
        )
        assert not any(e.dst == 3 for e in unique_in_subgraph(a))

    @settings(max_examples=120, deadline=None)
    @given(nfa_strategy())
    def test_edges_verified_by_direct_scan(self, a):
        edges = unique_in_subgraph(a)
        for e in edges:
            i = a.alphabet.index(e.letter)
            assert e.dst in a.transitions[e.src - 1][i]
            for other in range(1, a.state_count + 1):
                if other != e.src:
                    assert e.dst not in a.transitions[other - 1][i]


class TestUniquelyDistinguishable:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 5)])
    def test_witness_closure_is_full(self, m, n):
        sh = witness_product(m, n)
        assert uniquely_distinguishable(sh.nfa) == frozenset(
            range(1, m * n + 1)
        )

    def test_state_outside_subgraph_excluded(self):
        # state 1 has no unique in-edge path to the final state
        a = Nfa(
            state_count=3,
            alphabet=("a", "b"),
            transitions=(
                (frozenset(), frozenset()),
                (frozenset([3]), frozenset()),
                (frozenset(), frozenset([3])),
            ),
            initial=1,
            finals=frozenset([3]),
        )
        assert uniquely_distinguishable(a) == frozenset([2, 3])

    def test_accepting_sink_without_in_edges(self):
        a = Nfa(
            state_count=2,
            alphabet=("a",),
            transitions=((frozenset([1]),), (frozenset(),)),
            initial=1,
            finals=frozenset([2]),
        )
        assert uniquely_distinguishable(a) == frozenset([2])

    def test_multiple_finals_yield_empty_closure(self):
        a = Nfa(
            state_count=2,
            alphabet=("a",),
            transitions=((frozenset([2]),), (frozenset([1]),)),
            initial=1,
            finals=frozenset([1, 2]),
        )
        assert uniquely_distinguishable(a) == frozenset()


class TestPairwiseDistinct:
    def test_witness_2x2_certificate_and_oracle(self):
        sh = witness_product(2, 2)
        assert subsets_pairwise_distinct(sh.nfa)
        assert brute_subsets_pairwise_distinct(sh.nfa)

    def test_witness_3x3_certificate_and_oracle(self):
        sh = witness_product(3, 3)
        assert subsets_pairwise_distinct(sh.nfa)
        assert brute_subsets_pairwise_distinct(sh.nfa)

    def test_interchangeable_states_fail_certificate(self):
        # states 1 and 2 can be swapped by an automorphism, so neither can
        # be uniquely distinguishable
        a = Nfa(
            state_count=3,
            alphabet=("a",),
            transitions=(
                (frozenset([3]),),
                (frozenset([3]),),
                (frozenset([1, 2]),),
            ),
            initial=3,
            finals=frozenset([3]),
        )
        assert not subsets_pairwise_distinct(a)

    def test_oracle_rejects_large_inputs(self):
        sh = witness_product(4, 4)
        with pytest.raises(ValueError):
            brute_subsets_pairwise_distinct(sh.nfa)

    @settings(max_examples=100, deadline=None)
    @given(nfa_strategy())
    def test_certificate_implies_oracle(self, a):
        if subsets_pairwise_distinct(a):
            assert brute_subsets_pairwise_distinct(a)


class TestTernaryWitness:
    def test_instantiation_at_2x2(self):
        K, L = ternary_witness(2, 2)
        assert [t.images for t in K.transitions] == [(2, 1), (1, 1), (2, 1)]
        assert K.finals == frozenset([2])
        assert [t.images for t in L.transitions] == [(1, 1), (2, 1), (2, 2)]
        assert L.finals == frozenset([2])

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 5), (6, 6)])
    def test_operands_are_minimal(self, m, n):
        K, L = ternary_witness(m, n)
        assert state_complexity(K) == m
        assert state_complexity(L) == n

    @pytest.mark.parametrize(
        "m,n,kappa",
        [(2, 2, 9), (2, 3, 33), (3, 3, 123), (2, 4, 89), (3, 4, 509)],
    )
    def test_shuffle_complexity_below_bound(self, m, n, kappa):
        # the distinguishability witness does not reach enough subsets to
        # meet f(m, n)
        K, L = ternary_witness(m, n)
        assert shuffle_state_complexity(K, L) == kappa < bound_f(m, n)

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            ternary_witness(1, 5)
        with pytest.raises(ValueError):
            ternary_witness(2, 1)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 5), (5, 6)])
    def test_every_state_reaches_sink_in_subgraph(self, m, n):
        sh = witness_product(m, n)
        forward = {}
        for e in unique_in_subgraph(sh.nfa):
            forward.setdefault(e.src, []).append(e.dst)
        sink = sh.state_id(m, n)
        for start in range(1, m * n + 1):
            seen = {start}
            queue = deque([start])
            while queue and sink not in seen:
                for nxt in forward.get(queue.popleft(), []):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert sink in seen

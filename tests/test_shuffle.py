import json
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from automaton_words import blocks, dfa_accepts, nfa_accepts, nfa_step, subset_steps
from shufflesc.automata import (
    Dfa,
    Transformation,
    determinize,
    refine,
    refine_array,
    state_complexity,
    subset_table,
    subset_table_array,
)
from shufflesc.shuffle import (
    GridSizeError,
    ProductSubset,
    bound_f,
    build_shuffle_nfa,
    col1_mask,
    count_valid_subsets,
    ideal_bound,
    is_valid,
    min_alphabet_lower_bound,
    okhotin_witness,
    cell_successors,
    projections,
    shuffle_state_complexity,
    sigma_star_dfa,
    valid_encodings,
)

T = Transformation
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"


def witness_2x2_pair():
    K = Dfa(2, ("a", "b", "c", "d"),
            (T((2, 2)), T((2, 1)), T((2, 1)), T((1, 1))), frozenset([2]))
    L = Dfa(2, ("a", "b", "c", "d"),
            (T((2, 1)), T((1, 1)), T((2, 1)), T((2, 1))), frozenset([2]))
    return K, L


def witness_2x3_pair():
    K = Dfa(2, tuple("abcdef"),
            (T((1, 2)), T((2, 1)), T((2, 1)), T((1, 1)), T((2, 2)), T((2, 1))),
            frozenset([2]))
    L = Dfa(3, tuple("abcdef"),
            (T((2, 2, 3)), T((2, 1, 3)), T((1, 1, 1)),
             T((3, 1, 2)), T((3, 1, 2)), T((3, 1, 1))),
            frozenset([1]))
    return K, L


@st.composite
def dfa_pair_strategy(draw, max_states=4, any_initial=False):
    m = draw(st.integers(1, max_states))
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    letters = tuple("abc"[:k])

    def one(size):
        transitions = tuple(
            T(tuple(draw(st.integers(1, size)) for _ in range(size)))
            for _ in range(k)
        )
        finals = frozenset(q for q in range(1, size + 1) if draw(st.booleans()))
        initial = draw(st.integers(1, size)) if any_initial else 1
        return Dfa(size, letters, transitions, finals, initial)

    return one(m), one(n)


class TestProductSubset:
    def test_index_layout_is_normative(self):
        # (p,q) occupies bit (p-1)*n + (q-1)
        s = ProductSubset.from_pairs(3, 4, [(2, 3)])
        assert s.bits == 1 << (1 * 4 + 2)

    def test_pairs_round_trip(self):
        pairs = [(1, 1), (2, 3), (3, 1)]
        s = ProductSubset.from_pairs(3, 3, pairs)
        assert sorted(s.pairs()) == sorted(pairs)
        assert len(s) == 3
        assert (2, 3) in s and (3, 3) not in s

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            ProductSubset.from_pairs(2, 2, [(3, 1)])


class TestValidity:
    def test_initial_valid(self):
        assert is_valid(ProductSubset.from_pairs(2, 2, [(1, 1)]))

    def test_cst_pair_valid(self):
        assert is_valid(ProductSubset.from_pairs(3, 3, [(2, 1), (1, 3)]))

    def test_off_axis_invalid(self):
        assert not is_valid(ProductSubset.from_pairs(2, 2, [(2, 2)]))

    def test_col1_mask_is_first_cell_of_each_row(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert col1_mask(m, n) == sum(1 << p * n for p in range(m)), (m, n)


class TestBound:
    @pytest.mark.parametrize("m,n,value", [
        (1, 1, 1), (1, 2, 2), (2, 2, 10), (2, 3, 44),
    ])
    def test_paper_values(self, m, n, value):
        assert bound_f(m, n) == value

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_one_row_case(self, n):
        assert bound_f(1, n) == 2 ** (n - 1)

    def test_six_six_exact(self):
        assert bound_f(6, 6) == 2**35 + 2**25 * 31 * 31

    def test_symmetric(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert bound_f(m, n) == bound_f(n, m)

    @pytest.mark.parametrize("m,n", [
        (2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 6),
        (3, 5), (2, 7), (4, 4), (2, 8),
    ])
    def test_counting_identity(self, m, n):
        assert count_valid_subsets(m, n) == bound_f(m, n)

    def test_count_examples(self):
        assert count_valid_subsets(2, 2) == 10
        assert count_valid_subsets(3, 3) == 400
        assert count_valid_subsets(2, 4) == 184

    def test_count_guard(self):
        with pytest.raises(GridSizeError):
            count_valid_subsets(5, 6)

    def test_scan_chunk_memory(self):
        # a chunk's arange and masked copies set the scan's memory; at the
        # 24-cell grid one chunk must stay under 2 MiB
        tracemalloc.start()
        try:
            next(valid_encodings(4, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestShuffleNfa:
    def test_one_state_all_accepting(self):
        d = Dfa(1, ("a",), (T((1,)),), frozenset([1]))
        sh = build_shuffle_nfa(d, d)
        assert sh.nfa.state_count == 1
        assert nfa_accepts(sh.nfa, [])
        assert nfa_accepts(sh.nfa, ["a", "a"])

    def test_transition_law(self):
        K, L = witness_2x2_pair()
        sh = build_shuffle_nfa(K, L)
        # delta((1,1), a) = {(delta_K(1,a), 1), (1, delta_L(1,a))} = {(2,1),(1,2)}
        succ = nfa_step(sh.nfa, frozenset([sh.state_id(1, 1)]), "a")
        assert {sh.state_pair(s) for s in succ} == {(2, 1), (1, 2)}

    def test_successor_count_one_or_two(self):
        K, L = witness_2x3_pair()
        sh = build_shuffle_nfa(K, L)
        for row in sh.nfa.transitions:
            for succs in row:
                assert 1 <= len(succs) <= 2

    def test_alphabet_mismatch(self):
        K = Dfa(1, ("a",), (T((1,)),), frozenset([1]))
        L = Dfa(1, ("b",), (T((1,)),), frozenset([1]))
        with pytest.raises(ValueError):
            build_shuffle_nfa(K, L)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            shuffle_state_complexity(K, L)

    def test_alphabet_in_another_order(self):
        # a DFA file keys its transitions by letter name, so the letter order
        # of its alphabet list carries no meaning
        K, L = witness_2x3_pair()
        order = [5, 3, 0, 4, 1, 2]
        reordered = Dfa(L.state_count, tuple(L.alphabet[i] for i in order),
                        tuple(L.transitions[i] for i in order), L.finals)
        assert reordered.alphabet != K.alphabet
        assert shuffle_state_complexity(K, reordered) == shuffle_state_complexity(K, L) == 44
        assert (build_shuffle_nfa(K, reordered).nfa.transitions
                == build_shuffle_nfa(K, L).nfa.transitions)


class TestShuffleComplexity:
    def test_2x2_witness_meets_bound(self):
        assert shuffle_state_complexity(*witness_2x2_pair()) == 10

    def test_example_two_three(self):
        assert shuffle_state_complexity(*witness_2x3_pair()) == 44

    def test_empty_left_language(self):
        K = Dfa(2, ("a",), (T((2, 1)),), frozenset())
        L = Dfa(2, ("a",), (T((2, 1)),), frozenset([2]))
        assert shuffle_state_complexity(K, L) == 1

    def test_fixture_letters_meet_3x3_with_finals_one(self):
        # the 12 letters of letters_3x3.json meet f(3, 3) = 400 with final
        # set {1} on both sides, and with no other of the 36 final-set pairs
        letters = json.loads((FIXTURES / "letters_3x3.json").read_text())
        names = tuple(f"x{i}" for i in range(len(letters)))
        proper = [frozenset(q for q in (1, 2, 3) if bits >> q - 1 & 1)
                  for bits in range(1, 7)]
        meeting = []
        for FK, FL in product(proper, proper):
            K = Dfa(3, names, tuple(T(tuple(a["s"])) for a in letters), FK)
            L = Dfa(3, names, tuple(T(tuple(a["t"])) for a in letters), FL)
            kappa = shuffle_state_complexity(K, L)
            assert kappa <= bound_f(3, 3) == 400
            if kappa == 400:
                meeting.append((FK, FL))
        assert meeting == [({1}, {1})]

    @pytest.mark.slow
    def test_array_path_matches_loop_on_random_4x6(self):
        # a random minimal 4x6 pair over 8 letters, drawn as the benchmark
        # draws its random pairs: 56,288 subsets and kappa 53,454; the loop
        # takes about 3 s of the test's 3.7 s on a 2-vCPU VM
        rng = random.Random(6)
        while True:
            ks = [tuple(rng.randint(1, 4) for _ in range(4)) for _ in range(8)]
            ls = [tuple(rng.randint(1, 6) for _ in range(6)) for _ in range(8)]
            fk = frozenset(rng.sample(range(1, 5), rng.randint(1, 3)))
            fl = frozenset(rng.sample(range(1, 7), rng.randint(1, 5)))
            names = tuple(f"x{i}" for i in range(8))
            K = Dfa(4, names, tuple(map(T, ks)), fk)
            L = Dfa(6, names, tuple(map(T, ls)), fl)
            if state_complexity(K) == 4 and state_complexity(L) == 6:
                break
        succ = cell_successors(list(zip(ks, ls)), 4, 6)
        final = sum(1 << (p - 1) * 6 + q - 1 for p in fk for q in fl)
        subsets, table = subset_table(succ, 1)
        block = refine(table, [s & final for s in subsets])
        kappa = max(block)
        array_subsets, array_table = subset_table_array(succ, 1, 24)
        array_block = refine_array(array_table, array_subsets & final != 0)
        # the same automaton and partition, numbered in another order
        array_subsets = array_subsets.tolist()
        assert subset_steps(array_subsets, array_table.tolist()) == subset_steps(subsets, table)
        assert blocks(array_subsets, array_block.tolist()) == blocks(subsets, block)
        assert array_block.max() == kappa
        assert (len(subsets), kappa) == (56288, 53454)
        assert shuffle_state_complexity(K, L) == kappa

    def test_2x2_witness_subset_automaton_has_ten_reachable(self):
        sh = build_shuffle_nfa(*witness_2x2_pair())
        det, subsets = determinize(sh.nfa)
        assert len(subsets) >= 10


class TestProjections:
    def test_initial(self):
        assert projections(ProductSubset.from_pairs(2, 2, [(1, 1)])) == (
            frozenset([1]), frozenset([1]),
        )

    def test_empty(self):
        assert projections(ProductSubset(2, 2, 0)) == (frozenset(), frozenset())

    def test_full_row_projection(self):
        # columns of the 9-column orbit table over Q_5 cover every row
        cols = [{1, 2}, {2, 3}, {1, 3}, {1, 4}, {2, 4}, {3, 4},
                {1, 5}, {2, 5}, {3, 5}]
        pairs = [(i, j) for j, col in enumerate(cols, start=1) for i in col]
        rows, _ = projections(ProductSubset.from_pairs(5, 9, pairs))
        assert rows == frozenset([1, 2, 3, 4, 5])


class TestOkhotin:
    def test_n3_language(self):
        d = okhotin_witness(3)
        assert d.alphabet == ("a1",)
        assert state_complexity(d) == 3
        assert dfa_accepts(d, ["a1", "a1"])
        assert dfa_accepts(d, ["a1", "a1", "a1"])
        assert not dfa_accepts(d, ["a1"])
        assert not dfa_accepts(d, [])

    def test_first_repeat_accepts(self):
        d = okhotin_witness(5)
        assert dfa_accepts(d, ["a2", "a3", "a2"])
        assert not dfa_accepts(d, ["a2", "a3", "a1"])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ideal_bound_met(self, n):
        L = okhotin_witness(n)
        kappa = shuffle_state_complexity(sigma_star_dfa(L.alphabet), L)
        assert kappa == ideal_bound(n) == 2 ** (n - 2) + 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_witness_minimal(self, n):
        assert state_complexity(okhotin_witness(n)) == n

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            okhotin_witness(2)
        with pytest.raises(ValueError):
            ideal_bound(2)


class TestAlphabetLowerBound:
    def test_two_two_exception(self):
        assert min_alphabet_lower_bound(2, 2) == 4

    def test_formula_values(self):
        assert min_alphabet_lower_bound(2, 3) == 5
        assert min_alphabet_lower_bound(3, 3) == 8


class TestRandomPairProperties:
    @settings(max_examples=120, deadline=None)
    @given(dfa_pair_strategy())
    def test_reachable_subsets_valid_and_monotone(self, pair):
        K, L = pair
        sh = build_shuffle_nfa(K, L)
        m, n = sh.m, sh.n
        det, subsets = determinize(sh.nfa)
        for sub in subsets:
            pairs = [sh.state_pair(s) for s in sub]
            S = ProductSubset.from_pairs(m, n, pairs)
            assert is_valid(S)
            rows, cols = projections(S)
            for x in sh.nfa.alphabet:
                succ = nfa_step(sh.nfa, sub, x)
                S2 = ProductSubset.from_pairs(
                    m, n, [sh.state_pair(s) for s in succ]
                )
                rows2, cols2 = projections(S2)
                assert rows <= rows2 and cols <= cols2

    @settings(max_examples=80, deadline=None)
    @given(dfa_pair_strategy(any_initial=True))
    def test_complexity_matches_minimized_subset_dfa(self, pair):
        # the table refinement against determinize + minimize on a Dfa
        K, L = pair
        det, _ = determinize(build_shuffle_nfa(K, L).nfa)
        assert shuffle_state_complexity(K, L) == state_complexity(det)

    @settings(max_examples=100, deadline=None)
    @given(dfa_pair_strategy(max_states=3, any_initial=True))
    def test_complexity_matches_frozenset_subset_construction(self, pair):
        # reference: step the validated shuffle Nfa on frozensets, then refine
        K, L = pair
        nfa = build_shuffle_nfa(K, L).nfa
        subsets = [frozenset([nfa.initial])]
        ids = {subsets[0]: 1}
        table = []
        for current in subsets:
            row = []
            for x in nfa.alphabet:
                nxt = nfa_step(nfa, current, x)
                if nxt not in ids:
                    ids[nxt] = len(subsets) + 1
                    subsets.append(nxt)
                row.append(ids[nxt])
            table.append(row)
        expected = max(refine(table, [S & nfa.finals for S in subsets]))
        assert shuffle_state_complexity(K, L) == expected

    @settings(max_examples=100, deadline=None)
    @given(dfa_pair_strategy(any_initial=True))
    def test_nfa_matches_frozenset_formula(self, pair):
        # reference: the product NFA written out state by state
        K, L = pair
        m, n = K.state_count, L.state_count

        def sid(p, q):
            return (p - 1) * n + (q - 1) + 1

        letters = [(s.images, t.images) for s, t in zip(K.transitions, L.transitions)]
        transitions = tuple(
            tuple(frozenset({sid(s[p - 1], q), sid(p, t[q - 1])}) for s, t in letters)
            for p in range(1, m + 1)
            for q in range(1, n + 1)
        )
        nfa = build_shuffle_nfa(K, L).nfa
        assert nfa.transitions == transitions
        assert nfa.initial == sid(K.initial, L.initial)
        assert nfa.finals == {sid(p, q) for p in K.finals for q in L.finals}

    @settings(max_examples=60, deadline=None)
    @given(dfa_pair_strategy())
    def test_bound_dominance_and_commutativity(self, pair):
        K, L = pair
        kappa = shuffle_state_complexity(K, L)
        assert kappa <= bound_f(state_complexity(K), state_complexity(L))
        assert kappa == shuffle_state_complexity(L, K)

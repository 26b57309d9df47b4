"""Exhaustive witness search over small DFA pairs."""

from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from shufflesc.automata import (
    Dfa,
    Transformation,
    _memo_table,
    dfa_to_dict,
    load_dfa,
    refine,
    state_complexity,
    subset_order,
    subset_table,
    subset_table_array,
)
from shufflesc.cli import main
from shufflesc.search import (
    _final_sets,
    _letter_names,
    _minimal_finals,
    SearchSpace,
    SearchVolumeError,
    count_nonisomorphic_witness_right_dfas,
    max_shuffle_complexity,
    min_witness_alphabet,
    pair_canonical_key,
)
from shufflesc.shuffle import bound_f, cell_successors, shuffle_state_complexity

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestSearchSpace:
    def test_letter_candidates_cover_all_pairs(self):
        space = SearchSpace(2, 2, 3)
        cands = space.letter_candidates()
        assert len(cands) == 16
        assert len(set(cands)) == 16
        assert cands == sorted(cands)

    def test_volume_estimate_2_3_6_exceeds_guard(self):
        space = SearchSpace(2, 3, 6)
        assert space.volume_estimate() > 10**9

    def test_guard_refuses_2_3_6(self):
        with pytest.raises(SearchVolumeError):
            max_shuffle_complexity(2, 3, 6)

    @pytest.mark.parametrize("size, choices", [(1, 2), (2, 2), (3, 6)])
    def test_final_choices_count_the_scanned_sets(self, size, choices):
        assert len(_final_sets(size)) == choices
        assert SearchSpace(size, 2, 1).final_choices() == choices * 2


class TestMaxShuffleComplexity:
    def test_three_letters_fall_short_at_2x2(self):
        result = max_shuffle_complexity(2, 2, 3)
        assert result.bound == 10
        assert result.maximum == 9
        assert not result.met
        for K, L in result.witnesses:
            assert shuffle_state_complexity(K, L) == 9

    def test_four_letters_meet_2x2_with_unique_witness(self):
        result = max_shuffle_complexity(2, 2, 4)
        assert result.maximum == result.bound == 10
        assert result.met
        assert len(result.witnesses) == 1
        K, L = result.witnesses[0]
        fig_K = load_dfa(FIXTURES / "witness_2x2_left.json")
        fig_L = load_dfa(FIXTURES / "witness_2x2_right.json")
        assert pair_canonical_key(K, L, relaxed=True) == pair_canonical_key(
            fig_K, fig_L, relaxed=True
        )

    def test_witnesses_reverify(self):
        result = max_shuffle_complexity(2, 2, 4)
        for K, L in result.witnesses:
            assert state_complexity(K) == 2 and state_complexity(L) == 2
            assert shuffle_state_complexity(K, L) == result.maximum

    def test_maximum_matches_undeduplicated_brute_force_2x2x2(self):
        letters = [
            (Transformation(s), Transformation(t))
            for s in product((1, 2), repeat=2)
            for t in product((1, 2), repeat=2)
        ]
        best = 0
        for l1 in letters:
            for l2 in letters:
                for fk in (frozenset([1]), frozenset([2])):
                    for fl in (frozenset([1]), frozenset([2])):
                        K = Dfa(2, ("a", "b"), (l1[0], l2[0]), fk)
                        L = Dfa(2, ("a", "b"), (l1[1], l2[1]), fl)
                        if state_complexity(K) != 2:
                            continue
                        if state_complexity(L) != 2:
                            continue
                        best = max(best, shuffle_state_complexity(K, L))
        assert max_shuffle_complexity(2, 2, 2).maximum == best

    def test_three_letters_at_2x3(self):
        # the only pinned search with m != n
        result = max_shuffle_complexity(2, 3, 3)
        assert (result.maximum, result.bound) == (33, 44)
        assert result.candidates_evaluated == 3128
        assert len(result.witnesses) == 3

    def test_maximum_monotone_in_letter_count(self):
        maxima = [max_shuffle_complexity(2, 2, k).maximum for k in (1, 2, 3, 4)]
        assert maxima == sorted(maxima)

    @pytest.mark.parametrize("k", [3, 4])
    def test_json_output_matches_golden(self, k, capsys):
        # the exact `search 2 2 k --json` payload: witnesses, their order,
        # and the candidates_evaluated effort counter
        assert main(["--json", "search", "2", "2", str(k)]) == 0
        expected = (GOLDEN / f"search_2_2_{k}.json").read_text()
        assert capsys.readouterr().out == expected

    def test_negative_cap_refused(self):
        # a negative cap used to slice witnesses off the end of the list
        with pytest.raises(ValueError, match="result_cap"):
            max_shuffle_complexity(2, 2, 2, result_cap=-1)

    def test_summary_fields(self):
        result = max_shuffle_complexity(2, 2, 2)
        s = result.summary()
        assert set(s) == {"max", "bound", "met", "candidates_evaluated"}
        assert s["bound"] == 10 and s["met"] is False


def _brute_maximum(m, n, k):
    """Max shuffle complexity over every k-letter pair of minimal m- and
    n-state DFAs, each final set tried and kept if state_complexity agrees."""
    names = tuple("abcd"[:k])

    def minimal_dfas(size):
        images = list(product(range(1, size + 1), repeat=size))
        for letters in product(images, repeat=k):
            for bits in range(1 << size):
                F = frozenset(q + 1 for q in range(size) if bits >> q & 1)
                d = Dfa(size, names, tuple(map(Transformation, letters)), F)
                if state_complexity(d) == size:
                    yield d

    return max(shuffle_state_complexity(K, L)
               for K in minimal_dfas(m) for L in minimal_dfas(n))


class TestOneStateSide:
    # a one-state DFA is minimal with final set {} or {1}; the search once
    # tried no final set there and reported max 0
    @pytest.mark.parametrize("m, n, k, maximum", [
        (1, 1, 0, 1), (1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 2), (1, 2, 2, 2),
        (1, 3, 2, 3),
    ])
    def test_matches_brute_force(self, m, n, k, maximum):
        assert _brute_maximum(m, n, k) == maximum
        result = max_shuffle_complexity(m, n, k)
        assert result.maximum == maximum
        assert result.met == (maximum == bound_f(m, n))
        assert result.witnesses
        for K, L in result.witnesses:
            assert (state_complexity(K), state_complexity(L)) == (m, n)
            assert shuffle_state_complexity(K, L) == maximum

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 1)])
    def test_no_letters_beside_two_states(self, m, n):
        # with no letters a two-state side has no minimal DFA, so there is
        # no pair to evaluate (and none for _brute_maximum to build)
        result = max_shuffle_complexity(m, n, 0)
        assert (result.maximum, result.witnesses) == (0, [])


def _eager_search(m, n, k, result_cap=10, stop_at_bound=False):
    """Reference scan: a subset table for every letter multiset, and Dfas
    built and keyed for every pair that ties the best kappa so far."""
    bound = bound_f(m, n)
    names = _letter_names(k)
    candidates = SearchSpace(m, n, k).letter_candidates()
    best, witnesses, evaluated = 0, {}, 0

    def scan():
        nonlocal best, witnesses, evaluated
        for multiset in combinations_with_replacement(range(len(candidates)), k):
            letters = [candidates[i] for i in multiset]
            subsets, table = subset_table(cell_successors(letters, m, n), 1)
            if len(subsets) < best:
                continue
            k_images = [s for s, _ in letters]
            l_images = [t for _, t in letters]
            for FK in _minimal_finals(k_images, m):
                for FL in _minimal_finals(l_images, n):
                    evaluated += 1
                    final_mask = sum(1 << (p - 1) * n + q - 1 for p in FK for q in FL)
                    kappa = max(refine(table, [s & final_mask for s in subsets]))
                    if kappa > best:
                        best, witnesses = kappa, {}
                    if kappa == best:
                        K = Dfa(m, names, tuple(map(Transformation, k_images)), FK)
                        L = Dfa(n, names, tuple(map(Transformation, l_images)), FL)
                        witnesses.setdefault(pair_canonical_key(K, L), (K, L))
                    if stop_at_bound and best >= bound:
                        return

    scan()
    classes = {}
    for strict_key in sorted(witnesses):
        K, L = witnesses[strict_key]
        classes.setdefault(pair_canonical_key(K, L, relaxed=True), strict_key)
    pairs = [witnesses[classes[key]] for key in sorted(classes)][:result_cap]
    summary = {"max": best, "bound": bound, "met": best >= bound,
               "candidates_evaluated": evaluated}
    return summary, pairs


def _as_dicts(pairs):
    return [(dfa_to_dict(K), dfa_to_dict(L)) for K, L in pairs]


class TestAgainstEagerScan:
    @pytest.mark.parametrize("m, n, k, options", [
        *(pytest.param(2, 2, k, {}, id=f"2x2x{k}") for k in (1, 2, 3, 4)),
        *(pytest.param(2, 3, k, {}, id=f"2x3x{k}") for k in (1, 2)),
        pytest.param(2, 2, 4, {"stop_at_bound": True}, id="2x2x4-stop_at_bound"),
        pytest.param(2, 2, 4, {"result_cap": 10**6}, id="2x2x4-uncapped"),
    ])
    def test_same_result(self, m, n, k, options):
        summary, pairs = _eager_search(m, n, k, **options)
        result = max_shuffle_complexity(m, n, k, **options)
        assert result.summary() == summary
        assert _as_dicts(result.witnesses) == _as_dicts(pairs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_memos_match_subset_table(self, data):
        # the search's steps: one memo per candidate letter, shared by every
        # multiset, over the multiset's distinct letters
        m, n = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
        candidates = SearchSpace(m, n, 1).letter_candidates()
        succ = cell_successors(candidates, m, n)
        memos = [{} for _ in succ]
        letter = st.integers(0, len(candidates) - 1)
        multisets = data.draw(st.lists(
            st.lists(letter, min_size=1, max_size=4).map(sorted), min_size=1, max_size=5
        ))
        for multiset in multisets:  # later multisets reuse the memos
            steps = [(memos[i], succ[i]) for i in dict.fromkeys(multiset)]
            subsets = subset_order(steps, 1)
            letters = cell_successors([candidates[i] for i in multiset], m, n)
            loop_subsets, loop_table = subset_table(letters, 1)
            assert subsets == loop_subsets
            assert set(subsets) == set(subset_table_array(letters, 1, m * n)[0].tolist())
            final_mask = data.draw(st.integers(0, (1 << m * n) - 1))
            kappa = max(refine(_memo_table(steps, subsets), [s & final_mask for s in subsets]))
            assert kappa == max(refine(loop_table, [s & final_mask for s in loop_subsets]))


@st.composite
def letter_images(draw):
    size = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    state = st.integers(1, size)
    return size, [tuple(draw(state) for _ in range(size)) for _ in range(k)]


class TestMinimalFinals:
    @settings(max_examples=150, deadline=None)
    @given(letter_images())
    @example((3, [(1, 1, 3), (2, 1, 3)]))  # state 3 is unreachable
    @example((2, [(1, 2)]))  # the identity letter reaches only state 1
    def test_matches_state_complexity(self, drawn):
        size, images = drawn
        finals = [
            frozenset(q for q in range(1, size + 1) if bits >> q - 1 & 1)
            for bits in range(1 << size)
        ]
        names = tuple("abc"[:len(images)])
        expected = [
            F for F in finals
            if state_complexity(
                Dfa(size, names, tuple(map(Transformation, images)), F)
            ) == size
        ]
        # every final set that gives a minimal DFA is among _final_sets
        assert _minimal_finals(tuple(images), size) == expected


class TestMinWitnessAlphabet:
    def test_2x2_needs_four_letters(self):
        assert min_witness_alphabet(2, 2, range(1, 6)) == 4

    def test_2x2_none_in_short_range(self):
        assert min_witness_alphabet(2, 2, range(1, 4)) is None

    @pytest.mark.slow
    def test_2x3_needs_six_letters(self):
        assert min_witness_alphabet(2, 3, range(1, 7), force=True) == 6


class TestWitnessRightDfaCounts:
    def test_unique_right_dfa_at_2x2x4(self):
        assert count_nonisomorphic_witness_right_dfas(2, 2, 4) == 1

    def test_no_witnesses_at_2x2x3(self):
        assert count_nonisomorphic_witness_right_dfas(2, 2, 3) == 0

    @pytest.mark.slow
    def test_more_than_sixty_right_dfas_at_2x3x6(self):
        count = count_nonisomorphic_witness_right_dfas(2, 3, 6, force=True)
        assert count > 60

    @pytest.mark.slow
    def test_six_letters_meet_2x3(self):
        result = max_shuffle_complexity(2, 3, 6, force=True, stop_at_bound=True)
        assert result.maximum == bound_f(2, 3) == 44

"""Exhaustive witness search over small DFA pairs."""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from shufflesc.automata import Dfa, Transformation, load_dfa, state_complexity
from shufflesc.cli import main
from shufflesc.search import (
    _minimal_finals,
    SearchSpace,
    SearchVolumeError,
    count_nonisomorphic_witness_right_dfas,
    max_shuffle_complexity,
    min_witness_alphabet,
    pair_canonical_key,
)
from shufflesc.shuffle import bound_f, shuffle_state_complexity

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestSearchSpace:
    def test_letter_candidates_cover_all_pairs(self):
        space = SearchSpace(2, 2, 3)
        cands = space.letter_candidates()
        assert len(cands) == 16
        assert len(set(cands)) == 16

    def test_volume_estimate_2_3_6_exceeds_guard(self):
        space = SearchSpace(2, 3, 6)
        assert space.volume_estimate() > 10**9

    def test_guard_refuses_2_3_6(self):
        with pytest.raises(SearchVolumeError):
            max_shuffle_complexity(2, 3, 6)


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

    @pytest.mark.slow
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
        assert _minimal_finals(images, size, finals) == expected


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

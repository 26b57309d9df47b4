"""The ten acceptance criteria, one test (or parametrized family) each.

Each criterion is checked at its stated tolerance; the one expensive leg,
the six-letter (2,3) witness search, is an opt-in slow test, as are the
runtimes in the criteria themselves.
"""

import random
import time
from pathlib import Path

import pytest

from automaton_words import nfa_step
from shufflesc.automata import (
    Dfa,
    Transformation,
    determinize,
    load_dfa,
    state_complexity,
)
from shufflesc.disting import (
    brute_subsets_pairwise_distinct,
    ternary_witness,
    uniquely_distinguishable,
)
from shufflesc.reach import (
    ExtremalLetter,
    bfs_reach,
    certify,
    direct_smaller_check,
    extremal_step,
    reduce_permutation,
    verify_certificate,
)
from shufflesc.search import (
    max_shuffle_complexity,
    min_witness_alphabet,
    pair_canonical_key,
)
from shufflesc.shuffle import (
    ProductSubset,
    bound_f,
    build_shuffle_nfa,
    count_valid_subsets,
    ideal_bound,
    is_valid,
    okhotin_witness,
    projections,
    shuffle_state_complexity,
    sigma_star_dfa,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"
BFS_INSTANCES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))


class TestCriterion1Bounds:
    def test_bound_values_and_counting_identity(self):
        start = time.monotonic()
        assert bound_f(1, 1) == 1
        assert bound_f(1, 2) == 2
        assert bound_f(2, 2) == 10
        assert bound_f(2, 3) == 44
        for m in range(1, 5):
            for n in range(1, 5):
                if m * n <= 16:
                    assert count_valid_subsets(m, n) == bound_f(m, n)
        for m, n in [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (4, 4)]:
            assert count_valid_subsets(m, n) == bound_f(m, n)
        assert time.monotonic() - start < 10


class TestCriterion2Fixtures:
    def test_shipped_witnesses_meet_their_bounds(self):
        start = time.monotonic()
        K = load_dfa(FIXTURES / "witness_2x2_left.json")
        L = load_dfa(FIXTURES / "witness_2x2_right.json")
        assert shuffle_state_complexity(K, L) == 10
        K2 = load_dfa(FIXTURES / "witness_2x3_left.json")
        L2 = load_dfa(FIXTURES / "witness_2x3_right.json")
        assert shuffle_state_complexity(K2, L2) == 44
        assert time.monotonic() - start < 1


class TestCriterion3OkhotinFamily:
    def test_ideal_shuffle_complexity(self):
        start = time.monotonic()
        for n in (3, 4, 5, 6):
            L = okhotin_witness(n)
            sigma = sigma_star_dfa(L.alphabet)
            assert shuffle_state_complexity(sigma, L) == 2 ** (n - 2) + 1
            assert ideal_bound(n) == 2 ** (n - 2) + 1
        assert time.monotonic() - start < 10


class TestCriterion4Reachability:
    @pytest.mark.parametrize("m,n", list(BFS_INSTANCES))
    def test_full_alphabet_complete(self, m, n):
        report = bfs_reach(m, n)
        assert report.complete
        assert report.reached == bound_f(m, n)

    def test_4x4_complete(self):
        report = bfs_reach(4, 4)
        assert report.complete and report.reached == bound_f(4, 4)


class TestCriterion5Certification:
    def test_certify_and_verify_up_to_4x8(self):
        start = time.monotonic()
        cert = certify(4, 8)
        assert verify_certificate(cert)
        assert {e.strategy for e in cert.entries} == {"EXHAUSTIVE", "SPERNER", "FAMILY"}
        covered = {(e.m, e.n) for e in cert.entries}
        assert covered == {
            (m, n) for m in range(1, 5) for n in range(1, 9)
        }
        assert time.monotonic() - start < 300


class TestCriterion6ReductionFixtures:
    TABLES = [
        ([{1, 2}, {2, 3}, {1, 3}, {1, 4}, {2, 4}, {3, 4},
          {1, 5}, {2, 5}, {3, 5}], (2, 3, 1, 4, 5)),
        ([{1, 2, 3}, {1, 4}, {2, 4}, {3, 4},
          {1, 5}, {2, 5}, {3, 5}, {4, 5}], (1, 2, 3, 5, 4)),
        ([{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3},
          {1, 5}, {2, 5}, {3, 5}, {4, 5}], (2, 3, 4, 1, 5)),
    ]

    @pytest.mark.parametrize("cols,phi", TABLES)
    def test_reference_orbit_tables_replay(self, cols, phi):
        start = time.monotonic()
        m, n = 5, len(cols)
        S = ProductSubset.from_pairs(
            m, n, [(i, j) for j, col in enumerate(cols, 1) for i in col]
        )
        red = reduce_permutation(S.bits, m, n, phi)
        assert red is not None
        pred, psi = red
        a = ExtremalLetter(Transformation(phi), Transformation(psi))
        assert extremal_step(ProductSubset(m, n, pred), a) == S
        assert time.monotonic() - start < 1


class TestCriterion7DirectSmaller:
    def test_no_exceptions_at_2x2_and_3x3(self):
        start = time.monotonic()
        for m, n in ((2, 2), (3, 3)):
            report = direct_smaller_check(m, n)
            assert report.ok
            assert report.exceptions == ()
        assert time.monotonic() - start < 60


class TestCriterion8Distinguishability:
    def test_witness_closures_and_oracle(self):
        start = time.monotonic()
        for m in range(2, 7):
            for n in range(2, 7):
                sh = build_shuffle_nfa(*ternary_witness(m, n))
                closed = uniquely_distinguishable(sh.nfa)
                assert closed == frozenset(range(1, m * n + 1))
                if m * n <= 9:
                    assert brute_subsets_pairwise_distinct(sh.nfa)
        assert time.monotonic() - start < 120


class TestCriterion9WitnessSearch:
    def test_three_letters_insufficient_four_unique(self):
        assert max_shuffle_complexity(2, 2, 3).maximum < 10
        result = max_shuffle_complexity(2, 2, 4)
        assert result.maximum == 10 and result.met
        assert len(result.witnesses) == 1
        K, L = result.witnesses[0]
        fig = (
            load_dfa(FIXTURES / "witness_2x2_left.json"),
            load_dfa(FIXTURES / "witness_2x2_right.json"),
        )
        assert pair_canonical_key(K, L, relaxed=True) == pair_canonical_key(
            *fig, relaxed=True
        )

    @pytest.mark.slow
    def test_minimal_alphabet_at_2x3_is_six(self):
        assert min_witness_alphabet(2, 3, range(1, 7), force=True) == 6


class TestCriterion10PropertySuites:
    def test_condition_c_invariance_and_projection_monotonicity(self):
        rng = random.Random(0)
        checked = 0
        while checked < 100:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, 3)
            letters = tuple("abc"[:k])

            def one(size):
                transitions = tuple(
                    Transformation(
                        tuple(rng.randint(1, size) for _ in range(size))
                    )
                    for _ in range(k)
                )
                finals = frozenset(
                    q for q in range(1, size + 1) if rng.random() < 0.5
                )
                return Dfa(size, letters, transitions, finals)

            sh = build_shuffle_nfa(one(m), one(n))
            _, subsets = determinize(sh.nfa)
            for sub in subsets:
                S = ProductSubset.from_pairs(
                    m, n, [sh.state_pair(s) for s in sub]
                )
                assert is_valid(S)
                rows, cols = projections(S)
                for x in letters:
                    succ = nfa_step(sh.nfa, sub, x)
                    S2 = ProductSubset.from_pairs(
                        m, n, [sh.state_pair(s) for s in succ]
                    )
                    rows2, cols2 = projections(S2)
                    assert rows <= rows2 and cols <= cols2
            checked += 1

    def test_checkpoint_resume_equivalence(self, tmp_path):
        interrupted = bfs_reach(
            3, 3, checkpoint_dir=tmp_path, max_generations=3
        )
        assert not interrupted.complete
        resumed = bfs_reach(3, 3, checkpoint_dir=tmp_path, resume=True)
        direct = bfs_reach(3, 3)
        assert resumed == direct

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shufflesc.automata import (
    Dfa,
    FormatError,
    Nfa,
    Transformation,
    apply,
    canonical_key,
    determinize,
    dfa_from_dict,
    dfa_to_dict,
    load_dfa,
    dump_dfa,
    minimize,
    state_complexity,
)

T = Transformation


@st.composite
def dfa_strategy(draw, max_states=4, max_letters=3):
    m = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    letters = tuple("abcdefgh"[:k])
    transitions = tuple(
        T(tuple(draw(st.integers(1, m)) for _ in range(m))) for _ in range(k)
    )
    finals = frozenset(q for q in range(1, m + 1) if draw(st.booleans()))
    return Dfa(m, letters, transitions, finals)


@st.composite
def nfa_strategy(draw, max_states=5, max_letters=3):
    m = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    letters = tuple("abc"[:k])
    transitions = tuple(
        tuple(
            frozenset(
                q for q in range(1, m + 1) if draw(st.booleans())
            )
            for _ in range(k)
        )
        for _ in range(m)
    )
    finals = frozenset(q for q in range(1, m + 1) if draw(st.booleans()))
    return Nfa(m, letters, transitions, 1, finals)


class TestTransformation:
    def test_apply_paper_example(self):
        # a = [2,2,3] on three states
        t = T((2, 2, 3))
        assert apply(t, 1) == 2

    def test_identity_fixes_everything(self):
        t = T.identity(5)
        assert apply(t, 4) == 4

    def test_point_map_fixes_others(self):
        t = T.point(4, 1, 3)
        assert apply(t, 2) == 2
        assert apply(t, 1) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply(T((1, 2)), 3)

    def test_bool_image_rejected(self):
        with pytest.raises(ValueError, match="image of 1 is True"):
            T((True, 2))

    def test_composition(self):
        s = T((2, 3, 1))
        t = T((1, 1, 2))
        st_ = s.then(t)
        for q in (1, 2, 3):
            assert apply(st_, q) == apply(t, apply(s, q))

    def test_inverse_of_permutation(self):
        p = T((3, 1, 2))
        assert p.is_permutation()
        assert p.then(p.inverse()) == T.identity(3)

    def test_transposition(self):
        t = T.transposition(4, 2, 4)
        assert t.images == (1, 4, 3, 2)


class TestDeterminize:
    def test_deterministic_nfa_isomorphic(self):
        d = Dfa(2, ("a",), (T((2, 1)),), frozenset([2]))
        nfa = Nfa(
            2, ("a",),
            tuple((frozenset([d.transitions[0].apply(q)]),) for q in (1, 2)),
            1, frozenset([2]),
        )
        det, subsets = determinize(nfa)
        assert det.state_count == 2
        assert subsets[0] == frozenset([1])

    def test_branching_nfa_two_subsets(self):
        nfa = Nfa(
            2, ("a",),
            ((frozenset([1, 2]),), (frozenset(),)),
            1, frozenset([2]),
        )
        det, subsets = determinize(nfa)
        assert set(subsets) == {frozenset([1]), frozenset([1, 2])}

    @settings(max_examples=60, deadline=None)
    @given(nfa_strategy(), st.lists(st.integers(0, 2), max_size=8))
    def test_language_preserved(self, nfa, word_idx):
        word = [nfa.alphabet[i % len(nfa.alphabet)] for i in word_idx]
        det, _ = determinize(nfa)
        assert nfa.accepts(word) == det.accepts(word)


class TestMinimize:
    def test_idempotent_on_minimal(self):
        d = Dfa(2, ("a",), (T((2, 1)),), frozenset([2]))
        assert minimize(d).state_count == 2
        assert minimize(minimize(d)) == minimize(d)

    def test_duplicated_state_collapses(self):
        # states 2 and 3 behave identically
        d = Dfa(3, ("a",), (T((2, 3, 2)),), frozenset([2, 3]))
        assert minimize(d).state_count == 2

    def test_empty_language_one_state(self):
        d = Dfa(3, ("a", "b"), (T((2, 3, 1)), T((1, 1, 1))), frozenset())
        assert state_complexity(d) == 1

    @settings(max_examples=60, deadline=None)
    @given(dfa_strategy(), st.lists(st.integers(0, 2), max_size=8))
    def test_language_preserved(self, d, word_idx):
        word = [d.alphabet[i % len(d.alphabet)] for i in word_idx]
        assert d.accepts(word) == minimize(d).accepts(word)

    @settings(max_examples=80, deadline=None)
    @given(dfa_strategy(max_states=5))
    def test_minimal_against_brute_force(self, d):
        # Reference: every reachable state is reached by a word shorter
        # than state_count, and two states are equivalent iff they agree on
        # every such word; the classes of reachable states are counted.
        words = [
            w for size in range(d.state_count)
            for w in product(d.alphabet, repeat=size)
        ]
        reachable = {d.run(w) for w in words}
        classes = {
            tuple(d.run(w, start=q) in d.finals for w in words) for q in reachable
        }
        assert state_complexity(d) == len(classes)

    @settings(max_examples=40, deadline=None)
    @given(dfa_strategy())
    def test_idempotent(self, d):
        once = minimize(d)
        assert minimize(once) == once


class TestCanonicalize:
    def _swap_states(self, d: Dfa) -> Dfa:
        # relabel 1<->2 is not allowed (initial must stay 1); swap two
        # non-initial states instead
        perm = {1: 1, 2: 3, 3: 2}
        transitions = tuple(
            T(tuple(perm[t.apply(inv)] for inv in (1, 3, 2)))
            for t in d.transitions
        )
        finals = frozenset(perm[f] for f in d.finals)
        return Dfa(3, d.alphabet, transitions, finals)

    def test_state_relabel_invariance(self):
        d = Dfa(3, ("a", "b"), (T((2, 3, 1)), T((1, 1, 2))), frozenset([3]))
        assert canonical_key(d) == canonical_key(self._swap_states(d))

    def test_letter_swap_invariance(self):
        d = Dfa(3, ("a", "b"), (T((2, 3, 1)), T((1, 1, 2))), frozenset([3]))
        swapped = Dfa(3, ("a", "b"), (d.transitions[1], d.transitions[0]),
                      d.finals)
        assert canonical_key(d) == canonical_key(swapped)

    def test_witness_2x2_left_right_differ(self):
        K = Dfa(2, ("a", "b", "c", "d"),
                (T((2, 2)), T((2, 1)), T((2, 1)), T((1, 1))), frozenset([2]))
        L = Dfa(2, ("a", "b", "c", "d"),
                (T((2, 1)), T((1, 1)), T((2, 1)), T((2, 1))), frozenset([2]))
        assert canonical_key(K) != canonical_key(L)

    def test_joint_renaming_and_finals(self):
        K = Dfa(2, ("a", "b"), (T((2, 2)), T((2, 1))), frozenset([2]))
        L = Dfa(2, ("a", "b"), (T((2, 1)), T((1, 1))), frozenset([1]))

        def swap(d, finals=None):
            return Dfa(2, ("a", "b"), d.transitions[::-1],
                       d.finals if finals is None else finals)
        assert canonical_key(K, L) == canonical_key(swap(K), swap(L))
        assert canonical_key(K, L) != canonical_key(swap(K), L)
        assert canonical_key(L) != canonical_key(swap(L, frozenset([2])))
        assert canonical_key(L, finals=False) == canonical_key(swap(L, frozenset([2])),
                                                               finals=False)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        d = Dfa(2, ("a", "b"), (T((2, 1)), T((1, 1))), frozenset([2]))
        path = tmp_path / "d.json"
        dump_dfa(d, path)
        assert load_dfa(path) == d

    def test_documented_example_parses(self):
        obj = {
            "states": 2, "alphabet": ["a", "b"], "initial": 1,
            "finals": [2], "transitions": {"a": [2, 1], "b": [1, 1]},
        }
        d = dfa_from_dict(obj)
        assert d.transitions[0].apply(1) == 2
        assert dfa_to_dict(d) == obj

    def test_out_of_range_transition_diagnostic(self):
        obj = {
            "states": 2, "alphabet": ["a"], "initial": 1,
            "finals": [2], "transitions": {"a": [2, 3]},
        }
        with pytest.raises(FormatError) as exc:
            dfa_from_dict(obj)
        assert "transitions" in str(exc.value)

    @pytest.mark.parametrize("where,patch", [
        ("states", {"states": True}),
        ("initial", {"initial": True}),
        ("finals[0]", {"finals": [True]}),
        ("transitions['a'][0]", {"transitions": {"a": [True, 1]}}),
    ])
    def test_bool_is_not_a_state(self, where, patch):
        obj = {
            "states": 2, "alphabet": ["a"], "initial": 1,
            "finals": [2], "transitions": {"a": [2, 1]}, **patch,
        }
        with pytest.raises(FormatError) as exc:
            dfa_from_dict(obj)
        assert exc.value.where == where

    def test_missing_field_diagnostic(self):
        with pytest.raises(FormatError) as exc:
            dfa_from_dict({"states": 1})
        assert "alphabet" in str(exc.value)

    def test_bad_file_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_dfa(path)

    def test_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as res

        schema = json.loads(
            res.files("shufflesc").joinpath("schemas/dfa.schema.json").read_text()
        )
        d = Dfa(2, ("a", "b"), (T((2, 1)), T((1, 1))), frozenset([2]))
        jsonschema.validate(dfa_to_dict(d), schema)

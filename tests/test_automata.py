import json
import math
import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from automaton_words import blocks, dfa_accepts, dfa_run, nfa_accepts, subset_steps
from shufflesc import automata
from shufflesc.automata import (
    ARRAY_BLOCK,
    ARRAY_MAX_CELLS,
    Dfa,
    FormatError,
    Nfa,
    Transformation,
    bfs_key,
    canonical_key,
    determinize,
    dfa_from_dict,
    dfa_to_dict,
    load_dfa,
    dump_dfa,
    minimize,
    refine,
    refine_array,
    state_complexity,
    subset_complexity,
    subset_table,
    subset_table_array,
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
        d = Dfa(3, ("a",), (T((2, 2, 3)),), frozenset())
        assert [dfa_run(d, "a", q) for q in (1, 2, 3)] == [2, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="image of 2 is 3, not in 1..2"):
            T((1, 3))

    def test_bool_image_rejected(self):
        with pytest.raises(ValueError, match="image of 1 is True"):
            T((True, 2))


class TestDeterminize:
    def test_deterministic_nfa_isomorphic(self):
        d = Dfa(2, ("a",), (T((2, 1)),), frozenset([2]))
        nfa = Nfa(
            2, ("a",),
            tuple((frozenset([d.transitions[0].images[q - 1]]),) for q in (1, 2)),
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
        assert nfa_accepts(nfa, word) == dfa_accepts(det, word)


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
        assert dfa_accepts(d, word) == dfa_accepts(minimize(d), word)

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
        reachable = {dfa_run(d, w) for w in words}
        classes = {
            tuple(dfa_run(d, w, start=q) in d.finals for w in words) for q in reachable
        }
        assert state_complexity(d) == len(classes)

    @settings(max_examples=40, deadline=None)
    @given(dfa_strategy())
    def test_idempotent(self, d):
        once = minimize(d)
        assert minimize(once) == once


@st.composite
def succ_strategy(draw, min_states=1, max_states=20, max_letters=40):
    """(succ, start, states) of a random NFA whose successor sets all lie in
    a set A of at most 10 states spread over the encoding, so at most
    2^10 + 1 subsets are reachable; the start is any single state."""
    states = draw(st.integers(min_states, max_states))
    k = draw(st.integers(1, max_letters))
    targets = draw(st.lists(st.integers(0, states - 1), min_size=1, max_size=10,
                            unique=True))
    rng = random.Random(draw(st.integers(0, 2**32)))
    succ = [[sum(1 << q for q in rng.sample(targets, rng.randint(0, len(targets))))
             for _ in range(states)] for _ in range(k)]
    return succ, 1 << draw(st.integers(0, states - 1)), states


def assert_matches_loop(succ, start, states, final):
    """subset_table_array and refine_array against the loop, which numbers
    states in another order: the same subsets, each with the same successor
    subset on each letter, and the same refinement partition, its blocks
    numbered 1 to the class count. final is the mask of final NFA states.
    Returns the array subsets and table."""
    subsets, table = subset_table_array(succ, start, states)
    loop_subsets, loop_table = subset_table(succ, start)
    assert table.dtype == np.int32 and subsets[0] == start
    assert subset_steps(subsets.tolist(), table.tolist()) == subset_steps(
        loop_subsets, loop_table)
    block = refine_array(table, subsets & final != 0)
    loop_block = refine(loop_table, [s & final for s in loop_subsets])
    assert block.dtype == np.int32
    assert blocks(subsets.tolist(), block.tolist()) == blocks(loop_subsets, loop_block)
    assert sorted(set(block.tolist())) == list(range(1, max(loop_block) + 1))
    return subsets, table


class TestArrayPath:
    """The array subset table and refinement against the loop, which stays
    the reference."""

    @settings(max_examples=80, deadline=None)
    @given(succ_strategy(), st.integers(0, 2**ARRAY_MAX_CELLS - 1))
    def test_subset_table_matches_loop(self, nfa, final):
        succ, start, states = nfa
        assert_matches_loop(succ, start, states, final & (1 << states) - 1)

    @settings(max_examples=20, deadline=None)
    @given(succ_strategy(min_states=33, max_states=ARRAY_MAX_CELLS, max_letters=6),
           st.integers(0, 2**ARRAY_MAX_CELLS - 1))
    def test_subset_table_matches_loop_on_uint64(self, nfa, final):
        succ, start, states = nfa
        subsets, _ = assert_matches_loop(succ, start, states, final & (1 << states) - 1)
        assert subsets.dtype == np.uint64

    @st.composite
    def tables(draw):
        """A complete table of up to 300 states whose successors take at most
        `spread` values, so that many states fall in one class."""
        states = draw(st.integers(1, 300))
        k = draw(st.integers(1, 6))
        spread = draw(st.integers(1, states))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        table = rng.integers(1, spread + 1, size=(states, k)).tolist()
        accepting = (rng.random(states) < draw(st.floats(0, 1))).tolist()
        return [tuple(row) for row in table], accepting

    @settings(max_examples=100, deadline=None)
    @given(tables())
    @example(([(2,), (3,), (1,)], [True] * 3))  # all final
    @example(([(2, 1), (2, 2)], [False] * 2))  # no final
    @example(([(2,), (3,), (4,), (4,)], [False, False, True, False]))  # one letter
    def test_refine_matches_loop(self, args):
        table, accepting = args
        block = refine_array(np.array(table, dtype=np.int32), np.array(accepting))
        loop_block = refine(table, accepting)
        states = range(len(table))
        assert block.dtype == np.int32
        assert blocks(states, block.tolist()) == blocks(states, loop_block)
        assert sorted(set(block.tolist())) == list(range(1, max(loop_block) + 1))

    def test_generation_over_several_blocks(self):
        # letter q adds state q to any nonempty subset: generation g holds
        # the C(states - 1, g) subsets of g + 1 states that contain the
        # start state, so generation 6 steps more than one block
        for letters in ([5, 0, 13, 2, 9, 11, 1, 7, 4, 12, 3, 10, 6, 8],
                        [10, 8, 12, 1, 2, 5, 9, 15, 0, 13, 3, 6, 4, 14, 7, 11]):
            states = len(letters)  # 14, then DENSE_ID_CELLS
            succ = [[1 << p | 1 << q for p in range(states)] for q in letters]
            assert math.comb(states - 1, 6) * len(letters) > ARRAY_BLOCK
            subsets, _ = assert_matches_loop(succ, 1 << 3, states, 1 << 5 | 1 << 9)
            assert len(subsets) == 1 << states - 1

    def test_id_store_boundary(self, monkeypatch):
        # rotations of {1} and {1, 2}, and the full set, whose encoding is
        # the last entry of the dense id array at 16 states
        def letters(states):
            return [[1 << (q + 1) % states for q in range(states)], [3] * states,
                    [(1 << states) - 1] * states]

        made = []
        store = automata._SortedIds
        monkeypatch.setattr(automata, "_SortedIds",
                            lambda dtype: made.append(dtype) or store(dtype))
        for states in (16, 17):  # either side of DENSE_ID_CELLS
            subsets, _ = assert_matches_loop(letters(states), 1, states, 1 << 4)
            assert len(subsets) == 2 * states + 1
        assert made == [np.uint32]  # only 17 states sort their keys

    def test_path_boundary(self, monkeypatch):
        # the letter (q -> q+1 mod states) plus a letter onto {1, 2}
        def cycle(states):
            return [[1 << (q + 1) % states for q in range(states)], [3] * states]

        cells = []
        array_table = automata.subset_table_array
        monkeypatch.setattr(automata, "subset_table_array",
                            lambda succ, start, states: cells.append(states)
                            or array_table(succ, start, states))
        for states in (3, ARRAY_MAX_CELLS, ARRAY_MAX_CELLS + 1):
            subsets, table = subset_table(cycle(states), 1)
            assert len(subsets) == 2 * states
            final = 1 << states - 1
            assert subset_complexity(cycle(states), 1, states, final) == max(
                refine(table, [s & final for s in subsets]))
        assert cells == [3, ARRAY_MAX_CELLS]  # 65 states take the loop

    def test_no_letters(self):
        subsets, table = assert_matches_loop([], 1 << 2, 5, 1 << 2)
        assert table.shape == (1, 0)
        assert subset_table([], 1 << 2) == ([4], [()])


@st.composite
def with_unreachable(draw):
    """(d, big): a DFA d from dfa_strategy and a copy of it with 1 to 3
    extra states, some final, whose transitions go anywhere; no state of d
    leads to them. The states of big are shuffled, the initial with them."""
    d = draw(dfa_strategy())
    m, size = d.state_count, d.state_count + draw(st.integers(1, 3))
    label = [0, *draw(st.permutations(range(1, size + 1)))]  # label[q]: q's state in big
    images = [t.images + tuple(draw(st.integers(1, size)) for _ in range(m, size))
              for t in d.transitions]
    finals = {*d.finals, *(q for q in range(m + 1, size + 1) if draw(st.booleans()))}
    transitions = []
    for img in images:
        moved = [0] * size
        for q, target in enumerate(img, 1):
            moved[label[q] - 1] = label[target]
        transitions.append(T(tuple(moved)))
    big = Dfa(size, d.alphabet, tuple(transitions), frozenset(label[f] for f in finals),
              label[d.initial])
    return d, big


class TestCanonicalize:
    @settings(max_examples=100, deadline=None)
    @given(with_unreachable())
    def test_unreachable_states_left_out(self, pair):
        d, big = pair
        for order in permutations(range(len(d.alphabet))):
            assert bfs_key(big, order) == bfs_key(d, order)
        assert canonical_key(big) == canonical_key(d)
        assert canonical_key(big, finals=False) == canonical_key(d, finals=False)
        assert minimize(big) == minimize(d)

    def _swap_states(self, d: Dfa) -> Dfa:
        # relabel 1<->2 is not allowed (initial must stay 1); swap two
        # non-initial states instead
        perm = {1: 1, 2: 3, 3: 2}
        transitions = tuple(
            T(tuple(perm[t.images[inv - 1]] for inv in (1, 3, 2)))
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


class TestConstructorChecks:
    @pytest.mark.parametrize("args, match", [
        ((0, (), (), frozenset()), "state_count must be positive"),
        ((2, ("a", "a"), (T((1, 2)), T((1, 2))), frozenset()), "duplicate letters"),
        ((2, ("a", "b"), (T((1, 2)),), frozenset()), "one transformation per letter"),
        ((2, ("a",), (T((1, 2, 3)),), frozenset()), "transformation for 'a' has wrong degree"),
        ((2, ("a",), (T((1, 2)),), frozenset([3])), "final state 3 out of range"),
        ((2, ("a",), (T((1, 2)),), frozenset(), 3), "initial state out of range"),
        ((True, ("a",), (T((1,)),), frozenset()), "state_count must be positive"),
        ((2, ("a",), (T((1, 2)),), frozenset([1.5])), "final state 1.5 out of range"),
        ((2, ("a",), (T((1, 2)),), frozenset([True])), "final state True out of range"),
        ((2, ("a",), (T((2, 1)),), frozenset([2]), 1.0), "initial state out of range"),
    ], ids=["states", "duplicate_letters", "one_per_letter", "degree", "final", "initial",
            "states_bool", "final_float", "final_bool", "initial_float"])
    def test_dfa_refused(self, args, match):
        with pytest.raises(ValueError, match=match):
            Dfa(*args)

    @pytest.mark.parametrize("transitions, match", [
        (((frozenset([1]),),), "one transition row per state"),
        (((frozenset([1]),), ()), "one successor set per letter"),
        (((frozenset([1]),), (frozenset([3]),)), "successor 3 out of range"),
        (((frozenset([1.5]),), (frozenset(),)), "successor 1.5 out of range"),
        (((frozenset([True]),), (frozenset(),)), "successor True out of range"),
    ], ids=["rows", "letters", "successor", "successor_float", "successor_bool"])
    def test_nfa_refused(self, transitions, match):
        with pytest.raises(ValueError, match=match):
            Nfa(2, ("a",), transitions, 1, frozenset([2]))

    @pytest.mark.parametrize("args, match", [
        ((True, ("a",), ((frozenset([1]),),), 1, frozenset()), "state_count must be positive"),
        ((2, ("a",), ((frozenset(),), (frozenset(),)), 1.0, frozenset()),
         "initial state out of range"),
        ((2, ("a",), ((frozenset(),), (frozenset(),)), 1, frozenset([1.5])),
         "final state 1.5 out of range"),
        ((2, ("a",), ((frozenset(),), (frozenset(),)), 1, frozenset([True])),
         "final state True out of range"),
    ], ids=["states_bool", "initial_float", "final_float", "final_bool"])
    def test_nfa_states_not_ints_refused(self, args, match):
        with pytest.raises(ValueError, match=match):
            Nfa(*args)


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
        assert d.transitions[0].images[1 - 1] == 2
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
        ("inital", {"inital": 2}),  # a misspelled key loaded as if absent
    ])
    def test_bool_is_not_a_state(self, where, patch):
        obj = {
            "states": 2, "alphabet": ["a"], "initial": 1,
            "finals": [2], "transitions": {"a": [2, 1]}, **patch,
        }
        with pytest.raises(FormatError) as exc:
            dfa_from_dict(obj)
        assert exc.value.where == where

    DOC = {"states": 2, "alphabet": ["a"], "initial": 1, "finals": [2],
           "transitions": {"a": [2, 1]}}

    @pytest.mark.parametrize("where, doc", [
        ("$", [DOC]),
        ("alphabet", {**DOC, "alphabet": []}),
        ("alphabet", {**DOC, "alphabet": "a"}),
        ("alphabet", {**DOC, "alphabet": ["a", 1]}),
        ("alphabet", {**DOC, "alphabet": ["a", "a"]}),
        ("finals", {**DOC, "finals": 2}),
        ("transitions", {**DOC, "transitions": [[2, 1]]}),
        ("transitions", {**DOC, "transitions": {"b": [2, 1]}}),
        ("transitions['a']", {**DOC, "transitions": {"a": [2]}}),
        ("states", {key: value for key, value in DOC.items() if key != "states"}),
        ("alphabet", {**DOC, "alphabet": [""], "transitions": {"": [2, 1]}}),
        ("finals", {**DOC, "finals": [2, 2]}),
    ], ids=["not_an_object", "alphabet_empty", "alphabet_str", "letter_not_str",
            "duplicate_letters", "finals_not_list", "transitions_not_object",
            "letters_mismatch", "row_length", "states_missing", "empty_letter_name",
            "repeated_finals"])
    def test_refusal_names_the_field(self, where, doc):
        with pytest.raises(FormatError) as exc:
            dfa_from_dict(doc)
        assert exc.value.where == where

    def test_initial_may_be_left_out(self):
        # README documents the default, and the schema no longer requires it
        doc = {key: value for key, value in self.DOC.items() if key != "initial"}
        assert dfa_from_dict(doc).initial == 1

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

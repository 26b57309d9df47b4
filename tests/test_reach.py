import copy
import gc
import hashlib
import json
import math
import random
import re
import threading
import tracemalloc
from collections import Counter
from itertools import combinations, islice, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shufflesc import reach, shuffle
from shufflesc.automata import Transformation, _block_step, _step_tables
from shufflesc.reach import (
    _checkpoint_name,
    _drop_lines,
    _first_rule_of,
    _LetterStep,
    _orbit_keys,
    _single_element_anchor,
    _successor_bitmap,
    CHUNK_BITS,
    Certificate,
    CertificationGapError,
    CheckpointError,
    ExtremalLetter,
    InstanceEntry,
    ReachReport,
    alphabet_id,
    bfs_reach,
    certify,
    direct_smaller_check,
    dump_letters,
    extremal_step,
    greedy_alphabet,
    load_letters,
    read_checkpoint,
    reduce_containment,
    reduce_permutation,
    reduce_single_element,
    sperner_limit,
    verify_certificate,
    write_checkpoint,
)
from shufflesc.search import SearchSpace
from shufflesc.shuffle import (
    GridSizeError, ProductSubset, bound_f, col1_mask, count_valid_subsets, is_valid,
    min_alphabet_lower_bound, valid_encodings,
)

T = Transformation
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def letter(s_images, t_images):
    return ExtremalLetter(T(tuple(s_images)), T(tuple(t_images)))


def transposition(k, p):
    """Images of the swap (1 p) on {1..k}."""
    images = list(range(1, k + 1))
    images[0], images[p - 1] = p, 1
    return images


@st.composite
def subset_strategy(draw, max_m=3, max_n=3):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << (m * n)) - 1))
    return ProductSubset(m, n, bits)


class TestExtremalStep:
    def test_transposition_pair_from_initial(self):
        S = ProductSubset.from_pairs(2, 2, [(1, 1)])
        a = letter([2, 1], [2, 1])
        assert extremal_step(S, a) == ProductSubset.from_pairs(2, 2, [(2, 1), (1, 2)])

    def test_identity_fixes_initial(self):
        S = ProductSubset.from_pairs(3, 3, [(1, 1)])
        a = letter([1, 2, 3], [1, 2, 3])
        assert extremal_step(S, a) == S

    def test_anchor_by_a_squared_generic_case(self):
        # p, q both != 1: transposition pair (1 p);(1 q), word a^2
        m, n, p, q = 3, 3, 3, 2
        a = letter(transposition(m, p), transposition(n, q))
        S = ProductSubset.from_pairs(m, n, [(1, 1)])
        S = extremal_step(extremal_step(S, a), a)
        assert S == ProductSubset.from_pairs(m, n, [(1, 1), (p, q)])

    def test_degree_mismatch(self):
        S = ProductSubset.from_pairs(2, 2, [(1, 1)])
        with pytest.raises(ValueError):
            extremal_step(S, letter([1, 2, 3], [1, 2]))

    @settings(max_examples=80, deadline=None)
    @given(subset_strategy(), st.data())
    def test_validity_preserved(self, S, data):
        if not is_valid(S):
            return
        s = T(tuple(data.draw(st.integers(1, S.m)) for _ in range(S.m)))
        t = T(tuple(data.draw(st.integers(1, S.n)) for _ in range(S.n)))
        stepped = extremal_step(S, ExtremalLetter(s, t))
        assert is_valid(stepped)
        assert len(stepped) >= 1


def pair_loop_step(bits, s_images, t_images, m, n):
    """The step as the definition reads it: (s(p), q) and (p, t(q)) for
    every (p, q) in the subset."""
    out = 0
    for p, q in ProductSubset(m, n, bits).pairs():
        out |= 1 << (s_images[p - 1] - 1) * n + (q - 1)
        out |= 1 << (p - 1) * n + (t_images[q - 1] - 1)
    return out


def all_valid(m, n):
    return [enc for chunk in valid_encodings(m, n) for enc in chunk.tolist()]


def occupied_line_maps(k, lines):
    """Images of every map of {1..k} restricted to lines, the others sent to 1."""
    for images in product(range(1, k + 1), repeat=len(lines)):
        full = [1] * k
        for line, image in zip(lines, images):
            full[line - 1] = image
        yield tuple(full)


def full_alphabet_successors(enc, m, n):
    """pair_loop_step of enc over every letter of T_m x T_n. It reads s only
    on the rows enc occupies and t only on its columns, so s and t range
    over the maps of those lines alone: at most m^j * n^l letters for j
    occupied rows and l occupied columns, not m^m * n^n."""
    pairs = ProductSubset(m, n, enc).pairs()
    cols = list(occupied_line_maps(n, sorted({q for _, q in pairs})))
    return {pair_loop_step(enc, s, t, m, n)
            for s in occupied_line_maps(m, sorted({p for p, _ in pairs})) for t in cols}


def successors(frontier, m, n, alphabet):
    """_successor_bitmap as a set of encodings: over "full" it reads the
    bitmap; over a letter list, stepped as a _LetterStep over an empty
    visited bitmap as in bfs_reach, the array of new successors, checked to
    be ascending and to be exactly what the step marked in the bitmap."""
    frontier = np.array(frontier, dtype=np.uint64)
    if isinstance(alphabet, str):
        return set(np.flatnonzero(_successor_bitmap(frontier, m, n, alphabet)).tolist())
    visited = np.zeros(1 << m * n, dtype=bool)
    succ = _successor_bitmap(frontier, m, n, _LetterStep(alphabet, m, n, visited))
    assert succ.dtype == np.uint32 and np.all(succ[1:] > succ[:-1])
    assert np.array_equal(np.flatnonzero(visited), succ)
    return set(succ.tolist())


def random_letters(rng, m, n, count):
    return [letter([rng.randint(1, m) for _ in range(m)],
                   [rng.randint(1, n) for _ in range(n)]) for _ in range(count)]


def set_bfs(m, n, letters, max_generations):
    """Letter-list BFS on Python sets through pair_loop_step: the visited
    set, the last frontier and the size of each frontier stepped."""
    visited, frontier, sizes = {1}, {1}, []
    while frontier and len(sizes) < max_generations:
        sizes.append(len(frontier))
        frontier = {
            pair_loop_step(enc, a.s.images, a.t.images, m, n)
            for enc in frontier for a in letters
        } - visited
        visited |= frontier
    return visited, frontier, sizes


class TestKernelMatchesDefinition:
    @pytest.mark.parametrize("m,n,stride", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 3)])
    def test_full_alphabet(self, m, n, stride):
        letters = SearchSpace(m, n, 1).letter_candidates()
        frontier = all_valid(m, n)[::stride]
        union = set()
        for enc in frontier:
            expected = {pair_loop_step(enc, s, t, m, n) for s, t in letters}
            assert full_alphabet_successors(enc, m, n) == expected, enc
            assert successors([enc], m, n, "full") == expected, enc
            union |= expected
        assert successors(frontier, m, n, "full") == union

    # m < n and m > n, one cell, one row or column, and grids where k^k
    # exceeds 2^(m*n), which _line_parts bounds by 2^(m*n): at 2x8 it takes
    # one subset per chunk. The reference steps at most m^j * n^l letters
    # per subset, so at 2x8 it draws subsets on at most 4 columns.
    @pytest.mark.parametrize("m,n,count,max_cols", [
        (1, 1, 1, 1), (1, 4, 8, 4), (4, 1, 8, 1), (2, 4, 40, 4), (4, 2, 40, 2),
        (3, 4, 8, 4), (4, 3, 8, 3), (1, 6, 12, 6), (6, 1, 12, 1), (2, 8, 8, 4),
    ])
    def test_full_alphabet_sample(self, m, n, count, max_cols):
        rng = random.Random(m * 100 + n)
        valid = [enc for enc in all_valid(m, n)
                 if len({q for _, q in ProductSubset(m, n, enc).pairs()}) <= max_cols]
        frontier = sorted(rng.sample(valid, min(count, len(valid))))
        union = set()
        for enc in frontier:
            expected = full_alphabet_successors(enc, m, n)
            assert successors([enc], m, n, "full") == expected, enc
            union |= expected
        assert successors(frontier, m, n, "full") == union

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-chunk", "two-chunks"])
    @pytest.mark.parametrize("m,n", [(3, 3), (2, 5), (4, 3), (1, 6)])
    def test_bfs_across_chunk_switch(self, m, n, extra, tmp_path, monkeypatch):
        # LINE_KEYS is set so that the largest generation's representatives
        # fill one _line_parts chunk at the worst case per subset, or
        # overflow it by one into a second chunk
        sizes = []
        kernel = reach._successor_bitmap

        def recording(frontier, *args):
            sizes.append(frontier.size)
            return kernel(frontier, *args)

        monkeypatch.setattr(reach, "_successor_bitmap", recording)
        bfs_reach(m, n)
        peak = max(sizes)
        assert peak > 1
        k = max(m, n)
        monkeypatch.setattr(reach, "LINE_KEYS", (peak - extra) * min(k ** k, 1 << m * n) * k)
        expected = plain_bfs_reach(m, n, tmp_path / "plain")
        assert bfs_reach(m, n, checkpoint_dir=tmp_path / "orbit") == expected
        assert expected.reached == bound_f(m, n)
        TestOrbitBfs.assert_same_files(tmp_path / "plain", tmp_path / "orbit")

    def test_letter_list(self):
        letters = load_letters(FIXTURES / "letters_3x3.json")
        frontier = all_valid(3, 3)
        union = set()
        for a in letters:
            expected = {
                pair_loop_step(enc, a.s.images, a.t.images, 3, 3) for enc in frontier
            }
            assert successors(frontier, 3, 3, [a]) == expected, a
            union |= expected
        assert successors(frontier, 3, 3, letters) == union

    # 12-bit chunks: 3x3 fits in one short chunk, the grids of 13 to 20
    # cells end in a short second chunk, and 4x6 fills two
    CHUNK_GRIDS = [(3, 3), (1, 13), (3, 5), (4, 4), (2, 7), (4, 5), (4, 6)]

    @pytest.mark.parametrize("m,n", CHUNK_GRIDS)
    def test_letter_list_across_chunks(self, m, n):
        rng = random.Random(m * 100 + n)
        letters = random_letters(rng, m, n, 4)
        frontier = [rng.randrange(1 << (m * n)) for _ in range(200)]
        union = set()
        for a in letters:
            expected = {
                pair_loop_step(enc, a.s.images, a.t.images, m, n) for enc in frontier
            }
            assert successors(frontier, m, n, [a]) == expected, a
            union |= expected
        assert successors(frontier, m, n, letters) == union

    @pytest.mark.parametrize("cells,dtype", [(32, np.uint32), (33, np.uint64)])
    def test_step_table_width(self, cells, dtype):
        top = 1 << cells - 1  # every cell steps to the last one
        tables = _step_tables([[top] * cells], cells, CHUNK_BITS)
        assert tables.dtype == dtype
        assert tables[-1, -1, 0] == top

    @pytest.mark.parametrize("m,n", CHUNK_GRIDS)
    def test_bfs_letter_list_across_chunks(self, m, n, tmp_path):
        rng = random.Random(m * 100 + n + 1)
        letters = random_letters(rng, m, n, 3)
        visited, frontier, _ = set_bfs(m, n, letters, 4)
        report = bfs_reach(m, n, letters, checkpoint_dir=tmp_path, max_generations=4)
        assert report.reached == len(visited)
        _, bitmap, last = read_checkpoint(tmp_path, m, n, report.alphabet_id)
        assert set(np.flatnonzero(bitmap).tolist()) == visited
        assert set(last.tolist()) == frontier

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "two-blocks"])
    @pytest.mark.parametrize("m,n", CHUNK_GRIDS)
    def test_bfs_across_block_switch(self, m, n, extra, tmp_path, monkeypatch):
        # ARRAY_BLOCK is set so that the largest frontier times the letter
        # count is ARRAY_BLOCK (one block) or ARRAY_BLOCK plus the letter
        # count (two blocks, the second of one row, whose successors the
        # first block's marks in the visited bitmap filter)
        rng = random.Random(m * 100 + n + 2)
        letters = random_letters(rng, m, n, rng.randint(2, 5))
        visited, frontier, sizes = set_bfs(m, n, letters, 6)
        peak = max(sizes)
        assert peak > 1
        monkeypatch.setattr(reach, "ARRAY_BLOCK", (peak - extra) * len(letters))
        report = bfs_reach(m, n, letters, checkpoint_dir=tmp_path, max_generations=6)
        assert report.reached == len(visited)
        assert report.generations == len(sizes)
        _, bitmap, last = read_checkpoint(tmp_path, m, n, report.alphabet_id)
        assert set(np.flatnonzero(bitmap).tolist()) == visited
        assert set(last.tolist()) == frontier

    @pytest.mark.parametrize("size", [4096, 4097])
    def test_letter_list_at_block_switch(self, size):
        # 4 letters: 4096 rows fill ARRAY_BLOCK, and 4097 take a second block
        m, n = 4, 6
        assert reach.ARRAY_BLOCK == 4 * 4096
        rng = random.Random(size)
        letters = random_letters(rng, m, n, 4)
        frontier = [rng.randrange(1 << (m * n)) for _ in range(size)]
        expected = {
            pair_loop_step(enc, a.s.images, a.t.images, m, n)
            for enc in frontier for a in letters
        }
        assert successors(frontier, m, n, letters) == expected

    def test_extremal_step_sample(self):
        rng = random.Random(3)
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            bits = rng.randrange(1 << (m * n))
            s = tuple(rng.randint(1, m) for _ in range(m))
            t = tuple(rng.randint(1, n) for _ in range(n))
            stepped = extremal_step(ProductSubset(m, n, bits), letter(s, t))
            assert stepped.bits == pair_loop_step(bits, s, t, m, n)


class TestThreadedKernel:
    """The letter-list kernel with its CPU count set to 1, 2 and 3: the
    frontier is cut into that many shares of whole blocks (fewer if there
    are fewer blocks), and every split gives the one new generation."""

    M, N = 4, 6

    @staticmethod
    def few_cell_frontier(size, seed):
        """size distinct 4x6 encodings of 1 to 5 cells, ascending: their
        successors have few cells too, so rows of different shares share
        many successors."""
        cells = [sum(1 << c for c in combo) for k in range(1, 6)
                 for combo in combinations(range(24), k)]
        return np.array(sorted(random.Random(seed).sample(cells, size)), dtype=np.uint64)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("blocks,extra", [(0, 0), (0, 1), (1, 0), (1, 1), (3, 1)],
                             ids=["0-rows", "1-row", "one-block", "block-and-row",
                                  "3-blocks-and-row"])
    @pytest.mark.parametrize("count", [8, 0], ids=["4x6-list", "empty-list"])
    def test_same_generation(self, monkeypatch, threads, blocks, extra, count):
        m, n = self.M, self.N
        letters = random_letters(random.Random(count), m, n, count)
        rows = reach.ARRAY_BLOCK // max(count, 1)
        frontier = self.few_cell_frontier(blocks * rows + extra, count + blocks)
        step = _LetterStep(letters, m, n, np.zeros(1 << m * n, dtype=bool))
        all_succ = _block_step(step.tables, frontier.astype(np.intp), CHUNK_BITS)
        step.visited[frontier] = True  # as in BFS, and a third of the successors
        step.visited[all_succ.ravel()[::3]] = True
        before = step.visited.copy()
        expected = np.setdiff1d(all_succ, np.flatnonzero(before)).astype(np.uint32)

        shares = []
        share = _LetterStep.share

        def recording(self, part, rows):
            shares.append((int(part[0]), part.size))
            return share(self, part, rows)

        monkeypatch.setattr(reach, "_available_cpus", lambda: threads)
        monkeypatch.setattr(_LetterStep, "share", recording)
        alive = threading.active_count()
        succ = _successor_bitmap(frontier, m, n, step)
        assert threading.active_count() == alive
        assert succ.dtype == np.uint32 and np.array_equal(succ, expected)
        assert np.array_equal(np.flatnonzero(step.visited & ~before), succ)
        total = blocks + (extra > 0)
        sizes = [size for _, size in sorted(shares)]  # in frontier order
        assert len(sizes) == min(threads, total) and sum(sizes) == frontier.size
        assert all(size % rows == 0 for size in sizes[:-1])

    def test_worker_exception_raised(self, monkeypatch):
        # the second share raises in its thread; the caller raises it once
        # every thread has ended
        m, n = self.M, self.N
        letters = random_letters(random.Random(1), m, n, 8)
        frontier = self.few_cell_frontier(2 * reach.ARRAY_BLOCK // 8, 1)
        step = _LetterStep(letters, m, n, np.zeros(1 << m * n, dtype=bool))
        share = _LetterStep.share

        def failing(self, part, rows):
            if part[0] != frontier[0]:
                raise ZeroDivisionError("share failed")
            return share(self, part, rows)

        monkeypatch.setattr(reach, "_available_cpus", lambda: 2)
        monkeypatch.setattr(_LetterStep, "share", failing)
        alive = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="share failed"):
            _successor_bitmap(frontier, m, n, step)
        assert threading.active_count() == alive


class TestFullAlphabet:
    def test_letter_file_round_trip(self, tmp_path):
        letters = [letter([2, 1], [1, 1]), letter([1, 2], [2, 2])]
        path = tmp_path / "letters.json"
        dump_letters(letters, path)
        assert load_letters(path) == letters

    @pytest.mark.parametrize("entry", [
        {"s": [1, 2]}, {"t": [1, 2]}, [1, 2], 3, {"s": "12", "t": [1, 2]},
        {"s": [1, 3], "t": [1, 2]}, {"s": [], "t": [1]},
        {"s": [2, 1], "t": [1, 2], "note": "x"}, {"s": ["a", True, 9], "t": [1, 2]},
    ])
    def test_malformed_letter_file_refused(self, tmp_path, entry):
        path = tmp_path / "letters.json"
        path.write_text(json.dumps([{"s": [1, 1], "t": [2, 1]}, entry]))
        with pytest.raises(ValueError, match="letter 1 is not"):
            load_letters(path)

    def test_bool_image_refused(self, tmp_path):
        # JSON true is not the integer 1: the same letter would otherwise
        # load under a second alphabet_id
        path = tmp_path / "letters.json"
        path.write_text(json.dumps([{"s": [True, True], "t": [1, 2]}]))
        with pytest.raises(ValueError, match="letter 0 is not"):
            load_letters(path)

    def test_letter_file_not_a_list_refused(self, tmp_path):
        path = tmp_path / "letters.json"
        path.write_text(json.dumps({"s": [1, 1], "t": [2, 1]}))
        with pytest.raises(ValueError, match="list of letters"):
            load_letters(path)


class TestBfsReach:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_complete_small(self, m, n):
        report = bfs_reach(m, n)
        assert report.complete
        assert report.reached == report.bound == bound_f(m, n)
        assert report.unreached_sample == ()

    @pytest.mark.parametrize("m,n", [(3, 4), (2, 5), (2, 6)])
    def test_complete_medium(self, m, n):
        assert bfs_reach(m, n).complete

    def test_complete_4x4(self):
        assert bfs_reach(4, 4).complete

    def test_unreached_sample_across_scan_chunks(self, monkeypatch):
        # four letters reach 18 of the 400 valid 3x3 subsets; with 16-encoding
        # chunks the 32-entry sample (10 to 70) is gathered from five of them
        letters = load_letters(FIXTURES / "letters_3x3.json")[:4]
        whole = bfs_reach(3, 3, letters)
        monkeypatch.setattr(shuffle, "VALID_SCAN_CHUNK", 1 << 4)
        chunked = bfs_reach(3, 3, letters)
        assert len({x >> 4 for x in chunked.unreached_sample}) == 5
        assert chunked == whole
        assert count_valid_subsets(3, 3) == 400

    def test_complete_2x7(self):
        report = bfs_reach(2, 7)
        assert report.complete
        assert report.reached == bound_f(2, 7) == 12_224

    def test_complete_2x8(self):
        report = bfs_reach(2, 8)
        assert report.complete
        assert report.reached == bound_f(2, 8) == 49_024

    @pytest.mark.slow
    def test_complete_3x6(self):
        report = bfs_reach(3, 6)
        assert report.complete
        assert report.reached == bound_f(3, 6) == 226_304

    @pytest.mark.slow
    def test_complete_4x5(self):
        report = bfs_reach(4, 5)
        assert report.complete
        assert report.reached == bound_f(4, 5) == 954_368

    @pytest.mark.slow
    def test_4x5_agrees_with_certificate(self, tmp_path):
        # two independent proofs that every valid 4x5 subset is reachable:
        # BFS reaches each one, and the certificate's family rule covers them
        cert = certify(4, 5)
        failures = []
        assert verify_certificate(cert, failures), failures[:5]
        entry = cert.entry(4, 5)
        assert entry.strategy == "FAMILY"
        report = bfs_reach(4, 5, checkpoint_dir=tmp_path)
        assert report.complete
        _, visited, _ = read_checkpoint(tmp_path, 4, 5, "full")
        for family in entry.data["families"]:
            masks = [sum(1 << (p - 1) * 5 for p in column) for column in family["columns"]]
            for first in range(5):
                order = [masks[first]] + masks[:first] + masks[first + 1:]
                enc = sum(mask << q for q, mask in enumerate(order))
                assert is_valid(ProductSubset(4, 5, enc)) and visited[enc], family

    def test_guard(self):
        with pytest.raises(GridSizeError):
            bfs_reach(5, 6)

    @pytest.mark.parametrize("wrong", [
        letter([1, 1, 1], [2, 3, 1, 4]),  # column image 4 would wrap a row
        letter([1, 1], [2, 1, 3]),        # s too short for 3 rows
        letter([1, 1, 1, 1], [2, 1, 3]),  # s maps a row off the grid
    ])
    def test_letter_of_wrong_degree_refused(self, wrong):
        good = letter([2, 1, 3], [1, 1, 1])
        with pytest.raises(ValueError, match=r"letter 1 .*not \(3, 3\)"):
            bfs_reach(3, 3, [good, wrong])
        with pytest.raises(ValueError, match="letter 0"):
            bfs_reach(3, 3, [wrong])

    def test_negative_max_generations_refused(self):
        with pytest.raises(ValueError, match="max_generations"):
            bfs_reach(2, 2, max_generations=-2)
        assert bfs_reach(2, 2, max_generations=0).reached == 1

    def test_restricted_alphabet_incomplete(self):
        only = [letter([1, 2], [1, 2])]  # identity alone goes nowhere
        report = bfs_reach(2, 2, only)
        assert not report.complete
        assert report.reached == 1
        assert len(report.unreached_sample) == 9

    def test_report_json_round_trip(self):
        from shufflesc.reach import ReachReport

        report = bfs_reach(2, 2)
        again = ReachReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again == report

    def test_report_with_unknown_field_refused(self):
        # the schema allows no other key, but this report loaded
        obj = {**bfs_reach(2, 2).to_dict(), "junk": 1}
        with pytest.raises(ValueError, match="reach report: unknown field 'junk'"):
            ReachReport.from_dict(obj)

    def test_report_stores_what_bfs_measured(self):
        assert list(ReachReport.__dataclass_fields__) == [
            "m", "n", "alphabet", "reached", "unreached_sample", "generations",
            "elapsed_seconds"]

    @pytest.mark.parametrize("m, n, alphabet, max_generations, aid, lineage", [
        (2, 2, None, None, "full", "f07c7c908dd42f77"),
        (3, 3, "letters_3x3", None, "a24829b1c6f13f25", "4d7f26064cef8dd1"),
        (4, 4, None, 3, "full", None),
    ])
    def test_derived_values(self, m, n, alphabet, max_generations, aid, lineage):
        # alphabet_id and lineage as bfs_reach stored them before they were derived
        letters = "full" if alphabet is None else load_letters(FIXTURES / f"{alphabet}.json")
        report = bfs_reach(m, n, letters, max_generations=max_generations)
        assert report.bound == bound_f(m, n)
        assert report.complete == (report.reached == report.bound) == (max_generations is None)
        assert report.alphabet_id == aid
        if lineage is not None:
            assert report.lineage == lineage

    # an incomplete report over a letter list: 2 generations of letters_3x3
    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d.update(m="three"), "field 'm' is not a int"),
        (lambda d: d.update(complete=True),
         "field 'complete' is True, but the other fields give False"),
        (lambda d: d.update(lineage="0" * 16), "field 'lineage' is '0000000000000000'"),
        (lambda d: d.update(alphabet_id="0" * 16), "field 'alphabet_id' is '0000000000000000'"),
        (lambda d: d.update(bound=401), "field 'bound' is 401, but the other fields give 400"),
        (lambda d: d["alphabet"][0].update(s=["a", True, 9]),
         "alphabet[0]: field 's': image of 1 is 'a', not in 1..3"),
        (lambda d: d["alphabet"].insert(1, 5), "alphabet[1]: missing field 's'"),
        (lambda d: d["alphabet"][2].update(note="x"), "alphabet[2]: unknown field 'note'"),
        (lambda d: d["alphabet"][0].update(s=[1, 2]),
         "field 'alphabet' holds a letter not of degrees (3, 3)"),
        (lambda d: d.update(alphabet="all"), "field 'alphabet' is neither 'full' nor a list"),
        (lambda d: d.update(m=0), "fields 'm', 'n' give 0x3"),
        (lambda d: d.update(reached=-1), "field 'reached' is -1, not a number >= 0"),
        (lambda d: d.update(elapsed_seconds=True), "field 'elapsed_seconds' is True"),
        (lambda d: d.update(unreached_sample=[True]), "field 'unreached_sample'"),
    ], ids=["m_str", "complete", "lineage", "alphabet_id", "bound", "images", "entry_int",
            "letter_key", "letter_degree", "alphabet_str", "m_zero", "reached_negative",
            "elapsed_bool", "sample_bool"])
    def test_inconsistent_report_refused(self, corrupt, message):
        letters = load_letters(FIXTURES / "letters_3x3.json")
        obj = json.loads(json.dumps(bfs_reach(3, 3, letters, max_generations=2).to_dict()))
        assert not obj["complete"]
        ReachReport.from_dict(obj)
        corrupt(obj)
        with pytest.raises(ValueError, match="^reach report: .*" + re.escape(message)):
            ReachReport.from_dict(obj)

    def test_report_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as res

        schema = json.loads(
            res.files("shufflesc")
            .joinpath("schemas/reach_report.schema.json")
            .read_text()
        )
        jsonschema.validate(bfs_reach(2, 2).to_dict(), schema)
        jsonschema.validate(
            bfs_reach(2, 2, [letter([2, 1], [2, 1])]).to_dict(), schema
        )


def plain_bfs_reach(m, n, checkpoint_dir=None, max_generations=None):
    """Full-alphabet BFS that steps every subset of each generation through
    the kernel, writing the checkpoints bfs_reach writes: the reference for
    bfs_reach, which steps one subset per orbit."""
    visited = np.zeros(1 << m * n, dtype=bool)
    visited[1] = True
    frontier = np.array([1], dtype=np.uint64)
    generation = 0
    if checkpoint_dir is not None:
        write_checkpoint(checkpoint_dir, m, n, "full", 0, visited, frontier)
    while frontier.size and (max_generations is None or generation < max_generations):
        succ = _successor_bitmap(frontier, m, n, "full") & ~visited
        visited |= succ
        frontier = np.flatnonzero(succ).astype(np.uint64)
        generation += 1
        if checkpoint_dir is not None:
            write_checkpoint(checkpoint_dir, m, n, "full", generation, visited, frontier)
    unreached = [enc for enc in all_valid(m, n) if not visited[enc]][:32]
    return ReachReport(
        m=m, n=n, alphabet="full", reached=int(np.count_nonzero(visited)),
        unreached_sample=tuple(unreached), generations=generation, elapsed_seconds=0.0,
    )


def brute_orbit(enc, m, n):
    """g.S for every g in S_{m-1} x S_{n-1}, from the pairs of S."""
    pairs = ProductSubset(m, n, enc).pairs()
    return {
        sum(1 << (s[p - 1] - 1) * n + t[q - 1] - 1 for p, q in pairs)
        for s in [(1, *sigma) for sigma in permutations(range(2, m + 1))]
        for t in [(1, *tau) for tau in permutations(range(2, n + 1))]
    }


def orbit_key(enc, m, n):
    return int(_orbit_keys(np.array([enc], dtype=np.uint64), m, n)[0])


# stepping every subset of a single-line grid maps up to k^j parts for a
# subset on j of its k cells, so above 10 cells the reference takes seconds
SMALL_GRIDS = [
    pytest.param(m, n, marks=pytest.mark.slow) if min(m, n) == 1 and m * n > 10 else (m, n)
    for m in range(1, 13) for n in range(1, 13) if m * n <= 12
]


class TestOrbitBfs:
    @pytest.mark.parametrize("m,n", SMALL_GRIDS)
    def test_matches_plain_bfs(self, m, n, tmp_path):
        expected = plain_bfs_reach(m, n, tmp_path / "plain")
        assert bfs_reach(m, n, checkpoint_dir=tmp_path / "orbit") == expected
        self.assert_same_files(tmp_path / "plain", tmp_path / "orbit")

    def test_matches_plain_bfs_4x4_to_generation_3(self, tmp_path):
        expected = plain_bfs_reach(4, 4, tmp_path / "plain", max_generations=3)
        report = bfs_reach(4, 4, checkpoint_dir=tmp_path / "orbit", max_generations=3)
        assert report == expected
        self.assert_same_files(tmp_path / "plain", tmp_path / "orbit")

    @staticmethod
    def assert_same_files(plain, orbit):
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in orbit.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (orbit / name).read_bytes(), name

    def test_resumes_plain_checkpoint(self, tmp_path):
        plain_bfs_reach(3, 4, tmp_path, max_generations=2)
        resumed = bfs_reach(3, 4, checkpoint_dir=tmp_path, resume=True)
        assert resumed == bfs_reach(3, 4)
        final = _checkpoint_name(resumed.generations)
        plain_bfs_reach(3, 4, tmp_path / "plain")
        assert (tmp_path / final).read_bytes() == (tmp_path / "plain" / final).read_bytes()

    def test_2x12_two_generations(self):
        # G has 11! elements here; the orbit key enumerates only the row factor
        report = bfs_reach(2, 12, max_generations=2)
        assert report.reached == 3280
        assert report.elapsed_seconds < 2

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_key_against_brute_force_orbits(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, min(4, 12 // m)))
        enc = data.draw(st.integers(0, (1 << m * n) - 1))
        other = data.draw(st.integers(0, (1 << m * n) - 1))
        orbit = brute_orbit(enc, m, n)
        keys = _orbit_keys(np.array(sorted(orbit), dtype=np.uint64), m, n)
        key = orbit_key(enc, m, n)
        assert set(keys.tolist()) == {key}
        assert key in orbit
        assert (orbit_key(other, m, n) == key) == (other in orbit)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 2), (2, 5), (3, 4), (4, 3)])
    def test_one_key_per_orbit(self, m, n):
        encs = np.arange(1 << m * n, dtype=np.uint64)
        keys = _orbit_keys(encs, m, n)
        orbits = {min(brute_orbit(enc, m, n)) for enc in range(1 << m * n)}
        assert len(set(keys.tolist())) == len(orbits)
        assert all(keys[key] == key for key in set(keys.tolist()))


class TestCheckpoints:
    def test_interrupt_resume_equivalence(self, tmp_path):
        full = bfs_reach(3, 3)
        partial = bfs_reach(3, 3, checkpoint_dir=tmp_path, max_generations=2)
        assert not partial.complete
        resumed = bfs_reach(3, 3, checkpoint_dir=tmp_path, resume=True)
        assert resumed == full  # elapsed excluded from equality

    def test_layout(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["LATEST", "gen-000000.ckpt", "gen-000001.ckpt"]
        assert (tmp_path / "LATEST").read_text().strip() == "gen-000001.ckpt"

    def test_header_fields(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        raw = (tmp_path / "gen-000001.ckpt").read_bytes()
        header = json.loads(raw[: raw.index(b"\n")])
        assert set(header) == {
            "m", "n", "alphabet_id", "generation", "visited_count",
            "frontier_len", "frontier_encoding", "bitmap_sha256", "frontier_sha256",
        }
        assert header["m"] == 2 and header["alphabet_id"] == "full"
        assert header["frontier_encoding"] == "u64le"

    def test_corrupt_bitmap_refused(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        target = tmp_path / "gen-000001.ckpt"
        raw = bytearray(target.read_bytes())
        raw[raw.index(b"\n") + 1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    def test_missing_separator_refused(self, tmp_path):
        # with an empty frontier, nothing after the bitmap would show the loss
        visited = np.zeros(16, dtype=bool)
        visited[1] = True
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, np.array([], dtype=np.uint64))
        target = tmp_path / "gen-000000.ckpt"
        raw = target.read_bytes()
        assert raw.endswith(b"\n")
        target.write_bytes(raw[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(tmp_path, 2, 2, "full")

    @pytest.mark.parametrize("entry", [16, 2**64 - 1])
    def test_frontier_out_of_range_refused(self, tmp_path, entry):
        # the range check runs before the hash check, which would also fail
        visited = np.zeros(16, dtype=bool)
        visited[1] = True
        frontier = np.array([1], dtype=np.uint64)
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, frontier)
        target = tmp_path / "gen-000000.ckpt"
        raw = target.read_bytes()
        assert raw.endswith((1).to_bytes(8, "little"))
        target.write_bytes(raw[:-8] + entry.to_bytes(8, "little"))
        with pytest.raises(CheckpointError, match="outside"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    @staticmethod
    def rewrite_frontier(directory, entries):
        """Replace the frontier of directory's gen-000000.ckpt by entries,
        with the header's length and hash to match: write_checkpoint
        refuses to write such a frontier itself."""
        target = directory / "gen-000000.ckpt"
        raw = target.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        start = nl + 1 + ((1 << header["m"] * header["n"]) + 7) // 8 + 1
        body = np.array(entries, dtype="<u8").tobytes()
        header["frontier_len"] = len(entries)
        header["frontier_sha256"] = hashlib.sha256(body).hexdigest()
        target.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:start] + body)

    def test_frontier_outside_visited_refused(self, tmp_path):
        visited = np.zeros(16, dtype=bool)
        visited[1] = True
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, np.array([1], dtype=np.uint64))
        self.rewrite_frontier(tmp_path, [3])
        with pytest.raises(CheckpointError, match="visited"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    def test_frontier_rewritten_refused(self, tmp_path):
        # every entry rewritten to {(1,1)}: count, range and visited checks pass
        bfs_reach(3, 3, checkpoint_dir=tmp_path, max_generations=2)
        target = tmp_path / "gen-000002.ckpt"
        raw = target.read_bytes()
        start = raw.index(b"\n") + 1 + (1 << 9) // 8 + 1
        assert len(raw) - start == 145 * 8
        target.write_bytes(raw[:start] + (1).to_bytes(8, "little") * 145)
        with pytest.raises(CheckpointError, match="frontier hash"):
            bfs_reach(3, 3, checkpoint_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("entries", [[5, 3, 5], [3, 5, 5]])
    def test_frontier_not_ascending_refused(self, tmp_path, entries):
        # length, range, hash and visited checks all pass
        visited = np.zeros(16, dtype=bool)
        visited[[1, 3, 5]] = True
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, np.array([1, 3, 5], dtype=np.uint64))
        self.rewrite_frontier(tmp_path, entries)
        with pytest.raises(CheckpointError, match="not strictly ascending"):
            read_checkpoint(tmp_path, 2, 2, "full")

    @pytest.mark.parametrize("entries, problem", [
        ([3, 3], "repeats"), ([3, 5], "missing from the visited"), ([1 << 20], "outside"),
    ], ids=["repeated", "unvisited", "outside-grid"])
    def test_unreadable_frontier_not_written(self, tmp_path, entries, problem):
        # each frontier is one that read_checkpoint refuses, so writing it is
        # refused, and the last good checkpoint stays what LATEST names
        visited = np.zeros(16, dtype=bool)
        visited[[1, 3]] = True
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, np.array([1, 3], dtype=np.uint64))
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=problem):
            write_checkpoint(tmp_path, 2, 2, "full", 1, visited, np.array(entries, dtype=np.uint64))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        assert read_checkpoint(tmp_path, 2, 2, "full")[0] == 0

    #: sha256 of every checkpoint file of two letter-list runs to the fixpoint,
    #: as written by the per-letter BFS that the block step replaced
    GOLDEN_RUNS = {
        "3x3 letters_3x3": (3, 3, lambda: load_letters(FIXTURES / "letters_3x3.json")),
        "4x5 seed 45": (4, 5, lambda: random_letters(random.Random(45), 4, 5, 8)),
    }

    @pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
    def test_golden_checkpoint_bytes(self, tmp_path, run):
        self.assert_golden(tmp_path, run)

    @pytest.mark.parametrize("block", ["one-row", "one-block"])
    @pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
    def test_golden_checkpoint_bytes_at_block_sizes(self, tmp_path, monkeypatch, run, block):
        # one frontier row per block, so that a successor of two rows is
        # filtered by the first row's marks in visited, or the largest
        # generation in one block, so that every repeat is dropped by the sort;
        # each on one thread and on two, where one-row blocks split every
        # frontier of two or more rows between the threads
        letters = self.GOLDEN_RUNS[run][2]()
        size = len(letters) if block == "one-row" else 1 << 24
        monkeypatch.setattr(reach, "ARRAY_BLOCK", size)
        for threads in (1, 2):
            monkeypatch.setattr(reach, "_available_cpus", lambda: threads)
            self.assert_golden(tmp_path / f"{threads}-threads", run)

    def assert_golden(self, tmp_path, run):
        m, n, letters = self.GOLDEN_RUNS[run]
        bfs_reach(m, n, letters(), checkpoint_dir=tmp_path)
        expected = json.loads((GOLDEN / "checkpoint_sha256.json").read_text())[run]
        assert {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("gen-*.ckpt"))
        } == expected

    def test_uint32_frontier_same_file(self, tmp_path):
        # the letter-list kernel returns uint32 generations; a checkpoint
        # stores them as the same little-endian uint64 entries
        rng = np.random.default_rng(32)
        visited = rng.random(1 << 12) < 0.5
        frontier = np.flatnonzero(visited)[::3].astype(np.uint32)
        for name, entries in (("u32", frontier), ("u64", frontier.astype(np.uint64))):
            write_checkpoint(tmp_path / name, 3, 4, "full", 5, visited, entries)
        assert ((tmp_path / "u32" / "gen-000005.ckpt").read_bytes()
                == (tmp_path / "u64" / "gen-000005.ckpt").read_bytes())
        assert np.array_equal(read_checkpoint(tmp_path / "u32", 3, 4, "full")[2], frontier)

    def test_frontier_not_integer_refused(self, tmp_path):
        visited = np.zeros(16, dtype=bool)
        visited[1] = True
        write_checkpoint(tmp_path, 2, 2, "full", 0, visited, np.array([1], dtype=np.uint64))
        target = tmp_path / "gen-000000.ckpt"
        target.write_bytes(target.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="whole number of 8-byte entries"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    def test_decimal_layout_refused(self, tmp_path):
        # the layout before the binary frontier: one decimal line per entry,
        # no frontier_encoding key, every hash and count valid
        visited = np.zeros(16, dtype=bool)
        visited[[1, 6]] = True
        bitmap = np.packbits(visited, bitorder="little").tobytes()
        body = b"1\n6\n"
        header = {
            "m": 2, "n": 2, "alphabet_id": "full", "generation": 0,
            "visited_count": 2, "frontier_len": 2,
            "bitmap_sha256": hashlib.sha256(bitmap).hexdigest(),
            "frontier_sha256": hashlib.sha256(body).hexdigest(),
        }
        (tmp_path / "gen-000000.ckpt").write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + bitmap + b"\n" + body
        )
        (tmp_path / "LATEST").write_text("gen-000000.ckpt\n")
        with pytest.raises(CheckpointError, match="frontier_encoding"):
            read_checkpoint(tmp_path, 2, 2, "full")

    @pytest.mark.parametrize("absolute", [True, False])
    def test_latest_outside_directory_refused(self, tmp_path, absolute):
        other, run = tmp_path / "other", tmp_path / "run"
        bfs_reach(3, 3, checkpoint_dir=other, max_generations=4)
        bfs_reach(3, 3, checkpoint_dir=run, max_generations=1)
        foreign = other / "gen-000004.ckpt" if absolute else Path("..", "other", "gen-000004.ckpt")
        (run / "LATEST").write_text(f"{foreign}\n")
        with pytest.raises(CheckpointError, match="LATEST"):
            bfs_reach(3, 3, checkpoint_dir=run, resume=True)

    def test_renamed_generation_refused(self, tmp_path):
        bfs_reach(3, 3, checkpoint_dir=tmp_path, max_generations=1)
        (tmp_path / "gen-000004.ckpt").write_bytes((tmp_path / "gen-000001.ckpt").read_bytes())
        (tmp_path / "LATEST").write_text("gen-000004.ckpt\n")
        with pytest.raises(CheckpointError, match="generation 1"):
            bfs_reach(3, 3, checkpoint_dir=tmp_path, resume=True)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
        generation=st.integers(0, 10**7), size=st.integers(0, 300), top=st.booleans(),
    )
    @example(m=4, n=6, seed=0, generation=0, size=0, top=False)
    @example(m=4, n=6, seed=1, generation=3, size=0, top=True)
    @example(m=1, n=1, seed=2, generation=1, size=0, top=True)
    def test_round_trip(self, tmp_path_factory, m, n, seed, generation, size, top):
        rng = np.random.default_rng(seed)
        total = 1 << (m * n)
        frontier = np.unique(rng.integers(0, total, size=size, dtype=np.uint64))
        if top:
            frontier = np.union1d(frontier, np.array([total - 1], dtype=np.uint64))
        visited = rng.random(total) < 0.3
        visited[frontier] = True
        directory = tmp_path_factory.mktemp("ckpt")
        # written in any order, read back ascending
        write_checkpoint(directory, m, n, "full", generation, visited, rng.permutation(frontier))
        back_generation, back_visited, back_frontier = read_checkpoint(directory, m, n, "full")
        assert back_generation == generation
        assert back_visited.dtype == bool and np.array_equal(back_visited, visited)
        assert back_frontier.dtype == np.uint64 and np.array_equal(back_frontier, frontier)

    @pytest.mark.parametrize("alphabet", ["full", "letters_3x3"])
    def test_resume_at_every_generation(self, tmp_path, alphabet):
        if alphabet != "full":
            alphabet = load_letters(FIXTURES / f"{alphabet}.json")
        whole = bfs_reach(3, 3, alphabet, checkpoint_dir=tmp_path / "whole")
        final = _checkpoint_name(whole.generations)
        expected = (tmp_path / "whole" / final).read_bytes()
        for g in range(whole.generations + 1):
            directory = tmp_path / f"stop-{g}"
            bfs_reach(3, 3, alphabet, checkpoint_dir=directory, max_generations=g)
            resumed = bfs_reach(3, 3, alphabet, checkpoint_dir=directory, resume=True)
            assert resumed == whole, g
            assert (directory / final).read_bytes() == expected, g

    def test_header_without_frontier_hash_refused(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        target = tmp_path / "gen-000001.ckpt"
        raw = target.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        del header["frontier_sha256"]
        target.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(CheckpointError, match="frontier_sha256"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("generation", ["1", None, -7, True, 1.0])
    def test_bad_generation_refused(self, tmp_path, generation):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        target = tmp_path / "gen-000001.ckpt"
        raw = target.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        if generation is None:
            del header["generation"]
        else:
            header["generation"] = generation
        target.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(CheckpointError, match="generation"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    def test_header_not_an_object_refused(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        target = tmp_path / "gen-000001.ckpt"
        raw = target.read_bytes()
        target.write_bytes(b"[1, 2]" + raw[raw.index(b"\n"):])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("key, value, message", [
        *((key, True, f"field '{key}' is not a int")
          for key in ("m", "n", "visited_count", "frontier_len")),
        ("junk", 5, "unknown field 'junk'"),
    ], ids=["m", "n", "visited_count", "frontier_len", "unknown_key"])
    def test_header_field_refused(self, tmp_path, key, value, message):
        # on the 1x1 grid every int field is 1, which JSON true equals in
        # Python, and every other check passes (generation true is refused
        # in test_bad_generation_refused)
        visited = np.array([False, True])
        write_checkpoint(tmp_path, 1, 1, "full", 0, visited, np.array([1], dtype=np.uint64))
        target = tmp_path / "gen-000000.ckpt"
        raw = target.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header[key] = value
        target.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(CheckpointError, match=f"checkpoint header: {message}"):
            read_checkpoint(tmp_path, 1, 1, "full")

    @staticmethod
    def _bumped(key):
        """An edit of checkpoint bytes that adds 1 to a header field."""
        def edit(raw):
            nl = raw.index(b"\n")
            header = json.loads(raw[:nl])
            header[key] += 1
            return json.dumps(header, sort_keys=True).encode() + raw[nl:]
        return edit

    @pytest.mark.parametrize("edit, message", [
        (None, "missing checkpoint file"),
        (lambda raw: raw[:raw.index(b"\n")], "truncated checkpoint header"),
        (lambda raw: b"{" + raw[raw.index(b"\n"):], "bad checkpoint header"),
        (_bumped("frontier_len"), "frontier length does not match header"),
        (_bumped("visited_count"), "visited count does not match header"),
    ], ids=["file_gone", "no_newline", "header_not_json", "frontier_len", "visited_count"])
    def test_corrupt_checkpoint_refused(self, tmp_path, edit, message):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        target = tmp_path / "gen-000001.ckpt"
        if edit is None:
            target.unlink()
        else:
            target.write_bytes(edit(target.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(tmp_path, 2, 2, "full")

    def test_mismatched_grid_refused(self, tmp_path):
        bfs_reach(2, 2, checkpoint_dir=tmp_path, max_generations=1)
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path, 2, 3, "full")

    def test_missing_pointer(self, tmp_path):
        with pytest.raises(CheckpointError):
            bfs_reach(2, 2, checkpoint_dir=tmp_path, resume=True)


def containment_edge(S, red):
    """reduce_containment's (axis, inner, outer, pred) for S as objects: the
    pred subset and the letter (inner -> outer) on that axis, the identity
    on the other."""
    axis, inner, outer, pred = red
    images = [list(range(1, S.m + 1)), list(range(1, S.n + 1))]
    images[("row", "column").index(axis)][inner - 1] = outer
    return ProductSubset(S.m, S.n, pred), letter(*images)


class TestReduceContainment:
    def test_full_2x2_grid(self):
        S = ProductSubset.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        red = reduce_containment(S.bits, S.m, S.n)
        assert red is not None
        smaller, a = containment_edge(S, red)
        assert extremal_step(smaller, a) == S
        assert len(smaller) < 4 and is_valid(smaller)

    def test_incomparable_columns_no_column_branch(self):
        # pairwise-incomparable antichain columns: no column containment
        cols = [{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3}]
        S = ProductSubset.from_pairs(
            4, 4, [(i, j) for j, col in enumerate(cols, start=1) for i in col]
        )
        red = reduce_containment(S.bits, S.m, S.n)
        assert red is None or red[0] != "column"

    def test_singleton_nothing(self):
        assert reduce_containment(ProductSubset.from_pairs(2, 2, [(1, 1)]).bits, 2, 2) is None

    @settings(max_examples=100, deadline=None)
    @given(subset_strategy())
    def test_replay_property(self, S):
        if not is_valid(S):
            return
        red = reduce_containment(S.bits, S.m, S.n)
        if red is not None:
            smaller, a = containment_edge(S, red)
            assert extremal_step(smaller, a) == S
            assert len(smaller) < len(S)
            assert is_valid(smaller)


class TestReduceSingleElement:
    def test_diagonal_2x2(self):
        S = ProductSubset.from_pairs(2, 2, [(1, 1), (2, 2)])
        red = reduce_single_element(S.bits, S.m, S.n)
        assert red is not None
        # case p == q == 1 at (1,1): anchor {(1,1),(2,2)} via a^2
        _, _, power, anchor = _single_element_anchor(2, 2, *red)
        assert power == 2
        assert anchor == S.bits

    def test_empty_row_is_out_of_scope(self):
        # a lone cell at (3,2) with row 2 empty belongs to the shrink rule,
        # not this one: the stated precondition excludes empty rows/columns
        S = ProductSubset.from_pairs(3, 2, [(1, 1), (3, 2)])
        assert reduce_single_element(S.bits, S.m, S.n) is None

    def test_mixed_case_anchor_needs_single_application(self):
        # exactly one of p, q is 1: the stated transposition pair reaches
        # the anchor after one application, not two (a^2 lands elsewhere)
        m, n, q = 3, 3, 3
        a = letter(transposition(m, 2), transposition(n, q))
        probe = ProductSubset.from_pairs(m, n, [(1, 1)])
        once = extremal_step(probe, a)
        twice = extremal_step(once, a)
        anchor = ProductSubset.from_pairs(m, n, [(2, 1), (1, q)])
        assert once == anchor and twice != anchor

    def test_mixed_case_reduction_replays(self):
        # (1,2) sits alone in its row and column; no row/column is empty
        # and no containment branch fires, so the reduction must apply
        S = ProductSubset.from_pairs(3, 3, [(1, 2), (2, 1), (3, 3)])
        red = reduce_single_element(S.bits, S.m, S.n)
        assert red == (1, 2)
        s, t, power, anchor = _single_element_anchor(3, 3, *red)
        assert power == 1
        probe = ProductSubset.from_pairs(3, 3, [(1, 1)])
        assert extremal_step(probe, letter(s, t)) == ProductSubset(3, 3, anchor)
        sub = _drop(S, *red)
        assert sub.m == 2 and sub.n == 2 and len(sub) == 2

    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)])
    def test_anchor_is_the_lemma_set(self, m, n):
        for p in range(1, m + 1):
            for q in range(1, n + 1):
                if p != 1 and q != 1:
                    want = [(1, 1), (p, q)]
                elif p == 1 and q != 1:
                    want = [(2, 1), (1, q)]
                elif p != 1 and q == 1:
                    want = [(p, 1), (1, 2)]
                else:
                    want = [(1, 1), (2, 2)]
                s, t, power, anchor = _single_element_anchor(m, n, p, q)
                assert list(s) == transposition(m, max(p, 2))
                assert list(t) == transposition(n, max(q, 2))
                assert ProductSubset(m, n, anchor) == ProductSubset.from_pairs(m, n, want)
                probe = ProductSubset.from_pairs(m, n, [(1, 1)])
                for _ in range(power):
                    probe = extremal_step(probe, letter(s, t))
                assert probe.bits == anchor

    def test_two_element_column_nothing(self):
        S = ProductSubset.from_pairs(2, 2, [(1, 2), (2, 2), (2, 1)])
        assert reduce_single_element(S.bits, S.m, S.n) is None

    @settings(max_examples=100, deadline=None)
    @given(subset_strategy())
    def test_sub_instance_valid(self, S):
        if not is_valid(S):
            return
        red = reduce_single_element(S.bits, S.m, S.n)
        if red is not None:
            sub = _drop(S, *red)
            assert is_valid(sub)
            assert sub.m == S.m - 1 and sub.n == S.n - 1
            assert len(sub) == len(S) - 1


def _shrink_reference(S, axis, index):
    """Delete an empty row or column by renumbering the member pairs."""
    if axis == "column":
        pairs = [(i, j - 1 if j > index else j) for i, j in S.pairs()]
        return ProductSubset.from_pairs(S.m, S.n - 1, pairs)
    pairs = [(i - 1 if i > index else i, j) for i, j in S.pairs()]
    return ProductSubset.from_pairs(S.m - 1, S.n, pairs)


def _drop(S, p, q):
    """_drop_lines on S, as a subset of the smaller grid."""
    return ProductSubset(S.m - (p > 0), S.n - (q > 0), _drop_lines(S.bits, S.m, S.n, p, q))


def _renumber_drop_reference(S, p, q):
    """Remove row p and column q by renumbering the member pairs."""
    pairs = [(i - 1 if i > p else i, j - 1 if j > q else j)
             for i, j in S.pairs() if i != p and j != q]
    return ProductSubset.from_pairs(S.m - 1, S.n - 1, pairs)


class TestDropMatchesPairs:
    @settings(max_examples=200, deadline=None)
    @given(subset_strategy(max_m=4, max_n=4), st.data())
    def test_first_empty_line_and_shrink(self, S, data):
        empty_cols = [q for q in range(1, S.n + 1) if not S.column(q)]
        empty_rows = [p for p in range(1, S.m + 1) if not S.row(p)]
        expected = (("column", empty_cols[0]) if empty_cols
                    else ("row", empty_rows[0]) if empty_rows else None)
        rule, axis, index, _, _ = _first_rule_of(S.bits, S.m, S.n, ("SHRINK",))
        assert ((("row", "column")[axis], index) if rule else None) == expected
        if empty_cols and S.n > 1:
            q = data.draw(st.sampled_from(empty_cols))
            assert _drop(S, 0, q) == _shrink_reference(S, "column", q)
        if empty_rows and S.m > 1:
            p = data.draw(st.sampled_from(empty_rows))
            assert _drop(S, p, 0) == _shrink_reference(S, "row", p)

    @settings(max_examples=200, deadline=None)
    @given(subset_strategy(max_m=4, max_n=4), st.data())
    def test_drop_row_and_column(self, S, data):
        if S.m < 2 or S.n < 2:
            return
        p = data.draw(st.integers(1, S.m))
        q = data.draw(st.integers(1, S.n))
        assert _drop(S, p, q) == _renumber_drop_reference(S, p, q)


def _lines_reference(S):
    rowmask, colmask = (1 << S.n) - 1, col1_mask(S.m, S.n)
    return ([S.bits >> p * S.n & rowmask for p in range(S.m)],
            [S.bits >> q & colmask for q in range(S.n)])


def _containment_reference(S):
    """(axis, inner, outer, pred) of the first ordered row pair, then column
    pair, whose stripped set is valid, one subset at a time."""
    rows, cols = _lines_reference(S)
    for axis, lines, stride in (("row", rows, S.n), ("column", cols, 1)):
        for inner, line in enumerate(lines, start=1):
            if not line:
                continue
            for outer, other in enumerate(lines, start=1):
                if outer == inner or line & ~other:
                    continue
                smaller = S.bits & ~(line << (outer - 1) * stride)
                if is_valid(ProductSubset(S.m, S.n, smaller)):
                    return axis, inner, outer, smaller
    return None


def _single_reference(S):
    """(p, q) of the first row p whose only cell is alone in its column."""
    rows, cols = _lines_reference(S)
    for p, row in enumerate(rows, start=1):
        q = row.bit_length()
        if row and not row & row - 1 and cols[q - 1] == 1 << (p - 1) * S.n:
            return p, q
    return None


def _permutation_reference(S, phi):
    """reduce_permutation on sets of rows, one column at a time, for phi
    given as its images: the implementation before it worked on encodings,
    kept as its reference. Returns (pred, psi images) or None."""
    m, n = S.m, S.n
    cols = [S.column(q) for q in range(1, n + 1)]
    if any(not c for c in cols) or len(set(cols)) != n or len(S.row(1)) < 2:
        return None
    col_of = {c: q for q, c in enumerate(cols, start=1)}

    def image(U, f):
        return frozenset(f[i - 1] for i in U)

    if any(image(U, phi) not in col_of for U in cols):
        return None
    moved = [q for q in range(2, n + 1) if image(cols[q - 1], phi) != cols[q - 1]]
    if not moved:
        return None
    k, phi_inv = moved[0], [0] * m
    for p, img in enumerate(phi, start=1):
        phi_inv[img - 1] = p
    psi = tuple(col_of[image(U, phi_inv)] for U in cols)
    smaller = ProductSubset.from_pairs(m, n, [
        (i, j) for j in range(1, n + 1) if j != k for i in image(cols[j - 1], phi_inv)])
    if not is_valid(smaller):
        return None
    assert extremal_step(smaller, letter(phi, psi)) == S and len(smaller) < len(S)
    return smaller.bits, psi


def _first_rule_reference(S):
    """(kind, axis, i, j, pred) of the first line rule for S, one subset at a
    time, in _first_rule's terms (axis 0 row, 1 column; 0 for a field the
    rule does not set); kind None when no line rule applies."""
    if S.bits == 1:
        return "INITIAL", 0, 0, 0, 0
    empty_cols = [q for q in range(1, S.n + 1) if not S.column(q)]
    empty_rows = [p for p in range(1, S.m + 1) if not S.row(p)]
    if empty_cols or empty_rows:
        return ("SHRINK", 1, empty_cols[0], 0, 0) if empty_cols else (
            "SHRINK", 0, empty_rows[0], 0, 0)
    red = _containment_reference(S)
    if red is not None:
        axis, inner, outer, pred = red
        return "CONTAINMENT", ("row", "column").index(axis), inner, outer, pred
    single = _single_reference(S) if min(S.m, S.n) >= 2 else None
    if single is not None:
        return "SINGLE_ELEMENT", 0, *single, 0
    return None, 0, 0, 0, 0


def _justify_subset(S, kind):
    """One justification row for S by the reduction lemmas, one subset at a
    time: the builder before it worked on arrays, kept as its reference.
    kind is the first line rule for S (_first_rule_reference), and a
    line-rule row holds only that."""
    if kind is not None:
        return {"kind": kind}
    for phi in permutations(range(1, S.m + 1)):
        perm = _permutation_reference(S, phi)
        if perm is not None:
            pred, psi = perm
            return {"kind": "PERMUTATION", "pred": pred, "letter": letter(phi, psi).to_dict()}
    return None


def _family_scan_reference(mi, ni):
    """_family_scan one representative at a time, built from member pairs."""
    rows = range(1, mi + 1)
    columns = [frozenset(c) for size in rows for c in combinations(rows, size)]
    probed, needing = 0, []
    for combo in combinations(columns, ni):
        if len(set().union(*combo)) != mi:
            continue
        reps = []
        for first in range(ni):
            ordering = [combo[first]] + [c for k, c in enumerate(combo) if k != first]
            S = ProductSubset.from_pairs(
                mi, ni, [(i, j) for j, col in enumerate(ordering, start=1) for i in col])
            if is_valid(S):
                probed += 1
                if _containment_reference(S) is None and _single_reference(S) is None:
                    reps.append(S.bits)
        if reps:
            needing.append((combo, reps))
    return probed, needing


class TestBatchedRulesMatchReference:
    @pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)]
                             + [(4, 1), (4, 2), (4, 3), (4, 4)])
    def test_table_rows(self, m, n):
        gaps = []
        table = reach._exhaustive_entry(m, n, gaps).data["justifications"]
        assert gaps == []
        encs = np.concatenate(list(valid_encodings(m, n)))
        subsets = [ProductSubset(m, n, enc) for enc in encs.tolist()]
        first = [_first_rule_reference(S) for S in subsets]
        want = {str(S.bits): _justify_subset(S, f[0]) for S, f in zip(subsets, first)}
        assert list(table) == list(want)
        assert table == want
        # the fields a line-rule row no longer stores, as the verifier derives them
        rule, *fields = (a.tolist() for a in reach._first_rule(encs, m, n))
        kinds = [reach._RULES[r - 1] if r else None for r in rule]
        assert list(zip(kinds, *fields)) == first

    @pytest.mark.parametrize("m,n", [(4, 5), (4, 6)])
    def test_family_scan(self, m, n):
        assert reach._family_scan(m, n) == _family_scan_reference(m, n)

    @settings(max_examples=300, deadline=None)
    @given(subset_strategy(max_m=4, max_n=4))
    def test_scalar_reductions(self, S):
        if not is_valid(S):
            return
        contained = _containment_reference(S)
        assert reduce_containment(S.bits, S.m, S.n) == contained
        rows, cols = _lines_reference(S)
        applies = min(S.m, S.n) >= 2 and 0 not in rows + cols and contained is None
        assert reduce_single_element(S.bits, S.m, S.n) == (
            _single_reference(S) if applies else None)


def orbit_table_subset(m, cols):
    pairs = [(i, j) for j, col in enumerate(cols, start=1) for i in col]
    return ProductSubset.from_pairs(m, len(cols), pairs)


class TestReducePermutation:
    # three reference orbit tables over Q_5 with their permutations
    TABLE_A = ([{1, 2}, {2, 3}, {1, 3}, {1, 4}, {2, 4}, {3, 4},
                {1, 5}, {2, 5}, {3, 5}], (2, 3, 1, 4, 5))
    TABLE_B = ([{1, 2, 3}, {1, 4}, {2, 4}, {3, 4},
                {1, 5}, {2, 5}, {3, 5}, {4, 5}], (1, 2, 3, 5, 4))
    TABLE_C = ([{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3},
                {1, 5}, {2, 5}, {3, 5}, {4, 5}], (2, 3, 4, 1, 5))

    @pytest.mark.parametrize("cols,phi", [TABLE_A, TABLE_B, TABLE_C])
    def test_reference_tables_reduce(self, cols, phi):
        S = orbit_table_subset(5, cols)
        red = reduce_permutation(S.bits, S.m, S.n, phi)
        assert red is not None
        pred, psi = red
        smaller = ProductSubset(S.m, S.n, pred)
        assert extremal_step(smaller, letter(phi, psi)) == S
        assert len(smaller) < len(S)
        assert is_valid(smaller)
        # the removed column is not column 1: the row part phi(pred) keeps it
        row_part = ProductSubset(S.m, S.n, reach._row_map(pred, phi, S.m, S.n))
        assert S.column(1) <= row_part.column(1)

    def test_table_c_no_column_containment(self):
        S = orbit_table_subset(5, self.TABLE_C[0])
        red = reduce_containment(S.bits, S.m, S.n)
        assert red is None or red[0] != "column"

    def test_ten_two_subsets_of_q5_with_cycle(self):
        # all C(5,2)=10 two-element columns form full orbit classes under
        # the 5-cycle
        cols = [set(c) for c in combinations(range(1, 6), 2)]
        S = orbit_table_subset(5, cols)
        phi = (2, 3, 4, 5, 1)
        red = reduce_permutation(S.bits, S.m, S.n, phi)
        assert red is not None
        pred, psi = red
        assert extremal_step(ProductSubset(S.m, S.n, pred), letter(phi, psi)) == S

    def test_orbit_not_closed_nothing(self):
        S = orbit_table_subset(3, [{1, 2}, {1, 3}])
        # phi = (2 3) maps {1,2} to {1,3} and back: closed, applicable
        assert reduce_permutation(S.bits, S.m, S.n, (1, 3, 2)) is not None
        # phi = (1 2) maps {1,3} to {2,3}, absent: not applicable
        assert reduce_permutation(S.bits, S.m, S.n, (2, 1, 3)) is None

    def test_edge_that_does_not_replay_is_refused(self, monkeypatch):
        # by the lemma's proof the edge always replays, so only a faulty step
        # reaches this check; _col_map serves only that check here
        S = orbit_table_subset(3, [{1, 2}, {1, 3}])
        assert reduce_permutation(S.bits, S.m, S.n, (1, 3, 2)) is not None
        monkeypatch.setattr(reach, "_col_map", lambda enc, images, m, n: enc & 0)
        assert reduce_permutation(S.bits, S.m, S.n, (1, 3, 2)) is None

    def test_non_permutation_rejected(self):
        S = orbit_table_subset(3, [{1, 2}, {1, 3}])
        with pytest.raises(ValueError):
            reduce_permutation(S.bits, S.m, S.n, (1, 1, 2))

    @staticmethod
    def _assert_matches_reference(S):
        for phi in permutations(range(1, S.m + 1)):
            assert reduce_permutation(S.bits, S.m, S.n, phi) == _permutation_reference(S, phi)

    @settings(max_examples=300, deadline=None)
    @given(subset_strategy(max_m=4, max_n=4))
    def test_matches_reference(self, S):
        if is_valid(S):
            self._assert_matches_reference(S)

    @pytest.mark.parametrize("m,n", [(4, 5), (4, 6), pytest.param(5, 5, marks=pytest.mark.slow)])
    def test_family_representatives_match_reference(self, m, n):
        reps = [rep for _, reps in reach._family_scan(m, n)[1] for rep in reps]
        assert len(reps) == {(4, 5): 30, (4, 6): 6, (5, 5): 2475}[(m, n)]
        for rep in reps:
            self._assert_matches_reference(ProductSubset(m, n, rep))


class TestSperner:
    @pytest.mark.parametrize("m,value", [(1, 1), (2, 2), (4, 6), (5, 10)])
    def test_values(self, m, value):
        assert sperner_limit(m) == value

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_max_antichain(self, m):
        # maximum antichain size via Mirsky-style level argument is the
        # middle binomial; confirm by brute force over all set families
        # using Dilworth via bipartite matching on the containment order
        import networkx as nx

        subsets = [frozenset(c) for r in range(m + 1)
                   for c in combinations(range(1, m + 1), r)]
        g = nx.Graph()
        left = {s: ("L", s) for s in subsets}
        right = {s: ("R", s) for s in subsets}
        g.add_nodes_from(left.values(), bipartite=0)
        g.add_nodes_from(right.values(), bipartite=1)
        for a in subsets:
            for b in subsets:
                if a < b:
                    g.add_edge(left[a], right[b])
        matching = nx.bipartite.maximum_matching(g, top_nodes=list(left.values()))
        # Dilworth: max antichain = elements - max matching in the
        # comparability bipartite double cover
        assert len(subsets) - len(matching) // 2 == sperner_limit(m)


class TestCertify:
    def test_small_grid_exhaustive_only(self):
        cert = certify(2, 2)
        assert all(e.strategy == "EXHAUSTIVE" for e in cert.entries)
        assert verify_certificate(cert)

    def test_initial_justification(self):
        cert = certify(2, 2)
        entry = cert.entry(2, 2)
        assert entry.data["justifications"]["1"] == {"kind": "INITIAL"}

    def test_sperner_strategy_used(self):
        cert = certify(3, 5)
        assert cert.entry(3, 5).strategy == "EXHAUSTIVE"
        cert = certify(3, 6)
        assert cert.entry(3, 6).strategy == "SPERNER"
        assert verify_certificate(cert)

    def test_round_trip_json(self):
        cert = certify(3, 3)
        again = Certificate.from_json(cert.to_json())
        assert verify_certificate(again)
        assert again.to_dict() == cert.to_dict()

    @pytest.mark.parametrize("obj, message", [
        ({}, "certificate: missing field 'm'"),
        ({"m": 1, "n": 1}, "certificate: missing field 'entries'"),
        ({"m": 1, "n": 1, "entries": [{}]}, "certificate entry: missing field 'm'"),
        ({"m": 1, "n": 1, "entries": 5}, "certificate: field 'entries' is not a list"),
    ])
    def test_malformed_top_level_refused(self, obj, message):
        # these raised KeyError or TypeError, unlike load_letters' ValueError
        with pytest.raises(ValueError) as info:
            Certificate.from_dict(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("path, message", [
        (("m",), "certificate: field 'm' is not a int"),
        (("n",), "certificate: field 'n' is not a int"),
        (("entries", 0, "m"), "certificate entry: field 'm' is not a int"),
    ])
    def test_bool_size_refused(self, path, message):
        # a JSON true is a bool, which isinstance(x, int) accepts: with
        # "m": true this certificate read back and verified
        obj = json.loads(certify(1, 2).to_json())
        *parents, key = path
        target = obj
        for k in parents:
            target = target[k]
        target[key] = True
        with pytest.raises(ValueError) as info:
            Certificate.from_json(json.dumps(obj))
        assert str(info.value) == message

    @pytest.mark.parametrize("patch, message", [
        (lambda obj: obj.update(base_facts=[1]), "certificate: unknown field 'base_facts'"),
        (lambda obj: obj["entries"][0].update(note="x"),
         "certificate entry: unknown field 'note'"),
    ], ids=["top_level", "entry"])
    def test_unknown_field_refused(self, patch, message):
        # the schema allows no other key at either level, but these read
        # back and verified
        obj = json.loads(certify(1, 2).to_json())
        patch(obj)
        with pytest.raises(ValueError) as info:
            Certificate.from_json(json.dumps(obj))
        assert str(info.value) == message

    def test_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as res

        schema = json.loads(
            res.files("shufflesc")
            .joinpath("schemas/certificate.schema.json")
            .read_text()
        )
        jsonschema.validate(certify(2, 3).to_dict(), schema)

    # Rows of certify(3, 3) corrupted below, one kind each: 1 (INITIAL), 3 =
    # {(1,1),(1,2)} (SHRINK column 3), 84 = {(1,3),(2,2),(3,1)}
    # (SINGLE_ELEMENT (1,3)), 78 (CONTAINMENT, pred 14) and 238 (PERMUTATION,
    # the first subset of (3,3) that no line rule covers; pred 332).
    @staticmethod
    def _rows_3x3():
        cert = certify(3, 3)
        table = cert.entry(3, 3).data["justifications"]
        kinds = [table[k]["kind"] for k in ("1", "3", "84", "78", "238")]
        assert kinds == ["INITIAL", "SHRINK", "SINGLE_ELEMENT", "CONTAINMENT", "PERMUTATION"]
        assert table["238"] == {"kind": "PERMUTATION", "pred": 332,
                                "letter": {"s": [1, 3, 2], "t": [1, 3, 2]}}
        return cert, table

    def test_corrupted_letter_detected(self):
        cert, table = self._rows_3x3()
        table["238"]["letter"] = {"s": [1, 1, 1], "t": [1, 1, 1]}
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3) subset 238: PERMUTATION edge does not replay"]

    MALFORMED_ROWS = [
        ("238", lambda j: j.update(pred=2**10),
         "PERMUTATION predecessor 1024 is outside the grid"),
        ("238", lambda j: j.update(pred=-1),
         "PERMUTATION predecessor -1 is outside the grid"),
        ("238", lambda j: j["letter"].update(s=[1]),
         "PERMUTATION letter is not a pair of transformations of degrees 3 and 3"),
        ("238", lambda j: j["letter"].update(t=[0, 1, 2]),
         "PERMUTATION letter is not a pair of transformations of degrees 3 and 3"),
        ("238", lambda j: j.pop("letter"),
         "PERMUTATION row has fields ['kind', 'pred'], not ['kind', 'letter', 'pred']"),
        ("1", lambda j: j.update(pred=0), "INITIAL row has fields ['kind', 'pred'], not ['kind']"),
        ("3", lambda j: j.update(axis="column", index=3),
         "SHRINK row has fields ['axis', 'index', 'kind'], not ['kind']"),
        ("84", lambda j: j.update(p=1, q=3),
         "SINGLE_ELEMENT row has fields ['kind', 'p', 'q'], not ['kind']"),
        ("78", lambda j: j.update(pred=14, letter={"s": [1, 2, 3], "t": [1, 2, 3]}),
         "CONTAINMENT row has fields ['kind', 'letter', 'pred'], not ['kind']"),
        ("3", lambda j: j.update(kind="SINGLE_ELEMENT"),
         "SINGLE_ELEMENT row, but SHRINK applies first"),
        ("78", lambda j: j.update(kind="PERMUTATION", pred=14,
                                  letter={"s": [1, 2, 3], "t": [1, 2, 3]}),
         "PERMUTATION row, but CONTAINMENT applies first"),
        ("238", lambda j: j.clear() or j.update(kind="CONTAINMENT"),
         "CONTAINMENT row, but no line rule applies"),
    ]
    MALFORMED_ROW_IDS = [
        "pred_2_10", "pred_negative", "letter_degree", "letter_image_0", "letter_missing",
        "initial_extra_field", "shrink_extra_fields", "single_extra_fields",
        "containment_extra_fields", "not_the_first_rule", "permutation_not_the_first_rule",
        "line_rule_uncovered"]

    @pytest.mark.parametrize("enc,corrupt,message", MALFORMED_ROWS, ids=MALFORMED_ROW_IDS)
    def test_malformed_row_refused(self, enc, corrupt, message):
        cert, table = self._rows_3x3()
        corrupt(table[enc])
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [f"(3,3) subset {enc}: {message}"]

    def test_exhaustive_entry_without_table_refused(self):
        cert = certify(2, 2)
        cert.entry(2, 2).data = {}
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == ["(2,2): EXHAUSTIVE entry has no justifications table"]

    def test_table_key_outside_valid_subsets_refused(self):
        cert = certify(2, 2)
        cert.entry(2, 2).data["justifications"]["2"] = {"kind": "INITIAL"}  # (1,2) alone
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == ["(2,2): table keys that are not valid subsets: 1"]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    ))
    def test_arbitrary_field_value_never_raises(self, data, value):
        cert = certify(2, 3)
        tabled = list(cert.entries)
        cert.entries += [reach._family_entry(3, 3, []),
                         InstanceEntry(1, 4, "SPERNER", {"axis": "column"})]
        target = data.draw(st.sampled_from(["row field", "entry data", "family field"]))
        if target == "row field":
            entry = data.draw(st.sampled_from(tabled))
            table = entry.data["justifications"]
            row = table[data.draw(st.sampled_from(sorted(table)))]
            row[data.draw(st.sampled_from(sorted(row)))] = value
        elif target == "entry data":
            data.draw(st.sampled_from(cert.entries)).data = value
        else:
            family = cert.entries[-2].data["families"][0]
            family[data.draw(st.sampled_from(["columns", "phi"]))] = value
        assert verify_certificate(cert) in (True, False)

    @staticmethod
    def _family_certificate():
        """certify(3, 3) with its last entry, (3,3), as a FAMILY rule."""
        cert = certify(3, 3)
        cert.entries[-1] = reach._family_entry(3, 3, [])
        assert cert.entries[-1].data["families"] and verify_certificate(cert)
        return cert

    @pytest.mark.parametrize("corrupt", [
        lambda e: setattr(e, "data", {}),
        lambda e: setattr(e, "data", []),
        lambda e: e.data.update(families={"columns": [], "phi": []}),
    ], ids=["empty", "list", "families_dict"])
    def test_family_without_families_refused(self, corrupt):
        cert = self._family_certificate()
        corrupt(cert.entries[-1])
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == ["(3,3): FAMILY entry has no families list"]

    @pytest.mark.parametrize("corrupt", [
        lambda f: f.pop("columns"),
        lambda f: f.pop("phi"),
        lambda f: f.update(extra=1),
        lambda f: f.update(columns=[[1, 2], [4]]),
        lambda f: f.update(columns=[[1, 2], "13"]),
        lambda f: f.update(phi=[1, 1, 2]),
        lambda f: f.update(phi=[1, 3, True]),
        lambda f: f.update(phi=[1, 3]),
    ], ids=["no_columns", "no_phi", "extra_field", "row_4", "column_str", "phi_not_bijective",
            "phi_bool", "phi_short"])
    def test_malformed_family_refused(self, corrupt):
        cert = self._family_certificate()
        corrupt(cert.entries[-1].data["families"][0])
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [
            "(3,3): family 0 is not {'columns': [[rows]], 'phi': [a permutation of 1..3]}"]

    @pytest.mark.parametrize("entry,message", [
        (InstanceEntry(1, 1, "FAMILY", {}), "(1,1): FAMILY entry has no families list"),
        (InstanceEntry(1, 1, "SPERNER", []), "(1,1): Sperner rule with unknown axis"),
        (InstanceEntry(1, 1, "SPERNER", {}), "(1,1): Sperner rule with unknown axis"),
    ], ids=["family_empty", "sperner_list", "sperner_no_axis"])
    def test_malformed_instance_data_refused(self, entry, message):
        failures = []
        assert verify_certificate(Certificate(1, 1, [entry]), failures) is False
        assert failures == [message]

    @pytest.mark.parametrize("size, corrupt, message", [
        ((3, 6), lambda c: c.entries.remove(c.entry(3, 6)), "missing instance entry (3,6)"),
        ((3, 6), lambda c: vars(c.entry(3, 3)).update(strategy="SPERNER",
                                                      data={"axis": "column"}),
         "(3,3): Sperner rule needs n > C(m, floor(m/2))"),
        ((3, 6), lambda c: c.entry(3, 6).data.update(axis="row"),
         "(3,6): Sperner rule needs m > C(n, floor(n/2))"),
        ((4, 5), lambda c: c.entry(4, 5).data["families"].pop(0),
         "(4,5): family [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]] "
         "needs a permutation witness but none is stored"),
    ], ids=["entry_missing", "sperner_column_too_few", "sperner_row_too_few",
            "family_witness_missing"])
    def test_corrupted_instance_refused(self, size, corrupt, message):
        cert = certify(*size)
        corrupt(cert)
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [message]

    def test_reference_to_missing_instance_refused(self):
        # SHRINK rows of (2,6) and (3,5) drop a line into (2,5)
        cert = certify(3, 6)
        cert.entries.remove(cert.entry(2, 5))
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures[0] == "missing instance entry (2,5)"
        assert {f.split(" subset ")[0] for f in failures[1:]} == {"(2,6)", "(3,5)"}
        assert all(f.endswith(": refers to missing instance (2,5)") for f in failures[1:])

    @pytest.mark.parametrize("corrupt,message", [
        (lambda d: d.update(representatives_checked=-7),
         "representatives_checked is -7, but the scan probes 96"),
        (lambda d: d.update(representatives_checked=95),
         "representatives_checked is 95, but the scan probes 96"),
        (lambda d: d.update(representatives_checked=True),
         "representatives_checked is True, but the scan probes 96"),
        (lambda d: d.pop("representatives_checked"),
         "FAMILY data has keys ['families'], not ['families', 'representatives_checked']"),
        (lambda d: d.update(extra=1), "FAMILY data has keys ['extra', 'families', "
         "'representatives_checked'], not ['families', 'representatives_checked']"),
        (lambda d: d["families"].append(dict(d["families"][0])),
         "families that repeat an earlier column set: 1"),
        (lambda d: d["families"].append({"columns": [[2, 3], [1, 2], [1, 3]], "phi": [1, 3, 2]}),
         "families that repeat an earlier column set: 1"),
        (lambda d: d["families"].append({"columns": [[1], [2], [3]], "phi": [1, 2, 3]}),
         "family [[1], [2], [3]] needs no permutation witness but one is stored"),
        (lambda d: d["families"].append({"columns": [[1, 2], [1, 2], [3]], "phi": [1, 2, 3]}),
         "family [[1, 2], [3]] needs no permutation witness but one is stored"),
    ], ids=["count_negative", "count_off_by_one", "count_bool", "count_missing", "extra_key",
            "family_copied", "family_reordered", "family_unneeded", "column_twice"])
    def test_family_data_beyond_the_scan_refused(self, corrupt, message):
        # the verifier ran the scan but ignored these: each verified
        cert = self._family_certificate()
        corrupt(cert.entries[-1].data)
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [f"(3,3): {message}"]

    @pytest.mark.parametrize("m,n,data,message", [
        (3, 6, {"axis": "column", "junk": 1},
         "(3,6): SPERNER data has keys ['axis', 'junk'], not ['axis']"),
        (6, 3, {"axis": "row", "junk": 1},
         "(6,3): SPERNER data has keys ['axis', 'junk'], not ['axis']"),
        (2, 2, {"extra": 1}, "(2,2): EXHAUSTIVE data has keys ['extra', 'justifications'], "
         "not ['justifications']"),
    ], ids=["sperner_column", "sperner_row", "exhaustive"])
    def test_instance_data_with_other_keys_refused(self, m, n, data, message):
        cert = certify(m, n)
        cert.entry(m, n).data.update(data)
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [message]

    @pytest.mark.parametrize("m,n,entry,message", [
        (2, 2, InstanceEntry(0, 2, "EXHAUSTIVE", {"justifications": {}}),
         "(0,2): entry outside the 2x2 grid"),
        (2, 2, InstanceEntry(-1, 2, "SPERNER", {"axis": "column"}),
         "(-1,2): entry outside the 2x2 grid"),
        (2, 2, InstanceEntry(5, 5, "EXHAUSTIVE", {"justifications": {}}),
         "(5,5): entry outside the 2x2 grid"),
        (2, 2, InstanceEntry(0, 3, "FAMILY", {"families": []}),
         "(0,3): entry outside the 2x2 grid"),
        (2, 2, InstanceEntry(2, 3, "SPERNER", {"axis": "column"}),
         "(2,3): entry outside the 2x2 grid"),
        (1, 25, InstanceEntry(1, 25, "EXHAUSTIVE", {"justifications": {}}),
         "(1,25): EXHAUSTIVE entry beyond the 24-cell guard"),
    ], ids=["row_0", "row_negative", "beyond_both", "family_row_0", "beyond_n", "guard"])
    def test_entry_outside_the_grid_refused(self, m, n, entry, message):
        # these raised from valid_encodings, sperner_limit or the cell guard,
        # or verified
        cert = certify(m, n)
        cert.entries.append(entry)
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == [message]

    def test_sperner_data_list_refused(self):
        cert = certify(3, 6)
        assert cert.entry(3, 6).strategy == "SPERNER"
        cert.entry(3, 6).data = ["column"]
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == ["(3,6): Sperner rule with unknown axis"]

    # Corruptions of certify(3, 3), rows as in _rows_3x3: shrink_sub_missing
    # drops the (3,2) row that 3 and 5 shrink to, containment_pred_missing
    # the pred 14 of 78 and 398. The replay lines are those of the
    # one-row-at-a-time verifier the batched replay replaced.
    REPLAY_CORRUPTIONS = {
        "shrink_row_with_fields": (
            lambda t: t[3, 3]["3"].update(axis="column", index=1),
            ["(3,3) subset 3: SHRINK row has fields ['axis', 'index', 'kind'], not ['kind']"]),
        "shrink_sub_missing": (
            lambda t: t[3, 2].pop("3"),
            ["(3,2): valid subset 3 has no justification",
             "(3,3) subset 3: referenced subset 3 of (3,2) is unjustified",
             "(3,3) subset 5: referenced subset 3 of (3,2) is unjustified"]),
        "single_names_shrink": (
            lambda t: t[3, 3]["84"].update(kind="SHRINK"),
            ["(3,3) subset 84: SHRINK row, but SINGLE_ELEMENT applies first"]),
        "permutation_not_smaller": (
            lambda t: t[3, 3]["238"].update(pred=238, letter={"s": [1, 2, 3], "t": [1, 2, 3]}),
            ["(3,3) subset 238: PERMUTATION predecessor is not smaller"]),
        "permutation_pred_invalid": (  # 368 = {(2,3),(3,1),(3,2)} has no cell in row 1
            lambda t: t[3, 3]["238"].update(pred=368, letter={"s": [1, 1, 2], "t": [2, 1, 1]}),
            ["(3,3) subset 238: PERMUTATION predecessor is invalid"]),
        "permutation_edge": (
            lambda t: t[3, 3]["238"].update(letter={"s": [1, 2, 3], "t": [1, 2, 3]}),
            ["(3,3) subset 238: PERMUTATION edge does not replay"]),
        "containment_pred_missing": (
            lambda t: t[3, 3].pop("14"),
            ["(3,3): valid subset 14 has no justification",
             "(3,3) subset 78: referenced subset 14 of (3,3) is unjustified",
             "(3,3) subset 398: referenced subset 14 of (3,3) is unjustified"]),
    }

    @pytest.mark.parametrize("name", list(REPLAY_CORRUPTIONS))
    def test_each_replay_check_refuses(self, name):
        corrupt, expected = self.REPLAY_CORRUPTIONS[name]
        cert, _ = self._rows_3x3()
        tables = {(e.m, e.n): e.data["justifications"] for e in cert.entries}
        assert reach._first_rule(np.array([78], np.uint64), 3, 3)[4].tolist() == [14]
        corrupt(tables)
        failures = []
        assert verify_certificate(cert, failures) is False
        assert failures == expected

    def test_old_row_layout_refused(self):
        # `certify 3 3 --out` from before rows stored only their claim: a
        # base_facts key, which the loader refuses, trusted BASE instances,
        # and rows with derived fields, which the verifier refuses
        obj = json.loads((GOLDEN / "certificate_3x3_old_layout.json").read_text())
        with pytest.raises(ValueError, match="certificate: unknown field 'base_facts'"):
            Certificate.from_dict(obj)
        del obj["base_facts"]
        failures = []
        assert not verify_certificate(Certificate.from_dict(obj), failures)
        base = [f"({m},{n}): unknown strategy 'BASE'" for m, n in
                [(2, 2), (2, 3), (3, 2), (3, 3)]]
        assert [f for f in failures if "BASE" in f] == base
        assert len(failures) == len(base) + 8
        assert "(1,3) subset 3: SHRINK row has fields ['axis', 'index', 'kind', " \
            "'sub_encoding', 'sub_m', 'sub_n'], not ['kind']" in failures
        assert all("row has fields" in f for f in failures if f not in base)

    def test_single_element_row_with_stored_anchor_refused(self):
        # the older rows stored their own letter, power and anchor, which the
        # verifier checked only against each other: the identity letter with
        # power 0 and anchor {(1,1)} verified for every SINGLE_ELEMENT row
        cert = certify(3, 3)
        rows = [(e, j) for e in cert.entries for j in e.data["justifications"].values()
                if j["kind"] == "SINGLE_ELEMENT"]
        assert rows
        for e, j in rows:
            identity = {"s": list(range(1, e.m + 1)), "t": list(range(1, e.n + 1))}
            j.update(letter=identity, prefix_power=0, anchor=1)
        failures = []
        assert not verify_certificate(cert, failures)
        assert len(failures) == len(rows)
        assert all("SINGLE_ELEMENT row has fields" in f for f in failures)

    def test_single_element_anchor_is_replayed(self, monkeypatch):
        cert = certify(2, 2)

        def stalled(m, n, p, q):
            return [1] * m, [1] * n, 0, _single_element_anchor(m, n, p, q)[3]

        monkeypatch.setattr(reach, "_single_element_anchor", stalled)
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == [f"(2,2) subset {enc}: SINGLE_ELEMENT anchor does not replay"
                            for enc in (6, 9)]

    def test_single_element_drop_is_justified(self):
        # 6 = {(1,2),(2,1)} of (2,2) is what 84, 98 and 161 of (3,3) drop to
        cert = certify(3, 3)
        cert.entry(2, 2).data["justifications"].pop("6")
        failures = []
        assert not verify_certificate(cert, failures)
        assert [f for f in failures if f.startswith("(3,3)")] == [
            f"(3,3) subset {enc}: referenced subset 6 of (2,2) is unjustified"
            for enc in (84, 98, 161)]

    # A row's own checks come before the reference check: a row that fails
    # one of them reports only that one, whatever it refers to.
    def test_failed_edge_reports_no_reference(self):
        cert, table = self._rows_3x3()
        table["238"]["letter"] = {"s": [1, 2, 3], "t": [1, 2, 3]}
        del table["332"]
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3) subset 238: PERMUTATION edge does not replay",
                            "(3,3): valid subset 332 has no justification"]

    def test_failed_anchor_reports_no_missing_instance(self, monkeypatch):
        # the SINGLE_ELEMENT rows of (3,3) drop into the missing (2,2)
        cert = certify(3, 3)
        cert.entries.remove(cert.entry(2, 2))

        def stalled(m, n, p, q):
            return [1] * m, [1] * n, 0, _single_element_anchor(m, n, p, q)[3]

        monkeypatch.setattr(reach, "_single_element_anchor", stalled)
        failures = []
        assert not verify_certificate(cert, failures)
        assert [f for f in failures if f.startswith("(3,3)")] == [
            f"(3,3) subset {enc}: SINGLE_ELEMENT anchor does not replay"
            for enc in (84, 98, 140, 161, 266, 273)]

    def test_duplicate_entry_refers_through_the_first(self):
        # the second (3,3) entry lacks 14, which its rows 78 and 398 refer
        # to; its rows are checked against its own table, its references
        # against the first entry's
        cert = certify(3, 3)
        duplicate = copy.deepcopy(cert.entry(3, 3))
        del duplicate.data["justifications"]["14"]
        cert.entries.append(duplicate)
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3): valid subset 14 has no justification"]

    def test_containment_without_shrinking_refused(self):
        # an edge from 245, as large as 238 and justified, replays but does
        # not descend
        cert, table = self._rows_3x3()
        table["238"].update(pred=245, letter={"s": [2, 1, 3], "t": [2, 1, 3]})
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3) subset 238: PERMUTATION predecessor is not smaller"]

    def test_bfs_edge_refused(self):
        # a replaying edge under a kind the certificate layer never writes
        cert, table = self._rows_3x3()
        table["238"]["kind"] = "BFS_EDGE"
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3) subset 238: unknown justification kind 'BFS_EDGE'"]

    @pytest.mark.parametrize("m,n", [(0, 0), (2, -1), (0, 3)])
    def test_no_instance_refused(self, m, n):
        with pytest.raises(ValueError, match="positive"):
            certify(m, n)
        failures = []
        assert not verify_certificate(Certificate(m, n, []), failures)
        assert failures == [f"certificate for {m}x{n} covers no instance"]

    @pytest.mark.parametrize("m,n,kept,more", [
        (4, 5, 0, 0), (3, 7, 0, 1), (5, 5, 2, 1), (2000, 2000, 0, 3_999_980),
    ], ids=["20_missing", "21_missing", "4_kept_21_missing", "2000x2000"])
    def test_missing_instances_listed_up_to_20(self, m, n, kept, more):
        # the instances up to kept x kept are present; the scan stops after
        # 20 missing, so 4,000,000 of them give 21 lines, not one each
        entries = certify(kept, kept).entries if kept else []
        failures = []
        assert not verify_certificate(Certificate(m, n, entries), failures)
        missing = ((mi, ni) for mi in range(1, m + 1) for ni in range(1, n + 1)
                   if mi > kept or ni > kept)
        assert failures == (
            [f"missing instance entry ({mi},{ni})" for mi, ni in islice(missing, 20)]
            + [f"... and {more} more missing instance entries"] * bool(more))

    def test_base_strategy_refused(self):
        # no instance is taken on trust: BASE is an unknown strategy
        cert = certify(3, 3)
        entry = cert.entry(3, 3)
        entry.strategy, entry.data = "BASE", {}
        failures = []
        assert not verify_certificate(cert, failures)
        assert failures == ["(3,3): unknown strategy 'BASE'"]

    def test_one_by_one(self):
        cert = certify(1, 1)
        assert verify_certificate(cert)

    @pytest.mark.slow
    def test_full_grid_certificate(self):
        cert = certify(4, 8)
        strategies = {(e.m, e.n): e.strategy for e in cert.entries}
        assert strategies[(4, 5)] == "FAMILY"
        assert strategies[(4, 6)] == "FAMILY"
        assert strategies[(4, 7)] == "SPERNER"
        assert strategies[(4, 8)] == "SPERNER"
        failures = []
        assert verify_certificate(cert, failures), failures[:5]
        text = cert.to_json() + "\n"  # the bytes of `certify 4 8 --out`
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9382e44a10ec6268cbd1b5a0b1fe8c7c43eb121ef9ed5d1e1818cc5a4218e2ab"
        )

    @pytest.mark.slow
    def test_5x5_certificate(self):
        cert = certify(5, 5)
        failures = []
        assert verify_certificate(cert, failures), failures[:5]
        entry = cert.entry(5, 5)
        assert entry.strategy == "FAMILY"
        assert len(entry.data["families"]) == 495
        assert entry.data["representatives_checked"] == 775_530
        text = cert.to_json() + "\n"  # the bytes of `certify 5 5 --out`
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c34f02e2e42c8c1ffc2120fa743cd4b3b47195e13c3dff388fe8bed6cb6777a8"
        )

    @pytest.mark.slow
    def test_5x7_certificate(self):
        cert = certify(5, 7)
        failures = []
        assert verify_certificate(cert, failures), failures[:5]
        entry = cert.entry(5, 7)
        assert entry.strategy == "FAMILY"
        assert len(entry.data["families"]) == 445
        assert entry.data["representatives_checked"] == 18_181_870
        text = cert.to_json() + "\n"  # the bytes of `certify 5 7 --out`
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6c6185e05f438df9ff96bd878de1f52a1831c1265bcf03f9d2d2d30e82192e22"
        )


def _forget_shared():
    """Drop the derivations that certify and verify_certificate share within
    a process, so the next call derives them again."""
    reach._instance_rules.cache_clear()
    reach._family_scan.cache_clear()


class TestSharedDerivations:
    """certify and verify_certificate read one derivation per instance of
    its rules, table keys and column-family scan; sharing changes no value
    and no verdict."""

    INSTANCES = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3, 4)]

    @pytest.mark.parametrize("m,n", INSTANCES)
    def test_rules_equal_a_fresh_derivation(self, m, n):
        shared = reach._instance_rules(m, n)
        assert reach._instance_rules(m, n) is shared
        encs = np.concatenate([batch.encs for batch in shared])
        assert encs.tolist() == np.concatenate(list(valid_encodings(m, n))).tolist()
        for batch in shared:
            fresh = reach._first_rule(batch.encs.copy(), m, n)
            for kept, derived in zip(batch.rules, fresh, strict=True):
                assert kept.dtype == derived.dtype
                assert kept.tolist() == derived.tolist()
            assert list(batch.keys) == list(map(str, batch.encs.tolist()))

    @pytest.mark.parametrize("m,n", INSTANCES)
    def test_shared_arrays_refuse_writes(self, m, n):
        for batch in reach._instance_rules(m, n):
            for a in (batch.encs, *batch.rules):
                # writes the values already there, so that a write let
                # through changes nothing that later tests read
                with pytest.raises(ValueError, match="read-only"):
                    a[:1] = a[:1]
            with pytest.raises(TypeError):
                batch.keys[0] = batch.keys[0]

    def test_family_scan_unchanged_by_its_callers(self):
        assert verify_certificate(certify(4, 6))
        for m, n in [(4, 5), (4, 6)]:
            assert reach._family_scan(m, n) is reach._family_scan(m, n)
            assert reach._family_scan(m, n) == _family_scan_reference(m, n)

    @staticmethod
    def _shared_then_unshared(cert):
        """verify_certificate's failures on cert, first with what certify
        left shared, then with that dropped."""
        shared, unshared = [], []
        verify_certificate(cert, shared)
        _forget_shared()
        verify_certificate(cert, unshared)
        return shared, unshared

    @pytest.mark.parametrize("enc,corrupt,message", TestCertify.MALFORMED_ROWS,
                             ids=TestCertify.MALFORMED_ROW_IDS)
    def test_malformed_row_same_verdict(self, enc, corrupt, message):
        cert, table = TestCertify._rows_3x3()
        hits = reach._instance_rules.cache_info().hits
        reach._instance_rules(3, 3)  # certify left it for the verifier
        assert reach._instance_rules.cache_info().hits == hits + 1
        corrupt(table[enc])
        shared, unshared = self._shared_then_unshared(cert)
        assert shared == unshared == [f"(3,3) subset {enc}: {message}"]

    @pytest.mark.parametrize("corrupt,expected", [
        # the first family, columns [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
        # stores phi [1, 2, 4, 3]; the identity moves no column
        (lambda d: d["families"][0].update(phi=[1, 2, 3, 4]),
         [f"(4,5): stored phi does not reduce representative {rep}"
          for rep in (666407, 665415, 570183, 792174, 316014)]),
        (lambda d: d.update(representatives_checked=14_596),
         ["(4,5): representatives_checked is 14596, but the scan probes 14595"]),
    ], ids=["phi_identity", "count_off_by_one"])
    def test_family_corruption_same_verdict(self, corrupt, expected):
        cert = certify(4, 5)
        corrupt(cert.entry(4, 5).data)
        shared, unshared = self._shared_then_unshared(cert)
        assert shared == unshared == expected

    def test_nothing_kept_after_verification(self):
        _forget_shared()
        tracemalloc.start()
        try:
            cert = certify(4, 4)
            assert verify_certificate(cert)
            del cert
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**19, f"{kept} bytes kept after the verification"
        assert reach._instance_rules.cache_info().currsize == 0
        assert reach._family_scan.cache_info().currsize == 0

    def test_nothing_kept_after_a_gap(self, monkeypatch):
        # a certify that raises is followed by no verification, so it empties
        # both caches itself; the 4x5 family entry fills the family scan's
        _forget_shared()
        monkeypatch.setattr(reach, "_first_reductions", lambda encs, mi, ni: None)
        tracemalloc.start()
        try:
            with pytest.raises(CertificationGapError):
                certify(4, 5)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**19, f"{kept} bytes kept after the gap"
        assert reach._instance_rules.cache_info().currsize == 0
        assert reach._family_scan.cache_info().currsize == 0

    @staticmethod
    def _empty_3x6():
        """certify(3, 6) with its 3x6 entry replaced by an EXHAUSTIVE one
        whose table is empty."""
        cert = certify(3, 6)
        empty = InstanceEntry(3, 6, "EXHAUSTIVE", {"justifications": {}})
        cert.entries[cert.entries.index(cert.entry(3, 6))] = empty
        return cert

    @pytest.mark.parametrize("m,n,failed", [(4, 4, 0), (3, 6, 226_304)],
                             ids=["certify_4x4", "empty_3x6"])
    def test_each_batch_derived_once(self, monkeypatch, m, n, failed):
        # certify and the verification after it derive each batch of line
        # rules once, the foreign 3x6 table's too
        _forget_shared()
        calls, first_rule = Counter(), reach._first_rule

        def counted(enc, mi, ni, rules=reach._RULES):
            if rules is reach._RULES:  # the lemmas pass rule sets of their own
                calls[(mi, ni)] += 1
            return first_rule(enc, mi, ni, rules)

        monkeypatch.setattr(reach, "_first_rule", counted)
        failures = []
        verify_certificate(self._empty_3x6() if (m, n) == (3, 6) else certify(m, n), failures)
        assert len(failures) == failed
        assert calls == {
            (mi, ni): sum(-(-chunk.size // reach.TABLE_BATCH) for chunk in valid_encodings(mi, ni))
            for mi in range(1, m + 1) for ni in range(1, n + 1)
            if mi * ni <= reach.DEFAULT_EXHAUSTIVE_CELLS or (mi, ni) == (m, n)}

    def test_larger_table_streams(self):
        # an EXHAUSTIVE entry above DEFAULT_EXHAUSTIVE_CELLS, which certify
        # never builds: its derivation is not kept after the verification
        cert = self._empty_3x6()
        failures = []
        assert not verify_certificate(cert, failures)
        assert len(failures) == 226_304
        assert failures == [f"(3,6): valid subset {enc} has no justification"
                            for enc in np.concatenate(list(valid_encodings(3, 6))).tolist()]
        assert reach._instance_rules.cache_info().currsize == 0



@pytest.mark.parametrize("call, error, message", [
    (lambda: bfs_reach(0, 2), ValueError, "m and n must be positive"),
    (lambda: bfs_reach(2, 2, resume=True), ValueError, "resume requires a checkpoint directory"),
    (lambda: alphabet_id("fulll"), ValueError, "alphabet must be 'full' or a letter list"),
    (lambda: reduce_containment(2, 2, 2), ValueError,
     "containment reduction expects a valid subset of the 2x2 grid"),
    (lambda: reduce_single_element(2, 2, 2), ValueError,
     "single-element reduction expects a valid subset of the 2x2 grid"),
    (lambda: reduce_permutation(2, 2, 2, (1, 2)), ValueError,
     "permutation reduction expects a valid subset of the 2x2 grid"),
    (lambda: sperner_limit(0), ValueError, "m must be positive"),
    (lambda: greedy_alphabet(5, 5), GridSizeError,
     "greedy_alphabet exceeds the enumeration guard"),
    (lambda: ProductSubset(0, 1, 0), ValueError, "grid dimensions must be positive"),
    (lambda: ProductSubset(2, 2, 16), ValueError, "bits outside the grid"),
    (lambda: bound_f(0, 3), ValueError, "m and n must be positive"),
    (lambda: next(valid_encodings(0, 3)), ValueError, "m and n must be positive"),
    (lambda: min_alphabet_lower_bound(1, 3), ValueError,
     "min_alphabet_lower_bound requires m, n >= 2"),
], ids=["bfs_reach_m_0", "bfs_reach_resume_no_directory", "alphabet_id_unknown",
        "reduce_containment_invalid", "reduce_single_element_invalid",
        "reduce_permutation_invalid", "sperner_limit_0", "greedy_alphabet_5x5",
        "product_subset_m_0", "product_subset_bits_outside", "bound_f_m_0",
        "valid_encodings_m_0", "min_alphabet_lower_bound_1x3"])
def test_argument_guard(call, error, message):
    # valid_encodings is a generator: its guard fires on the first next
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


class TestDirectSmaller:
    CHECKED = {(2, 2): 5, (3, 3): 387, (2, 4): 173, (3, 4): 3374}

    @pytest.mark.parametrize("m,n", list(CHECKED))
    def test_no_exceptions(self, m, n):
        report = direct_smaller_check(m, n)
        assert report.ok
        assert report.checked == self.CHECKED[(m, n)]

    def test_guard(self):
        with pytest.raises(GridSizeError):
            direct_smaller_check(4, 5)


class TestAlphabets:
    def test_shipped_letter_fixture_sufficient(self):
        letters = load_letters(FIXTURES / "letters_3x3.json")
        assert len(letters) == 12
        assert bfs_reach(3, 3, letters).complete

    def test_minimum_extremal_alphabet_2x2_is_three(self):
        # Sharp on both sides: no pair of extremal letters reaches all 10
        # valid subsets, while exactly two of the 560 triples do
        letters = [letter(s, t) for s, t in SearchSpace(2, 2, 1).letter_candidates()]
        best_pair = max(
            bfs_reach(2, 2, list(combo)).reached
            for combo in combinations(letters, 2)
        )
        assert best_pair == 8
        complete_triples = sum(
            1
            for combo in combinations(letters, 3)
            if bfs_reach(2, 2, list(combo)).complete
        )
        assert complete_triples == 2

    def test_greedy_completes_2x2(self):
        letters = greedy_alphabet(2, 2)
        assert bfs_reach(2, 2, letters).complete

    def test_greedy_completes_2x3(self):
        letters = greedy_alphabet(2, 3)
        assert bfs_reach(2, 3, letters).complete

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (2, 4), (4, 2)])
    def test_greedy_matches_letter_loop(self, m, n):
        # greedy_alphabet keeps the parts of the factor with fewer maps, so
        # where m^m <= n^n it visits the letters out of lexicographic order;
        # the reference scores one letter at a time, in that order
        def step(closure, a):
            return (reach._row_map(closure, a.s.images, m, n)
                    | reach._col_map(closure, a.t.images, m, n))

        letters, closure = [], np.array([1], np.int64)
        while closure.size < bound_f(m, n):
            best_gain = 0
            for a in (letter(s, t) for s, t in SearchSpace(m, n, 1).letter_candidates()):
                gain = np.setdiff1d(step(closure, a), closure).size
                if gain > best_gain:
                    best_gain, best = gain, a
            letters.append(best)
            while (new := np.setdiff1d(np.concatenate([step(closure, a) for a in letters]),
                                       closure)).size:
                closure = np.union1d(closure, new)
        assert greedy_alphabet(m, n) == letters

    def test_greedy_2x3_letters_pinned(self):
        assert [(a.s.images, a.t.images) for a in greedy_alphabet(2, 3)] == [
            ((1, 1), (2, 1, 1)), ((1, 1), (3, 1, 1)), ((2, 1), (1, 1, 1)),
            ((2, 2), (2, 3, 1)), ((2, 1), (2, 3, 2)), ((2, 1), (3, 1, 3)),
            ((2, 1), (2, 1, 1)), ((2, 1), (3, 1, 1)),
        ]

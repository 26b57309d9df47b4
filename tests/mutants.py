"""Source mutants that the tier-1 tests must catch.

Each mutant replaces one exact piece of text, found once, in one file of
src/shufflesc. For each mutant the script copies src/ to a temporary
directory, applies the mutant there, and runs the tests named for it
against the copy; every named test must fail. The named tests must first
pass on the unmutated copy. Exits 1 and names the mutant if not.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CERTIFY = "tests/test_reach.py::TestCertify::"
BFS = "tests/test_reach.py::TestBfsReach::"
CHECKPOINTS = "tests/test_reach.py::TestCheckpoints::"
SHARED = "tests/test_reach.py::TestSharedDerivations::"
THREADED = "tests/test_reach.py::TestThreadedKernel::test_same_generation"
DFA_FIELDS = "tests/test_automata.py::TestFileFormat::test_refusal_names_the_field"
EAGER = "tests/test_search.py::TestAgainstEagerScan::test_same_result"
DFA_REFUSED = "tests/test_automata.py::TestConstructorChecks::test_dfa_refused"
ARRAY = "tests/test_automata.py::TestArrayPath::"

#: (name, file under src/shufflesc, text, replacement, tests that must fail)
MUTANTS = [
    ("verifier without the missing-entry check", "reach.py",
     "        failures.extend(islice(missing, 20))\n", "",
     [f"{CERTIFY}test_corrupted_instance_refused[entry_missing]"]),
    ("verifier listing every missing instance", "reach.py",
     "failures.extend(islice(missing, 20))", "failures.extend(missing)",
     [f"{CERTIFY}test_missing_instances_listed_up_to_20[2000x2000]"]),
    ("verifier without the unstored-family check", "reach.py",
     '''            failures.append(f"({mi},{ni}): family {sorted(sorted(c) for c in combo)} "
                            f"needs a permutation witness but none is stored")
''', "",
     [f"{CERTIFY}test_corrupted_instance_refused[family_witness_missing]"]),
    ("verifier without the column Sperner limit", "reach.py",
     'if axis == "column" and ni <= sperner_limit(mi):', "if False:",
     [f"{CERTIFY}test_corrupted_instance_refused[sperner_column_too_few]"]),
    ("verifier reading the shared derivations of (mi, mi), not (mi, ni)", "reach.py",
     "zip(_instance_rules(mi, ni), rows)", "zip(_instance_rules(mi, mi), rows)",
     [f"{SHARED}test_malformed_row_same_verdict[{case}]"
      for case in ("pred_2_10", "initial_extra_field", "line_rule_uncovered")]
     + [f"{SHARED}test_larger_table_streams"]),
    ("shared derivations left writable", "reach.py",
     """            for a in (encs, *rules):
                a.setflags(write=False)
""", "",
     [f"{SHARED}test_shared_arrays_refuse_writes[{size}]" for size in ("1-1", "2-3", "4-4")]),
    ("verify_certificate keeping the shared derivations", "reach.py",
     """    finally:
        _instance_rules.cache_clear()
        _family_scan.cache_clear()
""", """    finally:
        pass
""",
     [f"{SHARED}test_nothing_kept_after_verification", f"{SHARED}test_larger_table_streams"]),
    ("ExtremalLetter.from_dict without its unknown-key check", "reach.py",
     '_fields(obj, where, s=list, t=list)',
     '_fields({k: obj[k] for k in "st" if k in obj} if isinstance(obj, dict) else obj, '
     'where, s=list, t=list)',
     ["tests/test_reach.py::TestFullAlphabet::test_malformed_letter_file_refused[entry7]",
      f"{BFS}test_inconsistent_report_refused[letter_key]"]),
    ("ReachReport.from_dict without its derived-value check", "reach.py",
     "            if obj[key] != value:\n", "            if False:\n",
     [f"{BFS}test_inconsistent_report_refused[{case}]"
      for case in ("complete", "lineage", "alphabet_id", "bound")]),
    ("greedy_alphabet without its tie-break to the first letter", "reach.py",
     "if gain > best_gain or gain and gain == best_gain and letter < best:",
     "if gain > best_gain:",
     [f"tests/test_reach.py::TestAlphabets::test_greedy_matches_letter_loop[{size}]"
      for size in ("2-3", "2-4")]),
    ("letter-list BFS kernel without its adjacent-duplicate drop", "reach.py",
     "    np.not_equal(new[1:], new[:-1], out=keep[1:])\n", "",
     [f"{CHECKPOINTS}test_golden_checkpoint_bytes[{run}]"
      for run in ("3x3 letters_3x3", "4x5 seed 45")]),
    ("letter-list BFS kernel dropping the last row of its first share", "reach.py",
     "parts[i] = alphabet.share(frontier[cuts[i]:cuts[i + 1]], rows)",
     "parts[i] = alphabet.share(frontier[cuts[i]:cuts[i + 1] - (i == 0)], rows)",
     [f"{THREADED}[{case}]" for case in (
         "4x6-list-1-row-1", "4x6-list-block-and-row-2", "4x6-list-3-blocks-and-row-3",
         "empty-list-block-and-row-2")]),
    ("write_checkpoint without its refusal of unreadable frontiers", "reach.py",
     """    if np.any(frontier[1:] <= frontier[:-1]):  # BFS frontiers are already strictly ascending
        frontier = np.sort(frontier)
        if np.any(frontier[1:] == frontier[:-1]):
            raise ValueError("frontier repeats an entry; no checkpoint written")
    if frontier.size and frontier[-1] >= (1 << m * n):
        raise ValueError(f"frontier entry outside 0..2^{m * n}-1; no checkpoint written")
    if not visited[frontier].all():
        raise ValueError("frontier entry missing from the visited bitmap; no checkpoint written")
""", """    if np.any(frontier[1:] < frontier[:-1]):
        frontier = np.sort(frontier)
""",
     [f"{CHECKPOINTS}test_unreadable_frontier_not_written[{case}]"
      for case in ("repeated", "unvisited", "outside-grid")]),
    ("read_checkpoint without its unknown-key and bool refusal", "reach.py",
     """            _fields(header, "checkpoint header", m=int, n=int, alphabet_id=str,
                    generation=int, visited_count=int, frontier_len=int,
                    frontier_encoding=str, bitmap_sha256=str, frontier_sha256=str))
""", """            [header.get(key) for key in ("m", "n", "alphabet_id", "generation",
             "visited_count", "frontier_len", "frontier_encoding", "bitmap_sha256",
             "frontier_sha256")])
""",
     [f"{CHECKPOINTS}test_header_field_refused[{case}]"
      for case in ("m", "n", "visited_count", "frontier_len", "unknown_key")]),
    ("search stepping every letter through the first letter's memo", "search.py",
     "steps = [(memos[i], succ[i]) for i in dict.fromkeys(multiset)]",
     "steps = [(memos[multiset[0]], succ[i]) for i in dict.fromkeys(multiset)]",
     [f"{EAGER}[{case}]" for case in ("2x2x2", "2x2x3", "2x2x4", "2x3x2",
                                      "2x2x4-stop_at_bound", "2x2x4-uncapped")]),
    ("refine_array trusting the signature hash", "automata.py",
     """        if np.any(rows[order[later]] != rows[order[later - 1]]):
            order, first, new_block = _sorted_ranks(rows)
""", "",
     [f"{ARRAY}test_refine_matches_loop_on_hash_collisions"]),
    ("refine_array stopping one round early", "automata.py",
     "        if groups == count or groups == states:\n",
     "        if groups <= count + 1 or groups == states:\n",
     [f"{ARRAY}test_refine_matches_loop"]),
    ("dfa_from_dict accepting an empty letter name", "automata.py",
     "isinstance(x, str) and x for x in alphabet", "isinstance(x, str) for x in alphabet",
     [f"{DFA_FIELDS}[empty_letter_name]"]),
    ("dfa_from_dict accepting repeated finals", "automata.py",
     "if len(set(finals)) != len(finals):", "if False:",
     [f"{DFA_FIELDS}[repeated_finals]"]),
    ("bfs_key counting the unreachable states", "automata.py",
     "    return (len(order), rows, finals)\n", "    return (d.state_count, rows, finals)\n",
     ["tests/test_automata.py::TestCanonicalize::test_unreachable_states_left_out"]),
    ("Dfa accepting a final state that is not an int", "automata.py",
     """                raise ValueError(f"transformation for {x!r} has wrong degree")
        for f in self.finals:
            if not int_in(f, 1, self.state_count):
""", """                raise ValueError(f"transformation for {x!r} has wrong degree")
        for f in self.finals:
            if not 1 <= f <= self.state_count:
""",
     [f"{DFA_REFUSED}[{case}]" for case in ("final_float", "final_bool")]),
]


def outcomes(src: Path, tests: list[str]) -> dict[str, str]:
    """PASSED, FAILED or ERROR for each of tests, run against the package in src."""
    # no bytecode cache: a mutant of the same size, written within the same
    # second, would otherwise run from the unmutated copy's cache
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run([sys.executable, "-c", "import shufflesc; print(shufflesc.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not probe.stdout.startswith(str(src)):
        raise SystemExit(f"tests would import {probe.stdout.strip()}, not the copy in {src}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *tests], env=env, cwd=ROOT, capture_output=True, text=True)
    found = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ")[0]] = word
    return {test: found.get(test, "NOT RUN") for test in tests}


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = [test for *_, tests in MUTANTS for test in tests]
        unmutated = outcomes(src, every_test)
        bad = {test: word for test, word in unmutated.items() if word != "PASSED"}
        if bad:
            print(f"named tests that do not pass unmutated: {bad}")
            return 1
        for name, file, text, replacement, tests in MUTANTS:
            path = src / "shufflesc" / file
            original = path.read_text()
            if original.count(text) != 1:
                failed.append(f"{name}: its text occurs {original.count(text)} times in {file}")
                continue
            path.write_text(original.replace(text, replacement))
            try:
                survived = [test for test, word in outcomes(src, tests).items()
                            if word not in ("FAILED", "ERROR")]
            finally:
                path.write_text(original)
            print(f"{'SURVIVED' if survived else 'caught'}: {name}")
            if survived:
                failed.append(f"{name}: these tests did not fail: {survived}")
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself (about 30 s).

    python3 perfbench/selftest.py

1. The stored data is what ``make_data.py`` generates: the greedy 3x4
   letters (the slow part) and the base pool with its expected counts.
2. ``complexity`` on the composed 3x4 witness reports ``met: true``.
3. A corrupted input is caught: the kappa workload runs with the random
   pair's left DFA given the complement of its final set, and exactly that
   operation must be counted as failed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TMP = HERE.parent / ".perfbench_tmp"
sys.path.insert(0, str(HERE.parent / "src"))

import make_data  # noqa: E402
import workloads  # noqa: E402
from worker import run_op, run_pass  # noqa: E402


def check_data() -> list[str]:
    errors = []
    if make_data.build_pool() != json.loads(make_data.POOL_FILE.read_text()):
        errors.append("pool.json differs from make_data.build_pool()")
    if make_data.greedy_letters() != json.loads(make_data.WITNESS_FILE.read_text()):
        errors.append("witness_3x4_greedy.json differs from greedy_alphabet(3, 4)")
    return errors


def check_witness(tmp: Path) -> list[str]:
    left, right = workloads.composed_witness()
    paths = []
    for name, obj in (("left", left), ("right", right)):
        paths.append(tmp / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    code, out, error = run_op(["complexity", *map(str, paths)])
    if code != 0 or error:
        return [f"complexity on the composed witness exited {code}: {error}"]
    report = json.loads(out)
    if report["met"] is not True:
        return [f"composed 3x4 witness does not meet the bound: {report}"]
    return []


def check_corruption(tmp: Path) -> list[str]:
    indir, outdir = tmp / "in", tmp / "out"
    indir.mkdir()
    outdir.mkdir()
    ops = workloads.kappa(1, indir, outdir)
    target = indir / "p_left.json"
    dfa = json.loads(target.read_text())
    dfa["finals"] = [q for q in range(1, dfa["states"] + 1) if q not in dfa["finals"]]
    target.write_text(json.dumps(dfa))
    result = run_pass(ops, outdir)
    want = {"complexity random 4x5"}
    if set(result["failures"]) != want:
        return [f"corrupted pair: failures {sorted(result['failures'])}, "
                f"expected {sorted(want)}"]
    if len(result["failures"]) / result["attempted"] != 1 / 5:
        return ["corrupted pair: ops_failed_frac is not 1/5"]
    return []


def main() -> int:
    errors = check_data()
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        errors += check_witness(Path(tmp))
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        errors += check_corruption(Path(tmp))
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

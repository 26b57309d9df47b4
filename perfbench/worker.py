"""One pass of a workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --seed S --tmp DIR
        --spawned T [--trace] [--setup-only]

Set-up (imports and seeded inputs) is timed from ``--spawned``, the
parent's ``time.monotonic()`` just before it started this process. The
operations run back to back as in-process calls of ``shufflesc.cli.main``
with ``--json`` and stdout captured. The fixed work ``calibrate()`` is
timed before the first operation and after every operation; ``run.py``
scales each operation's time by the calibrations around it. Peak RSS is
read before the oracles run. The last stdout line is one JSON object with
the pass's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from shufflesc import cli

from workloads import WORKLOADS


_CAL_INDEX = np.random.default_rng(0).integers(0, 1 << 20, size=200_000, dtype=np.int32)
_CAL_RECORDS = [{"s": [i % 5, i % 7, i % 11], "t": [i % 13] * 6, "kind": "SHRINK"}
                for i in range(3000)]


def calibrate() -> float:
    """Seconds of a fixed reference work that mixes the kinds of work the
    program does: interpreter arithmetic, hashing small frozensets into a
    dict, a JSON round trip, and numpy scatter and gather over a 1 MiB
    table."""
    start = time.perf_counter()
    acc, table = 0, list(range(64))
    for i in range(120_000):
        acc += table[i & 63] * i % 7
    counts: dict = {}
    for i in range(16_000):
        key = frozenset((i % 97, i % 89 + 100, i // 7))
        counts[key] = counts.get(key, 0) + 1
    acc += len(sorted(counts.values()))
    acc += len(json.loads(json.dumps(_CAL_RECORDS)))
    for shift in range(5):
        bits = np.zeros(1 << 20, dtype=bool)
        bits[_CAL_INDEX] = True
        acc += int(np.count_nonzero(bits[_CAL_INDEX ^ (1 << shift)]))
    return time.perf_counter() - start


def run_op(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, captured stdout, error text) of one CLI call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--json", *argv])
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 1), buf.getvalue(), "exited"
    except Exception:
        return 1, buf.getvalue(), traceback.format_exc()
    return code, buf.getvalue(), ""


def judge(op, code: int, stdout: str, error: str) -> str | None:
    """Why the operation failed, or None."""
    if error or code != 0:
        return f"exit code {code} {error}".strip()
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"report is not JSON: {e}"
    try:
        return op.check(payload)
    except Exception:
        return "oracle raised:\n" + traceback.format_exc()


def run_pass(ops, outdir: Path, tracer=None) -> dict:
    """Run the operations back to back, then judge them. The figures of the
    pass: wall_s (the operations' time, without calibrations), peak_rss_mb,
    output_bytes, attempted, failures (operation name -> reason),
    op_seconds, cal_s (a calibration before the first operation and one
    after each) and, with a tracer, the per-layer layers."""
    results, op_seconds, cal_s = [], {}, [calibrate()]
    if tracer is not None:
        tracer.install()
    for op in ops:
        op_start = time.perf_counter()
        results.append(run_op(op.argv))
        op_seconds[op.name] = time.perf_counter() - op_start
        cal_s.append(calibrate())
    wall_s = sum(op_seconds.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(outdir.parent / "spans.jsonl")

    output_bytes = sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
    failures = {}
    for op, (code, out, error) in zip(ops, results):
        why = judge(op, code, out, error)
        if why is not None:
            failures[op.name] = why
            print(f"FAILED {op.name}: {why}", file=sys.stderr)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": output_bytes,
        "attempted": len(ops),
        "failures": failures,
        "op_seconds": op_seconds,
        "cal_s": cal_s,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["output_bytes"] = (output_bytes, "bytes")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tmp = Path(args.tmp)
    indir, outdir = tmp / "in", tmp / "out"
    indir.mkdir()
    outdir.mkdir()
    ops = WORKLOADS[args.workload](args.seed, indir, outdir)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        result.update(run_pass(ops, outdir, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

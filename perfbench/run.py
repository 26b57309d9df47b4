"""Benchmark of the shufflesc workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: reach_full, reach_letters, certify, kappa (see workloads.py and
perfbench/README.md). Load is a closed loop: one client runs the
workload's operations back to back, with one worker (``SSC_THREADS`` is
removed from the environment) and one BLAS thread (``OPENBLAS_NUM_THREADS``
is 1).

Each pass runs in a fresh interpreter with its own temporary directory,
removed when the pass ends. With ``--trace 0`` passes repeat while the next
one is expected to end within ``--seconds`` (at least one runs), and extra
set-up-only interpreters bring the set-up samples to ``SETUP_SAMPLES``.

The speed of a small shared machine drifts by up to 2x, and a slow spell
can outlast a run. So operation times are given in reference seconds: each
worker times the fixed work ``worker.calibrate()`` before the first
operation and after every operation, and an operation's time t is reported
as ``t * CAL_REF_S / c``, with c the mean of the calibrations just before
and just after it. ``wall_s`` is the sum over operations of each
operation's median scaled time over the passes; the unscaled sum is printed
beside it. ``setup_s`` (not scaled) and ``peak_rss_mb`` are medians. ``output_bytes`` and
``ops_failed_frac`` are printed but left out of the JSON metrics, because
they can be 0. With ``--trace 1`` one untraced and one traced pass run and
the per-layer metrics come from the traced one.

Human-readable lines come first; the last stdout line is the JSON result.
A fuller record, with provenance and every sample, goes to
``.perfbench_out/`` in the checkout, beside the spans of a traced pass.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reach_full", "reach_letters", "certify", "kappa")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
#: seconds of worker.calibrate() on the reference machine; the unit of the
#: scaled times
CAL_REF_S = 0.060


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SSC_THREADS", None)
    # numpy's import would otherwise start a BLAS thread per core; the
    # program makes no BLAS calls, and the start-up varies with the load on
    # the other cores
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args, start: float, *, trace=False, setup_only=False) -> dict:
    """One worker process; its parsed result line."""
    remaining = DEADLINE_S - (time.monotonic() - start)
    if remaining <= 0:
        raise BenchError(f"no time left within {DEADLINE_S:.0f} s")
    TMP.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tmp]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
        spans = Path(tmp) / "spans.jsonl"
        if spans.exists():
            OUT.mkdir(exist_ok=True)
            spans.replace(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not end within {DEADLINE_S:.0f} s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_wall(passes: list[dict]) -> float:
    """Sum over operations of each operation's median time over passes, in
    reference seconds: scaled by CAL_REF_S over the mean of the calibrations
    just before and just after the operation."""
    return sum(statistics.median(
        p["op_seconds"][op] * CAL_REF_S / statistics.fmean(p["cal_s"][i:i + 2])
        for p in passes) for i, op in enumerate(passes[0]["op_seconds"]))


def provenance(seed: int) -> dict:
    import numpy

    revision = "unknown"  # a checkout without .git names no revision
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "cpu_count": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": revision, "src_sha256": digest.hexdigest()[:16]}


def measure(args, start: float) -> tuple[list[dict], list[dict], dict, dict]:
    """The passes, the set-up-only interpreters, the end-to-end times before
    scaling (empty with --trace) and the metrics (name -> (value, unit))."""
    if args.trace:
        plain = run_child(args, start)
        traced = run_child(args, start, trace=True)
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        return [plain, traced], [], {}, metrics
    passes, cycle = [], 0.0
    while not passes or time.monotonic() - start + cycle < args.seconds:
        began = time.monotonic()
        passes.append(run_child(args, start))
        cycle = time.monotonic() - began
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args, start, setup_only=True))
    unscaled = sum(statistics.median(p["op_seconds"][op] for p in passes)
                   for op in passes[0]["op_seconds"])
    return passes, setups[len(passes):], {"wall_s": unscaled}, {
        "wall_s": (scaled_wall(passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not (SRC / "shufflesc" / "__init__.py").is_file():
        print(f"error: no shufflesc package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    try:
        passes, setup_only, unscaled, metrics = measure(args, start)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    info = provenance(args.seed)
    print(f"workload {args.workload}: {len(passes)} pass(es), "
          f"{json.dumps(info, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in unscaled.items():
        print(f"  {name} unscaled = {value:.6g} s")
    output_bytes = statistics.median(p["output_bytes"] for p in passes)
    if "output_bytes" not in metrics:
        print(f"  output_bytes = {output_bytes:.0f} bytes")
    print(f"  ops_failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations attempted)")
    for p in passes:
        for op, why in p["failures"].items():
            print(f"  FAILED {op}: {why.splitlines()[0]}")
    record = {"workload": args.workload, "trace": args.trace, "provenance": info,
              "passes": passes, "setup_only": setup_only, "unscaled": unscaled,
              "output_bytes": output_bytes,
              "ops_failed_frac": failed / attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

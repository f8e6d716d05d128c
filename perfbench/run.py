"""riesz-sip benchmark: one workload, one seed, every metric with its unit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): verify-default, oracle-study-fine,
triage-shrink. Each run starts fresh worker processes with riesz_sip's
source on PYTHONPATH, a fixed PYTHONHASHSEED and BLAS/OpenMP pinned to
one thread: SETUP_PROBES processes that only set up, then the main
process that sets up and runs the workload. setup_s is the median set-up
time of all of them.

With --trace 0 the end-to-end metrics are measured, untraced. Times are
rescaled to a reference machine speed (see Reference in workloads.py):
this machine's speed drifts by tens of percent within seconds, and each
sample is divided by the speed a fixed reference kernel showed around it.
The medians as measured are printed too.

    setup_s      s    fresh process to first timed operation (median)
    wall_s       s    program time of one session (median)
    work_per_s   1/s  trial-checks/s of `verify` (verify-default, and the
                      verify phase of triage-shrink), or grid points/s of
                      `oracle-study` (oracle-study-fine); median of sessions
    op_p50_ms    ms   median latency of one operation: a `verify` call, an
                      `oracle-study` call, or a successful `shrink` call
    peak_rss_mb  MB   peak resident memory of the main process

With --trace 1 the main process measures sessions untraced, runs the
first few of them again with every riesz_sip module traced, and reports
the per-layer metrics (per session, times as measured) and the tracing
overhead, the rescaled median session time traced minus untraced. Spans
are written to .perfbench/trace-<workload>.csv.

Lines before the last describe the run: environment, the workload's own
metrics (verify_trials_per_s, grid_points_per_s, shrink_p50_ms,
shrink_p90_ms) with sample counts, error_rate with the class and message
of every exception, the correctness gate and report_sha256. The last
line is one JSON object: correct, attempted, failed, metrics.

Exits 2 without a result when the program's source is not in the
current directory, and 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-default", "oracle-study-fine", "triage-shrink")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
# One caller in one process on tiny matrices: a single BLAS thread keeps
# runs steady on a small shared machine.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, role: str, workdir: Path, env: dict, deadline: float,
                 trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", str(workdir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("time limit reached before the worker started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{role} worker exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"{role} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, setups: list) -> dict:
    samples = main["ledger"]["samples"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(samples["session_s"]),
        "work_per_s": statistics.median(samples["work_per_s"]),
        "op_p50_ms": statistics.median(samples["op_ms"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    counts = {"setup_s": len(setups), "wall_s": len(samples["session_s"]),
              "work_per_s": len(samples["work_per_s"]), "op_p50_ms": len(samples["op_ms"]),
              "peak_rss_mb": 1}
    return {k: (v, END_TO_END_UNITS[k], counts[k]) for k, v in values.items()}


def describe(args, main: dict, ledgers: list, metrics: dict, layers: dict | None,
             raw_setups: list) -> None:
    print(f"# riesz-sip benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}, {main['sessions']} sessions")
    print("# env " + json.dumps(main["env"], sort_keys=True))
    seeds = main["program_seeds"]
    print(f"# program seeds {seeds[0]}, ..., {seeds[-1]} ({len(seeds)} sessions) from a pool of "
          f"{main['seed_pool']} that leaves out {main['false_failure_seeds']}, where "
          "`verify --trials 50` falsely fails the axioms suite (see workloads.SEED_POOL)")
    samples = main["ledger"]["samples"]
    if metrics:
        print("# end-to-end (untraced; times rescaled to the reference speed, see workloads.Reference)")
        for name, (value, unit, n) in metrics.items():
            print(f"#   {name:<22} {value:>16.6g} {unit:<16} n={n}")
        raw = {"setup_s": statistics.median(raw_setups),
               "wall_s": statistics.median(samples["raw_session_s"]),
               "work_per_s": statistics.median(samples["raw_work_per_s"]),
               "op_p50_ms": statistics.median(samples["raw_op_ms"])}
        print("# as measured, before rescaling: " + ", ".join(
            f"{k}={v:.6g}" for k, v in raw.items())
            + f"; machine speed factor median {statistics.median(samples['speed']):.4g}"
            f" (min {min(samples['speed']):.4g}, max {max(samples['speed']):.4g})")
    print("# workload metrics")
    for name, (value, unit, n) in main["headline"].items():
        beyond = f", {n - int(0.9 * n)} beyond p90" if name.endswith("p90_ms") else ""
        print(f"#   {name:<22} {value:>16.6g} {unit:<16} n={n}{beyond}")
    attempted = sum(l["attempted"] for l in ledgers)
    failed = sum(l["failed"] for l in ledgers)
    print(f"#   {'error_rate':<22} {failed / attempted:>16.6g} {'fraction':<16} "
        f"failed={failed} attempted={attempted}")
    errors = Counter()
    for ledger in ledgers:
        errors.update(ledger["errors"])
    for what, n in sorted(errors.items()):
        print(f"#   error x{n}: {what}")
    violations = [v for l in ledgers for v in l["violations"]]
    count = sum(l["violation_count"] for l in ledgers)
    print(f"# correctness gate: {'pass' if count == 0 else f'FAIL ({count} violations)'}")
    for v in violations:
        print(f"#   violation: {v}")
    print(f"# report_sha256 {main['ledger']['report_sha256']} (first session, wall_time_s removed)")
    if layers:
        print("# per-layer (traced, per session)")
        for name, (value, unit) in layers.items():
            print(f"#   {name:<42} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="riesz-sip benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "riesz_sip" / "__init__.py").is_file():
        print(f"error: no riesz_sip source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = {k: v for k, v in os.environ.items() if k != "RIESZ_SIP_SEED"}
    # A fixed hash seed gives every worker the same dict and set layouts, one
    # less thing that differs between runs of the same code.
    env.update(THREAD_PINS, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    out_dir = root / ".perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    try:
        probes = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probes.append(start_worker(args, "probe", workdir / f"probe{i}", env, deadline))
        trace_file = out_dir / f"trace-{args.workload}.csv" if args.trace else None
        main_result = start_worker(args, "main", workdir / "main", env, deadline, trace_file)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [r["setup_s"] for r in (*probes, main_result)]
    raw_setups = [r["raw_setup_s"] for r in (*probes, main_result)]

    ledgers = [main_result["ledger"]]
    layers = None
    if args.trace:
        ledgers.append(main_result["traced_ledger"])
        layers = main_result["per_layer"]
        metrics = {}
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = end_to_end(main_result, setups)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    describe(args, main_result, ledgers, metrics, layers, raw_setups)
    print(json.dumps({
        "correct": all(l["violation_count"] == 0 for l in ledgers),
        "attempted": sum(l["attempted"] for l in ledgers),
        "failed": sum(l["failed"] for l in ledgers),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

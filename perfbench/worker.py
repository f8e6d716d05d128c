"""One benchmark process: set up a workload, then (for the main role) run it.

Started by run.py in a fresh interpreter with riesz_sip's source on
PYTHONPATH and the BLAS/OpenMP thread pins already in the environment.
Set-up time runs from the moment run.py started this process (--t0, on
the system-wide monotonic clock) to the first timed operation: importing
riesz_sip, preparing the first session's inputs and one warm-up session.

Roles:
  probe  set up, print the set-up time and exit.
  main   set up, run the sessions that --seconds buys (see
         Workload.sessions), print the ledger. With --trace 1 the sessions
         of half of --seconds run untraced, then the first TRACED_SESSIONS
         of them run again with every riesz_sip module wrapped by the
         tracer, and the per-layer metrics and tracing overhead are printed
         too.

A run does a fixed amount of work for its --seconds, not as much as fits
in them: the same seed then gives the same operations, so the same
attempted and failed counts, however fast the machine is that day.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

# A run still going after this many seconds of wall clock ends after its
# current session (a safety net: a planned run takes well under it).
WALL_LIMIT_S = 120.0
# The traced run re-runs at most this many sessions, which bounds the spans
# kept in memory and written out.
TRACED_SESSIONS = 5


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # informational only
        blas = f"unknown ({type(exc).__name__})"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_sessions(wl, ledger, seconds: float, first: dict) -> int:
    """Closed loop over sessions 0, 1, ...: those seconds buy, and more if
    the workload still lacks its op_ms samples."""
    deadline = time.monotonic() + WALL_LIMIT_S
    planned = wl.sessions(seconds)
    k, inputs = 0, first
    while True:
        wl.run(inputs, ledger)
        shutil.rmtree(inputs["dir"], ignore_errors=True)
        k += 1
        enough = k >= planned and len(ledger.samples["op_ms"]) >= wl.min_op_samples
        if enough or time.monotonic() > deadline:
            return k
        inputs = wl.prepare(k)


def traced_rerun(wl, untraced, sessions: int, trace_path: Path) -> tuple:
    """Run sessions 0..sessions-1 again with tracing on; return (ledger, per-layer)."""
    ledger = workloads.Ledger(wl.reference)
    tracer = tracing.Tracer()
    with tracing.traced_program(tracer):
        for k in range(sessions):
            inputs = wl.prepare(k)
            tracer.enabled = True
            try:
                wl.run(inputs, ledger)
            finally:
                tracer.enabled = False
            shutil.rmtree(inputs["dir"], ignore_errors=True)
    tracer.write(trace_path)
    layers = tracing.per_layer_metrics(tracer, sessions)
    untraced_s = statistics.median(untraced.samples["session_s"][:sessions])
    traced_s = statistics.median(ledger.samples["session_s"])
    values = {"trace.spans": len(tracer) / sessions, "trace.untraced_wall_s": untraced_s,
              "trace.traced_wall_s": traced_s, "trace.overhead_s": traced_s - untraced_s}
    layers.update({k: (v, tracing.TRACE_UNITS[k]) for k, v in values.items()})
    if ledger.report_sha256 != untraced.report_sha256:
        ledger.violate("the traced run's first report differs from the untraced one")
    return ledger, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("probe", "main"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.warm_up()
    first = wl.prepare(0)
    setup_s = time.monotonic() - args.t0
    wl.reference.kernel()
    speed = wl.reference.nominal_s / wl.reference.time()
    result = {"setup_s": setup_s * speed, "raw_setup_s": setup_s}
    if args.role == "main":
        ledger = workloads.Ledger(wl.reference)
        seconds = args.seconds / 2 if args.trace else args.seconds
        sessions = run_sessions(wl, ledger, seconds, first)
        result.update(
            sessions=sessions,
            ledger=ledger.to_dict(),
            headline=wl.headline(ledger),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
            program_seeds=[wl.session_seed(k) for k in range(sessions)],
            seed_pool=len(workloads.SEED_POOL),
            false_failure_seeds=sorted(workloads.FALSE_FAILURE_SEEDS),
        )
        if args.trace:
            traced, layers = traced_rerun(wl, ledger, min(sessions, TRACED_SESSIONS),
                                          Path(args.trace_file))
            result.update(traced_ledger=traced.to_dict(), per_layer=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

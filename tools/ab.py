"""Time two source trees against each other in one process, in interleaved rounds.

    python tools/ab.py OLD [NEW] [--rounds N] [--tiny]

OLD and NEW are source trees (NEW defaults to the tree beside this
script). Each tree's src/riesz_sip is copied under a package name of its
own (riesz_sip_ab_old, riesz_sip_ab_new) into a temporary directory, and
both are imported into this process: the package's imports are relative,
so the copies run side by side with the same numpy, the same machine
state and the same allocator. Each round runs every probe on both sides,
the side that goes first alternating from round to round, after one
untimed warm-up round. The probes:

  verify  run_suite(TrialConfig(trials=50, seed=s)) and report_to_json of
          its report, for 20 seeds;
  study   convergence_study at 25 trials on grids 10^3, 10^4 and 10^5;
  shrink  shrink of every (instance, suite) that fails on both sides, the
          instances the eight broken ones of perfbench's triage-shrink
          sessions 0-9, read as tools/compare.py reads them.

For each probe it prints one line: the median over rounds of NEW's time
over OLD's, and the rounds in which NEW took less time. --tiny runs a few
seconds' work (two verify seeds at 5 trials, a study of 4 trials on grids
64 and 1000, triage session 0, and two rounds), for tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"

# (verify seeds, verify trials, study trials, study grids, triage sessions) in full and --tiny
FULL = (range(20), 50, 25, (10**3, 10**4, 10**5), range(10))
TINY = (range(2), 5, 4, (64, 1000), range(1))


def load(tree: Path, name: str, into: Path):
    """tree's src/riesz_sip, copied to into/name and imported as the package name."""
    src = tree.resolve() / "src" / "riesz_sip"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no riesz_sip package")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.harness")


def triage_cases(sessions, suites) -> list:
    """(instance dict, suite) of every broken instance of the triage sessions, under every suite."""
    sys.path[:0] = [str(HERE), str(PERFBENCH)]
    import compare

    return [(d, suite) for k in sessions for d in compare._triage_instances(k, k)
            for suite in suites]


def failing(h, cases: list) -> set:
    """The positions of cases whose instance fails its suite under h's TrialConfig(trials=1)."""
    config = h.TrialConfig(trials=1)
    return {i for i, (d, suite) in enumerate(cases)
            if h._run_check(suite, h.Trial(h.Instance.from_dict(d), config)).status == "fail"}


def probes(h, shape: tuple, cases: list) -> dict:
    """{probe name: a function of no arguments that runs it once on h}."""
    seeds, trials, study_trials, grids, _ = shape

    def verify():
        for s in seeds:
            h.report_to_json(h.run_suite(h.TrialConfig(trials=trials, seed=s)).to_dict())

    def study():
        h.convergence_study(h.TrialConfig(trials=study_trials), grids)

    def shrink():
        config = h.TrialConfig(trials=1)
        for d, suite in cases:
            h.shrink(h.Instance.from_dict(d), suite, config)

    return {"verify": verify, "study": study, "shrink": shrink}


def timed(run) -> float:
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path, nargs="?", default=HERE.parent)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    shape = TINY if args.tiny else FULL
    rounds = args.rounds or (2 if args.tiny else 5)
    if rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        sys.path.insert(0, tmp)
        sides = [load(args.old, "riesz_sip_ab_old", Path(tmp)),
                 load(args.new, "riesz_sip_ab_new", Path(tmp))]
        # perfbench's workloads module imports riesz_sip; only its numpy
        # instance builder is read, so either tree's package will do
        sys.path.append(str(args.new.resolve() / "src"))
        cases = triage_cases(shape[4], sides[1].THEOREMS)
        both = failing(sides[0], cases) & failing(sides[1], cases)
        cases = [case for i, case in enumerate(cases) if i in both]
        runs = [probes(h, shape, cases) for h in sides]
        times = {name: ([], []) for name in runs[0]}
        for r in range(-1, rounds):  # round -1 warms up, untimed
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name in times:
                for side in order:
                    t = timed(runs[side][name])
                    if r >= 0:
                        times[name][side].append(t)
    for name, (old, new) in times.items():
        ratio = statistics.median(b / a for a, b in zip(old, new))
        won = sum(b < a for a, b in zip(old, new))
        print(f"{name}: median new/old {ratio:.3f}, new faster in {won}/{rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

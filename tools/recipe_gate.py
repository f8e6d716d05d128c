"""Gate a change to instance generation or to a check's bits against its parent tree: no new failures, same tag rates.

    python tools/recipe_gate.py OLD_TREE NEW_TREE [--out FILE] [--tiny]

Each tree's tallies run in a subprocess with TREE/src first on
PYTHONPATH, so each side imports its own riesz_sip (numpy only):

  pool      run_suite at 50 trials over every suite verify runs, at
            every program seed of perfbench's pool (0..4095 less the
            false-failure seeds 1882 and 1892): the seeds at which a
            suite fails a trial, as perfbench's gate reads them per
            session;
  study     the oracle study at grids 1000, 10000 and 100000 over 25
            trials, seeds 0..255: the seeds at which monotone_ok or
            sandwich_ok is false;
  counts    at 10^4 trials and seed 0, every suite's branch counts and
            borderline count.

The gate passes when the new tree's pool and study lists are empty and
each gated count (pythagoras psd_family and multiplication, oracle
minimizer_not_covered, every suite's borderline) is within sampling
noise of the old tree's: |new - old| <= 3 * sqrt(v(old) + v(new)), with
v(c) = c * (1 - c / N) the binomial variance of a count c of N trials:
three standard deviations of the difference of two independent counts.
It prints one JSON object with both sides and the verdict, and exits 1
when the gate fails. --tiny runs a few seconds' worth (seeds 0..7,
1,000 trials), for trying the script out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

POOL = [p for p in range(4096) if p not in (1882, 1892)]
STUDY_SEEDS = range(256)
STUDY_GRIDS = (1000, 10_000, 100_000)
COUNT_TRIALS = 10_000
GATED = (("pythagoras", "psd_family"), ("pythagoras", "multiplication"),
         ("oracle", "minimizer_not_covered"))


def tally(tiny: bool) -> dict:
    """The pool, study and counts of the riesz_sip that imports here."""
    from riesz_sip.harness import TrialConfig, convergence_study, run_suite

    pool = POOL[:8] if tiny else POOL
    failing = [seed for seed in pool
               if not run_suite(TrialConfig(trials=50, seed=seed)).ok]
    study = [seed for seed in (range(8) if tiny else STUDY_SEEDS)
             if not convergence_study(TrialConfig(trials=25, seed=seed), STUDY_GRIDS).ok]
    report = run_suite(TrialConfig(trials=1000 if tiny else COUNT_TRIALS, seed=0))
    counts = {name: {**entry["counts"], "borderline": entry["borderline"],
                     "failures": entry["failures"], "trials": entry["trials"]}
              for name, entry in report.theorems.items()}
    return {"pool_seeds": len(pool), "pool_failing_seeds": failing,
            "study_failing_seeds": study, "counts": counts}


def tally_tree(tree: Path, tiny: bool) -> dict:
    """tally(tiny) in a subprocess that imports riesz_sip from tree/src."""
    src = (tree / "src").resolve()
    if not (src / "riesz_sip").is_dir():
        raise SystemExit(f"error: {src} holds no riesz_sip package")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, str(Path(__file__).resolve()), "_tally"] + (["--tiny"] if tiny else [])
    out = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def verdict(old: dict, new: dict) -> dict:
    """Each gated count of both sides with its bound, and whether the gate passes."""
    gated = list(GATED) + [(name, "borderline") for name in new["counts"]]
    rows = {}
    for suite, tag in gated:
        trials = new["counts"][suite]["trials"]
        a = old["counts"].get(suite, {}).get(tag, 0)
        b = new["counts"].get(suite, {}).get(tag, 0)
        bound = 3.0 * math.sqrt(a * (1 - a / trials) + b * (1 - b / trials))
        rows[f"{suite}.{tag}"] = {"old": a, "new": b, "bound": round(bound, 1),
                                  "within": abs(b - a) <= bound}
    ok = (not new["pool_failing_seeds"] and not new["study_failing_seeds"]
          and all(row["within"] for row in rows.values()))
    return {"counts": rows, "ok": ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["_tally"]:  # the subprocess of a tree
        json.dump(tally("--tiny" in argv), sys.stdout, sort_keys=True)
        return 0
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    old, new = tally_tree(args.old, args.tiny), tally_tree(args.new, args.tiny)
    result = {"old": old, "new": new, **verdict(old, new)}
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

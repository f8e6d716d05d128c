"""Digest a fixed corpus of outputs on one source tree, and diff two trees' digests.

A refactor keeps every report, replay and shrink byte for byte; a change
that moves bytes on purpose must move exactly the outputs it names. This
script states both as one diff.

    python tools/compare.py digest TREE [--tiny] [--out FILE]
    python tools/compare.py diff OLD.json NEW.json

digest runs the corpus in a subprocess with TREE/src first on PYTHONPATH,
so the package under test is that tree's, and writes one JSON object, the
SHA-256 of each output by name (to stdout without --out). The corpus:

  report/...    run_suite reports over seeds x trial counts, a lambda grid
                of 400 points, one of 10^5 (several blocks per pair), the
                shapes m <= 12, n <= 8 (at 300 trials, over three
                orthogonal chunks of 113), non-default grids and
                tolerances, 255, 256 and 257 trials (a recipe chunk
                short of full, full, and one over), and a seed of two
                32-bit words (2^40 + 3) over more than one chunk of
                trials, whose generic trial i draws from
                default_rng((seed, i)) and chunk c of the positive_log
                and orthogonal recipes from default_rng((seed, 1, c)) and
                default_rng((seed, 2, c));
  triage/...    reports with eight broken instances injected, made by
                perfbench's broken_instance (read from the perfbench
                beside this script, so both trees get the same ones);
  triage-group/...
                reports with the eight broken instances at one (m, n),
                interleaved with valid generated instances of that n, so
                that the injected instances are checked as groups of one
                codomain dimension, broken and valid trials together;
  .../replay    replay_counterexample of every distinct counterexample,
                named by the first 12 hex digits of its instance's SHA-256;
  .../shrink    shrink's output file for each of them;
  fallback/...  reports with one instance injected on which a grid oracle's
                coarse stage cannot bracket a row, so the row takes the
                whole grid: a 2 x 2 family with an indefinite member that
                is flat in lambda on x = [0, 2], y = [3, 0], the
                multiplication sip's exact-zero pair x = [1, 2, 0],
                y = [0, 1, 1], the family 1e300 * [[1, -1], [-1, 1]],
                whose rounding bound overflows, a positive definite family
                on R^2 into R^5 (so the default lambda grid takes two
                stages) under a weight with a zero entry, whose row of D*u
                is all zeros, and the multiplication sip on R^3 with
                x_1 = y_1 = 0, a row flat under the lambda oracle and both
                mean oracles (--tiny: the first);
  fallback-class/...
                reports with fallback instances injected beside valid pairs
                that share their oracle calls, so that a row that must
                take the whole grid is in a two-stage call with many
                certified rows of other pairs: the flat and the 1e300
                families each beside four valid PSD pairs on R^2 into R^1,
                R^2, R^4 and R^5 (one lambda class of 14 or 13 rows),
                under cs and sharp; the x_1 = y_1 = 0 pair beside five
                valid positive_log pairs on R^3 (one lambda class, and one
                stacked oracle group, of 18 rows, on which [*] and [+]
                over the full circle take two stages), under oracle, cs
                and sharp; and all twelve in one chunk under those three
                suites, where no PSD pair joins the group of codomain R^3
                (--tiny: the last);
  mixed-domain/...
                a report with five PSD instances of codomain R^2 and
                domains R^2 and R^3 injected under every suite, each valid
                under means and oracle: those suites stack x and y, so the
                group of one n raises and its trials are checked one at a
                time;
  shrink-case/...
                shrink's output file for instances of no report: a
                multiplication sip under a coarse lambda grid, with a valid
                weight and with one entry too many, against cs and sharp,
                and a PSD family with a negated member against axioms;
  study/seed=s  convergence studies at seeds 0 to 7, 20 trials each, at
                grids 64, 1000 and 10^5, and one at seed 0 with m_hi = 12
                and n_hi = 8 (study/seed=0,m_hi=12,n_hi=8), whose generic
                pairs span many kernel classes of the lambda oracle
                (--tiny: one, named study).

Reports and studies are digested with wall_time_s removed. An output
that raises is digested as its exception's class and message. --tiny
runs a corpus of a few seconds' work, for tests.

diff names every output that differs or that one file lacks, and exits 1
if there is one, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"

# (seed, trials, TrialConfig fields other than seed and trials) per report
FULL_REPORTS = (
    [(seed, trials, {}) for seed in range(8) for trials in (60, 300)]
    + [(3, 300, {"lambda_count": 400}), (0, 60, {"lambda_count": 10**5})]
    + [(seed, 60, {"m_hi": 12, "n_hi": 8}) for seed in range(4)]
    + [(4, 300, {"m_hi": 12, "n_hi": 8})]
    + [(6, trials, {}) for trials in (255, 256, 257)]
    + [(5, 60, {"theta_count": 300, "angle_count": 256,
                "tolerances": {"rel": 1e-7, "abs": 1e-11, "cone_band": 1e-6}}),
       (2**40 + 3, 300, {})])
TINY_REPORTS = [(0, 8, {}), (1, 8, {"lambda_count": 400, "m_hi": 12, "n_hi": 8})]
# (seeds, trials) of the triage reports, (seed, m, n) of the triage-group
# reports, and (seeds, trials, grids) of the studies
FULL_TRIAGE, TINY_TRIAGE = (range(6), 5), (range(1), 2)
FULL_TRIAGE_GROUPS = [(0, 2, 1), (1, 4, 2), (2, 5, 3), (3, 3, 3), (4, 7, 5), (5, 12, 8)]
TINY_TRIAGE_GROUPS = [(0, 4, 2)]
FULL_STUDY = ([(seed, {}) for seed in range(8)] + [(0, {"m_hi": 12, "n_hi": 8})],
              20, (64, 1000, 10**5))
TINY_STUDY = ([(0, {})], 4, (8, 64))
# Instances of the fallback reports, by name (instance JSON format)
FALLBACK = {
    "flat-2x2": {"kind": "psd_family", "m": 2, "n": 2,
                 "matrices": [[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]],
                 "u": [1.0, 2.0], "x": [0.0, 2.0], "y": [3.0, 0.0]},
    "exact-zero": {"kind": "multiplication", "m": 3, "n": 3,
                   "u": [1.0, 1.0, 1.0], "x": [1.0, 2.0, 0.0], "y": [0.0, 1.0, 1.0]},
    "overflow-1e300": {"kind": "psd_family", "m": 2, "n": 1,
                       "matrices": [[[1e300, -1e300], [-1e300, 1e300]]],
                       "u": [1.0], "x": [1.0, 2.0], "y": [3.0, -1.0]},
    "zero-weight-n5": {"kind": "psd_family", "m": 2, "n": 5,
                       "matrices": [[[2.0, 1.0], [1.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]],
                                    [[4.0, -1.0], [-1.0, 2.0]], [[1.0, 0.5], [0.5, 1.0]],
                                    [[3.0, 1.0], [1.0, 1.0]]],
                       "u": [1.0, 0.0, 2.0, 0.5, 3.0], "x": [1.0, -2.0], "y": [0.5, 1.0]},
    "zero-coordinate": {"kind": "multiplication", "m": 3, "n": 3,
                        "u": [1.0, 2.0, 0.5], "x": [1.5, 0.0, -2.0], "y": [0.5, 0.0, 3.0]},
}
FULL_FALLBACK, TINY_FALLBACK = tuple(FALLBACK), ("flat-2x2",)
# The fallback-class reports, by name: (theorems, fallback instances, and
# whether the valid PSD pairs on R^2 and the positive_log pairs on R^3
# join them)
FALLBACK_CLASS = {
    "flat-2x2": (("cs", "sharp"), ("flat-2x2",), True, False),
    "overflow-1e300": (("cs", "sharp"), ("overflow-1e300",), True, False),
    "zero-coordinate": (("oracle", "cs", "sharp"), ("zero-coordinate",), False, True),
    "oracle,cs,sharp": (("oracle", "cs", "sharp"),
                        ("flat-2x2", "overflow-1e300", "zero-coordinate"), True, True),
}
FULL_FALLBACK_CLASS, TINY_FALLBACK_CLASS = tuple(FALLBACK_CLASS), ("oracle,cs,sharp",)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _triage_instances(seed: int, k: int) -> list:
    """The eight broken instances of a triage-shrink session k, drawn from seed."""
    import numpy as np
    from workloads import BROKEN_CLASSES, CODOMAIN_DIMS, DOMAIN_DIMS, broken_instance

    rng = np.random.default_rng(seed)
    dims = len(DOMAIN_DIMS)
    return [broken_instance(rng, cls, 0, int(rng.integers(1, 9))) if cls == "overflow"
            else broken_instance(rng, cls, DOMAIN_DIMS[(i + k) % dims],
                                 CODOMAIN_DIMS[(i + 3 * k) % dims])
            for i, cls in enumerate(BROKEN_CLASSES)]


def _triage_group_instances(seed: int, m: int, n: int) -> list:
    """The eight broken instances at (m, n), drawn from seed, interleaved with six valid ones.

    The valid instances are two of each recipe, generated with codomain
    dimension n: trials 0 and 1 of each recipe's first chunk.
    """
    import numpy as np
    from riesz_sip import harness as h
    from workloads import BROKEN_CLASSES, broken_instance

    rng = np.random.default_rng(seed)
    broken = [h.Instance.from_dict(broken_instance(rng, cls, m, n)) for cls in BROKEN_CLASSES]
    config = h.TrialConfig(seed=seed, trials=2, m_hi=12, n_lo=n, n_hi=n)
    valid = [inst for purpose in ("generic", "positive_log", "orthogonal")
             for inst in next(h._chunks(config, purpose))]
    return [inst for pair in zip_longest(broken, valid) for inst in pair if inst is not None]


def _mixed_domain_instances() -> list:
    """PSD instances into R^2 of domains R^2 and R^3 (m = 2, 3, 3, 2, 3), u a vector of R^m.

    u has m entries, as the means suite reads it (a vector of x's
    lattice), so every instance is valid under means and oracle; the
    suites that read u as T's weight find those of m = 3 broken.
    """
    import numpy as np
    from riesz_sip import harness as h
    from riesz_sip.sip import PsdFamilySip

    rng = np.random.default_rng(6)
    insts = []
    for m in (2, 3, 3, 2, 3):
        B = rng.uniform(-1.0, 1.0, (2, m, m))
        T = PsdFamilySip(np.einsum("jka,jkb->jab", B, B), validate=False)
        insts.append(h.Instance(T, rng.uniform(0.0, 5.0, m), rng.uniform(-5.0, 5.0, m),
                                rng.uniform(-5.0, 5.0, m)))
    return insts


def _fallback_class_instances(names: tuple, psd: bool, positive_log: bool) -> list:
    """The fallback instances names, then four valid PSD pairs on R^2 and five positive_log pairs on R^3, as asked.

    The PSD pairs map into R^1, R^2, R^4 and R^5 under weights of their
    codomains, none into R^3, whose group the positive_log pairs stack
    under the oracle suite; those are trials 0 to 4 of a chunk at n = 3.
    """
    import numpy as np
    from riesz_sip import harness as h
    from riesz_sip.sip import random_psd

    insts = [h.Instance.from_dict(FALLBACK[name]) for name in names]
    if psd:
        rng = np.random.default_rng(8)
        insts += [h.Instance(random_psd(rng, 2, n), rng.uniform(0.5, 5.0, n),
                             rng.uniform(-5.0, 5.0, 2), rng.uniform(-5.0, 5.0, 2))
                  for n in (1, 2, 4, 5)]
    if positive_log:
        config = h.TrialConfig(seed=9, trials=5, n_lo=3, n_hi=3)
        insts += next(h._chunks(config, "positive_log"))
    return insts


def reports(tiny: bool):
    """(name, config, injected instances) of each report of the corpus, in order."""
    from riesz_sip import harness as h

    def config(seed: int, trials: int, fields: dict):
        fields = dict(fields)
        if "tolerances" in fields:
            fields["tolerances"] = h.Tolerances(**fields["tolerances"])
        return h.TrialConfig(seed=seed, trials=trials, **fields)

    for seed, trials, fields in TINY_REPORTS if tiny else FULL_REPORTS:
        label = ",".join([f"seed={seed}", f"trials={trials}"]
                         + [f"{k}={v}" for k, v in sorted(fields.items())])
        yield f"report/{label}", config(seed, trials, fields), ()
    seeds, trials = TINY_TRIAGE if tiny else FULL_TRIAGE
    for k, seed in enumerate(seeds):
        injected = tuple(h.Instance.from_dict(d) for d in _triage_instances(seed, k))
        yield f"triage/seed={seed}", h.TrialConfig(seed=seed, trials=trials), injected
    for seed, m, n in TINY_TRIAGE_GROUPS if tiny else FULL_TRIAGE_GROUPS:
        yield (f"triage-group/seed={seed},m={m},n={n}", h.TrialConfig(seed=seed, trials=trials),
               tuple(_triage_group_instances(seed, m, n)))
    for name in TINY_FALLBACK if tiny else FULL_FALLBACK:
        yield (f"fallback/{name}", h.TrialConfig(seed=0, trials=2),
               (h.Instance.from_dict(FALLBACK[name]),))
    for name in TINY_FALLBACK_CLASS if tiny else FULL_FALLBACK_CLASS:
        theorems, *spec = FALLBACK_CLASS[name]
        yield (f"fallback-class/{name}", h.TrialConfig(seed=0, trials=2, theorems=theorems),
               tuple(_fallback_class_instances(*spec)))
    yield ("mixed-domain/seed=3", h.TrialConfig(seed=3, trials=2),
           tuple(_mixed_domain_instances()))


def shrink_cases() -> list:
    """(name, counterexample) of the shrinks the corpus runs on instances of no report.

    A multiplication sip on R^4 under a lambda grid of 8 points, whose
    defect gaps fail cs and sharp, with a valid weight and with one entry
    too many: shrink's codomain drops take the current trial's lambda
    minima under the valid weight, and run their own pass under the other.
    A PSD family with a negated member (perfbench's broken_instance)
    shrunk against axioms, which reads no x, y or u move.
    """
    import numpy as np
    from riesz_sip import harness as h
    from workloads import broken_instance

    rng = np.random.default_rng(11)
    coarse = h.params_from_config(h.TrialConfig(trials=1, lambda_count=8))
    x, y = rng.uniform(-10.0, 10.0, (2, 4))
    cases = []
    for label, u in (("valid-u", rng.uniform(0.0, 10.0, 4)),
                     ("long-u", rng.uniform(0.0, 10.0, 5))):
        inst = {"kind": "multiplication", "m": 4, "n": 4,
                "u": u.tolist(), "x": x.tolist(), "y": y.tolist()}
        cases += [(f"shrink-case/multiplication,{label}/{theorem}",
                   {"instance": inst, "theorem": theorem, "params": coarse})
                  for theorem in ("cs", "sharp")]
    negated = broken_instance(rng, "negative", 5, 3)
    cases.append(("shrink-case/negative/axioms",
                  {"instance": negated, "theorem": "axioms",
                   "params": h.params_from_config(h.TrialConfig(trials=1))}))
    return cases


def corpus(tiny: bool) -> dict:
    """{output name: SHA-256} of the corpus on the riesz_sip that imports here."""
    import numpy as np

    from riesz_sip import harness as h

    digests, seen = {}, set()

    def digest(name: str, produce) -> None:
        try:
            text = produce()
        except Exception as exc:  # an output that raises is an output too
            text = f"{type(exc).__name__}: {exc}"
        digests[name] = _sha(text)

    def without_wall_time(obj) -> str:
        data = obj.to_dict()
        del data["wall_time_s"]
        return h.report_to_json(data)

    def replay_and_shrink(name: str, report) -> None:
        for theorem, entry in report.theorems.items():
            for ce in entry["counterexamples"]:
                key = h.report_to_json(ce)
                if key in seen:
                    continue
                seen.add(key)
                # named by its instance, not its place in the list, so a
                # counterexample that comes or goes renames no other
                at = f"{name}/{theorem}/{_sha(h.report_to_json(ce['instance']))[:12]}"
                digest(f"{at}/replay", lambda: h.report_to_json(
                    h.replay_counterexample(ce)._asdict()))
                digest(f"{at}/shrink", lambda: shrunk(ce))

    def shrunk(ce: dict) -> str:
        inst, theorem, config = h.read_case(ce)
        small, res = h.shrink(inst, theorem, config)
        return h.report_to_json(h.counterexample(
            theorem, res, small.to_dict(), h.params_from_config(config)))

    def run(name: str, cfg, injected=()) -> None:
        try:
            report = h.run_suite(cfg, injected=injected)
        except Exception as exc:
            digests[name] = _sha(f"{type(exc).__name__}: {exc}")
        else:
            digests[name] = _sha(without_wall_time(report))
            replay_and_shrink(name, report)

    with np.errstate(all="ignore"):
        for name, cfg, injected in reports(tiny):
            run(name, cfg, injected)
        for name, ce in shrink_cases():
            digest(f"{name}/shrink", lambda: shrunk(ce))
        studies, trials, grids = TINY_STUDY if tiny else FULL_STUDY
        for seed, fields in studies:
            name = "".join([f"study/seed={seed}"] + [f",{k}={v}" for k, v in fields.items()])
            digest("study" if tiny else name, lambda: without_wall_time(
                h.convergence_study(h.TrialConfig(seed=seed, trials=trials, **fields), grids)))
    return digests


def digest_tree(tree: Path, tiny: bool) -> dict:
    """corpus(tiny) in a subprocess that imports riesz_sip from tree/src."""
    src = (tree / "src").resolve()
    if not (src / "riesz_sip").is_dir():
        raise SystemExit(f"error: {src} holds no riesz_sip package")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, str(Path(__file__).resolve()), "_corpus", str(src)]
    out = subprocess.run(argv + (["--tiny"] if tiny else []), env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def diff(old: dict, new: dict) -> list:
    """A line per output that differs between old and new, or that one of them lacks."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"missing in new: {name}")
        elif name not in old:
            lines.append(f"missing in old: {name}")
        elif old[name] != new[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("digest", help="digest the corpus on TREE's src")
    p.add_argument("tree", type=Path)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", type=Path)
    p = sub.add_parser("diff", help="name every output that differs")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p = sub.add_parser("_corpus")  # the subprocess of digest
    p.add_argument("src", type=Path)
    p.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "_corpus":
        import riesz_sip

        if args.src.resolve() not in Path(riesz_sip.__file__).resolve().parents:
            raise SystemExit(f"error: imported {riesz_sip.__file__}, not {args.src}'s package")
        sys.path.insert(0, str(PERFBENCH))  # for perfbench's workloads module
        json.dump(corpus(args.tiny), sys.stdout, indent=1, sort_keys=True)
        return 0
    if args.command == "digest":
        text = json.dumps(digest_tree(args.tree, args.tiny), indent=1, sort_keys=True) + "\n"
        if args.out:
            args.out.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.old, args.new))
    lines = diff(old, new)
    for line in lines:
        print(line)
    print(f"{len(old.keys() | new.keys())} outputs, {len(lines)} differing or missing")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

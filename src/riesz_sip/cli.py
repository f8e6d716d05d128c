"""Command line interface.

    riesz-sip verify        run theorem suites, write a JSON report
    riesz-sip oracle-study  oracle gap vs grid resolution study
    riesz-sip shrink        minimize a failing instance or counterexample

Each command takes only the settings it reads: oracle-study sizes its own
grids and bounds its gaps, so of the tolerance and grid flags it takes
--tol-abs and the grid ranges; shrink draws nothing, so it takes no
--trials, --seed, --m or --n. Exit codes: 0 all checks passed, 1 at least
one violation, 2 invalid configuration or input, or an output file that
cannot be written. The environment variable RIESZ_SIP_SEED, when set,
overrides --seed of verify and oracle-study.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .harness import (
    ConfigError,
    THEOREMS,
    Tolerances,
    TrialConfig,
    convergence_study,
    counterexample,
    emit_report,
    params_from_config,
    read_case,
    report_to_json,
    run_suite,
    shrink,
    write_json,
)

DEFAULTS = TrialConfig(trials=1)

# (flag, field, type): each flag sets one field of Tolerances or of
# TrialConfig, is stored under the field's name and defaults to its default.
CONFIG_FLAGS = (
    ("--tol-rel", "rel", float),
    ("--tol-abs", "abs", float),
    ("--cone-band", "cone_band", float),
    ("--theta-lo", "theta_lo", float),
    ("--theta-hi", "theta_hi", float),
    ("--theta-count", "theta_count", int),
    ("--angle-count", "angle_count", int),
    ("--lambda-lo", "lambda_lo", float),
    ("--lambda-hi", "lambda_hi", float),
    ("--lambda-count", "lambda_count", int),
)
# The ones oracle-study reads: it sizes its own grids and bounds its gaps.
STUDY_CONFIG_FLAGS = ("--tol-abs", "--theta-lo", "--theta-hi", "--lambda-lo", "--lambda-hi")
TOLERANCE_FIELDS = frozenset(Tolerances.__dataclass_fields__)


def _add_sampling_flags(p: argparse.ArgumentParser, trials_default: int) -> None:
    p.add_argument("--trials", type=int, default=trials_default,
                   help=f"trials per suite (default {trials_default})")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed; RIESZ_SIP_SEED overrides")
    p.add_argument("--m", type=int, default=None,
                   help="fix the domain dimension (default: range "
                        f"[{DEFAULTS.m_lo}, {DEFAULTS.m_hi}])")
    p.add_argument("--n", type=int, default=None,
                   help="fix the codomain dimension (default: range "
                        f"[{DEFAULTS.n_lo}, {DEFAULTS.n_hi}])")


def _add_config_flags(p: argparse.ArgumentParser, only: tuple | None = None) -> None:
    for flag, name, kind in CONFIG_FLAGS:
        if only is None or flag in only:
            owner = DEFAULTS.tolerances if name in TOLERANCE_FIELDS else DEFAULTS
            p.add_argument(flag, dest=name, type=kind, default=getattr(owner, name))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="riesz-sip",
        description="Verification harness for lattice-valued semi-inner products.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run theorem suites")
    pv.add_argument("--theorems", default="all",
                    help="comma-separated subset of "
                         f"{{{','.join(THEOREMS)}}} or 'all'")
    _add_sampling_flags(pv, trials_default=10_000)
    _add_config_flags(pv)
    pv.add_argument("--report", default=None, help="write the JSON report here")
    pv.add_argument("--instances", default=None,
                    help="directory of instance JSON files injected into every "
                         "selected suite")

    po = sub.add_parser("oracle-study", help="oracle gap vs grid resolution")
    po.add_argument("--grids", default="100,1000,10000",
                    help="comma-separated grid sizes")
    _add_sampling_flags(po, trials_default=1000)
    _add_config_flags(po, STUDY_CONFIG_FLAGS)
    po.add_argument("--report", default=None, help="write the JSON report here")

    ps = sub.add_parser("shrink", help="minimize a failing instance")
    ps.add_argument("--instance", required=True,
                    help="instance or counterexample JSON file")
    ps.add_argument("--check", default=None,
                    help="check to shrink against; required for bare instances, "
                         "optional override for counterexample files")
    ps.add_argument("--out", default=None,
                    help="write the shrunk counterexample here (default stdout)")
    _add_config_flags(ps)
    return parser


def _sampling_from_args(args: argparse.Namespace) -> dict:
    """The TrialConfig fields set by the sampling flags and RIESZ_SIP_SEED."""
    seed = args.seed
    env = os.environ.get("RIESZ_SIP_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"RIESZ_SIP_SEED must be an integer, got {env!r}")
    fields = {"seed": seed, "trials": args.trials}
    if args.m is not None:
        fields.update(m_lo=args.m, m_hi=args.m)
    if args.n is not None:
        fields.update(n_lo=args.n, n_hi=args.n)
    return fields


def _config_from_args(args: argparse.Namespace, theorems: tuple) -> TrialConfig:
    """Config of the flags the command takes; every other field keeps its default."""
    given = vars(args)
    values = {name: given[name] for _, name, _ in CONFIG_FLAGS if name in given}
    tolerances = Tolerances(**{k: values.pop(k) for k in TOLERANCE_FIELDS & values.keys()})
    if "seed" in given:
        values.update(_sampling_from_args(args))
    return replace(DEFAULTS, tolerances=tolerances, theorems=theorems, **values)


def _parse_theorems(raw: str) -> tuple:
    if raw.strip() == "all":
        return THEOREMS
    return tuple(t.strip() for t in raw.split(",") if t.strip())


def _read_case(path) -> tuple:
    """read_case of a JSON file, every failure a ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return read_case(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}")


def _load_instances(directory: str) -> tuple:
    root = Path(directory)
    if not root.is_dir():
        raise ConfigError(f"--instances path is not a directory: {directory}")
    return tuple(_read_case(path)[0] for path in sorted(root.glob("*.json")))


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args, _parse_theorems(args.theorems))
    injected = _load_instances(args.instances) if args.instances else ()
    report = run_suite(config, injected=injected)
    if args.report:
        emit_report(report, args.report)
    for name in config.theorems:
        t = report.theorems[name]
        print(f"{name}: trials={t['trials']} passes={t['passes']} "
              f"failures={t['failures']} borderline={t['borderline']} "
              f"max_residual={t['max_residual']:.3e}")
    print("ok" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_oracle_study(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(g.strip()) for g in args.grids.split(",") if g.strip())
    except ValueError:
        raise ConfigError(f"--grids must be comma-separated integers: {args.grids!r}")
    config = _config_from_args(args, theorems=("oracle",))
    study = convergence_study(config, grid_sizes=sizes)
    if args.report:
        emit_report(study, args.report)
    for row in study.rows:
        print(f"grid={row['grid_size']}: box_times={row['box_times_gap']:.3e} "
              f"box_plus={row['box_plus_gap']:.3e} defect={row['defect_gap']:.3e}")
    print("ok" if study.ok else "FAIL")
    return 0 if study.ok else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    inst, theorem, stored = _read_case(args.instance)
    check = args.check or theorem
    if check is None:
        raise ConfigError("--check is required for bare instance files")
    # A counterexample is shrunk under the tolerances and grids it was
    # found with, as replay does; flags apply to bare instances only.
    config = stored if stored is not None else _config_from_args(args, theorems=(check,))
    small, res = shrink(inst, check, config)
    shrunk = counterexample(check, res, small.to_dict(), params_from_config(config))
    if args.out:
        write_json(shrunk, args.out)
    else:
        sys.stdout.write(report_to_json(shrunk))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle-study":
            return _cmd_oracle_study(args)
        return _cmd_shrink(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

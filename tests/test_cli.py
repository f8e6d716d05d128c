import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riesz_sip.cli import main
from riesz_sip.harness import ConfigError, Instance, replay_counterexample
from riesz_sip.sip import PsdFamilySip


def _write_asymmetric_instance(path):
    A = np.zeros((1, 2, 2))
    A[0, 0, 1] = 1.0
    inst = Instance(sip=PsdFamilySip(A, validate=False),
                    u=np.ones(1), x=np.ones(2), y=np.ones(2))
    path.write_text(json.dumps(inst.to_dict()))
    return inst


def test_verify_passes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--trials", "20", "--seed", "7",
                 "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("ok")
    assert "axioms:" in out and "parallelogram:" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["schema"] == "riesz-sip/1"
    assert report["config"]["trials"] == 20
    assert set(report["theorems"]) == {
        "axioms", "cs", "means", "vsn", "sharp", "additivity",
        "pythagoras", "parallelogram", "oracle",
    }


def test_verify_theorem_subset(capsys):
    code = main(["verify", "--trials", "10", "--theorems", "means,vsn"])
    assert code == 0
    out = capsys.readouterr().out
    assert "means:" in out and "vsn:" in out
    assert "axioms:" not in out


def test_verify_detects_injected_violation(capsys, tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    _write_asymmetric_instance(inst_dir / "bad.json")
    report_path = tmp_path / "report.json"
    code = main(["verify", "--trials", "5", "--theorems", "axioms",
                 "--instances", str(inst_dir), "--report", str(report_path)])
    assert code == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = json.loads(report_path.read_text())
    assert report["ok"] is False
    entry = report["theorems"]["axioms"]
    assert entry["trials"] == 6
    assert entry["failures"] == 1
    assert "symmetry" in entry["counterexamples"][0]["failed"]


def test_verify_accepts_counterexample_wrapper(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    inst = _write_asymmetric_instance(tmp_path / "scratch.json")
    wrapper = {"schema": "riesz-sip/1", "theorem": "axioms",
               "failed": ["symmetry"], "residuals": {},
               "instance": inst.to_dict()}
    (inst_dir / "ce.json").write_text(json.dumps(wrapper))
    code = main(["verify", "--trials", "2", "--theorems", "axioms",
                 "--instances", str(inst_dir)])
    capsys.readouterr()
    assert code == 1


def test_verify_config_errors(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    assert main(["verify", "--trials", "5", "--theorems", "bogus"]) == 2
    assert "error: unknown theorems: ['bogus']" in capsys.readouterr().err
    assert main(["verify", "--trials", "3", "--theorems", "cs,cs"]) == 2
    assert "error: duplicate theorems: ['cs']" in capsys.readouterr().err
    assert main(["verify", "--trials", "5", "--instances", "/nonexistent"]) == 2
    # a grid that would exhaust memory is refused before it is built
    assert main(["verify", "--trials", "5", "--theta-count", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_seed_env_override(capsys, tmp_path, monkeypatch):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    monkeypatch.setenv("RIESZ_SIP_SEED", "99")
    assert main(["verify", "--trials", "10", "--theorems", "means",
                 "--seed", "1", "--report", str(r1)]) == 0
    monkeypatch.delenv("RIESZ_SIP_SEED")
    assert main(["verify", "--trials", "10", "--theorems", "means",
                 "--seed", "99", "--report", str(r2)]) == 0
    capsys.readouterr()
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    assert d1["config"]["seed"] == 99
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("RIESZ_SIP_SEED", "notanint")
    assert main(["verify", "--trials", "5", "--theorems", "means"]) == 2
    assert "RIESZ_SIP_SEED" in capsys.readouterr().err


def test_fixed_dimension_flags(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--trials", "10", "--theorems", "cs",
                 "--m", "3", "--n", "2", "--report", str(report_path)])
    assert code == 0
    capsys.readouterr()
    config = json.loads(report_path.read_text())["config"]
    assert config["m_lo"] == config["m_hi"] == 3
    assert config["n_lo"] == config["n_hi"] == 2


def test_oracle_study_cli(capsys, tmp_path):
    report_path = tmp_path / "study.json"
    code = main(["oracle-study", "--trials", "10", "--grids", "64,256",
                 "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid=64:" in out and "grid=256:" in out
    study = json.loads(report_path.read_text())
    assert study["ok"] is True
    assert study["grid_sizes"] == [64, 256]
    assert main(["oracle-study", "--trials", "5", "--grids", "64,notanum"]) == 2
    assert main(["oracle-study", "--trials", "5", "--grids", "4,1000000000000"]) == 2


def test_shrink_cli_bare_instance(capsys, tmp_path):
    inst_path = tmp_path / "bad.json"
    _write_asymmetric_instance(inst_path)
    out_path = tmp_path / "small.json"
    code = main(["shrink", "--instance", str(inst_path), "--check", "axioms",
                 "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    small = json.loads(out_path.read_text())
    assert small["theorem"] == "axioms"
    assert "symmetry" in small["failed"]
    assert small["instance"]["m"] == 2
    assert small["instance"]["matrices"] == [[[0.0, 1.0], [0.0, 0.0]]]


def test_shrink_cli_counterexample_wrapper(capsys, tmp_path):
    inst = _write_asymmetric_instance(tmp_path / "scratch.json")
    ce_path = tmp_path / "ce.json"
    ce_path.write_text(json.dumps({
        "schema": "riesz-sip/1", "theorem": "axioms", "failed": ["symmetry"],
        "residuals": {}, "instance": inst.to_dict(),
    }))
    # check name comes from the wrapper; output goes to stdout
    code = main(["shrink", "--instance", str(ce_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["instance"]["n"] == 1


def test_shrink_keeps_counterexample_params(capsys, tmp_path):
    # fails only at the stored tolerance, so shrink must run under it and
    # write it back for the replay
    report_path = tmp_path / "report.json"
    assert main(["verify", "--trials", "10", "--theorems", "parallelogram",
                 "--tol-rel", "1e-17", "--report", str(report_path)]) == 1
    ce = json.loads(report_path.read_text())["theorems"]["parallelogram"]["counterexamples"][0]
    ce_path = tmp_path / "ce.json"
    ce_path.write_text(json.dumps(ce))
    out_path = tmp_path / "small.json"
    assert main(["shrink", "--instance", str(ce_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    small = json.loads(out_path.read_text())
    assert small["params"] == ce["params"]
    assert replay_counterexample(small).status == "fail"


# sha256 of the shrink output for each check that the asymmetric witness
# of test_report_bytes_are_pinned fails; refactors must leave them unchanged.
PINNED_SHRINK_SHA256 = {
    "axioms": "5d3859d2fb8c1d8f96ead663e4c37879d066a813e66d5a97e25b623f471e7e49",
    "means": "4acc82e47e5501385ef4799944eb21f18b5f2eef53a481c2a63b4e78e41a9509",
    "pythagoras": "94fcd565c292c8e1f455eb3cac865892af5dfeef2ece6ef28fd8c9aa1ef0773d",
}


@pytest.mark.parametrize("check", sorted(PINNED_SHRINK_SHA256))
def test_shrink_output_bytes_are_pinned(capsys, tmp_path, check):
    inst_path = tmp_path / "bad.json"
    _write_asymmetric_instance(inst_path)
    out_path = tmp_path / "small.json"
    assert main(["shrink", "--instance", str(inst_path), "--check", check,
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PINNED_SHRINK_SHA256[check]


SAMPLING = {"--trials", "--seed", "--m", "--n"}
GRIDS = {"--theta-lo", "--theta-hi", "--lambda-lo", "--lambda-hi"}
NOT_IN_STUDY = {"--tol-rel", "--cone-band", "--theta-count", "--angle-count", "--lambda-count"}
# (command, the flags it reads, the flags it does not take)
COMMAND_FLAGS = (
    ("verify", {"--theorems", "--report", "--instances", "--tol-abs"} | SAMPLING | GRIDS | NOT_IN_STUDY,
     set()),
    ("oracle-study", {"--grids", "--report", "--tol-abs"} | SAMPLING | GRIDS, NOT_IN_STUDY),
    ("shrink", {"--instance", "--check", "--out", "--tol-abs"} | GRIDS | NOT_IN_STUDY, SAMPLING),
)


@pytest.mark.parametrize("command, reads, removed", COMMAND_FLAGS,
                         ids=[c for c, _, _ in COMMAND_FLAGS])
def test_each_command_takes_only_the_flags_it_reads(capsys, command, reads, removed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == reads
    required = ["--instance", "unused.json"] if command == "shrink" else []
    for flag in sorted(removed):
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_shrink_ignores_seed_env(capsys, tmp_path, monkeypatch):
    inst_path = tmp_path / "bad.json"
    _write_asymmetric_instance(inst_path)
    monkeypatch.setenv("RIESZ_SIP_SEED", "x")
    assert main(["shrink", "--instance", str(inst_path), "--check", "axioms"]) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "axioms"


VALID_INSTANCE = '{"kind": "multiplication", "m": 1, "n": 1, "u": [1.0], "x": [1.0], "y": [1.0]}'


@pytest.mark.parametrize("content", [
    "[1, 2]", "3", '"text"', "null", '{"instance": [1, 2]}', '{"instance": {}}',
    '{"instance": %s, "theorem": ["axioms"], "params": {}}' % VALID_INSTANCE,
    '{"params": {"grids": {"theta_count": 100.5}}, "theorem": "oracle", "instance": %s}'
    % VALID_INSTANCE,
    '{"params": {"grids": {"theta_count": 1000000000000000}}, "theorem": "oracle", '
    '"instance": %s}' % VALID_INSTANCE,
    # dimensions that int() would truncate or coerce
    '{"kind": "multiplication", "m": 2.7, "n": 2.7, "u": [1, 1], "x": [1, 1], "y": [1, 1]}',
    '{"kind": "psd_family", "m": 1, "n": 1.5, "matrices": [[[1]]], "u": [1], "x": [1], "y": [1]}',
    '{"kind": "multiplication", "m": true, "n": 1, "u": [1], "x": [1], "y": [1]}',
    '{"kind": "multiplication", "m": "2", "n": "2", "u": [1, 1], "x": [1, 1], "y": [1, 1]}'])
def test_malformed_case_file_exits_2(capsys, tmp_path, content):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "f.json").write_text(content)
    assert main(["verify", "--trials", "2", "--theorems", "axioms",
                 "--instances", str(inst_dir)]) == 2
    assert main(["shrink", "--instance", str(inst_dir / "f.json"), "--check", "axioms"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot load") == 2 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "oracle-study", "shrink"])
def test_unwritable_output_exits_2(capsys, tmp_path, command):
    # exit 1 means a violation; a path that cannot be written is bad input
    out = str(tmp_path / "missing" / "out.json")
    inst_path = tmp_path / "bad.json"
    _write_asymmetric_instance(inst_path)
    argv = {"verify": ["verify", "--trials", "2", "--theorems", "axioms", "--report", out],
            "oracle-study": ["oracle-study", "--trials", "2", "--grids", "4,8", "--report", out],
            "shrink": ["shrink", "--instance", str(inst_path), "--check", "axioms",
                       "--out", out]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err and "Traceback" not in err


# Grid ranges as CLI values and as JSON numbers (1e309 reads as inf). The
# last is finite and ordered, yet holds too few floats for its points to
# increase strictly, so only building the grid can find it.
UNBUILDABLE_GRIDS = (
    {"theta_hi": "1e309"},
    {"lambda_hi": "1e309"},
    {"theta_lo": "1", "theta_hi": "1.0000000000000002"},
)


@pytest.mark.parametrize("grids", UNBUILDABLE_GRIDS)
@pytest.mark.parametrize("command", ["verify", "oracle-study", "shrink", "replay"])
def test_unbuildable_grid_is_a_config_error(capsys, tmp_path, command, grids):
    flags = [arg for k, v in grids.items() for arg in (f"--{k.replace('_', '-')}", v)]
    stored = ", ".join(f'"{k}": {v}' for k, v in grids.items())
    ce_path = tmp_path / "ce.json"
    ce_path.write_text('{"theorem": "oracle", "params": {"grids": {%s}}, "instance": %s}'
                       % (stored, VALID_INSTANCE))
    if command == "replay":
        with pytest.raises(ConfigError):
            replay_counterexample(json.loads(ce_path.read_text()))
        return
    argv = {"verify": ["verify", "--trials", "2", *flags],
            "oracle-study": ["oracle-study", "--trials", "2", "--grids", "4,8", *flags],
            "shrink": ["shrink", "--instance", str(ce_path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_shrink_cli_errors(capsys, tmp_path):
    inst_path = tmp_path / "good.json"
    inst_path.write_text(json.dumps({
        "kind": "multiplication", "m": 2, "n": 2,
        "u": [1.0, 1.0], "x": [1.0, 2.0], "y": [3.0, 4.0],
    }))
    # passing instance: nothing to shrink
    assert main(["shrink", "--instance", str(inst_path),
                 "--check", "axioms"]) == 2
    # bare instance without --check
    assert main(["shrink", "--instance", str(inst_path)]) == 2
    # unknown check name
    assert main(["shrink", "--instance", str(inst_path),
                 "--check", "bogus"]) == 2
    # unreadable file
    assert main(["shrink", "--instance", str(tmp_path / "missing.json"),
                 "--check", "axioms"]) == 2
    capsys.readouterr()


def _without_wall_time(path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return data


def test_consecutive_commands_in_one_process_act_as_fresh_ones(capsys, tmp_path):
    # main builds its parser once per process: commands run one after
    # another in one process print, exit and write what each does alone
    inst_path = tmp_path / "bad.json"
    _write_asymmetric_instance(inst_path)
    commands = [
        ["verify", "--trials", "4", "--seed", "3", "--theorems", "cs,means",
         "--report", "{out}"],
        ["oracle-study", "--trials", "3", "--grids", "16,64", "--report", "{out}"],
        ["shrink", "--instance", str(inst_path), "--check", "axioms", "--out", "{out}"],
        ["verify", "--trials", "2", "--theorems", "bogus"],
        ["verify", "--trials", "4", "--seed", "5", "--report", "{out}"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    fresh, together = [], []
    for i, argv in enumerate(commands):
        out = tmp_path / f"fresh{i}.json"
        proc = subprocess.run([sys.executable, "-m", "riesz_sip.cli",
                               *(a.format(out=out) for a in argv)],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      _without_wall_time(out) if out.exists() else None))
    capsys.readouterr()
    for i, argv in enumerate(commands + commands):
        out = tmp_path / f"together{i}.json"
        code = main([a.format(out=out) for a in argv])
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err,
                         _without_wall_time(out) if out.exists() else None))
    assert together == fresh + fresh


def test_console_script_entry_point():
    # the package is imported from the checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "riesz_sip.cli", "verify",
         "--trials", "5", "--theorems", "means"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("ok")


def test_package_imports_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, riesz_sip, riesz_sip.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

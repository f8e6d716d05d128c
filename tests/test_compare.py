"""tools/compare.py on its tiny corpus: a tree against itself, a doctored digest and kept outputs."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare.py"
spec = importlib.util.spec_from_file_location("compare", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def compare(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          stdout=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def digested(tmp_path_factory) -> Path:
    """Two digests of the tiny corpus, first.json and second.json, kept in first/ and second/."""
    tmp = tmp_path_factory.mktemp("compare")
    for run in ("first", "second"):
        assert compare("digest", ROOT, "--tiny", "--out", tmp / f"{run}.json",
                       "--keep", tmp / run).returncode == 0
    return tmp


def test_a_tree_against_itself_differs_nowhere_and_a_doctored_digest_is_named(digested,
                                                                              tmp_path):
    first, second = digested / "first.json", tmp_path / "second.json"
    digests = json.loads(first.read_text())
    kinds = {name.split("/")[0] for name in digests} | {
        name.rsplit("/", 1)[1] for name in digests if "/" in name}
    assert {"report", "triage", "triage-group", "fallback", "fallback-class", "mixed-domain",
            "study", "replay", "shrink"} <= kinds

    same = compare("diff", first, digested / "second.json")
    assert same.returncode == 0
    assert same.stdout == f"{len(digests)} outputs, 0 differing or missing\n"

    shrink = next(name for name in sorted(digests) if name.endswith("/shrink"))
    dropped = sorted(digests)[0]
    digests[shrink] = "0" * 64
    del digests[dropped]
    second.write_text(json.dumps(digests))
    doctored = compare("diff", first, second)
    assert doctored.returncode == 1
    assert sorted(doctored.stdout.splitlines()[:-1]) == sorted(
        [f"differs: {shrink}", f"missing in new: {dropped}"])


def test_kept_outputs_are_the_digested_texts_and_a_tree_against_itself_moves_nothing(digested):
    digests = json.loads((digested / "first.json").read_text())
    texts = tool.kept(digested / "first")
    assert texts.keys() == digests.keys()
    assert all(tool._sha(text) == digests[name] for name, text in texts.items())
    same = compare("diff", digested / "first", digested / "second")
    assert same.returncode == 0
    assert same.stdout == f"{len(digests)} outputs, 0 differing or missing\n"


def test_diff_of_kept_outputs_sorts_value_moves_from_verdict_moves(digested, tmp_path):
    old, new = digested / "first", tmp_path / "new"
    shutil.copytree(old, new)
    name = "report/seed=0,trials=8"
    report = json.loads((new / f"{name}.json").read_text())
    cs = report["theorems"]["cs"]
    cs["max_residual"] *= 1 + 1e-12
    (new / f"{name}.json").write_text(json.dumps(report))

    nudged = compare("diff", old, new)
    assert nudged.returncode == 1
    lines = nudged.stdout.splitlines()
    assert lines[0] == f"differs: {name}"
    assert lines[1].endswith(" outputs, 1 differing or missing")
    assert lines[2:4] == ["1 outputs with value moves only, 0 with verdict moves",
                          "value moves (field, outputs, largest relative change):"]
    field, outputs, largest = lines[4].split()
    assert (field, outputs) == ("theorems/cs/max_residual", "1")
    assert 0.5e-12 < float(largest) < 2e-12
    assert len(lines) == 5

    cs["worst_instance"]["failed"] = cs["worst_instance"]["failed"] + ["defect_gap"]
    (new / f"{name}.json").write_text(json.dumps(report))
    both = compare("diff", old, new).stdout.splitlines()
    assert both[2] == "0 outputs with value moves only, 1 with verdict moves"
    assert both[-2:] == ["verdict moves (output: field):",
                         f"  {name}: theorems/cs/worst_instance/failed"]


def test_a_float_moved_to_or_from_nan_beside_a_zero_is_an_infinite_value_move():
    # max(|old|, |new|) is 0.0 for a move from 0.0 to NaN: the change is
    # inf, not a division by zero
    old = {"theorems": {"sharp": {"max_residual": 0.0, "worst": [1.0, float("nan")]}}}
    new = {"theorems": {"sharp": {"max_residual": float("nan"), "worst": [1.0, 0.0]}}}
    assert list(tool.moves(old, new)) == [(("theorems", "sharp", "max_residual"), math.inf),
                                          (("theorems", "sharp", "worst", 1), math.inf)]
    assert tool.what_moved({"r": json.dumps(old)}, {"r": json.dumps(new)}, ["r"]) == [
        "1 outputs with value moves only, 0 with verdict moves",
        "value moves (field, outputs, largest relative change):",
        "  theorems/sharp/max_residual  1  inf",
        "  theorems/sharp/worst/*  1  inf"]


def test_diff_of_a_missing_path_or_a_directory_beside_a_digest_is_an_error(digested, tmp_path):
    for old, new in ((tmp_path / "none.json", digested / "first.json"),
                     (digested / "first", tmp_path / "none"),
                     (digested / "first", digested / "second.json"),
                     (digested / "first.json", digested / "second")):
        run = subprocess.run([sys.executable, str(TOOL), "diff", str(old), str(new)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert run.returncode == 2, (old, new)
        assert "error: " in run.stderr and "Traceback" not in run.stderr, run.stderr
        assert run.stdout == ""

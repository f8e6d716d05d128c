"""tools/compare.py on its tiny corpus: a tree against itself, and a doctored digest."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare.py"


def compare(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          stdout=subprocess.PIPE, text=True)


def test_a_tree_against_itself_differs_nowhere_and_a_doctored_digest_is_named(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for out in (first, second):
        assert compare("digest", ROOT, "--tiny", "--out", out).returncode == 0
    digests = json.loads(first.read_text())
    kinds = {name.split("/")[0] for name in digests} | {
        name.rsplit("/", 1)[1] for name in digests if "/" in name}
    assert {"report", "triage", "triage-group", "fallback", "fallback-class", "mixed-domain",
            "study", "replay", "shrink"} <= kinds

    same = compare("diff", first, second)
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

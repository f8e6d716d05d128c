"""tools/ab.py on its tiny probes: a tree against itself prints one line per probe."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


def test_a_tree_against_itself_prints_one_line_per_probe():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny"],
                         stdout=subprocess.PIPE, text=True)
    assert run.returncode == 0
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["verify", "study", "shrink"]
    for line in lines:
        assert re.fullmatch(r"\w+: median new/old \d+\.\d{3}, new faster in [012]/2 rounds",
                            line), line

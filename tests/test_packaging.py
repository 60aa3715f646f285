import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "quadconc", *args], capture_output=True, text=True,
    )


def test_module_entry_point(tmp_path):
    # the unit square, then a 5,000-digit one: each runs in a fresh process,
    # where no earlier ``main`` has lifted the interpreter's 4,300-digit
    # limit, so ``main`` has to lift it itself
    for side in ("1", "1" + "0" * 4999):
        doc = {
            "vertices": {"A": ["0", "0"], "B": [side, "0"], "C": [side, side],
                         "D": ["0", side]},
            "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run(["verify", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["overall"] in ("pass", "degenerate")


def test_no_ignored_file_is_tracked():
    # a generated or ignored file that is committed anyway (a build
    # artefact, a run log) goes stale the moment its source changes
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("needs a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=REPO, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == ""

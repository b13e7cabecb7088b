"""The experiment scripts still run against the library (tiny arguments, exit 0)."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--per-class", "30", "--held-out", "10", "--iters", "10", "--batch-size", "5"]


@pytest.mark.parametrize(
    "script, extra, expect",
    [
        ("overfit_experiment.py", ["--seeds", "1"], "mean auc"),
    ],
)
def test_script_runs(tmp_path, script, extra, expect):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *TINY, *extra],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout

"""Every demo runs to completion, as a user would run it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import cveminer

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_runs(tmp_path):
    demos = tmp_path / "demos"  # the demos write only beside themselves
    shutil.copytree(DEMOS, demos, ignore=shutil.ignore_patterns("output", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(Path(cveminer.__file__).parents[1]))
    scripts = sorted(demos.glob("0*.py"))
    assert len(scripts) == 5
    for script in scripts:
        proc = subprocess.run([sys.executable, str(script)], cwd=demos, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr[-2000:]}"

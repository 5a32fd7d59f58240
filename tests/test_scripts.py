import os
import subprocess
import sys
from pathlib import Path

import fracdual as fd

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(tmp_path, script, *args):
    src = str(Path(fd.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})


def test_scripts_run(tmp_path):
    done = _run(tmp_path, "landscape_demo.py", "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    profile = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    landscape = (tmp_path / "out" / "landscape.csv").read_text().splitlines()
    assert profile[0] == "mu,dual_value,certificate" and len(profile) == 65
    assert landscape[0] == "varsigma,sigma,dual_value" and len(landscape) == 1601

    done = _run(tmp_path, "random_battery.py", "--count", "2")
    assert done.returncode == 0, done.stderr
    assert "oracle comparisons: 2" in done.stdout

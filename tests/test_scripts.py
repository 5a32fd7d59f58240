import importlib.util
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


_DIGEST = """\
mixed 1006 P0 0x1.8p-3 cert None x 0x1.0p+0 lb 0x1.0p-3
  text 00 result 00
  mu 0x1.0p+0 note - p0 0x1.9p-3 cert Perfect n_iter 4 status InteriorCritical d 0x0p+0 0x0p+0 min_pivot 0x1.0p+0
  mu 0x1.2p+0 note Polished p0 0x1.8p-3 cert None n_iter 9 status NearPDBoundary d 0x0p+0 0x0p+0 min_pivot 0x1.0p-30
mixed 1007 P0 0x1.0p-3 cert Perfect x 0x1.0p+0 lb 0x1.0p-3
  text 00 result 00
  mu 0x1.0p+0 note - p0 0x1.0p-3 cert Perfect n_iter 4 status InteriorCritical d 0x0p+0 0x0p+0 min_pivot 0x1.0p+0
  mu 0x1.2p+0 note Polished p0 0x1.1p-3 cert None n_iter 9 status NearPDBoundary d 0x0p+0 0x0p+0 min_pivot 0x1.0p-30
large-n 1000 P0 0x1.0p+0 cert Perfect x 0x1.0p+0 lb 0x1.0p+0
  text 00 result 00
  mu 0x1.0p+0 note - p0 0x1.0p+0 cert Perfect n_iter 4 status InteriorCritical d 0x0p+0 0x0p+0 min_pivot 0x1.0p+0
sha256 00
"""


def test_answer_digest_counts_the_answers_that_are_polished_slices(monkeypatch):
    # an answer is a polish win when a Polished slice carries its P0; 1007's
    # Polished slice lost to a Perfect one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("answer_digest", SCRIPTS / "answer_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest._polish_wins(_DIGEST.splitlines()) == {"mixed": [1006], "large-n": []}

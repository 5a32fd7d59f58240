import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fracdual as fd
from fracdual import dual, solver

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


def _answer_digest(monkeypatch):
    """scripts/answer_digest.py as a module (it pins BLAS to one thread)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("answer_digest", SCRIPTS / "answer_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_answer_digest_counts_the_answers_that_are_polished_slices(monkeypatch):
    # an answer is a polish win when a Polished slice carries its P0; 1007's
    # Polished slice lost to a Perfect one
    digest = _answer_digest(monkeypatch)
    assert digest._polish_wins(_DIGEST.splitlines()) == {"mixed": [1006], "large-n": []}


def test_answer_digest_lists_a_bound_above_the_answer(monkeypatch, capsys):
    digest = _answer_digest(monkeypatch)
    lines = _DIGEST.splitlines()
    assert digest.against(lines, lines, fd.SolverOptions()) == 0
    # mixed 1007's LB at its P0 (0x1.0p-3) plus 2 ulps is within 1e-12*(1 + |P0|),
    # at P0 + 1e-9 it is not; this run's bound is read, not the digest's
    for lb, listed in (("0x1.0000000000002p-3", 0), ((0.125 + 1e-9).hex(), 1)):
        new = [line.replace("lb 0x1.0p-3", f"lb {lb}") if line.startswith("mixed 1007") else line
               for line in lines]
        assert digest.against(lines, new, fd.SolverOptions()) == listed
        assert digest.against(new, lines, fd.SolverOptions()) == 0
        out = capsys.readouterr().out.splitlines()
        above = [line for line in out if "above P0" in line]
        assert above == ([f"mixed 1007: LB {float.fromhex(lb)!r} above P0 0.125"] if listed else [])


def test_answer_digest_counts_the_choleskys_of_each_side(monkeypatch, capsys):
    digest = _answer_digest(monkeypatch)
    # the tally binds and wraps dual's potrf handle; monkeypatch puts it back afterwards
    dual._bind_lapack()
    monkeypatch.setattr(dual, "_potrf", dual._potrf)
    tally = digest.CholeskyTally(np, dual)
    text = fd.serialize_instance(fd.generate_program(3, 2, seed=1022))
    lines = list(digest.instance_lines(fd, "mixed", 1022, text, tally))
    dual._potrf(-np.eye(2), lower=1)  # outside a solve: not counted
    with tally.counting("mixed"):
        assert dual._potrf(-np.eye(2), lower=1)[1] > 0
    definite, failed = tally.counts["mixed"]
    res = fd.solve(fd.parse_instance(text))
    assert definite >= sum(s.solution.n_iter for s in res.mu_profile if s.solution) > 0
    assert failed > 1
    assert list(tally.lines()) == [f"cholesky mixed definite {definite} failed {failed}"]
    assert not any(line.startswith("cholesky") for line in lines)

    # a solver without the potrf handle is counted at numpy's cholesky
    monkeypatch.setattr(np.linalg, "cholesky", np.linalg.cholesky)
    numpy_tally = digest.CholeskyTally(np, types.SimpleNamespace())
    np.linalg.cholesky(np.eye(2))  # outside a solve: not counted
    with numpy_tally.counting("large-n"):
        np.linalg.cholesky(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(-np.eye(2))
    assert list(numpy_tally.lines()) == ["cholesky large-n definite 1 failed 1"]

    # --against reads the digest's counts after its sha256 line, "-" when absent
    old = _DIGEST.splitlines() + ["cholesky mixed definite 7 failed 3"]
    new = _DIGEST.splitlines()[:-1] + ["cholesky mixed definite 7 failed 1",
                                        "cholesky large-n definite 2 failed 0"]
    assert digest.against(old, new, fd.SolverOptions()) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mixed: Cholesky definite DIGEST 7, this run 7; failed DIGEST 3, this run 1" in out
    assert "large-n: Cholesky definite DIGEST -, this run 2; failed DIGEST -, this run 0" in out
    assert out[-1] == "listed: 0"


def test_answer_digest_counts_the_pencil_verdicts_of_each_side(monkeypatch, capsys):
    digest = _answer_digest(monkeypatch)
    # a spy under the tally's wrapper; monkeypatch puts both back afterwards
    verdict, spied = solver.pencil_indefinite, []

    def spy(*args):
        spied.append(args)
        return verdict(*args)

    monkeypatch.setattr(solver, "pencil_indefinite", spy)
    dual._bind_lapack()
    monkeypatch.setattr(dual, "_potrf", dual._potrf)
    tallies = (digest.CholeskyTally(np, dual), digest.VerdictTally(solver))
    prog = fd.generate_program(3, 2, seed=1022)
    lines = list(digest.instance_lines(fd, "mixed", 1022, fd.serialize_instance(prog), *tallies))
    solver.pencil_indefinite(prog, 0.0, 0.0)  # outside a solve: not counted
    asked = tallies[1].counts["mixed"]
    assert 0 < asked == len(spied) - 1
    assert tallies[0].counts["mixed"][1] > 0
    assert list(tallies[1].lines()) == [f"pencil mixed verdicts {asked}"]
    assert not any(line.startswith("pencil") for line in lines)

    # a solver without the verdict counts nothing and prints "-"
    absent = digest.VerdictTally(types.SimpleNamespace())
    with absent.counting("large-n"):
        pass
    assert list(absent.lines()) == ["pencil large-n verdicts -"]

    # --against prints both sides' counts, "-" when a side has none
    old = _DIGEST.splitlines() + ["pencil mixed verdicts 12"]
    new = _DIGEST.splitlines() + ["pencil mixed verdicts 20", "pencil large-n verdicts -"]
    assert digest.against(old, new, fd.SolverOptions()) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mixed: pencil verdicts DIGEST 12, this run 20" in out
    assert "large-n: pencil verdicts DIGEST -, this run -" in out
    assert out[-1] == "listed: 0"


def test_answer_digest_counts_the_dual_evaluations_of_each_side(monkeypatch, capsys):
    digest = _answer_digest(monkeypatch)
    # a spy under the tally's wrapper; monkeypatch puts both back afterwards
    evaluate, spied = solver.evaluate_dual, []

    def spy(*args, **kwargs):
        spied.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "evaluate_dual", spy)
    tally = digest.EvaluationTally(solver)
    prog = fd.generate_program(3, 2, seed=1022)
    lines = list(digest.instance_lines(fd, "mixed", 1022, fd.serialize_instance(prog), tally))
    solver.evaluate_dual(prog, fd.find_start(prog, prog.mu0))  # outside a solve: not counted
    evaluations = tally.counts["mixed"]
    assert 0 < evaluations == len(spied) - 1
    # every ascent iteration evaluates its point: the start, and each accepted step
    res = fd.solve(prog)
    assert evaluations >= sum(s.solution.n_iter for s in res.mu_profile if s.solution)
    assert list(tally.lines()) == [f"evaluate mixed {evaluations}"]
    assert not any(line.startswith("evaluate") for line in lines)

    # a solver without evaluate_dual counts nothing and prints "-"
    absent = digest.EvaluationTally(types.SimpleNamespace())
    with absent.counting("large-n"):
        pass
    assert list(absent.lines()) == ["evaluate large-n -"]

    # --against prints both sides' counts, "-" when a side has none
    old = _DIGEST.splitlines() + ["evaluate mixed 12"]
    new = _DIGEST.splitlines() + ["evaluate mixed 20", "evaluate large-n -"]
    assert digest.against(old, new, fd.SolverOptions()) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mixed: dual evaluations DIGEST 12, this run 20" in out
    assert "large-n: dual evaluations DIGEST -, this run -" in out
    assert out[-1] == "listed: 0"

import json

import numpy as np
import pytest

import fracdual as fd
from fracdual import cli, solver
from fracdual.cli import main

from conftest import REFERENCE_MU, REFERENCE_P0, make_gap_case, make_reference


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(fd.serialize_instance(make_reference()))
    return path


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(fd.serialize_instance(make_gap_case()))
    return path


class TestSolve:
    def test_certified_solve_exits_zero(self, reference_file, capsys):
        code = main(["solve", str(reference_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate=Perfect" in out
        assert "global_gap=" in out
        result_path = reference_file.with_suffix(".result.json")
        assert result_path.exists()
        data = json.loads(result_path.read_text())
        assert data["primal_value"] == pytest.approx(REFERENCE_P0, abs=1e-6)
        assert data["certificate_kind"] == "Perfect"

    def test_explicit_output_path(self, reference_file, tmp_path):
        out = tmp_path / "custom.json"
        assert main(["solve", str(reference_file), "--output", str(out)]) == 0
        assert out.exists()

    def test_uncertified_solve_exits_one(self, gap_file, capsys):
        code = main(["solve", str(gap_file)])
        assert code == 1
        assert "certificate=None" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_instance_exits_two(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        payload = fd.instance_payload(make_reference())
        payload["delta"] = 5.0
        path.write_text(fd.canonical_text(payload))
        assert main(["solve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_starting_point_at_any_mu_exits_two(self, reference_file, capsys, monkeypatch):
        def no_start(prog, mu, btb):
            raise fd.NoStartingPointError(f"no definite dual point found at mu={mu:.6g}")

        monkeypatch.setattr(solver, "_start", no_start)
        assert main(["solve", str(reference_file)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not reference_file.with_suffix(".result.json").exists()


class TestVerify:
    def test_agreement_exits_zero(self, reference_file, capsys):
        code = main(["verify", str(reference_file)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_disagreement_exits_one(self, reference_file, capsys, monkeypatch):
        # bias the solver result past the tolerance so the comparison
        # branch and exit code are exercised deterministically
        import dataclasses

        real_solve = cli.solve

        def biased(prog, opts=None):
            res = real_solve(prog, opts)
            return dataclasses.replace(res, P0_value=res.P0_value + 0.05)

        monkeypatch.setattr(cli, "solve", biased)
        code = main(["verify", str(reference_file)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_feasible_grid_cell_is_inconclusive(self, tmp_path, capsys):
        # a feasible set about 7e-4 wide, thinner than the 1e-3 grid spacing
        path = tmp_path / "thin.json"
        assert main(["gen", "--n", "2", "--m", "1", "--seed", "2029",
                     "--conditioning", "1e6", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INCONCLUSIVE: no feasible grid cell at resolution 0.001" in out
        assert "FAIL" not in out and "PASS" not in out

    def test_dimension_too_large_exits_two(self, tmp_path, capsys, monkeypatch):
        # the reference refuses n = 4 before anything is solved
        path = tmp_path / "big.json"
        assert main(["gen", "--n", "4", "--seed", "7", "--output", str(path)]) == 0

        def no_solve(prog, opts=None):
            raise AssertionError("verify solved an instance the reference refuses")

        monkeypatch.setattr(cli, "solve", no_solve)
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_too_fine_exits_two(self, tmp_path, capsys):
        path = tmp_path / "n1.json"
        assert main(["gen", "--n", "1", "--m", "1", "--seed", "3", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), "--resolution", "1e-30"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "grid cells" in captured.err
        assert captured.out == ""

    def test_generated_instance_verifies(self, tmp_path):
        path = tmp_path / "n2.json"
        assert main(["gen", "--n", "2", "--m", "0", "--seed", "1",
                     "--output", str(path)]) == 0
        assert main(["verify", str(path), "--resolution", "2e-3"]) == 0


class TestGen:
    def test_stdout_output_parses(self, capsys):
        assert main(["gen", "--n", "3", "--seed", "5"]) == 0
        prog = fd.parse_instance(capsys.readouterr().out)
        assert prog.n == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--n", "2", "--seed", "42", "--output", str(a)])
        main(["gen", "--n", "2", "--seed", "42", "--output", str(b)])
        assert a.read_text() == b.read_text()

    def test_bad_arguments_exit_two(self, capsys):
        assert main(["gen", "--n", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_profile_rows(self, reference_file, capsys):
        code = main(["sweep", str(reference_file), "--grid", "32"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,dual_value,certificate"
        assert len(lines) == 33
        rows = [line.split(",") for line in lines[1:]]
        mus = [float(r[0]) for r in rows]
        vals = [float(r[1]) for r in rows]
        assert mus[0] == pytest.approx(1.0)
        assert mus[-1] == pytest.approx(2.0)
        # the profile dips near the true best parameter, far from the edges
        best = mus[int(np.argmin(vals))]
        assert best == pytest.approx(REFERENCE_MU, abs=0.05)
        assert all(r[2] in {"Perfect", "WeakOnly", "None"} for r in rows)

    def test_profile_to_file(self, reference_file, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["sweep", str(reference_file), "--grid", "8",
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("mu,dual_value,certificate\n")

    def test_landscape_grid(self, reference_file, capsys):
        code = main(["sweep", str(reference_file), "--at-mu", "2.0",
                     "--landscape", "6x5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "varsigma,sigma,dual_value"
        assert len(lines) == 31
        for line in lines[1:]:
            vs, sg, val = line.split(",")
            float(vs), float(sg)
            assert val == "nonPD" or np.isfinite(float(val))

    def test_landscape_marks_nonpd_cells(self, gap_file, capsys):
        code = main(["sweep", str(gap_file), "--at-mu", "3.0",
                     "--landscape", "8x8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nonPD" in out

    def test_degenerate_interval_single_row(self, tmp_path, capsys):
        path = tmp_path / "point.json"
        path.write_text(fd.serialize_instance(make_reference(delta=1.0)))
        assert main(["sweep", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing instance argument
    assert exc.value.code == 2


def test_landscape_without_a_mu_is_a_usage_error(reference_file, capsys):
    # a landscape is a slice at one mu: without --at-mu there is none to draw
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(reference_file), "--landscape", "3x3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--landscape needs --at-mu" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize("grid", ["0", "-1"])
def test_nonpositive_grid_is_a_usage_error(reference_file, command, grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(reference_file), "--grid", grid])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not reference_file.with_suffix(".result.json").exists()


@pytest.mark.parametrize("resolution", ["0", "nan", "-1", "inf"])
def test_bad_resolution_is_a_usage_error(reference_file, resolution, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(reference_file), "--resolution", resolution])
    assert exc.value.code == 2
    assert "positive finite" in capsys.readouterr().err


@pytest.mark.parametrize("conditioning", ["nan", "inf", "0.5", "x"])
def test_bad_conditioning_is_a_usage_error(conditioning, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--conditioning", conditioning])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert ">= 1" in captured.err
    assert captured.out == ""


# The solver's tolerances and the polish seed are fixed, and only sweep
# sets the grid, so every one of these flags is unknown to its subcommand.
@pytest.mark.parametrize(
    "flag, value, command",
    [
        (flag, value, command)
        for command in ("solve", "verify", "sweep")
        for flag, value in [
            ("--max-iter", "0"),
            ("--max-iter", "-5"),
            ("--tol-gap", "nan"),
            ("--tol-gap", "-1"),
            ("--tol-grad", "inf"),
            ("--tol-grad", "0"),
            ("--seed", "1"),
        ]
    ]
    + [
        (flag, value, command)
        for command in ("solve", "verify")
        for flag, value in [("--grid", "0"), ("--grid", "-1"), ("--grid", "8")]
    ]
    + [("--refine-rounds", "3", "solve")],
)
def test_invalid_solver_flag_is_a_usage_error(reference_file, command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(reference_file), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not reference_file.with_suffix(".result.json").exists()

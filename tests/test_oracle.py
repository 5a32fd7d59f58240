import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracdual as fd

from conftest import (
    GAP_CASE_MIN,
    REFERENCE_P0,
    REFERENCE_X,
    make_reference,
)


def test_bounding_box_encloses_feasible_interval(reference):
    lo, hi = fd.bounding_box(reference)
    # region is 2(x-1)^2 <= 1, i.e. [1 - sqrt(1/2), 1 + sqrt(1/2)], inflated 1%
    half = np.sqrt(0.5) * 1.01
    assert_allclose(lo, [1.0 - half], rtol=1e-12)
    assert_allclose(hi, [1.0 + half], rtol=1e-12)


def test_bounding_box_shrinks_with_level(reference):
    lo1, hi1 = fd.bounding_box(reference, mu=2.0)
    lo2, hi2 = fd.bounding_box(reference, mu=1.2)
    assert lo2 > lo1 and hi2 < hi1


def test_reference_minimum(reference):
    report = fd.grid_minimize_objective(reference)
    assert report.min_value == pytest.approx(REFERENCE_P0, abs=1e-9)
    assert report.argmin[0] == pytest.approx(REFERENCE_X, abs=1e-6)
    assert report.n_evals > 100_000
    assert fd.is_feasible(reference, report.argmin)
    assert fd.eval_objective(reference, report.argmin) == report.min_value


def test_singleton_region(reference):
    # the region degenerates to one point, which the grid may miss; the
    # margin-peak fallback still reports a finite value there
    prog = make_reference(delta=1.0)
    report = fd.grid_minimize_objective(prog)
    assert report.min_value == pytest.approx(1.125, abs=1e-4)
    assert report.argmin[0] == pytest.approx(1.0, abs=1e-3)


def test_report_says_when_no_grid_cell_is_feasible(reference):
    assert fd.grid_minimize_objective(reference).grid_feasible
    # about 7e-4 wide along x2, so the default 1e-3 grid has no feasible cell
    prog = fd.generate_program(2, 1, seed=2029, conditioning=1e6)
    report = fd.grid_minimize_objective(prog)
    assert not report.grid_feasible
    assert_allclose(report.argmin, prog.x_center)
    assert report.n_evals == 1
    assert fd.grid_minimize_objective(prog, resolution=1e-4).grid_feasible


def test_unresolved_reference_is_an_upper_check_only():
    # at conditioning 1e6 the default grid reports the margin peak (1.37763),
    # far above the feasible point the solver finds (1.14780)
    prog = fd.generate_program(2, 1, seed=2029, conditioning=1e6)
    res = fd.solve(prog)
    report = fd.grid_minimize_objective(prog)
    assert fd.is_feasible(prog, res.x_star)
    assert res.P0_value <= report.min_value
    assert_allclose([res.P0_value, report.min_value], [1.14780, 1.37763], atol=1e-5)


def test_minimum_does_not_undercut_the_solver_bound():
    # the minimizer is on the boundary; grid points that the feasibility
    # slack would admit just outside the region lie below the true minimum
    prog = fd.generate_program(1, 0, seed=544)
    lower = fd.solve(prog).global_lower_bound
    report = fd.grid_minimize_objective(prog)
    assert report.min_value >= lower - 1e-12 * (1.0 + abs(lower))
    assert fd.eval_terms(prog, report.argmin)[2] >= prog.delta
    assert fd.eval_objective(prog, report.argmin) == report.min_value


def test_subproblem_minima(reference):
    # the bottom level set is a single point, see test_singleton_region
    at_bottom = fd.grid_minimize_subproblem(reference, 1.0)
    assert at_bottom.min_value == pytest.approx(1.125, abs=1e-4)
    assert at_bottom.argmin[0] == pytest.approx(1.0, abs=1e-3)
    at_top = fd.grid_minimize_subproblem(reference, 2.0)
    assert at_top.min_value == pytest.approx(1.0018398282201788, abs=1e-6)
    assert at_top.argmin[0] == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-4)


def test_gap_case_true_minimum(gap_case):
    report = fd.grid_minimize_objective(gap_case)
    assert report.min_value == pytest.approx(GAP_CASE_MIN, abs=1e-4)
    # two symmetric minimizers; ties resolve to the lexicographically
    # first grid point, which has negative first coordinate
    assert report.argmin[0] < 0
    assert report.argmin[1] == pytest.approx(-0.74, abs=5e-3)


def test_dimension_guard():
    prog = fd.generate_program(4, 1, seed=7)
    with pytest.raises(fd.DimensionTooLargeError):
        fd.grid_minimize_objective(prog)


def test_grid_size_guard(reference):
    # 1e30 cells along the one axis: refused before any axis is built
    with pytest.raises(fd.DimensionTooLargeError, match="grid cells"):
        fd.grid_minimize_objective(reference, resolution=1e-30)


def test_resolution_override_is_deterministic(reference):
    a = fd.grid_minimize_objective(reference, resolution=1e-3)
    b = fd.grid_minimize_objective(reference, resolution=1e-3)
    assert a.min_value == b.min_value
    assert np.array_equal(a.argmin, b.argmin)
    assert a.resolution == 1e-3


def test_coarse_grid_is_still_close(reference):
    coarse = fd.grid_minimize_objective(reference, resolution=1e-2)
    assert coarse.min_value == pytest.approx(REFERENCE_P0, abs=1e-4)


def test_oracle_beats_center_value():
    for seed in range(6):
        prog = fd.generate_program(2, 1, seed=seed)
        report = fd.grid_minimize_objective(prog, resolution=5e-3)
        center_value = fd.eval_objective(prog, prog.x_center)
        assert report.min_value <= center_value + 1e-12

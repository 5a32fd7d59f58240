import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve, solve_triangular

import fracdual as fd
from fracdual import dual, solver
from fracdual.dual import DualPoint
from fracdual.problem import gram

from conftest import make_reference


def P(mu, vs, sg):
    return DualPoint(mu, vs, sg)


# The line search's step fractions 2^-k as a column: row k of
# np.maximum(d + _HALVINGS * step, lo) is the search's trial k.
_HALVINGS = np.ldexp(1.0, -np.arange(60))[:, None]


class TestCurvature:
    def test_reduces_to_quad_matrix_at_origin(self):
        prog = make_reference()
        fac = fd.curvature_matrix(prog, P(1.0, 0.0, 0.0))
        assert fac.pd
        assert_allclose(fac.matrix, [[2.0]])

    def test_shift_terms(self):
        prog = make_reference()
        fac = fd.curvature_matrix(prog, P(1.0, 0.0, 1.0))
        assert_allclose(fac.matrix, [[4.0]])
        fac = fd.curvature_matrix(prog, P(1.0, -1.0, 0.0))
        assert_allclose(fac.matrix, [[1.0]])

    def test_indefinite_quad_detected(self):
        prog = fd.validate(
            Q=np.array([[-2.0]]), f_vec=np.array([0.0]), B=np.array([[1.0]]),
            lam=1.0, H=np.array([[-2.0]]), b_vec=np.array([-2.0]), delta=0.5,
        )
        fac = fd.curvature_matrix(prog, P(1.0, 0.0, 0.0))
        assert not fac.pd
        # a failed Cholesky reports the sentinel, not the pivot's value
        assert fac.min_pivot == -np.inf
        assert fac.chol is None
        with pytest.raises(fd.NotPDError):
            fd.evaluate_dual(prog, P(1.0, 0.0, 0.0))


def _diagonal_program(q_diag):
    """An instance with Q = diag(q_diag) and H = -2I, so that G = Q at (mu, 0, 0)."""
    n = len(q_diag)
    return fd.validate(
        Q=np.diag(q_diag), f_vec=np.zeros(n), B=np.eye(1, n), lam=1.0,
        H=-2.0 * np.eye(n), b_vec=np.full(n, -2.0), delta=0.5,
    )


class TestFactorization:
    """curvature_matrix's direct call of LAPACK potrf."""

    @given(st.sampled_from([*range(1, 9), 64, 128]), st.integers(0, 10_000))
    def test_factor_is_lower_and_reproduces_g(self, n, seed):
        prog = fd.generate_program(n, seed % 4, seed=seed)
        fac = fd.curvature_matrix(prog, fd.find_start(prog, prog.mu_max))
        assert fac.pd
        assert not np.triu(fac.chol, 1).any()
        G, eps = fac.matrix, np.finfo(float).eps
        # Cholesky's backward error: |LL' - G| <= (n + 1) eps |L||L'| entrywise
        bound = (n + 1) * eps * np.abs(fac.chol) @ np.abs(fac.chol).T
        assert np.all(np.abs(fac.chol @ fac.chol.T - G) <= bound)
        assert fac.min_pivot == float(fac.chol.diagonal().min()) ** 2

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_indefinite_g_gives_no_factor(self, n):
        q_diag = np.ones(n)
        q_diag[n // 2] = -1.0
        fac = fd.curvature_matrix(_diagonal_program(q_diag), P(1.0, 0.0, 0.0))
        assert not fac.pd and fac.chol is None and fac.min_pivot == -np.inf

    def test_pivot_floor_rejection_keeps_the_real_pivot(self):
        fac = fd.curvature_matrix(_diagonal_program([4.0, 1e-20, 2.0]), P(1.0, 0.0, 0.0))
        assert not fac.pd and fac.chol is None
        assert fac.min_pivot == pytest.approx(1e-20, rel=1e-12)

    def test_lapack_info_decides(self, monkeypatch):
        prog = _diagonal_program([1.0, 2.0])
        dual._bind_lapack()
        potrf = dual._potrf
        # info > 0 (a non-positive pivot) is a non-definite factor, whatever
        # the array holds; info < 0 (an illegal argument) raises
        monkeypatch.setattr(dual, "_potrf", lambda a, lower: (potrf(a, lower=lower)[0], 2))
        fac = fd.curvature_matrix(prog, P(1.0, 0.0, 0.0))
        assert not fac.pd and fac.chol is None and fac.min_pivot == -np.inf
        monkeypatch.setattr(dual, "_potrf", lambda a, lower: (np.full_like(a, np.nan), -1))
        with pytest.raises(ValueError, match="potrf"):
            fd.curvature_matrix(prog, P(1.0, 0.0, 0.0))


def _bits(arr):
    """The IEEE bit patterns, so that -0.0 != 0.0 and equal means identical."""
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


class TestLapackSolves:
    """The factor's direct LAPACK calls against scipy's wrappers, bit for bit."""

    @given(st.sampled_from([*range(1, 9), 64, 128]), st.integers(0, 10_000))
    def test_solves_match_scipy_bitwise(self, n, seed):
        prog = fd.generate_program(n, seed % 4, seed=seed)
        fac = fd.curvature_matrix(prog, fd.find_start(prog, prog.mu_max))
        assert fac.pd
        eps = np.finfo(float).eps
        kappa = np.linalg.cond(fac.matrix)
        rng = np.random.default_rng(seed)
        for rhs in (rng.normal(size=n), prog.f_vec - 2.5 * prog.b_vec, np.zeros(n)):
            assert_array_equal(
                _bits(fac.half_solve(rhs)),
                _bits(solve_triangular(fac.chol, rhs, lower=True)),
            )
            assert_array_equal(
                _bits(fac.back_solve(rhs)),
                _bits(solve_triangular(fac.chol, rhs, lower=True, trans="T")),
            )
            # two trtrs calls and potrs round differently, so only to rounding
            x = fac.back_solve(fac.half_solve(rhs))
            ref = cho_solve((fac.chol, True), rhs)
            assert np.linalg.norm(x - ref) <= 4 * kappa * eps * np.linalg.norm(ref)

    @given(st.integers(0, 10_000), st.sampled_from([1.0, 1e6]))
    def test_curvature_matrix_matches_stored_gram(self, seed, conditioning):
        # B'B is formed per ascent, not stored; it must equal, bit for bit,
        # the symmetrized product that instances used to store
        prog = fd.generate_program(1 + seed % 8, seed % 4, seed=seed, conditioning=conditioning)
        btb = prog.B.T @ prog.B
        btb_stored = 0.5 * (btb + btb.T)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            mu = float(rng.uniform(prog.mu0, prog.mu_max))
            vs = float(rng.uniform(-prog.lam, 5.0))
            sg = float(rng.uniform(0.0, 3.0) * prog.sigma_scale)
            fac = fd.curvature_matrix(prog, P(mu, vs, sg))
            expected = prog.Q + (mu * vs) * btb_stored - sg * prog.H
            assert_array_equal(_bits(fac.matrix), _bits(expected))
            # an ascent passes B'B formed once; G and its factor are the same
            shared = fd.curvature_matrix(prog, P(mu, vs, sg), gram(prog))
            assert_array_equal(_bits(shared.matrix), _bits(fac.matrix))
            assert shared.pd == fac.pd and shared.min_pivot == fac.min_pivot
            if fac.pd:
                assert_array_equal(_bits(shared.chol), _bits(fac.chol))

    def test_lapack_failure_raises(self, monkeypatch):
        prog = fd.generate_program(3, 1, seed=7)
        fac = fd.curvature_matrix(prog, fd.find_start(prog, prog.mu0))
        rhs = np.ones(3)
        # a zero pivot makes trtrs report info > 0
        chol = np.array(fac.chol)
        chol[1, 1] = 0.0
        singular = dataclasses.replace(fac, chol=chol)
        for solve in (singular.half_solve, singular.back_solve):
            with pytest.raises(np.linalg.LinAlgError):
                solve(rhs)
        # each sign of info, as LAPACK reports it, for both solves
        for info, error in ((2, np.linalg.LinAlgError), (-2, ValueError)):
            monkeypatch.setattr(
                dual, "_trtrs", lambda a, b, lower, trans, info=info: (np.full_like(b, np.nan), info)
            )
            for solve in (fac.half_solve, fac.back_solve):
                with pytest.raises(error):
                    solve(rhs)

    @pytest.mark.parametrize("failing", [1, 2, 3])
    @pytest.mark.parametrize("info", [2, -2])
    def test_evaluation_raises_on_each_solve(self, monkeypatch, failing, info):
        # evaluate_dual's three trtrs calls: z = L^-1 c, x = L^-T z and the
        # n x 2 Hessian block; a failure in any one of them raises
        prog = fd.generate_program(3, 1, seed=7)
        start = fd.find_start(prog, prog.mu0)
        fac = fd.curvature_matrix(prog, start)
        trtrs, calls = dual._trtrs, []

        def failing_trtrs(*args):
            calls.append(args)
            if len(calls) == failing:
                return np.full_like(args[1], np.nan), info
            return trtrs(*args)

        monkeypatch.setattr(dual, "_trtrs", failing_trtrs)
        error, match = (np.linalg.LinAlgError, "singular") if info > 0 else (ValueError, "trtrs")
        with pytest.raises(error, match=match):
            fd.evaluate_dual(prog, start, fac)
        assert len(calls) == failing
        # the call is positional: the factor, the right-hand side, lower, trans
        assert all(len(args) == 4 and args[2] == 1 for args in calls)
        assert [args[3] for args in calls] == [0, 1, 0][:failing]


def _mp_dual(prog, point, G):
    """x* = G^{-1}c and the dual value at 50 digits, G and c as rounded in float."""
    mu, vs, sg = (mpmath.mpf(v) for v in (point.mu, point.varsigma, point.sigma))
    c = prog.f_vec - point.sigma * prog.b_vec
    x = mpmath.lu_solve(mpmath.matrix(G.tolist()), mpmath.matrix(c.tolist()))
    quad = sum(mpmath.mpf(ci) * xi for ci, xi in zip(c.tolist(), x))
    value = -quad / 2 - mu * mpmath.mpf(prog.lam) * vs - mu * vs * vs / 2 + sg / mu
    return np.array([float(xi) for xi in x]), float(value)


@pytest.mark.parametrize("conditioning", [1.0, 1e6])
def test_evaluation_matches_50_digits(conditioning):
    # x comes from two triangular solves with no refinement step: on a
    # trusted factor it is within a small multiple of kappa(G)*eps of the
    # exact solve, and the value within a few ulps of the exact value
    eps = np.finfo(float).eps
    checked = 0
    with mpmath.workdps(50):
        for seed in range(40):
            prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed, conditioning=conditioning)
            rng = np.random.default_rng(seed)
            for _ in range(10):
                mu = float(rng.uniform(prog.mu0, prog.mu_max))
                point = P(mu, float(rng.uniform(-prog.lam, 5.0)),
                          float(rng.uniform(0.0, 3.0) * prog.sigma_scale))
                fac = fd.curvature_matrix(prog, point)
                if not fac.pd or fac.ill_conditioned:
                    continue
                ev = fd.evaluate_dual(prog, point, fac)
                x, value = _mp_dual(prog, point, fac.matrix)
                kappa = np.linalg.cond(fac.matrix)
                assert np.linalg.norm(ev.x_candidate - x) <= 4 * kappa * eps * np.linalg.norm(x)
                assert abs(ev.value - value) <= 64 * eps * (1.0 + abs(value))
                checked += 1
    assert checked >= 50


def _reference_evaluate(prog, point, fac):
    """evaluate_dual as it was written before its scalars became floats:
    numpy-scalar arithmetic, the Hessian's right-hand sides stacked by
    np.array and trtrs called through keywords.  The kernel must give the
    same bits."""
    trtrs = dual._trtrs

    def solve(rhs, trans):
        z, info = trtrs(fac.chol, rhs, lower=1, trans=trans)
        assert info == 0
        return z

    mu, vs, sg = point.mu, point.varsigma, point.sigma
    c = prog.f_vec - sg * prog.b_vec

    z = solve(c, 0)
    x = solve(z, 1)
    value = float(-0.5 * (z @ z) - mu * prog.lam * vs - 0.5 * mu * vs**2 + sg / mu)

    bx = prog.B @ x
    xi = float(0.5 * (bx @ bx) - prog.lam)
    hx = prog.H @ x
    h_at_x = float(0.5 * (x @ hx) - prog.b_vec @ x)

    grad_vs = mu * (xi - vs)
    grad_sg = 1.0 / mu - h_at_x

    zu, zv = solve(np.array([prog.B.T @ bx, hx - prog.b_vec]).T, 0).T
    h_vv = -(mu**2) * (zu @ zu) - mu
    h_vs = mu * (zu @ zv)
    h_ss = -(zv @ zv)
    hessian = np.array([[h_vv, h_vs], [h_vs, h_ss]])

    return dual.DualEvaluation(
        float(value), float(grad_vs), float(grad_sg), x, xi, h_at_x, hessian,
        fac.min_pivot, fac.ill_conditioned,
    )


def _kernel_points(prog, mu):
    """The start point, the ascent's end and a definite point near the cone
    edge: bisected towards the box corner (-lam, 0), or the corner itself
    when G is definite there."""
    start = fd.find_start(prog, mu)
    points = [start, fd.maximize_dual(prog, mu).point]
    inside, outside = start.as_array(), np.array([-prog.lam, 0.0])
    if not fd.curvature_matrix(prog, P(mu, *outside)).pd:
        for _ in range(50):
            mid = 0.5 * (inside + outside)
            if fd.curvature_matrix(prog, P(mu, *mid)).pd:
                inside = mid
            else:
                outside = mid
    else:
        inside = outside
    return points + [P(mu, *map(float, inside))]


class TestKernelBits:
    """evaluate_dual against its numpy-scalar formulation, bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 6, 64, 128])
    def test_evaluation_matches_reference_bitwise(self, n, m):
        prog = fd.generate_program(n, m, seed=1000 + 7 * n + m)
        mu = 0.5 * (prog.mu0 + prog.mu_max)
        for point in _kernel_points(prog, mu):
            fac = fd.curvature_matrix(prog, point)
            assert fac.pd
            ev = fd.evaluate_dual(prog, point, fac)
            ref = _reference_evaluate(prog, point, fac)
            for field in dataclasses.fields(ref):
                got, want = getattr(ev, field.name), getattr(ref, field.name)
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), field.name
                elif isinstance(want, bool):
                    assert got is want, field.name
                else:
                    assert type(got) is float, field.name
                    assert float.hex(got) == float.hex(want), field.name

    def test_evaluation_has_slots_and_stays_frozen(self):
        prog = fd.generate_program(3, 1, seed=5)
        ev = fd.evaluate_dual(prog, fd.find_start(prog, prog.mu0))
        assert not hasattr(ev, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.value = 0.0


_LAZY_SCIPY = """
import sys
import fracdual as fd
text = fd.serialize_instance(fd.generate_program(4, 2, seed=1021))
prog = fd.parse_instance(text)
print([name for name in ("scipy.linalg", "fracdual.solver", "fracdual.oracle")
       if name in sys.modules])
from fracdual import *
print([name for name in fd.__all__ if globals().get(name) is not getattr(fd, name)])
payload = fd.result_payload(fd.solve(prog))
payload["timings"] = dict.fromkeys(payload["timings"], 0.0)
print(fd.canonical_text(payload), end="")
"""


def test_scipy_is_imported_by_the_first_solve():
    # generating, serializing and parsing never solve, so they must not pay
    # for importing scipy.linalg, the solver or the oracle; every public
    # name still resolves, and the lazily bound solve must not change
    src = str(Path(fd.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], capture_output=True,
                          text=True, check=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    loaded, unresolved, text = done.stdout.split("\n", 2)
    assert loaded == "[]"
    assert unresolved == "[]"
    with pytest.raises(AttributeError):
        fd.no_such_name
    payload = fd.result_payload(fd.solve(fd.generate_program(4, 2, seed=1021)))
    payload["timings"] = dict.fromkeys(payload["timings"], 0.0)
    assert text == fd.canonical_text(payload)


class TestConeMembership:
    def test_origin_inside(self):
        prog = make_reference()
        assert fd.in_dual_cone(prog, P(1.0, 0.0, 0.0))

    def test_lower_box_edge_inside_while_pd(self):
        prog = make_reference()
        assert fd.in_dual_cone(prog, P(1.0, -1.0, 0.0))

    def test_below_box_excluded(self):
        prog = make_reference()
        assert not fd.in_dual_cone(prog, P(1.0, -2.0, 0.0))

    def test_negative_sigma_excluded(self):
        prog = make_reference()
        assert not fd.in_dual_cone(prog, P(1.0, 0.0, -0.5))


def test_frozen_dual_values(reference):
    assert fd.dual_value(reference, P(1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert fd.dual_value(reference, P(1.0, 0.0, 1.0)) == pytest.approx(0.5, abs=1e-13)
    assert fd.dual_value(reference, P(1.0, 1.0, 0.0)) == pytest.approx(-1.5, abs=1e-13)


def test_recover_primal(reference):
    assert_allclose(fd.recover_primal(reference, P(1.0, 0.0, 0.0)), [0.0])
    assert_allclose(fd.recover_primal(reference, P(1.0, 0.0, 1.0)), [0.5])
    assert_allclose(fd.recover_primal(reference, P(1.0, -1.0, 0.0)), [0.0])


def test_frozen_gradient(reference):
    ev = fd.evaluate_dual(reference, P(1.0, 0.0, 1.0))
    assert ev.grad_varsigma == pytest.approx(-0.875, abs=1e-12)
    assert ev.grad_sigma == pytest.approx(0.25, abs=1e-12)
    ev0 = fd.evaluate_dual(reference, P(1.0, 0.0, 0.0))
    assert ev0.grad_varsigma == pytest.approx(-1.0, abs=1e-15)
    assert ev0.grad_sigma == pytest.approx(1.0, abs=1e-15)


def test_frozen_hessians(reference):
    ev0 = fd.evaluate_dual(reference, P(1.0, 0.0, 0.0))
    assert_allclose(ev0.hessian, [[-1.0, 0.0], [0.0, -2.0]], atol=1e-12)
    ev1 = fd.evaluate_dual(reference, P(1.0, 0.0, 1.0))
    assert_allclose(ev1.hessian, [[-1.0625, 0.125], [0.125, -0.25]], atol=1e-12)


def test_non_pd_point_raises(reference):
    prog = fd.validate(
        Q=np.array([[-2.0]]), f_vec=np.array([0.0]), B=np.array([[1.0]]),
        lam=1.0, H=np.array([[-2.0]]), b_vec=np.array([-2.0]), delta=0.5,
    )
    with pytest.raises(fd.NotPDError):
        fd.evaluate_dual(prog, P(1.0, 0.0, 0.0))


def test_outside_box_raises(reference):
    with pytest.raises(ValueError):
        fd.evaluate_dual(reference, P(1.0, -2.0, 0.0))


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
def test_mu_off_the_domain_raises(mu):
    # the dual bounds the subproblem only for 0 < mu < inf; off it the
    # kernel would divide by zero or return a value that bounds nothing
    prog = fd.generate_program(3, 1, seed=5)
    with mock.patch.object(dual, "curvature_matrix", wraps=dual.curvature_matrix) as factor:
        with pytest.raises(fd.DualDomainError) as raised:
            fd.evaluate_dual(prog, P(mu, 0.0, 10.0))
    assert isinstance(raised.value, fd.FracdualError)
    assert factor.call_count == 0


def test_off_box_point_raises_domain_error():
    prog = fd.generate_program(3, 1, seed=5)
    for point in (P(1.0, -prog.lam - 1.0, 10.0), P(1.0, 0.0, -1.0)):
        with pytest.raises(fd.DualDomainError):
            fd.evaluate_dual(prog, point)
    with pytest.raises(fd.DualDomainError):
        fd.legendre_conjugate(prog, -prog.lam - 1.0)


def test_total_complementary_frozen(reference):
    assert fd.total_complementary(reference, np.zeros(1), P(1.0, 0.0, 0.0)) == pytest.approx(0.0)
    at_min = fd.total_complementary(reference, np.array([0.5]), P(1.0, 0.0, 1.0))
    assert at_min == pytest.approx(0.5, abs=1e-13)
    away = fd.total_complementary(reference, np.array([1.0]), P(1.0, 0.0, 1.0))
    assert away == pytest.approx(1.0, abs=1e-13)
    assert away >= at_min


def test_canonical_measure_floor(reference):
    assert fd.canonical_measure(reference, np.zeros(1)) == pytest.approx(-1.0)


def test_legendre_conjugate(reference):
    assert fd.legendre_conjugate(reference, 2.0) == pytest.approx(2.0)
    assert fd.legendre_conjugate(reference, 0.0) == 0.0
    with pytest.raises(ValueError):
        fd.legendre_conjugate(reference, -1.5)


def _pd_dual_point(prog, mu, rng):
    # sigma >= sigma_scale keeps the curvature matrix positive definite
    # whenever varsigma >= 0, so sampled points always land in the cone
    vs = float(rng.uniform(0.0, 3.0))
    sg = float(prog.sigma_scale * rng.uniform(1.0, 4.0))
    return P(mu, vs, sg)


def _feasible_point(prog, mu, rng):
    d = rng.normal(size=prog.n)
    nrm = np.linalg.norm(d)
    if nrm == 0:
        d = np.ones(prog.n)
        nrm = np.sqrt(prog.n)
    d /= nrm
    radius2 = 2.0 * (prog.mu0_inv - 1.0 / mu)
    t = float(rng.uniform(0.0, 1.0)) * np.sqrt(
        max(radius2, 0.0) / float(d @ (-prog.H) @ d)
    )
    return prog.x_center + t * d


@given(st.integers(0, 500))
def test_weak_duality_random_pairs(seed):
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    d = _pd_dual_point(prog, mu, rng)
    x = _feasible_point(prog, mu, rng)
    lower = fd.dual_value(prog, d)
    upper = fd.eval_subproblem(prog, mu, x)
    assert lower <= upper + 1e-9 * (1.0 + abs(upper))


@given(st.integers(0, 500))
def test_recovered_point_minimizes_total_complementary(seed):
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    d = _pd_dual_point(prog, mu, rng)
    xd = fd.recover_primal(prog, d)
    base = fd.total_complementary(prog, xd, d)
    assert_allclose(base, fd.dual_value(prog, d), rtol=1e-8, atol=1e-10)
    for _ in range(4):
        other = xd + rng.normal(size=prog.n)
        assert fd.total_complementary(prog, other, d) >= base - 1e-9 * (1.0 + abs(base))


@given(st.integers(0, 500))
def test_gradient_matches_finite_differences(seed):
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    d = _pd_dual_point(prog, mu, rng)
    ev = fd.evaluate_dual(prog, d)
    h = 1e-6
    fd_vs = (
        fd.dual_value(prog, P(mu, d.varsigma + h, d.sigma))
        - fd.dual_value(prog, P(mu, d.varsigma - h, d.sigma))
    ) / (2 * h)
    fd_sg = (
        fd.dual_value(prog, P(mu, d.varsigma, d.sigma + h))
        - fd.dual_value(prog, P(mu, d.varsigma, d.sigma - h))
    ) / (2 * h)
    scale = 1.0 + max(abs(ev.grad_varsigma), abs(ev.grad_sigma))
    assert abs(fd_vs - ev.grad_varsigma) <= 1e-5 * scale
    assert abs(fd_sg - ev.grad_sigma) <= 1e-5 * scale


@given(st.integers(0, 500))
def test_hessian_negative_semidefinite(seed):
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    ev = fd.evaluate_dual(prog, _pd_dual_point(prog, mu, rng))
    eigs = np.linalg.eigvalsh(ev.hessian)
    scale = 1.0 + float(np.abs(ev.hessian).max())
    assert eigs.max() <= 1e-8 * scale


@given(st.integers(0, 500))
def test_midpoint_concavity(seed):
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    d1 = _pd_dual_point(prog, mu, rng)
    d2 = _pd_dual_point(prog, mu, rng)
    mid = P(mu, 0.5 * (d1.varsigma + d2.varsigma), 0.5 * (d1.sigma + d2.sigma))
    v1, v2, vm = (fd.dual_value(prog, q) for q in (d1, d2, mid))
    scale = 1.0 + max(abs(v1), abs(v2), abs(vm))
    assert vm >= 0.5 * (v1 + v2) - 1e-9 * scale


@given(st.integers(0, 500))
def test_gap_identity(seed):
    # penalized primal minus dual equals the two nonnegative mismatch terms
    prog = fd.generate_program(1 + seed % 4, seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    mu = prog.mu0 if prog.mu_interval.degenerate else float(
        rng.uniform(prog.mu0, prog.mu_max))
    d = _pd_dual_point(prog, mu, rng)
    ev = fd.evaluate_dual(prog, d)
    primal = fd.eval_subproblem(prog, mu, ev.x_candidate)
    gap = primal - ev.value
    predicted = 0.5 * mu * (ev.xi - d.varsigma) ** 2 + d.sigma * (ev.h_at_x - 1.0 / mu)
    assert_allclose(gap, predicted, rtol=1e-7, atol=1e-9)


def _mask_points(prog, rng, count=30):
    """Rows (mu, varsigma, sigma): the box corner (-lam, 0), tau < 0, and
    tau > 0 with sigma near -w_i, so that some w_i + sigma < 0."""
    w, _ = prog.pencil
    rows = []
    for _ in range(count):
        mu = float(rng.uniform(prog.mu0, prog.mu_max))
        kind = rng.integers(3)
        if kind == 0:
            vs, sg = -prog.lam, 0.0
        elif kind == 1:
            vs, sg = rng.uniform(-prog.lam, 0.0), rng.uniform(0.0, 2.0) * abs(w.min())
        else:
            vs = rng.uniform(0.0, 5.0)
            sg = max(0.0, -w[rng.integers(prog.n)] * rng.uniform(0.5, 1.5))
        rows.append((mu, float(vs), float(sg)))
    return rows


def _cone_edge_points(prog, rows):
    """Pairs just inside and just outside the cone, bisected from a start."""
    out = []
    for mu, vs, sg in rows:
        inside, outside = fd.find_start(prog, mu).as_array(), np.array([vs, sg])
        if fd.curvature_matrix(prog, P(mu, vs, sg)).pd:
            continue
        for _ in range(50):
            mid = 0.5 * (inside + outside)
            if fd.curvature_matrix(prog, P(mu, *mid)).pd:
                inside = mid
            else:
                outside = mid
        out += [(mu, *inside), (mu, *outside)]
    return out


def _search_paths(prog, rng, count=8):
    """(mu, d, step) from definite points d, with steps long enough to leave
    the cone, some of them clamped at the box."""
    for _ in range(count):
        mu = float(rng.uniform(prog.mu0, prog.mu_max))
        d = fd.find_start(prog, mu).as_array()
        scale = (1.0 + np.abs(d)) * 10.0 ** rng.uniform(-1.0, 2.0)
        yield mu, d, rng.normal(size=2) * scale


def _clearly(prog, mu, vs, sg, band_rtol=1e-4):
    """Whether G's congruent form is clear of singular: every eigenvalue, and
    every entry of diag(w + sigma), is farther than a band from zero."""
    w, U = prog.pencil
    tau = mu * vs
    congruent = np.diag(w + sg) + tau * U.T @ U
    band = band_rtol * (np.abs(w).max() + sg + abs(tau) * np.sum(U * U))
    return min(np.abs(np.linalg.eigvalsh(congruent)).min(), np.abs(w + sg).min()) > band


def _near_band_paths(prog, rng):
    """(mu, d, step) at a sigma just outside the rounding band of an entry
    w_j of the pencil while w_0 + sigma < 0, where K = U D^-1 U' is far
    larger than its deciding eigenvalue.  d is definite; the path lowers
    varsigma past zero."""
    w, _ = prog.pencil
    for j in range(1, min(prog.m, prog.n - 1) + 1):
        sg = float(-w[j] + 2.0 * solver._inertia_band(w, -w[j]))
        if not w[0] + sg < 0.0:
            continue
        mu = float(rng.uniform(prog.mu0, prog.mu_max))
        for vs in 10.0 ** np.arange(-2.0, 13.0):
            if fd.curvature_matrix(prog, P(mu, vs, sg)).pd:
                yield mu, np.array([vs, sg]), np.array([-2.0 * vs, 0.0])
                break


@given(st.integers(0, 10_000), st.sampled_from([1.0, 1e6]), st.integers(0, 3),
       st.sampled_from([1, 2, 3, 5, 8, 64]))
def test_inertia_mask_agrees_with_cholesky(seed, conditioning, m, n):
    # every point a pencil shortcut skips fails Cholesky: the start ladder's
    # rungs, the verdicts of pencil_indefinite and the trials the cone step
    # skips, which it finds by bisection
    prog = fd.generate_program(n, m, seed=seed, conditioning=conditioning)
    rng = np.random.default_rng(seed)
    for mu in (prog.mu0, prog.mu_max):
        for s_mult in (0.0, 1.0, 10.0, 100.0):
            sigma = s_mult * prog.sigma_scale
            for v_mult in (0.0, 1.0, 10.0):
                if solver.pencil_indefinite(prog, mu * v_mult, sigma):
                    assert not fd.curvature_matrix(prog, P(mu, v_mult, sigma)).pd

    rows = _mask_points(prog, rng)
    for mu, vs, sg in rows + _cone_edge_points(prog, rows[:5]):
        pd = fd.curvature_matrix(prog, P(mu, vs, sg)).pd
        indefinite = solver.pencil_indefinite(prog, mu * vs, sg)
        assert not (pd and indefinite)
        # away from a thin band around the cone edge the verdict is exact
        if _clearly(prog, mu, vs, sg):
            assert indefinite == (not pd)

    # trials along search paths, among them paths at a sigma where K is far
    # larger than the eigenvalue that decides the edge
    lo, free = solver._bounds(prog), np.full(2, -np.inf)
    paths = [(mu, d, step, lo) for mu, d, step in _search_paths(prog, rng)]
    paths += [(mu, d, step, free) for mu, d, step in _near_band_paths(prog, rng)]
    for mu, d, step, bound in paths:
        trials = np.maximum(d + _HALVINGS * step, bound)
        pd = [fd.curvature_matrix(prog, P(mu, *t)).pd for t in trials]
        for (vs, sg), definite in zip(trials, pd):
            assert not (definite and solver.pencil_indefinite(prog, mu * vs, sg))
        if pd[0]:
            continue
        with mock.patch.object(solver, "pencil_indefinite",
                               wraps=solver.pencil_indefinite) as verdict:
            first = solver._cone_step(prog, mu, lambda k: tuple(map(float, trials[k])), 0)
        assert verdict.call_count <= 1 + math.ceil(math.log2(len(trials)))
        assert not any(pd[1:first])
        # the first trial left to Cholesky is definite or near the edge
        if first < len(trials) and not pd[first]:
            assert not _clearly(prog, mu, *trials[first])

import dataclasses
import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import fracdual as fd
from fracdual import dual, solver
from fracdual.dual import DualPoint
from fracdual.problem import gram
from fracdual.solver import (
    AscentStatus,
    CertificateKind,
    DualSolution,
    _ascent_direction,
    _envelope_min,
    _weak_duality_floor,
)

from conftest import (
    GAP_CASE_ARGMIN_X2,
    GAP_CASE_MIN,
    REFERENCE_MU,
    REFERENCE_P0,
    REFERENCE_X,
    make_gap_case,
    make_reference,
    planted_program,
)
from referee import is_short, slice_referee


# The line search's step fractions 2^-k as a column: row k of
# np.maximum(d + _HALVINGS * step, lo) is the search's trial k.
_HALVINGS = np.ldexp(1.0, -np.arange(60))[:, None]


def _rows(trials: np.ndarray):
    """The trial(k) of solver._cone_step, read off the rows of `trials`."""
    return lambda k: (float(trials[k, 0]), float(trials[k, 1]))


def _record_steps(monkeypatch) -> list:
    """Spy on _try_step: (value before, value after) of every accepted step."""
    steps = []
    try_step = solver._try_step

    def spy(prog, mu, d, step, grad, value, lo, min_rise, btb=None):
        moved = try_step(prog, mu, d, step, grad, value, lo, min_rise, btb)
        if moved is not None:
            steps.append((value, moved[1].value))
        return moved

    monkeypatch.setattr(solver, "_try_step", spy)
    return steps


def make_interior_optimum():
    """Instance whose global minimizer sits strictly inside the region.

    Quadratic part is minimized at x=1, the well term vanishes there too,
    and x=1 is the margin peak, so every subproblem shares the same interior
    solution with sigma inactive.
    """
    return fd.validate(
        Q=np.array([[1.0]]), f_vec=np.array([1.0]), B=np.array([[1.0]]),
        lam=0.5, H=np.array([[-2.0]]), b_vec=np.array([-2.0]), delta=0.5,
    )


def make_far_start():
    """Instance whose start ladder must climb past (0, sigma_scale).

    There G >= I, so its smallest pivot is about 1, but the pivot floor
    1e-10*(1 + max diag G) is about 10, so Cholesky's answer is rejected.
    """
    return fd.validate(
        Q=np.diag([1e6, -1e6]), f_vec=np.array([1.0, 2.0]), B=np.array([[1.0, 0.5]]),
        lam=1.0, H=-np.diag([1.0, 1e-5]), b_vec=np.array([-1.0, -1e-5]), delta=0.1,
    )


class TestStart:
    def test_ladder_climbs_past_the_pivot_floor(self):
        prog = make_far_start()
        scale = prog.sigma_scale
        assert fd.find_start(prog, prog.mu0) == DualPoint(prog.mu0, 0.0, 10.0 * scale)
        assert fd.find_start(prog, prog.mu_max) == DualPoint(prog.mu_max, 10.0, scale)
        res = fd.solve(prog)
        assert all(sample.solution is not None for sample in res.mu_profile)
        assert fd.is_feasible(prog, res.x_star)
        assert res.P0_value == fd.eval_objective(prog, res.x_star)


def _direction(hessian, grad, free) -> np.ndarray:
    """_ascent_direction, from numpy arguments to a numpy step."""
    return np.array(_ascent_direction(
        np.asarray(hessian).tolist(), np.asarray(grad).tolist(), np.asarray(free).tolist()))


class TestAscentDirection:
    # -hessian = diag(2, 0) is the singular case zv = 0 (x at the margin peak)
    SINGULAR = np.array([[-2.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("free", [(True, True), (False, True)])
    def test_singular_hessian_still_ascends(self, free):
        grad = np.array([0.5, 1.0])
        step = _direction(self.SINGULAR, grad, np.array(free))
        assert np.all(np.isfinite(step))
        assert grad @ step > 0.0
        assert np.all(step[~np.array(free)] == 0.0)

    def test_regular_hessian_takes_the_newton_step(self):
        hessian = np.array([[-2.0, 0.5], [0.5, -1.0]])
        grad = np.array([0.5, 1.0])
        step = _direction(hessian, grad, np.array([True, True]))
        assert_allclose(-hessian @ step, grad)

    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-0.999, 0.999),
           st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    def test_closed_form_matches_a_linear_solve(self, log_a, log_c, corr, log_g0, log_g1):
        # -hessian = [[a, b], [b, c]] positive definite, |b| < sqrt(ac)
        a, c = 10.0**log_a, 10.0**log_c
        b = corr * np.sqrt(a * c)
        hessian = -np.array([[a, b], [b, c]])
        grad = np.array([10.0**log_g0, -(10.0**log_g1)])
        eps = np.finfo(float).eps
        for free in ([True, True], [True, False], [False, True]):
            free = np.array(free)
            idx = np.flatnonzero(free)
            sub = -hessian[np.ix_(idx, idx)]
            ref = np.linalg.solve(sub, grad[idx])
            step = _direction(hessian, grad, free)
            assert np.all(step[~free] == 0.0)
            kappa = np.linalg.cond(sub)
            # both solves are forward stable: each within a few kappa eps of exact
            assert np.linalg.norm(step[idx] - ref) <= 4 * kappa * eps * np.linalg.norm(ref)

    @pytest.mark.parametrize("neg_hessian, grad, free", [
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [True, True]),  # zero determinant
        ([[0.0, 1.0], [1.0, 3.0]], [1.0, 2.0], [True, False]),  # zero 1x1 curvature
        ([[1e-300, 0.0], [0.0, 1.0]], [1e10, 1.0], [True, True]),  # step overflows
        ([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], [True, True]),  # step descends
        ([[2.0, 0.0], [0.0, -2.0]], [1.0, 1.0], [False, True]),  # 1x1 step descends
    ])
    def test_failed_step_falls_back_to_the_gradient(self, neg_hessian, grad, free):
        free, grad = np.array(free), np.array(grad)
        step = _direction(-np.array(neg_hessian), grad, free)
        assert_array_equal(step, np.where(free, grad, 0.0))


class TestAscent:
    def test_hard_subproblem_edge(self, reference):
        # at the top of the parameter interval the level set boundary is
        # active and the dual has an interior critical point
        sol = fd.maximize_dual(reference, 2.0)
        assert sol.status is AscentStatus.INTERIOR_CRITICAL
        assert sol.value == pytest.approx(1.0018398282201786, abs=1e-9)
        assert sol.point.varsigma == pytest.approx(-0.9571067811869238, abs=1e-6)
        assert sol.point.sigma == pytest.approx(0.017766952965139415, abs=1e-6)
        cert = fd.certify(reference, 2.0, sol)
        assert cert.kind is CertificateKind.PERFECT
        assert abs(cert.gap) <= 1e-6 * (1.0 + abs(cert.primal_value))
        assert_allclose(fd.recover_primal(reference, sol.point), [1.0 - np.sqrt(0.5)], atol=1e-7)

    def test_bottom_of_interval_approaches_singleton_value(self, reference):
        # at mu equal to the inverse margin peak the supremum 1.125 is only
        # approached along sigma, but the ascent gets within gap tolerance
        sol = fd.maximize_dual(reference, 1.0)
        assert sol.value <= 1.125 + 1e-9
        assert sol.value == pytest.approx(1.125, abs=1e-3)
        assert sol.grad_norm <= 1e-8 * (1.0 + abs(sol.value))

    def test_accepted_values_strictly_rise(self, reference, monkeypatch):
        steps = _record_steps(monkeypatch)
        sol = fd.maximize_dual(reference, 1.7)
        assert sol.status is AscentStatus.INTERIOR_CRITICAL
        assert len(steps) == sol.n_iter - 1  # the converged iteration takes no step
        before, after = np.array(steps).T
        assert np.all(after > before)
        np.testing.assert_array_equal(before[1:], after[:-1])
        assert after[-1] == sol.value

    def test_iterates_respect_box(self, reference):
        for mu in (1.0, 1.3, 2.0):
            sol = fd.maximize_dual(reference, mu)
            assert sol.point.varsigma >= -reference.lam - 1e-12
            assert sol.point.sigma >= -1e-12

    def test_sigma_inactive_classified(self):
        prog = make_interior_optimum()
        sol = fd.maximize_dual(prog, 2.0)
        assert sol.status is AscentStatus.BOUNDARY_SIGMA_ZERO
        assert sol.point.sigma == pytest.approx(0.0, abs=1e-9)
        cert = fd.certify(prog, 2.0, sol)
        assert cert.kind is CertificateKind.PERFECT
        assert cert.feasibility_residual > 0  # margin strictly above the level

    def test_gap_case_hits_definiteness_boundary(self, gap_case):
        sol = fd.maximize_dual(gap_case, 4.0)
        assert sol.status is AscentStatus.NEAR_PD_BOUNDARY
        cert = fd.certify(gap_case, 4.0, sol)
        assert cert.kind is CertificateKind.NONE


def _without_pencil_shortcuts(monkeypatch):
    """Factorize every ladder rung and every line-search trial."""
    monkeypatch.setattr(solver, "pencil_indefinite", lambda prog, tau, sigma: False)


def _no_start_below(cut: float):
    """solver._start, failing with NoStartingPointError at every mu below `cut`."""
    start = solver._start

    def patched(prog, mu, btb):
        if mu < cut:
            raise fd.NoStartingPointError(f"no definite dual point found at mu={mu:.6g}")
        return start(prog, mu, btb)

    return patched


def _count_factorizations(monkeypatch) -> dict:
    """Count the Cholesky factorizations, the calls of LAPACK's potrf."""
    factorized = {"calls": 0}
    dual._bind_lapack()
    potrf = dual._potrf

    def counted(*args, **kwargs):
        factorized["calls"] += 1
        return potrf(*args, **kwargs)

    monkeypatch.setattr(dual, "_potrf", counted)
    return factorized


def _record_factorizations(monkeypatch) -> list:
    """Spy on dual._factorize, the one path to potrf: the (G, factor or None,
    min_pivot, diag_scale) of each factorization, in order."""
    made = []
    factorize = dual._factorize

    def recorded(*args):
        made.append(factorize(*args))
        return made[-1]

    monkeypatch.setattr(dual, "_factorize", recorded)
    return made


@pytest.mark.parametrize(
    "seed, conditioning", [(1006, 1.0), (1021, 1.0), (1022, 1.0), (1027, 1e6)]
)
def test_inertia_screen_changes_no_iterate(seed, conditioning, monkeypatch):
    # heavy-backtracking instances: skipping the ladder rungs and the
    # line-search trials that the pencil proves indefinite must skip
    # factorizations without moving a single iterate
    prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed, conditioning=conditioning)
    mus = np.linspace(prog.mu0, prog.mu_max, 4)
    factorized = _count_factorizations(monkeypatch)
    steps = _record_steps(monkeypatch)

    def ascents():
        out = []
        for mu in mus:
            steps.clear()
            out.append((fd.maximize_dual(prog, mu), list(steps)))
        return out

    screened = ascents()
    screened_calls = factorized["calls"]
    _without_pencil_shortcuts(monkeypatch)
    factorized["calls"] = 0
    admitted = ascents()
    assert screened_calls < factorized["calls"]
    for (a, a_steps), (b, b_steps) in zip(screened, admitted):
        assert a.point == b.point
        assert a.value == b.value
        assert a.n_iter == b.n_iter
        assert a.status is b.status
        assert a.n_iter - 1 <= len(a_steps) <= a.n_iter
        assert a_steps == b_steps


# 0 or +-10^-e for e in [0, 30]
_ENTRY = st.builds(lambda sign, e: sign * 10.0**-e, st.integers(-1, 1), st.floats(0.0, 30.0))


@given(_ENTRY, _ENTRY, _ENTRY, st.integers(-150, 150))
def test_closed_form_eigenvalues_match_eigvalsh(p, q, r, scale):
    # entries across 30 decades: definite, indefinite and near singular K
    K = np.array([[p, q], [q, r]]) * 10.0**scale
    eps = np.finfo(float).eps
    want = np.linalg.eigvalsh(K)
    for j in (0, 1):
        assert abs(solver._eigenvalue(K, j) - want[j]) <= 4 * eps * np.abs(want).max()
    assert solver._eigenvalue(K[:1, :1], 0) == K[0, 0]


class TestPencilShortcuts:
    @pytest.mark.parametrize("prog", [
        make_far_start(),
        *(fd.generate_program(1 + s % 6, s % 4, seed=s) for s in range(1000, 1012)),
        *(fd.generate_program(n, m, seed=1000 + n + m) for n in (64, 128) for m in (1, 2)),
        fd.generate_program(3, 2, seed=1034, conditioning=1e6),
    ])
    def test_screened_ladder_matches_the_full_ladder(self, prog, monkeypatch):
        # the same first definite rung, with the same factor, bit for bit:
        # a ladder ends at its first definite factorization, its last one
        btb = gram(prog)
        mus = (prog.mu0, 0.5 * (prog.mu0 + prog.mu_max), prog.mu_max)
        made = _record_factorizations(monkeypatch)

        def ladder(mu):
            made.clear()
            point, ev = solver._start(prog, mu, btb)
            return point, ev, made[-1]

        screened = [ladder(mu) for mu in mus]
        _without_pencil_shortcuts(monkeypatch)
        for (point, ev, (G, chol, min_pivot, _)), mu in zip(screened, mus):
            full_point, full_ev, (full_G, full_chol, full_min_pivot, _) = ladder(mu)
            assert point == full_point
            np.testing.assert_array_equal(G, full_G)
            np.testing.assert_array_equal(chol, full_chol)
            assert min_pivot == full_min_pivot == ev.min_pivot == full_ev.min_pivot

    @pytest.mark.parametrize("m, seed", [(1, 1064), (2, 1065)])
    def test_solve_is_bitwise_the_same_without_the_shortcuts(self, m, seed, monkeypatch):
        prog = fd.generate_program(64, m, seed=seed)
        factorized = _count_factorizations(monkeypatch)

        def answer():
            factorized["calls"] = 0
            res = fd.solve(prog, fd.SolverOptions(grid=16))
            payload = fd.result_payload(res)
            payload["timings"] = {}
            rows = [(s.mu, s.p0, s.solution and (s.solution.point, s.solution.n_iter))
                    for s in res.mu_profile]
            return fd.canonical_text(payload), res.x_star.tobytes(), rows, factorized["calls"]

        *screened, screened_calls = answer()
        _without_pencil_shortcuts(monkeypatch)
        *full, full_calls = answer()
        assert screened == full
        assert screened_calls < full_calls

    def test_an_instance_without_the_well_is_covered(self, monkeypatch):
        # m = 0: U has no rows, and the cone is sigma > -min(w); on this
        # instance line searches leave the cone and the step bound skips trials
        prog = fd.generate_program(3, 0, seed=1028)
        assert prog.m == 0 and prog.pencil[1].shape == (0, 3)
        mus = np.linspace(prog.mu0, prog.mu_max, 6)
        factorized = _count_factorizations(monkeypatch)
        cone_step, skipped = solver._cone_step, []

        def counted_skips(*args):
            first = cone_step(*args)
            skipped.append(first - args[3] - 1)
            return first

        monkeypatch.setattr(solver, "_cone_step", counted_skips)
        screened = [fd.maximize_dual(prog, mu) for mu in mus]
        screened_calls = factorized["calls"]
        assert sum(skipped) > 0
        _without_pencil_shortcuts(monkeypatch)
        factorized["calls"] = 0
        full = [fd.maximize_dual(prog, mu) for mu in mus]
        assert screened == full
        assert screened_calls < factorized["calls"]

    def test_a_search_path_clamped_at_sigma_zero(self):
        # a step whose sigma reaches its bound 0 before the full step: the
        # path bends there, and the trials skipped past the edge on either
        # leg all fail Cholesky
        prog = fd.generate_program(64, 2, seed=1000)
        mu = prog.mu0
        d = fd.find_start(prog, mu).as_array()
        lo = solver._bounds(prog)
        checked = 0
        for step in ([0.5, -1.5 * d[1]], [-0.4, -1.9 * d[1]], [2.0, -1.2 * d[1]]):
            step = np.array(step)
            trials = np.maximum(d + _HALVINGS * step, lo)
            assert trials[0, 1] == 0.0 < trials[1, 1]
            pd = [fd.curvature_matrix(prog, DualPoint(mu, *t)).pd for t in trials]
            assert not pd[0]
            # exactly the trials outside the cone are skipped
            assert solver._cone_step(prog, mu, _rows(trials), 0) == pd.index(True)
            checked += not pd[1]
        assert checked

    @pytest.mark.parametrize("n", [2, 6, 64])
    def test_cone_steps_keep_their_verdict_budget(self, n, monkeypatch):
        # at every cone exit of these ascents: at most 1 + ceil(log2(60 -
        # out)) trials asked, a verdict on each one short of the search's
        # stop, and every trial skipped lies at or before one the pencil
        # proves indefinite, and fails Cholesky
        verdict, cone_step = solver.pencil_indefinite, solver._cone_step
        verdicts, exits = [], []

        def recorded(prog, tau, sigma):
            verdicts.append(verdict(prog, tau, sigma))
            return verdicts[-1]

        def spied(prog, mu, trial, out):
            asked, before = [], len(verdicts)

            def asked_trial(k):
                asked.append(k)
                return trial(k)

            first = cone_step(prog, mu, asked_trial, out)
            exits.append((prog, mu, trial, out, first, asked, verdicts[before:]))
            return first

        monkeypatch.setattr(solver, "pencil_indefinite", recorded)
        monkeypatch.setattr(solver, "_cone_step", spied)
        for m in range(4):
            prog = fd.generate_program(n, m, seed=1000 + n + m)
            for mu in np.linspace(prog.mu0, prog.mu_max, 4):
                fd.maximize_dual(prog, mu)
        skips = 0
        for prog, mu, trial, out, first, asked, proven in exits:
            judged = [k for k in asked if trial(k) is not None]
            assert len(judged) == len(proven) <= len(asked) <= 1 + math.ceil(math.log2(60 - out))
            skipped = range(out + 1, first)
            if skipped:
                assert skipped[-1] <= max(k for k, p in zip(judged, proven) if p)
            for k in skipped:
                t = trial(k)
                assert not fd.curvature_matrix(prog, DualPoint(mu, t[0], t[1])).pd
            skips += len(skipped)
        assert len(exits) >= 10 and skips >= 10, (len(exits), skips)

    @pytest.mark.parametrize("n", [2, 6, 64])
    def test_cone_steps_ask_no_verdict_past_the_search_stop(self, n, monkeypatch):
        # every trial the bisection asks the pencil about passes the line
        # search's own rise test, recomputed here from _try_step's arguments
        try_step, cone_step = solver._try_step, solver._cone_step
        verdict = solver.pencil_indefinite
        search = asked = None  # the running search's arguments, the trial last asked for
        probes = []

        def spied_search(prog, mu, d, step, grad, value, lo, min_rise, btb=None):
            nonlocal search
            search = d, step, grad, lo, min_rise
            return try_step(prog, mu, d, step, grad, value, lo, min_rise, btb)

        def spied_cone_step(prog, mu, trial, out):
            nonlocal asked

            def asked_trial(k):
                nonlocal asked
                asked = k
                return trial(k)

            try:
                return cone_step(prog, mu, asked_trial, out)
            finally:
                asked = None

        def recorded(prog, tau, sigma):
            if asked is not None:
                probes.append((search, asked))
            return verdict(prog, tau, sigma)

        monkeypatch.setattr(solver, "_try_step", spied_search)
        monkeypatch.setattr(solver, "_cone_step", spied_cone_step)
        monkeypatch.setattr(solver, "pencil_indefinite", recorded)
        for m in range(4):
            prog = fd.generate_program(n, m, seed=1000 + n + m)
            for mu in np.linspace(prog.mu0, prog.mu_max, 4):
                fd.maximize_dual(prog, mu)

        def rises(search, k):
            (d0, d1), (s0, s1), (g0, g1), (lo0, lo1), min_rise = search
            m0 = max(d0 + _HALVINGS[k, 0] * s0, lo0) - d0
            m1 = max(d1 + _HALVINGS[k, 0] * s1, lo1) - d1
            return m0 * g0 + m1 * g1 > min_rise if min_rise > 0.0 else bool(m0 or m1)

        past = [(search, k) for search, k in probes if not rises(search, k)]
        assert len(probes) >= 100 and not past, (len(probes), len(past))


def _batch_try_step(prog, mu, d, step, grad, value, lo, min_rise, btb=None):
    """The line search with every trial formed up front: the 60 trials and
    their predicted rises as rows of one matrix, and the rises by BLAS."""
    d, step, grad, lo = (np.asarray(v, dtype=float) for v in (d, step, grad, lo))
    trials = np.maximum(d + _HALVINGS * step, lo)
    moves = trials - d
    rising = moves @ grad > min_rise if min_rise > 0.0 else moves.any(axis=1)
    count = len(trials) if rising.all() else int(rising.argmin())
    k, bounded = 0, False
    while k < count:
        point = DualPoint(mu, float(trials[k, 0]), float(trials[k, 1]))
        fac = fd.curvature_matrix(prog, point, btb)
        if fac.pd:
            ev = fd.evaluate_dual(prog, point, fac=fac)
            if ev.value > value + min_rise and ev.value >= value + 1e-4 * (grad @ moves[k]):
                return trials[k], ev
            k += 1
        elif bounded:
            k += 1
        else:
            bounded = True
            k = solver._cone_step(prog, mu, _rows(trials), k)
    return None


class TestLazyLineSearch:
    @staticmethod
    def _draws(n, rng):
        """(prog, mu, d, step, grad, value, min_rise): Newton, gradient and
        random steps from a definite start, some clamped at sigma = 0, with
        no rise floor, a floor at a share of the full step's predicted rise
        and a floor at one trial's predicted rise."""
        for seed in range(1000 + n, 1000 + n + 12):
            prog = fd.generate_program(n, seed % 4, seed=seed)
            mu = float(rng.uniform(prog.mu0, prog.mu_max))
            start = fd.find_start(prog, mu)
            ev = fd.evaluate_dual(prog, start)
            d, grad = (start.varsigma, start.sigma), (ev.grad_varsigma, ev.grad_sigma)
            scale = (1.0 + np.abs(d)) * 10.0 ** rng.uniform(-1.0, 2.0)
            steps = [_ascent_direction(ev.hessian.tolist(), grad, (True, True)), grad,
                     tuple(rng.normal(size=2) * scale),
                     (float(rng.uniform(-1.0, 2.0)), -rng.uniform(1.1, 3.0) * d[1])]
            for step in steps:
                full = np.maximum(np.add(d, step), solver._bounds(prog)) - d
                rise = float(full @ grad)
                for min_rise in (0.0, rise * 2.0 ** -rng.uniform(0.0, 20.0),
                                 rise * 2.0 ** -int(rng.integers(0, 20))):
                    if min_rise >= 0.0:
                        yield prog, mu, d, step, grad, ev.value, min_rise

    @pytest.mark.parametrize("n", [2, 6, 64])
    def test_lazy_trials_accept_the_batch_trial(self, n):
        # the same accepted trial, or None on both sides, except where a
        # trial's predicted rise is within a few ulps of the floor: there
        # BLAS's fused multiply-add and the float sum may round to either side
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        draws = near = exits = clamped = 0
        for prog, mu, d, step, grad, value, min_rise in self._draws(n, rng):
            lo, btb = solver._bounds(prog), gram(prog)
            want = _batch_try_step(prog, mu, d, step, grad, value, lo, min_rise, btb)
            got = solver._try_step(prog, mu, d, step, grad, value, lo, min_rise, btb)
            draws += 1
            trials = np.maximum(np.add(d, _HALVINGS * step), lo)
            exits += not fd.curvature_matrix(prog, DualPoint(mu, *trials[0]), btb).pd
            clamped += trials[0, 1] == 0.0 < d[1]
            if want is None and got is None:
                continue
            if want is not None and got is not None and tuple(want[0]) == got[0]:
                assert got[1].value == want[1].value
                continue
            rises = (trials - d) @ grad
            assert min_rise > 0.0
            assert np.any(np.abs(rises - min_rise) <= 4 * eps * min_rise)
            near += 1
        assert draws >= 100 and exits >= 5 and clamped >= 5
        assert near <= draws // 50, f"{near} of {draws} draws at the floor"


class TestNoiseFloor:
    # ROADMAP item 2's slice: ill-conditioned seed 1034 at this mu
    MU = 9.324556139645209

    @staticmethod
    def _prog():
        return fd.generate_program(3, 2, seed=1034, conditioning=1e6)

    def _line_search(self):
        """A gradient line search from the slice's start: its trials and gains."""
        prog = self._prog()
        start = fd.find_start(prog, self.MU)
        ev = fd.evaluate_dual(prog, start)
        grad = np.array([ev.grad_varsigma, ev.grad_sigma])
        d, lo = start.as_array(), solver._bounds(prog)
        trials = np.maximum(d + _HALVINGS * grad, lo)
        return prog, d, ev, grad, lo, trials, (trials - d) @ grad

    def test_ill_conditioned_slice_stops_short_of_the_cap(self):
        # without the floor this slice accepts ulp-sized rises until the cap
        sol = fd.maximize_dual(self._prog(), self.MU)
        assert sol.n_iter < fd.SolverOptions().max_iter
        assert sol.status is AscentStatus.NEAR_PD_BOUNDARY
        assert sol.value >= -0.24842520097535334

    @pytest.mark.parametrize("cut", [0, 1, 5, 30])
    def test_no_trial_past_the_floor_is_factorized(self, cut, monkeypatch):
        prog, d, ev, grad, lo, trials, gains = self._line_search()
        min_rise = float(gains[cut])
        first = int(np.argmax(gains <= min_rise))
        evaluate = solver._evaluate_at
        factorized = []

        def counted(prog, mu, varsigma, sigma, btb):
            factorized.append((varsigma, sigma))
            return evaluate(prog, mu, varsigma, sigma, btb)

        monkeypatch.setattr(solver, "_evaluate_at", counted)
        # an unreachable target rejects every trial the floor lets through
        unreachable = ev.value + 2.0 * float(gains[0])
        assert solver._try_step(prog, self.MU, d, grad, grad, unreachable, lo, min_rise) is None
        seen = [int(np.flatnonzero((trials == p).all(axis=1))[0]) for p in factorized]
        assert max(seen, default=-1) < first
        factorized.clear()
        solver._try_step(prog, self.MU, d, grad, grad, unreachable, lo, 0.0)
        assert len(factorized) > first  # without the floor the search goes on

    def test_rises_within_the_floor_are_rejected(self, monkeypatch):
        # a trial whose value rises by half the floor passes the Armijo
        # test, so only the floor rejects it
        prog, d, ev, grad, lo, _, gains = self._line_search()
        min_rise = float(gains[5])
        evaluate = solver._evaluate_at

        def barely_rising(*args):
            found = evaluate(*args)
            return None if found is None else dataclasses.replace(
                found, value=ev.value + 0.5 * min_rise
            )

        monkeypatch.setattr(solver, "_evaluate_at", barely_rising)
        assert solver._try_step(prog, self.MU, d, grad, grad, ev.value, lo, min_rise) is None
        moved = solver._try_step(prog, self.MU, d, grad, grad, ev.value, lo, 0.0)
        assert moved is not None and moved[1].value - ev.value <= min_rise


class TestRiseFloor:
    # the slice of ill-conditioned seed 1034 that crept to the 500-iteration
    # cap on rises of 10-80 eps, ending at this value
    MU = 11.748446792621783
    CAPPED_VALUE = -0.2392974481006048

    def test_creeping_slice_ends_far_below_the_cap(self):
        sol = fd.maximize_dual(TestNoiseFloor._prog(), self.MU)
        assert sol.status is AscentStatus.NEAR_PD_BOUNDARY
        assert sol.n_iter <= 100
        assert sol.value > self.CAPPED_VALUE

    @pytest.mark.parametrize("mu", [MU, TestNoiseFloor.MU])
    def test_no_trial_from_the_end_gains_more_than_the_floor(self, mu):
        # the ascent ended because neither the Newton nor the gradient step
        # from its last point rises by more than 1e-3 tol_gap (1 + |value|)
        prog = TestNoiseFloor._prog()
        sol, ev = solver._ascend(prog, mu, fd.SolverOptions())
        assert sol.status is AscentStatus.NEAR_PD_BOUNDARY and ev.ill_conditioned
        assert sol.n_iter < fd.SolverOptions().max_iter
        floor = 1e-3 * fd.SolverOptions().tol_gap * (1.0 + abs(ev.value))
        d, lo = sol.point.as_array(), solver._bounds(prog)
        grad = np.array([ev.grad_varsigma, ev.grad_sigma])
        free = ~((d <= lo + dual.BOX_TOL * (1.0 + np.abs(lo))) & (grad < 0.0))
        pg = np.where(free, grad, 0.0)
        gains = []
        for step in (_ascent_direction(ev.hessian, pg, free), pg):
            assert solver._try_step(prog, mu, d, step, grad, ev.value, lo, floor) is None
            for trial in np.maximum(d + _HALVINGS * step, lo):
                point = DualPoint(mu, float(trial[0]), float(trial[1]))
                fac = fd.curvature_matrix(prog, point)
                if fac.pd:
                    gains.append(fd.evaluate_dual(prog, point, fac=fac).value - ev.value)
        assert max(gains) <= floor
        # the rises refused are above rounding: the floor is a tolerance
        assert max(gains) > 1e3 * 4.0 * np.finfo(float).eps * (1.0 + abs(ev.value))

    # (n_iter, varsigma, sigma, value) as float hex: these slices never turn
    # ill-conditioned, so the floor must leave them bit for bit as they are
    # with no floor at all
    @pytest.mark.parametrize("prog, mu, want", [
        (make_reference(), 1.7, (9, "-0x1.df220ac1a0d0fp-1", "0x1.d3ded7400d876p-4",
                                 "0x1.beda7d6b1c568p-1")),
        (fd.generate_program(4, 1, seed=1005), 2.249664037515023,
         (13, "-0x1.880ff5186852ap+0", "0x1.c03e97d2cf69ap+1", "0x1.55bc9de90a61ap+1")),
    ])
    def test_well_conditioned_slice_is_unchanged(self, prog, mu, want, monkeypatch):
        floors = []
        try_step = solver._try_step

        def spy(*args):
            floors.append(args[7])  # min_rise
            return try_step(*args)

        def hexed(sol):
            point = sol.point
            return (sol.n_iter, point.varsigma.hex(), point.sigma.hex(), sol.value.hex())

        monkeypatch.setattr(solver, "_try_step", spy)
        sol = fd.maximize_dual(prog, mu)
        assert floors and set(floors) == {0.0}
        assert fd.certify(prog, mu, sol).kind is CertificateKind.PERFECT
        assert hexed(sol) == want
        monkeypatch.setattr(solver, "_RISE_SHARE", 0.0)
        unfloored = fd.maximize_dual(prog, mu)
        assert hexed(unfloored) == hexed(sol)
        assert unfloored.min_pivot.hex() == sol.min_pivot.hex()


def test_certify_reuses_the_ascents_last_evaluation(monkeypatch):
    # every factorization of a solve is made by an ascent: certifying a
    # slice takes the ascent's last evaluation and factorizes nothing
    prog = fd.generate_program(3, 2, seed=1022)
    calls = {"n": 0}
    factorize = dual._factorize

    def counted(*args):
        calls["n"] += 1
        return factorize(*args)

    # the kernel and curvature_matrix both factorize through _factorize
    monkeypatch.setattr(dual, "_factorize", counted)
    # and every LAPACK Cholesky factorization goes through _factorize
    choleskys = {"n": 0}
    dual._bind_lapack()
    potrf = dual._potrf

    def counted_potrf(*args, **kwargs):
        choleskys["n"] += 1
        return potrf(*args, **kwargs)

    monkeypatch.setattr(dual, "_potrf", counted_potrf)
    per_ascent = []
    ascend = solver._ascend

    def spy(*args):
        before = calls["n"]
        try:
            return ascend(*args)
        finally:
            per_ascent.append(calls["n"] - before)

    monkeypatch.setattr(solver, "_ascend", spy)
    res = fd.solve(prog, fd.SolverOptions(grid=12))
    assert len(per_ascent) >= 12 and min(per_ascent) > 0
    assert calls["n"] == sum(per_ascent) == choleskys["n"]
    assert any(s.note == "Polished" for s in res.mu_profile)


def _reference_solve_at_mu(prog, mu, opts):
    """_solve_at_mu as it was written with four eval_terms calls a slice:
    certify's, the snap test's, is_feasible's and eval_objective's."""
    try:
        sol, ev = solver._ascend(prog, mu, opts)
    except fd.NoStartingPointError:
        return solver.MuSample(mu=mu, solution=None, certificate=None, p0=None,
                               note="NoStartingPoint"), None
    cert = fd.certify(prog, mu, sol, opts, ev)
    x = ev.x_candidate
    _, _, margin = fd.eval_terms(prog, x)
    if margin < 1.0 / mu:
        x = solver._snap_to_margin(prog, x, 1.0 / mu)
    if fd.is_feasible(prog, x):
        p0 = fd.eval_objective(prog, x)
    else:
        x, p0 = None, None
    return solver.MuSample(mu=mu, solution=sol, certificate=cert, p0=p0), x


def _slice_bits(sample, x):
    """A solved slice with every float as its hex, and x as its bytes."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v

    cert = sample.certificate
    return (
        sample.mu.hex(), sample.note, hexed(sample.p0), sample.solution,
        cert and tuple(hexed(getattr(cert, f.name)) for f in dataclasses.fields(cert)),
        None if x is None else x.tobytes(),
    )


@pytest.mark.parametrize("prog", [
    make_reference(), make_gap_case(), make_far_start(),
    *(fd.generate_program(1 + s % 6, s % 4, seed=s) for s in (1006, 1013, 1021, 1022)),
    fd.generate_program(3, 2, seed=1034, conditioning=1e6),
    fd.generate_program(64, 1, seed=1064),
])
def test_slice_matches_four_eval_terms_bitwise(prog, monkeypatch):
    # one eval_terms of the candidate, a second only when it is snapped to
    # the margin, and the same sample and candidate, bit for bit; at the
    # lower quarter of the grid no start is found
    opts = fd.SolverOptions()
    mus = [float(mu) for mu in solver.mu_grid(prog, 16)]
    monkeypatch.setattr(solver, "_start", _no_start_below(mus[4]))
    terms, solved = fd.eval_terms, 0
    calls = {"n": 0}

    def counted(*args):
        calls["n"] += 1
        return terms(*args)

    for mu in mus:
        want = _slice_bits(*_reference_solve_at_mu(prog, mu, opts))
        calls["n"] = 0
        monkeypatch.setattr(solver, "eval_terms", counted)
        got = solver._solve_at_mu(prog, mu, opts)
        monkeypatch.setattr(solver, "eval_terms", terms)
        assert _slice_bits(*got) == want
        solved += got[0].solution is not None
        assert calls["n"] in ((1, 2) if got[0].solution is not None else (0,))
    assert solved == 12


@pytest.mark.parametrize("mu_hex", ["0x1.27b15cc5bda4bp+2", "0x1.2f1c8a0fd7dc4p+2"])
def test_slice_snaps_on_the_eval_terms_margin(mu_hex):
    # slices of the benchmark's mixed seed 2007 where eval_terms' margin and
    # the evaluation's h(x), two roundings of one margin, fall on opposite
    # sides of 1/mu: the snap follows eval_terms, as it did with four calls
    prog, mu, opts = fd.generate_program(4, 3, seed=2007), float.fromhex(mu_hex), fd.SolverOptions()
    ev = solver._ascend(prog, mu, opts)[1]
    assert (fd.eval_terms(prog, ev.x_candidate)[2] < 1.0 / mu) != (ev.h_at_x < 1.0 / mu)
    got = solver._solve_at_mu(prog, mu, opts)
    assert _slice_bits(*got) == _slice_bits(*_reference_solve_at_mu(prog, mu, opts))


def test_only_the_grid_can_be_set():
    # the iteration cap and the gap tolerance are fixed, but stay readable
    # for the result file's solver_options and for replays of a slice
    for name in ("max_iter", "tol_gap"):
        with pytest.raises(TypeError):
            fd.SolverOptions(**{name: 1})
    opts = fd.SolverOptions(grid=12)
    assert (opts.grid, opts.max_iter, opts.tol_gap) == (12, 500, 1e-6)


class TestCertify:
    def test_weak_only_at_noncritical_feasible_point(self):
        prog = make_interior_optimum()
        point = DualPoint(2.0, 0.3, 0.0)
        sol = DualSolution(
            point=point, value=fd.dual_value(prog, point), grad_norm=1.0,
            status=AscentStatus.MAX_ITERATIONS, n_iter=1, min_pivot=1.6,
        )
        cert = fd.certify(prog, 2.0, sol)
        assert cert.kind is CertificateKind.WEAK_ONLY
        assert cert.gap > 1e-3
        assert cert.feasibility_residual > 0

    def test_untrusted_status_blocks_certificate(self, reference):
        point = DualPoint(2.0, -0.9571067811869238, 0.017766952965139415)
        sol = DualSolution(
            point=point, value=fd.dual_value(prog=reference, point=point),
            grad_norm=0.0, status=AscentStatus.NEAR_PD_BOUNDARY, n_iter=1,
            min_pivot=1e-12,
        )
        cert = fd.certify(reference, 2.0, sol)
        assert cert.kind is not CertificateKind.PERFECT


class TestSolve:
    def test_reference_instance(self, reference):
        res = fd.solve(reference)
        assert res.certificate.kind is CertificateKind.PERFECT
        assert res.P0_value == pytest.approx(REFERENCE_P0, abs=1e-6)
        assert res.x_star[0] == pytest.approx(REFERENCE_X, abs=1e-3)
        assert res.mu_star == pytest.approx(REFERENCE_MU, abs=1e-3)
        assert all(sample.solution is not None for sample in res.mu_profile)
        assert res.P0_value >= res.best_dual_value - 1e-6 * (1.0 + abs(res.best_dual_value))

    def test_reference_beats_the_edge_subproblem(self, reference):
        # the minimum over the whole interval undercuts the boundary
        # subproblem value 1.0018 by a wide margin
        res = fd.solve(reference)
        assert res.P0_value < 1.0018398282201788 - 0.2
        assert reference.mu0 < res.mu_star < reference.mu_max

    def test_singleton_shortcut(self):
        prog = make_reference(delta=1.0)
        res = fd.solve(prog)
        assert_allclose(res.x_star, [1.0], atol=1e-12)
        assert res.P0_value == pytest.approx(1.125, abs=1e-9)
        assert res.certificate.kind is CertificateKind.PERFECT
        assert res.mu_star == pytest.approx(1.0)
        assert len(res.mu_profile) == 1
        assert res.mu_profile[0].status_label == "DirectSingleton"
        assert res.global_lower_bound == res.P0_value
        assert res.global_gap == 0.0
        # the same timing keys as a swept solve, whichever path ran
        assert set(res.timings) == {"total_s", "grid_s", "refine_s", "polish_s"}

    def test_interior_optimum_prefers_smallest_parameter(self):
        # every subproblem certifies the same interior point, so the
        # tie-break should settle on the bottom of the interval
        prog = make_interior_optimum()
        res = fd.solve(prog)
        assert res.P0_value == pytest.approx(-0.5, abs=1e-9)
        assert_allclose(res.x_star, [1.0], atol=1e-6)
        assert res.certificate.kind is CertificateKind.PERFECT
        assert res.mu_star == pytest.approx(prog.mu0, abs=1e-9)

    def test_gap_case_returns_uncertified(self, gap_case):
        # the dual sweep alone stalls on the symmetric axis; the polish
        # pass rides the negative curvature down to the true boundary
        # minimum, but the slice there sits on the definiteness boundary
        # so no certificate can be issued
        res = fd.solve(gap_case)
        assert res.certificate.kind is CertificateKind.NONE
        assert res.P0_value == pytest.approx(GAP_CASE_MIN, abs=1e-6)
        assert abs(res.x_star[0]) == pytest.approx(np.sqrt(0.4324), abs=1e-4)
        assert res.x_star[1] == pytest.approx(GAP_CASE_ARGMIN_X2, abs=1e-4)
        assert res.P0_value >= res.best_dual_value - 1e-6
        labels = {s.status_label for s in res.mu_profile}
        assert "NearPDBoundary" in labels

    def test_profile_and_options_recorded(self, reference):
        opts = fd.SolverOptions(grid=16)
        res = fd.solve(reference, opts)
        assert res.options == opts
        assert len(res.mu_profile) >= 16
        assert set(res.timings) == {"total_s", "grid_s", "refine_s", "polish_s"}

    def test_weak_duality_violation_is_a_fracdual_error(self, reference):
        res = fd.solve(reference)
        slice_value = fd.eval_subproblem(reference, res.mu_star, res.x_star)
        broken = dataclasses.replace(res, best_dual_value=slice_value + 1.0)
        with pytest.raises(fd.WeakDualityError):
            _weak_duality_floor(reference, broken)
        assert issubclass(fd.WeakDualityError, fd.FracdualError)

    def test_global_bound_above_the_answer_is_a_fracdual_error(self, reference):
        res = fd.solve(reference)
        _weak_duality_floor(
            reference, dataclasses.replace(res, global_lower_bound=res.P0_value + 1e-9)
        )
        broken = dataclasses.replace(res, global_lower_bound=res.P0_value + 1e-3)
        with pytest.raises(fd.WeakDualityError):
            _weak_duality_floor(reference, broken)

    def test_no_starting_point_at_any_mu_fails_the_solve(self, reference, monkeypatch):
        monkeypatch.setattr(solver, "_start", _no_start_below(np.inf))
        with pytest.raises(fd.AllSubproblemsFailedError):
            fd.solve(reference, fd.SolverOptions(grid=12))

    def test_slices_without_a_starting_point_are_recorded(self, reference, monkeypatch):
        cut = 0.5 * (reference.mu0 + reference.mu_max)
        monkeypatch.setattr(solver, "_start", _no_start_below(cut))
        res = fd.solve(reference, fd.SolverOptions(grid=12))
        failed = [s for s in res.mu_profile if s.note == "NoStartingPoint"]
        assert 0 < len(failed) < len(res.mu_profile)
        for s in failed:
            assert s.mu < cut and s.solution is s.certificate is s.p0 is None
        text = fd.serialize_result(res)
        data = json.loads(text)
        assert fd.canonical_text(data) == text
        rows = [row for row in data["mu_profile"] if row["status"] == "NoStartingPoint"]
        assert [row["mu"] for row in rows] == [s.mu for s in failed]
        assert all(row["dual_value"] is None and row["certificate"] == "None" for row in rows)
        assert fd.is_feasible(reference, res.x_star)


def _brute_envelope_min(A, B, lo, hi):
    # every candidate minimizer: both ends and each pairwise crossing inside
    i, j = np.triu_indices(len(A), 1)
    keep = B[i] != B[j]
    s = (A[i][keep] - A[j][keep]) / (B[j][keep] - B[i][keep])
    s = np.concatenate([[lo, hi], s[(s > lo) & (s < hi)]])
    return float((A[:, None] + B[:, None] * s).max(axis=0).min())


def _mp_envelope_min(lines, lo, hi):
    # a crossing walk over the envelope's lines, in mpmath arithmetic: it
    # follows active lines, not the solver's closed form over all pairs
    def top(s):
        a, b = max(lines, key=lambda line: line[0] + line[1] * s)
        return (a, b), a + b * s

    left, value = top(lo)
    if left[1] >= 0:
        return value
    right, value = top(hi)
    if right[1] <= 0:
        return value
    for _ in range(len(lines)):
        s = (left[0] - right[0]) / (right[1] - left[1])
        line, value = top(s)
        if value <= max(left[0] + left[1] * s, right[0] + right[1] * s) or line[1] == 0:
            return value
        if line[1] < 0:
            left = line
        else:
            right = line
    raise AssertionError("no crossing settled")


def _exact_envelope_min(A, B, lo, hi):
    # min over the ends and every crossing inside of the envelope, in rationals
    lines = [(Fraction(a), Fraction(b)) for a, b in zip(A.tolist(), B.tolist())]
    lo, hi = Fraction(lo), Fraction(hi)
    points = [lo, hi] + [(a - c) / (d - b) for a, b in lines for c, d in lines if b != d]
    return min(max(a + b * s for a, b in lines) for s in points if lo <= s <= hi)


def _mp_line(prog, point):
    """Intercept and slope of a slice's line s -> A + B*s at 50 digits."""
    mu = mpmath.mpf(point.mu)
    tau = mu * mpmath.mpf(point.varsigma)
    sigma = mpmath.mpf(point.sigma)
    G = mpmath.matrix(prog.Q.tolist()) - sigma * mpmath.matrix(prog.H.tolist())
    if prog.m:
        B = mpmath.matrix(prog.B.tolist())
        G += tau * (B.T * B)
    c = mpmath.matrix(prog.f_vec.tolist()) - sigma * mpmath.matrix(prog.b_vec.tolist())
    quad = (c.T * mpmath.lu_solve(G, c))[0]
    return -quad / 2 - mpmath.mpf(prog.lam) * tau, sigma - tau * tau / 2


class TestGlobalBound:
    def test_envelope_min_matches_every_crossing(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(1, 25))
            A = rng.normal(size=k)
            B = rng.normal(size=k) * rng.choice([0.0, 1.0, 10.0], size=k)
            if k > 2:
                A[1], B[1] = A[0], B[0]  # a repeated line
            lo, hi = np.sort(rng.normal(size=2))
            want = _brute_envelope_min(A, B, lo, hi)
            s, value = _envelope_min(A, B, lo, hi)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert lo <= s <= hi
            assert (A + B * s).max() == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_steep_lines_do_not_lift_the_bound(self):
        # the envelope bottoms out where steep lines (|B| up to 1e8) cross a
        # flatter one: an ulp of the crossing moves a steep line's value by
        # |B| ulps of s, so the bound may exceed the exact minimum only by a
        # few ulps of the flatter line's terms
        rng = np.random.default_rng(373)
        eps = np.finfo(float).eps
        for _ in range(300):
            k = int(rng.integers(2, 7))
            lo, hi = np.sort(rng.uniform(0.05, 2.0, size=2))
            steep = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(4, 8, size=k)
            B = np.concatenate([[rng.normal()], steep])
            A = rng.normal(size=k + 1)
            # the falling lines meet the flat one left of a point of [lo, hi],
            # the rising ones right of it, so the minimum is on the flat line
            mid = rng.uniform(lo, hi)
            meet = np.where(steep < 0.0, rng.uniform(lo, mid, size=k), rng.uniform(mid, hi, size=k))
            A[1:] = A[0] + (B[0] - B[1:]) * meet
            s, value = _envelope_min(A, B, lo, hi)
            exact = _exact_envelope_min(A, B, lo, hi)
            assert lo <= s <= hi
            assert value - exact <= 4 * eps * (abs(A[0]) + abs(B[0] * s))

    def test_reference_closes_without_polish(self, reference):
        res = fd.solve(reference)
        assert all(s.note != "Polished" for s in res.mu_profile)
        assert 0.0 <= res.global_gap <= 1e-6 * (1.0 + abs(res.P0_value))

    def test_gap_case_polished_point_is_globally_optimal(self, gap_case):
        # the winning slice sits on the definiteness boundary, so it stays
        # uncertified, but the lines of the solved slices prove its value
        res = fd.solve(gap_case)
        assert res.certificate.kind is CertificateKind.NONE
        assert any(s.note == "Polished" for s in res.mu_profile)
        assert res.global_gap == res.P0_value - res.global_lower_bound
        assert abs(res.global_gap) <= 1e-6 * (1.0 + abs(res.P0_value))
        assert res.global_lower_bound <= GAP_CASE_MIN + 1e-9

    def test_polish_reaches_the_boundary_minimum_of_a_duality_gap(self):
        # the slices' lines cannot close this instance's duality gap; the
        # polish, stepping in the metric of -H, descends to a KKT point on
        # the boundary (the SLSQP local minimum 0.125925)
        res = fd.solve(fd.generate_program(5, 2, seed=1006))
        assert res.P0_value <= 0.1259250

    def test_polish_is_not_stalled_by_ill_conditioning(self):
        # at conditioning 1e6 a plain gradient step creeps along the shell
        prog = fd.generate_program(4, 3, seed=2031, conditioning=1e6)
        assert fd.solve(prog).P0_value <= 2.0223520

    @pytest.mark.parametrize("seed", [1027, 1028, 1033, 1034])
    def test_bound_survives_exact_arithmetic(self, seed):
        # ill-conditioned slices: the float bound may not sit above the
        # envelope of the same dual points' lines evaluated at 50 digits
        prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed, conditioning=1e6)
        res = fd.solve(prog)
        with mpmath.workdps(50):
            lines = [_mp_line(prog, s.solution.point) for s in res.mu_profile
                     if s.solution is not None]
            exact = _mp_envelope_min(
                lines, mpmath.mpf(prog.delta), mpmath.mpf(prog.mu0_inv)
            )
            excess = (res.global_lower_bound - exact) / (1 + abs(exact))
        assert excess <= 1e-12


@settings(max_examples=20)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 10_000))
@example(1, 1, 373)  # a line of slope 3e7 crosses the flat line at the minimum
def test_global_bound_is_below_the_minimum(n, m, seed):
    prog = fd.generate_program(n, m, seed=seed)
    res = fd.solve(prog, fd.SolverOptions(grid=12))
    assert res.global_lower_bound <= res.P0_value + 1e-12 * (1.0 + abs(res.P0_value))
    reference = fd.grid_minimize_objective(prog).min_value
    assert res.global_lower_bound <= reference + 1e-12 * (1.0 + abs(reference))


_PLANTED = [(n, m, seed, conditioning) for n in (2, 3, 6, 64) for m in (1, 2, 3)
            for conditioning in (1.0, 1e6) for seed in range(3 if n < 64 else 1)]


# The planted cases whose global gap stays open: at mu* the ascent ends
# NearPDBoundary short of the planted d*, so the bound stays below P*
# (ROADMAP item 3).
_GAP_OPEN = {(6, 2, 1, 1.0), (6, 2, 1, 1e6)}


@functools.cache
def _planted_solve(n, m, seed, conditioning):
    """The planted instance, its P*, and its solve, shared by the tests."""
    prog, _, p_star = planted_program(n, m, seed, conditioning)
    return prog, p_star, fd.solve(prog)


class TestPlanted:
    @pytest.mark.parametrize("n, m, seed, conditioning", _PLANTED)
    def test_answer_and_bound_meet_the_planted_minimum(self, n, m, seed, conditioning):
        _, p_star, res = _planted_solve(n, m, seed, conditioning)
        scale = 1.0 + abs(p_star)
        assert res.P0_value <= p_star + fd.SolverOptions().tol_gap * scale
        assert res.global_lower_bound <= p_star + 1e-12 * scale

    @pytest.mark.parametrize("n, m, seed, conditioning", [
        pytest.param(*case, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 3: the ascent stops short of d* at mu*"))
        if case in _GAP_OPEN else case
        for case in _PLANTED
    ])
    def test_global_gap_closes(self, n, m, seed, conditioning):
        _, _, res = _planted_solve(n, m, seed, conditioning)
        assert res.global_gap <= fd.SolverOptions().tol_gap * (1.0 + abs(res.P0_value))

    @pytest.mark.parametrize("n, m, seed, conditioning", _PLANTED)
    def test_referee_reaches_the_planted_minimum(self, n, m, seed, conditioning):
        # the slice referee's positive control, _GAP_OPEN's cases included,
        # where the ascent stops short of d*
        prog, x_star, p_star = planted_program(n, m, seed, conditioning)
        found = slice_referee(prog, 1.0 / fd.eval_terms(prog, x_star)[2])
        assert found is not None
        assert abs(found[0] - p_star) <= fd.SolverOptions().tol_gap * (1.0 + abs(p_star))

    @pytest.mark.parametrize("n, m, seed, conditioning", _PLANTED[::5])
    def test_planted_point_is_a_zero_gap_dual_critical_point(self, n, m, seed, conditioning):
        prog, x_star, p_star = planted_program(n, m, seed, conditioning)
        mu = 1.0 / fd.eval_terms(prog, x_star)[2]
        varsigma = fd.canonical_measure(prog, x_star)
        point = DualPoint(mu, varsigma, 0.5 * (mu * varsigma) ** 2)
        ev = fd.evaluate_dual(prog, point)
        assert varsigma > -prog.lam and point.sigma > 0.0
        assert_allclose(ev.x_candidate, x_star, rtol=1e-6, atol=1e-9)
        assert ev.value == pytest.approx(p_star, rel=1e-9, abs=1e-9)
        assert abs(ev.grad_varsigma) + abs(ev.grad_sigma) <= 1e-6 * (1.0 + abs(p_star))


@functools.cache
def _refereed_slices(seed):
    """(ascent value, referee value) of every refereed slice of the benchmark
    recipe's instance `seed`, solved at the default grid."""
    prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed)
    pairs = []
    for sample in fd.solve(prog).mu_profile:
        found = slice_referee(prog, sample.mu) if sample.solution is not None else None
        if found is not None:
            pairs.append((sample.solution.value, found[0]))
    return pairs


class TestShortSlices:
    @pytest.mark.parametrize("seed", [1021, 1022])
    def test_no_ascent_ends_above_the_referee(self, seed):
        pairs = _refereed_slices(seed)
        assert len(pairs) >= 60
        assert all(value <= found + 1e-9 * (1.0 + abs(value)) for value, found in pairs)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: ascents stop short at the cone "
                       "edge, 44 and 53 slices of these two instances")
    @pytest.mark.parametrize("seed", [1021, 1022])
    def test_no_slice_is_short(self, seed):
        tol = fd.SolverOptions().tol_gap
        short = [(value, found) for value, found in _refereed_slices(seed)
                 if is_short(value, found, tol)]
        assert not short, len(short)


# P0 of the instances whose global gap stays open, as the fixed-rule descent
# left them: (seed, conditioning) of the benchmark recipe -> P0.
_POLISHED_P0 = {
    (1006, 1.0): 0.12592498091330356,
    (1021, 1.0): 0.8588235638289723,
    (1022, 1.0): 14.823901936344122,
    (2010, 1.0): 12.15544384694509,
    (2017, 1.0): 0.7712023649233616,
    (2031, 1e6): 2.022351894913772,
}


def _recipe(seed: int, conditioning: float):
    return fd.generate_program(1 + seed % 6, seed % 4, seed=seed, conditioning=conditioning)


class TestPolish:
    @pytest.mark.parametrize("case", list(_POLISHED_P0))
    def test_polish_is_no_worse_than_the_fixed_rule_descent(self, case):
        res = fd.solve(_recipe(*case))
        assert any(s.note == "Polished" for s in res.mu_profile)
        before = _POLISHED_P0[case]
        assert res.P0_value <= before + 1e-12 * (1.0 + abs(before))

    @pytest.mark.parametrize("case", [(1006, 1.0), (2017, 1.0), (2031, 1e6)])
    def test_every_start_stops_well_below_the_cap(self, case, monkeypatch):
        # gradient evaluations per start: the fixed-rule descent ran most
        # starts on these instances to the 250-step cap
        counts = []
        descend, gradient = solver._descend, solver._objective_gradient

        def counting_descend(*args):
            counts.append(0)
            return descend(*args)

        def counting_gradient(prog, x):
            counts[-1] += 1
            return gradient(prog, x)

        monkeypatch.setattr(solver, "_descend", counting_descend)
        monkeypatch.setattr(solver, "_objective_gradient", counting_gradient)
        fd.solve(_recipe(*case))
        assert len(counts) == 13
        assert max(counts) <= 50 < solver._DESCENT_ITERS

    def test_snap_measures_the_offset_as_the_negated_form(self):
        # -(y'Hy) equals y'(-H)y bit for bit: negation is exact
        rng = np.random.default_rng(3)
        for n, m, seed in [(1, 0, 1), (3, 2, 2), (6, 1, 3), (64, 2, 4)]:
            prog = fd.generate_program(n, m, seed=seed)
            for _ in range(50):
                y = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8)
                assert -(y @ prog.H @ y) == y @ (-prog.H) @ y


class TestProbes:
    def test_quadratic_ray_slope(self, reference):
        for mu in (1.0, 1.5, 2.0):
            probe = fd.existence_probe(reference, mu)
            ray = probe.varsigma_ray
            assert ray.theory_slope == pytest.approx(-mu / 2.0)
            assert ray.slope == pytest.approx(ray.theory_slope, rel=0.05)
            assert ray.coercive

    def test_sigma_ray_flat_at_interval_bottom(self, reference):
        probe = fd.existence_probe(reference, 1.0)
        assert probe.sigma_ray.theory_slope == pytest.approx(0.0, abs=1e-12)
        assert not probe.sigma_ray.coercive

    def test_sigma_ray_negative_inside_interval(self, reference):
        probe = fd.existence_probe(reference, 2.0)
        assert probe.sigma_ray.theory_slope == pytest.approx(-0.5)
        assert probe.sigma_ray.slope == pytest.approx(-0.5, rel=0.05)
        assert probe.sigma_ray.coercive


@given(st.integers(0, 300))
def test_solve_output_is_feasible_and_above_dual(seed):
    prog = fd.generate_program(1 + seed % 3, seed % 3, seed=seed)
    res = fd.solve(prog, fd.SolverOptions(grid=12))
    assert fd.is_feasible(prog, res.x_star)
    assert res.P0_value == pytest.approx(fd.eval_objective(prog, res.x_star), rel=1e-12)
    if res.certificate.kind is CertificateKind.PERFECT:
        cert = res.certificate
        assert abs(cert.gap) <= 1e-6 * (1.0 + abs(cert.primal_value))
        if res.d_star.sigma > 1e-9:
            level_err = abs(
                fd.eval_terms(prog, fd.recover_primal(prog, res.d_star))[2] - 1.0 / res.mu_star
            )
            assert level_err <= 1e-6


@given(st.integers(0, 300))
def test_solution_no_worse_than_profile_candidates(seed):
    prog = fd.generate_program(1 + seed % 3, seed % 3, seed=seed)
    res = fd.solve(prog, fd.SolverOptions(grid=12))
    for sample in res.mu_profile:
        if sample.p0 is not None:
            assert res.P0_value <= sample.p0 + 1e-9 * (1.0 + abs(sample.p0))

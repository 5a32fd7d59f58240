"""End-to-end acceptance battery.

Each test covers one shipping criterion and reports a single PASS/FAIL
line in the terminal summary.  Tolerances are part of the contract; do
not loosen them to make a run green.
"""

import time

import numpy as np
import pytest

import fracdual as fd
from fracdual.cli import main
from fracdual.dual import DualPoint
from fracdual.solver import AscentStatus, CertificateKind

from conftest import (
    ACCEPTANCE_LINES,
    REFERENCE_P0,
    REFERENCE_X,
    make_reference,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def draw_instance(seed: int, max_n: int = 6) -> fd.FractionalProgram:
    return fd.generate_program(1 + seed % max_n, seed % 4, seed=seed)


def draw_mu(prog, rng) -> float:
    if prog.mu_interval.degenerate:
        return prog.mu0
    return float(rng.uniform(prog.mu0, prog.mu_max))


def draw_cone_points(prog, mu, rng, count):
    """Sample dual cone points, mixing a guaranteed-definite zone with
    accept-reject draws closer to the definiteness boundary."""
    points = []
    attempts = 0
    while len(points) < count and attempts < 40 * count:
        attempts += 1
        if attempts % 2:
            vs = float(rng.uniform(0.0, 3.0))
            sg = float(prog.sigma_scale * (1.0 + rng.exponential(1.0)))
            points.append(DualPoint(mu, vs, sg))
            continue
        vs = float(rng.uniform(-prog.lam, 3.0))
        sg = float(rng.uniform(0.0, prog.sigma_scale))
        d = DualPoint(mu, vs, sg)
        if fd.in_dual_cone(prog, d):
            points.append(d)
    return points


def draw_feasible_points(prog, mu, rng, count):
    # map a ball through the inverse square root of the margin curvature
    L = np.linalg.cholesky(-prog.H)
    radius = np.sqrt(max(2.0 * (prog.mu0_inv - 1.0 / mu), 0.0))
    out = []
    for _ in range(count):
        u = rng.normal(size=prog.n)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            u, nrm = np.ones(prog.n), np.sqrt(prog.n)
        r = radius * rng.uniform(0.0, 1.0) ** (1.0 / prog.n)
        y = (r / nrm) * u
        out.append(prog.x_center + np.linalg.solve(L.T, y))
    return out


def test_criterion_1_weak_duality():
    t0 = time.perf_counter()
    n_instances, n_dual, n_primal = 200, 50, 50
    worst = -np.inf
    pairs = 0
    for seed in range(n_instances):
        prog = draw_instance(seed)
        rng = np.random.default_rng(10_000 + seed)
        mu = draw_mu(prog, rng)
        duals = draw_cone_points(prog, mu, rng, n_dual)
        assert len(duals) == n_dual
        best_dual = max(fd.dual_value(prog, d) for d in duals)
        for x in draw_feasible_points(prog, mu, rng, n_primal):
            upper = fd.eval_subproblem(prog, mu, x)
            worst = max(worst, best_dual - upper - 1e-9 * (1.0 + abs(upper)))
            pairs += n_dual
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 60.0
    report(1, "weak-duality", ok,
           f"{pairs} pairs over {n_instances} instances, "
           f"worst slack violation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_strong_duality_and_rate():
    n_instances = 200
    perfect = excluded = 0
    violations = []
    for seed in range(1000, 1000 + n_instances):
        prog = draw_instance(seed)
        res = fd.solve(prog)
        winner = next(
            (s for s in res.mu_profile if s.certificate is res.certificate), None
        )
        status = winner.solution.status if winner and winner.solution else None
        if status is AscentStatus.NEAR_PD_BOUNDARY:
            excluded += 1
            continue
        if res.certificate.kind is CertificateKind.PERFECT:
            perfect += 1
            cert = res.certificate
            if abs(cert.gap) > 1e-6 * (1.0 + abs(cert.primal_value)):
                violations.append((seed, "gap", cert.gap))
            if res.d_star.sigma > 1e-9:
                level_err = abs(
                    fd.eval_terms(prog, fd.recover_primal(prog, res.d_star))[2]
                    - 1.0 / res.mu_star
                )
                if level_err > 1e-6:
                    violations.append((seed, "level", level_err))
    denom = n_instances - excluded
    rate = perfect / denom if denom else 0.0
    ok = not violations and rate >= 0.80
    report(2, "strong-duality-rate", ok,
           f"{perfect}/{denom} Perfect ({rate:.1%}), {excluded} excluded at "
           f"definiteness boundary, {len(violations)} gap/level violations")


def test_criterion_3_concavity():
    n_instances, checks_each = 50, 200
    worst_gap = -np.inf
    worst_eig = -np.inf
    n_checks = 0
    for seed in range(2000, 2000 + n_instances):
        prog = draw_instance(seed)
        rng = np.random.default_rng(seed)
        mu = draw_mu(prog, rng)
        pts = draw_cone_points(prog, mu, rng, 2 * checks_each)
        for d1, d2 in zip(pts[::2], pts[1::2]):
            mid = DualPoint(mu, 0.5 * (d1.varsigma + d2.varsigma),
                            0.5 * (d1.sigma + d2.sigma))
            v1, v2, vm = (fd.dual_value(prog, q) for q in (d1, d2, mid))
            scale = 1.0 + max(abs(v1), abs(v2), abs(vm))
            worst_gap = max(worst_gap, (0.5 * (v1 + v2) - vm) / scale - 1e-9)
            n_checks += 1
        for d in pts[:2]:
            ev = fd.evaluate_dual(prog, d)
            hscale = 1.0 + float(np.abs(ev.hessian).max())
            worst_eig = max(
                worst_eig,
                float(np.linalg.eigvalsh(ev.hessian).max()) - 1e-8 * hscale,
            )
    ok = worst_gap <= 0.0 and worst_eig <= 0.0 and n_checks >= 10_000
    report(3, "concavity", ok,
           f"{n_checks} midpoint checks, worst violation {worst_gap:.3e}, "
           f"worst hessian eig excess {worst_eig:.3e}")


def test_criterion_4_derivatives_match_finite_differences():
    n_points = 0
    worst_grad = worst_hess = 0.0
    for seed in range(3000, 3050):
        prog = draw_instance(seed)
        rng = np.random.default_rng(seed)
        mu = draw_mu(prog, rng)
        for _ in range(20):
            # stay well inside the definite zone so FD probes are valid
            vs = float(0.2 + rng.exponential(1.0))
            sg = float(prog.sigma_scale * (1.5 + rng.uniform(0.0, 2.0)))
            d = DualPoint(mu, vs, sg)
            ev = fd.evaluate_dual(prog, d)
            if ev.ill_conditioned:
                continue
            hv = 1e-6 * (1.0 + abs(vs))
            hs = 1e-6 * (1.0 + abs(sg))
            grad_fd = np.array([
                (fd.dual_value(prog, DualPoint(mu, vs + hv, sg))
                 - fd.dual_value(prog, DualPoint(mu, vs - hv, sg))) / (2 * hv),
                (fd.dual_value(prog, DualPoint(mu, vs, sg + hs))
                 - fd.dual_value(prog, DualPoint(mu, vs, sg - hs))) / (2 * hs),
            ])
            grad = np.array([ev.grad_varsigma, ev.grad_sigma])
            worst_grad = max(
                worst_grad,
                float(np.abs(grad_fd - grad).max()) / (1.0 + float(np.abs(grad).max())),
            )

            def g(point):
                e = fd.evaluate_dual(prog, point)
                return np.array([e.grad_varsigma, e.grad_sigma])

            hess_fd = np.column_stack([
                (g(DualPoint(mu, vs + hv, sg)) - g(DualPoint(mu, vs - hv, sg))) / (2 * hv),
                (g(DualPoint(mu, vs, sg + hs)) - g(DualPoint(mu, vs, sg - hs))) / (2 * hs),
            ])
            worst_hess = max(
                worst_hess,
                float(np.abs(hess_fd - ev.hessian).max())
                / (1.0 + float(np.abs(ev.hessian).max())),
            )
            n_points += 1
    ok = n_points >= 1000 and worst_grad <= 1e-6 and worst_hess <= 1e-5
    report(4, "derivative-checks", ok,
           f"{n_points} points, worst gradient rel err {worst_grad:.2e}, "
           f"worst hessian rel err {worst_hess:.2e}")


def test_criterion_5_solver_matches_grid_reference():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(4000, 4050):
        prog = draw_instance(seed, max_n=2)
        res = fd.solve(prog)
        ref = fd.grid_minimize_objective(prog)
        tol = max(1e-4, 1e-3 * abs(ref.min_value))
        diff = abs(res.P0_value - ref.min_value)
        if diff > tol:
            mismatches.append((seed, diff, tol))

    # scanning the parameter interval with the subproblem reference must
    # reproduce the direct reference minimum up to grid effects
    scan_bad = []
    for seed in range(4000, 4012, 2):
        prog = draw_instance(seed, max_n=1)
        direct = fd.grid_minimize_objective(prog, resolution=1e-4)
        mus = np.linspace(prog.mu0, prog.mu_max, 21)
        v_best = min(
            fd.grid_minimize_subproblem(prog, float(mu), resolution=1e-4).min_value
            for mu in mus
        )
        # scan can only overshoot by the parameter spacing times the well
        # term scale, plus twice the spatial resolution effect
        _, well, _ = fd.eval_terms(prog, direct.argmin)
        dmu = (prog.mu_max - prog.mu0) / 20.0
        slack = dmu * (well + 1.0) + 2e-3 * (1.0 + abs(direct.min_value))
        if not (direct.min_value - 1e-6 <= v_best <= direct.min_value + slack):
            scan_bad.append((seed, v_best, direct.min_value, slack))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and not scan_bad and elapsed < 300.0
    report(5, "oracle-agreement", ok,
           f"50 instances within max(1e-4, 1e-3|min|), {len(mismatches)} value "
           f"mismatches, {len(scan_bad)} scan mismatches, {elapsed:.1f}s")


def test_criterion_6_reference_regression():
    res = fd.solve(make_reference(delta=0.5))
    ok_value = abs(res.P0_value - REFERENCE_P0) <= 1e-3
    ok_point = abs(float(res.x_star[0]) - REFERENCE_X) <= 1e-3
    single = fd.solve(make_reference(delta=1.0))
    ok_single = (
        abs(single.P0_value - 1.125) <= 1e-9
        and abs(float(single.x_star[0]) - 1.0) <= 1e-12
    )
    ok = ok_value and ok_point and ok_single
    report(6, "reference-regression", ok,
           f"P0 {res.P0_value:.10f} vs {REFERENCE_P0:.10f}, "
           f"x {float(res.x_star[0]):.8f} vs {REFERENCE_X:.8f}, "
           f"collapsed-interval exact: {ok_single}")


def test_criterion_7_existence_probes():
    prog = make_reference()
    worst = 0.0
    for mu in (1.0, 1.5, 2.0):
        probe = fd.existence_probe(prog, mu)
        ray = probe.varsigma_ray
        rel = abs(ray.slope - ray.theory_slope) / abs(ray.theory_slope)
        worst = max(worst, rel)
        assert ray.coercive
    ok = worst <= 0.05
    report(7, "existence-probes", ok,
           f"quadratic ray slope within {worst:.2%} of -mu/2 (limit 5%)")


def test_criterion_8_round_trip_and_cli(tmp_path):
    bad = 0
    for seed in range(1000):
        prog = draw_instance(seed)
        text = fd.serialize_instance(prog)
        back = fd.parse_instance(text)
        same = (
            np.array_equal(prog.Q, back.Q)
            and np.array_equal(prog.f_vec, back.f_vec)
            and np.array_equal(prog.B, back.B)
            and np.array_equal(prog.H, back.H)
            and np.array_equal(prog.b_vec, back.b_vec)
            and prog.lam == back.lam
            and prog.delta == back.delta
            and fd.serialize_instance(back) == text
        )
        bad += not same

    # end-to-end: generated low-dimensional instances that solve with a
    # Perfect certificate must also pass the reference cross-check
    verified = 0
    for n, seed in ((1, 3), (2, 1)):
        path = tmp_path / f"gen{n}_{seed}.json"
        assert main(["gen", "--n", str(n), "--m", "1", "--seed", str(seed),
                     "--output", str(path)]) == 0
        prog = fd.parse_instance(path.read_text())
        if fd.solve(prog).certificate.kind is not CertificateKind.PERFECT:
            continue
        if main(["verify", str(path)]) == 0:
            verified += 1
        else:
            bad += 1
    ok = bad == 0 and verified >= 1
    report(8, "round-trip-and-cli", ok,
           f"1000 instances bit-exact ({bad} failures), "
           f"{verified} generated instances verified end-to-end")

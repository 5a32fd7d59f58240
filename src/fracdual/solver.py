"""Dual ascent per sweep value and the outer parameter sweep.

Each subproblem is solved by projected Newton ascent on the two dual
variables (Newton step, gradient fallback, backtracking that keeps iterates
inside the positive definite cone, monotone in the dual value).  An ascent
forms B'B once and assembles every curvature matrix it factorizes from it.
The instance's (Q, -H) pencil keeps Cholesky off points it proves
indefinite, by one verdict (pencil_indefinite): the start ladder skips the
rungs it proves indefinite, and backtracking factorizes the full step,
then, once a trial falls outside the cone, bisects the halvings for the
cone edge and skips those the verdict proves to lie beyond it.  Cholesky
and the pivot floor still decide every point that can be accepted, so the
iterates are those of factorizing every trial.
LAPACK's `potrf` factorizes each point and each evaluation takes all it
needs (value, gradient, Hessian and the primal candidate) from three
`trtrs` solves with the factor, both called through the handles bound in
dual.py; the 2x2 Newton system and, for m <= 2, the pencil's deciding
eigenvalue are solved in closed form.  So an ascent step at small n costs
its arithmetic, not numpy's or scipy's per-call checks.
The ascent's 2-vectors (iterate, gradient, step, bounds, trials) and its
2x2 Hessian are Python floats; n-vectors and n x n work stay in numpy and
LAPACK.  The line search forms trial k, max(d + 2^-k step, lo), when it
reaches it, and all 60 trials as one matrix, to the same bits, only for
the bisection after a trial falls outside the cone.
A step from an ill-conditioned iterate must rise by more than
1e-3 tol_gap (1 + |value|), elsewhere by anything: the line
search stops at the first trial whose predicted rise grad.move (by
concavity a bound on its real rise) is below that floor, and the ascent
ends when neither the Newton nor the gradient step clears it.  The floor
is a tolerance, not a rounding bound: recomputed at 60 digits, the final
values of mixed seed 1022's boundary slices (condition numbers up to 5e10)
were within 2e-15 of exact, so the rises it refuses are real, but each
gains about half of the last, such a slice is never certified, and steps
below a thousandth of tol_gap took most of the solver's time.  Certifying
recomputes the gap, xi-stationarity and boundary complementarity.

The outer solve scans a uniform grid over [mu0, 1/delta] and returns the
best feasible candidate.  Every solved slice also bounds the global
minimum from below: with tau = mu*varsigma and s = 1/mu, its final dual
point gives a line A + B*s with slope B = sigma - tau^2/2 that lies below
every slice of [delta, 1/mu0] (Fenchel-Young), so the minimum over s of
the lines' upper envelope is a lower bound LB on the whole region.  The
dual bound D(s) is a supremum of such lines, so it is convex in s, and
refinement follows Kelley's cutting-plane rule: while the best feasible
value UB is more than tol_gap above LB, it solves the slice where the
envelope bottoms out.  LB is the largest minimum of one line at an end
of the interval or of two crossing lines, each crossing read off the
flatter line.  A gap left open (a duality gap, or slices that stop
short on the definiteness boundary) goes to a polish: spectral projected
gradient descent of the ratio objective from the best candidates, in the
metric of -H, where the region is a ball and the projection a radial snap.

The ascent's convergence test (_TOL_GRAD), its iteration cap, the gap
tolerance and the seed of the polish's jittered starts (_POLISH_SEED) are
fixed: the certificates are graded against them, so they are part of what
Perfect and a closed global gap mean.  Of SolverOptions only the grid size
can be set; the cap and the tolerance are read from it.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dual import (
    CurvatureFactor,
    DualEvaluation,
    DualPoint,
    canonical_measure,
    curvature_matrix,
    evaluate_dual,
)
from .errors import AllSubproblemsFailedError, NoStartingPointError, WeakDualityError
from .problem import (
    FractionalProgram,
    check_mu,
    eval_objective,
    eval_subproblem,
    eval_terms,
    gram,
    is_feasible,
)


class AscentStatus(Enum):
    INTERIOR_CRITICAL = "InteriorCritical"
    BOUNDARY_SIGMA_ZERO = "BoundarySigmaZero"
    BOX_BOUNDARY_VARSIGMA = "BoxBoundaryVarsigma"
    NEAR_PD_BOUNDARY = "NearPDBoundary"
    MAX_ITERATIONS = "MaxIterations"


class CertificateKind(Enum):
    PERFECT = "Perfect"
    WEAK_ONLY = "WeakOnly"
    NONE = "None"


@dataclass(frozen=True)
class SolverOptions:
    """The sweep's grid size, the only setting.  The ascent's iteration cap
    per slice and the gap tolerance of the slice certificates and the global
    gap are fixed; they are fields so that the result file and replays of a
    slice read them from here."""

    grid: int = 64
    max_iter: int = field(default=500, init=False)
    tol_gap: float = field(default=1e-6, init=False)


@dataclass(frozen=True, slots=True)
class DualSolution:
    point: DualPoint
    value: float
    grad_norm: float
    status: AscentStatus
    n_iter: int
    min_pivot: float


@dataclass(frozen=True, slots=True)
class Certificate:
    primal_value: float
    dual_value: float
    gap: float
    stationarity_xi: float
    feasibility_residual: float
    kind: CertificateKind


@dataclass(frozen=True, slots=True)
class MuSample:
    """One evaluated sweep value: dual solution, certificate, and the value
    P0 of its feasible candidate.  The candidate itself is kept only while
    solving; a result keeps the winner's, as x_star."""

    mu: float
    solution: DualSolution | None
    certificate: Certificate | None
    p0: float | None
    note: str = ""

    @property
    def status_label(self) -> str:
        if self.solution is not None:
            return self.solution.status.value
        return self.note or "Failed"


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    mu_star: float
    d_star: DualPoint
    P0_value: float
    best_dual_value: float
    certificate: Certificate
    mu_profile: tuple[MuSample, ...]
    options: SolverOptions
    timings: dict
    global_lower_bound: float  # below P0(x) for every feasible x
    global_gap: float  # P0_value - global_lower_bound


# The ascent stops once the projected gradient is at most this times
# 1 + |dual value|.
_TOL_GRAD = 1e-8
# Seed of the polish's jittered starts, and its descent's steps per start.
_POLISH_SEED = 0
_DESCENT_ITERS = 250
_BOUND_RTOL = 1e-12
_AT_BOUND_RTOL = 1e-9
_SIGMA_POSITIVE = 1e-9
_COMP_TOL = 1e-6
_XI_TOL = 1e-6


# A point, gradient or step of the two dual variables (varsigma, sigma).
_Pair = tuple[float, float]


def _bounds(prog: FractionalProgram) -> _Pair:
    return -prog.lam, 0.0


# An eigenvalue of the pencil's congruent form this close (relative) to zero
# leaves cone membership to Cholesky: well above the pencil's rounding error,
# well below the pivot floor.
INERTIA_RTOL = 1e-12


def _inertia_band(w: np.ndarray, sigma: float) -> float:
    # w ascends, so max|w| is at one of its ends
    return INERTIA_RTOL * (max(-float(w[0]), float(w[-1])) + abs(sigma))


def _eigenvalue(K: np.ndarray, j: int) -> float:
    """The j-th smallest eigenvalue of the symmetric m x m K, m <= 3; in
    closed form for m <= 2, where the root of smaller magnitude is det/big,
    free of the cancellation in mean - rad, and by eigvalsh for m = 3.
    |p|, |q| <= |big|, so det/big is formed without underflow in q*q."""
    if len(K) == 3:
        return float(np.linalg.eigvalsh(K)[j])
    if len(K) == 1:
        return float(K[0, 0])
    (p, q), (_, r) = K.tolist()
    mean = 0.5 * (p + r)
    rad = math.hypot(0.5 * (p - r), q)
    big = mean + rad if mean >= 0.0 else mean - rad
    small = r * (p / big) - q * (q / big) if big else 0.0
    return (small, big)[j] if mean >= 0.0 else (big, small)[j]


def pencil_indefinite(prog: FractionalProgram, tau: float, sigma: float) -> bool:
    """Whether the pencil proves G = Q + tau B'B - sigma H indefinite.

    With D = diag(w + sigma) and K = U D^-1 U' (eigenvalues kappa, ascending),
    Haynsworth's inertia additivity gives G neg(D) - neg(I + tau K) - zero(I
    + tau K) negative eigenvalues for tau > 0, and neg(D) + neg(I + tau K)
    for tau <= 0.  So G is indefinite when D has more than m negative
    entries, or any and tau <= 0, and definite when D has none and tau >= 0;
    otherwise the sign of 1 + tau*kappa decides, for kappa = kappa_k when D
    has 1 <= k <= m negative entries and kappa_max when it has none.

    True only when every entry of D and that 1 + tau*kappa lie outside
    INERTIA_RTOL bands around zero: undecided is False.
    """
    w, U = prog.pencil
    m = prog.m
    # w ascends: its first `neg` entries are below -sigma, and the entries
    # of D nearest zero are the two on either side
    neg = bisect.bisect_left(w, -sigma)
    nearest = min(-(float(w[neg - 1]) + sigma) if neg else np.inf,
                  float(w[neg]) + sigma if neg < prog.n else np.inf)
    if nearest <= _inertia_band(w, sigma):
        return False
    if neg > m or (neg and tau <= 0.0):
        return True
    if m == 0 or (not neg and tau >= 0.0):
        return False
    ud = U / (w + sigma)
    K = ud @ U.T
    kappa = _eigenvalue(K, neg - 1 if neg else m - 1)
    rise = 1.0 + tau * kappa
    # the sum of |U_ij|^2/|D_j| bounds the rounding of K: its trace, with
    # the terms of the negative entries of D counted positive
    weight = float(K.trace())
    if neg:
        weight -= 2.0 * float((ud[:, :neg] * U[:, :neg]).sum())
    band = INERTIA_RTOL * (1.0 + abs(tau) * weight)
    return rise > band if neg else rise < -band


def find_start(prog: FractionalProgram, mu: float) -> DualPoint:
    """Scan a coarse (varsigma, sigma) ladder for a definite starting point."""
    return _start(prog, check_mu(prog, mu), None)[0]


def _start(
    prog: FractionalProgram, mu: float, btb: np.ndarray | None
) -> tuple[DualPoint, CurvatureFactor]:
    """The first definite point of the start ladder, with its factor, each
    rung assembled from `btb` (curvature_matrix's argument).

    A rung is factorized only when the pencil does not prove it indefinite.
    """
    for s_mult in (0.0, 1.0, 10.0, 100.0):
        sigma = s_mult * prog.sigma_scale
        for v_mult in (0.0, 1.0, 10.0):
            if pencil_indefinite(prog, mu * v_mult, sigma):
                continue
            point = DualPoint(mu, v_mult, sigma)
            fac = curvature_matrix(prog, point, btb)
            if fac.pd:
                return point, fac
    raise NoStartingPointError(f"no definite dual point found at mu={mu:.6g}")


def _ascent_direction(hessian: list[list[float]], grad: _Pair, free: tuple[bool, bool]) -> _Pair:
    """Newton step on the free coordinates, or the gradient where it fails.

    The negative dual Hessian is positive semidefinite by construction,
    det = mu^2(|zu|^2|zv|^2 - (zu.zv)^2) + mu|zv|^2 >= mu|zv|^2, so no damping
    is needed; it is singular only when zv = 0, that is x = x_center.  The
    1x1 or 2x2 system is solved in closed form, by Cramer's rule, which is
    forward stable for 2x2 systems (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 1.10.1).  The gradient on the
    free coordinates replaces a step whose determinant is zero, that is not
    finite or that does not ascend.
    """
    (a, b), (_, c) = hessian
    a, b, c = -a, -b, -c
    g0, g1 = grad
    f0, f1 = free
    if not (f0 and f1):
        # a coordinate that is not free stays put: decoupled, with unit
        # curvature and zero gradient, it solves to 0 and the other to g/a
        b = 0.0
        a, g0 = (a, g0) if f0 else (1.0, 0.0)
        c, g1 = (c, g1) if f1 else (1.0, 0.0)
    try:
        det = a * c - b * b
        s0, s1 = (c * g0 - b * g1) / det, (a * g1 - b * g0) / det
    except ZeroDivisionError:
        s0 = s1 = math.nan
    if math.isfinite(s0) and math.isfinite(s1) and g0 * s0 + g1 * s1 > 0.0:
        return s0, s1
    return g0, g1


# The line search's step fractions 2^-k, as a column and as floats.
_HALVINGS = np.ldexp(1.0, -np.arange(60))[:, None]
_FRACTIONS = _HALVINGS[:, 0].tolist()

# Of tol_gap(1 + |value|), the rise a step from an ill-conditioned iterate needs.
_RISE_SHARE = 1e-3


def _try_step(
    prog: FractionalProgram,
    mu: float,
    d: _Pair,
    step: _Pair,
    grad: _Pair,
    value: float,
    lo: _Pair,
    min_rise: float,
    btb: np.ndarray | None = None,
) -> tuple[_Pair, DualEvaluation] | None:
    """Backtrack from the full step by halving until the dual rises enough.

    Trial k is max(d + 2^-k step, lo), formed on floats when the search
    reaches it.  A step is accepted only when the value rises by more than
    `min_rise`.  With min_rise = 0 trials stop at the first one that no
    longer moves; with min_rise > 0 they stop at the first one whose
    predicted rise grad.move is at most min_rise, since by concavity its
    value rises by no more than that.  After the first trial found outside
    the cone, the trials that the pencil proves to lie between it and the
    cone edge (_cone_step, on all the trials as rows of one matrix) are not
    factorized; Cholesky still decides every trial that could be accepted.
    Each trial is assembled from `btb` (curvature_matrix's argument).
    """
    (d0, d1), (s0, s1), (g0, g1), (lo0, lo1) = d, step, grad, lo
    k, count, bounded = 0, len(_FRACTIONS), False
    while k < count:
        h = _FRACTIONS[k]
        t0, t1 = max(d0 + h * s0, lo0), max(d1 + h * s1, lo1)
        m0, m1 = t0 - d0, t1 - d1
        rise = m0 * g0 + m1 * g1
        if not (rise > min_rise if min_rise > 0.0 else m0 or m1):
            return None
        point = DualPoint(mu, t0, t1)
        fac = curvature_matrix(prog, point, btb)
        if fac.pd:
            ev = evaluate_dual(prog, point, fac=fac)
            if ev.value > value + min_rise and ev.value >= value + 1e-4 * rise:
                return (t0, t1), ev
            k += 1
        elif bounded:
            k += 1
        else:
            # the same trials and rises as above, elementwise, so bit for bit
            bounded = True
            trials = np.maximum(np.add(d, _HALVINGS * step), lo)
            moves = trials - d
            rising = (moves * grad).sum(axis=1) > min_rise if min_rise > 0.0 else moves.any(axis=1)
            count = count if rising.all() else int(rising.argmin())
            k = _cone_step(prog, mu, trials, k, count)
    return None


def _cone_step(prog: FractionalProgram, mu: float, trials: np.ndarray, out: int, count: int) -> int:
    """The trial after `out` to factorize next: the first past those the
    pencil proves indefinite, `count` when none is left.

    Trial k is the point max(d + 2^-k step, lo) of the search path from the
    definite d, and trial `out` failed Cholesky.  Once the pencil proves
    `out` indefinite, the trials between it and the cone edge are the
    indefinite ones: the path's first leg is a line from d, along which the
    cone is an interval; after a coordinate clamps at its bound, the path
    moves the other one alone, and up (G grows in the Loewner order and
    stays below G at `out`), or, when both coordinates move down, G shrinks
    along the whole path.  So a bisection of the trial index keeps a
    bracket, a trial r the pencil proves indefinite and a trial hi it does
    not (or hi = count), skips every trial up to r and returns hi once the
    two are adjacent, after at most 1 + ceil(log2(count - out)) verdicts.
    Rounding in the verdicts moves no answer: each skipped trial lies
    between two that the pencil proves indefinite.
    """

    def proven(k: int) -> bool:
        return pencil_indefinite(prog, mu * float(trials[k, 0]), float(trials[k, 1]))

    if not proven(out):
        return out + 1
    r, hi = out, count
    while r + 1 < hi:
        k = (r + hi) // 2
        if proven(k):
            r = k
        else:
            hi = k
    return hi


def _classify(
    ev: DualEvaluation, d: _Pair, lo: _Pair, lam: float, converged: bool
) -> AscentStatus:
    if ev.ill_conditioned:
        return AscentStatus.NEAR_PD_BOUNDARY
    if not converged:
        return AscentStatus.MAX_ITERATIONS
    if d[1] <= lo[1] + _AT_BOUND_RTOL:
        return AscentStatus.BOUNDARY_SIGMA_ZERO
    if d[0] <= lo[0] + _AT_BOUND_RTOL * (1.0 + abs(lam)):
        return AscentStatus.BOX_BOUNDARY_VARSIGMA
    return AscentStatus.INTERIOR_CRITICAL


def maximize_dual(
    prog: FractionalProgram, mu: float, opts: SolverOptions | None = None
) -> DualSolution:
    """Projected Newton ascent of the dual over the cone at fixed mu."""
    return _ascend(prog, mu, opts or SolverOptions())[0]


def _ascend(
    prog: FractionalProgram, mu: float, opts: SolverOptions
) -> tuple[DualSolution, DualEvaluation]:
    """maximize_dual, with the evaluation at its final point."""
    mu = check_mu(prog, mu)
    lo = _bounds(prog)
    edge0, edge1 = (b + _BOUND_RTOL * (1.0 + abs(b)) for b in lo)
    btb = gram(prog)
    start, fac = _start(prog, mu, btb)
    d = start.varsigma, start.sigma
    ev = evaluate_dual(prog, start, fac=fac)
    converged = False
    pg_norm = math.inf
    n_iter = 0
    for n_iter in range(1, opts.max_iter + 1):
        grad = g0, g1 = ev.grad_varsigma, ev.grad_sigma
        # a coordinate at its bound with the gradient pushing out is clamped
        free = not (d[0] <= edge0 and g0 < 0.0), not (d[1] <= edge1 and g1 < 0.0)
        pg = (g0 if free[0] else 0.0), (g1 if free[1] else 0.0)
        pg_norm = math.sqrt(pg[0] * pg[0] + pg[1] * pg[1])
        converged = pg_norm <= _TOL_GRAD * (1.0 + abs(ev.value))
        if converged:
            break
        # at an ill-conditioned iterate, rises below the floor are not progress
        floor = _RISE_SHARE * opts.tol_gap if ev.ill_conditioned else 0.0
        min_rise = floor * (1.0 + abs(ev.value))
        step = _ascent_direction(ev.hessian.tolist(), pg, free)
        moved = _try_step(prog, mu, d, step, grad, ev.value, lo, min_rise, btb)
        if moved is None and step != pg:
            moved = _try_step(prog, mu, d, pg, grad, ev.value, lo, min_rise, btb)
        if moved is None:
            break
        d, ev = moved
    return DualSolution(
        point=DualPoint(mu, *d),
        value=ev.value,
        grad_norm=pg_norm,
        status=_classify(ev, d, lo, prog.lam, converged),
        n_iter=n_iter,
        min_pivot=ev.min_pivot,
    ), ev


def certify(
    prog: FractionalProgram,
    mu: float,
    sol: DualSolution,
    opts: SolverOptions | None = None,
    ev: DualEvaluation | None = None,
) -> Certificate:
    """Recompute the gap, stationarity, and complementarity at a dual solution.

    Perfect requires a trusted factorization (not near the definiteness
    boundary), gap within tol_gap*(1+|primal|), |xi - varsigma| <= 1e-6 scale,
    and the boundary/interior complementarity branch for sigma.  `ev`, the
    ascent's evaluation at sol.point, saves evaluating that point again.
    """
    opts = opts or SolverOptions()
    mu = check_mu(prog, mu)
    if ev is None:
        ev = evaluate_dual(prog, sol.point)
    primal = eval_subproblem(prog, mu, ev.x_candidate)
    gap = primal - ev.value
    stat_xi = abs(ev.xi - sol.point.varsigma)
    inv_mu = 1.0 / mu
    feas_res = ev.h_at_x - inv_mu

    trusted = sol.status is not AscentStatus.NEAR_PD_BOUNDARY and not ev.ill_conditioned
    gap_ok = abs(gap) <= opts.tol_gap * (1.0 + abs(primal))
    xi_ok = stat_xi <= _XI_TOL * (1.0 + abs(sol.point.varsigma))
    if sol.point.sigma > _SIGMA_POSITIVE:
        comp_ok = abs(feas_res) <= _COMP_TOL
    else:
        comp_ok = feas_res >= -_COMP_TOL

    if trusted and gap_ok and xi_ok and comp_ok:
        kind = CertificateKind.PERFECT
    elif trusted and feas_res >= -_COMP_TOL * (1.0 + inv_mu):
        kind = CertificateKind.WEAK_ONLY
    else:
        kind = CertificateKind.NONE
    return Certificate(
        primal_value=float(primal),
        dual_value=float(ev.value),
        gap=float(gap),
        stationarity_xi=float(stat_xi),
        feasibility_residual=float(feas_res),
        kind=kind,
    )


def _uncertified(prog: FractionalProgram, mu: float, x: np.ndarray) -> Certificate:
    """Certificate of a candidate that no dual solution vouches for."""
    return Certificate(
        primal_value=eval_subproblem(prog, mu, x),
        dual_value=-np.inf,
        gap=np.inf,
        stationarity_xi=np.inf,
        feasibility_residual=0.0,
        kind=CertificateKind.NONE,
    )


def _snap_to_margin(prog: FractionalProgram, x: np.ndarray, bound: float) -> np.ndarray:
    """Scale x toward the margin peak until margin(x) >= bound (exact boundary)."""
    y = x - prog.x_center
    q = float(-(y @ prog.H @ y))
    target = 2.0 * (prog.mu0_inv - bound)
    if q <= target or q <= 0.0:
        return x
    return prog.x_center + y * np.sqrt(max(target, 0.0) / q)


# A solved slice while solving: its sample and its feasible candidate, if any.
_Slice = tuple[MuSample, "np.ndarray | None"]


def _solve_at_mu(prog: FractionalProgram, mu: float, opts: SolverOptions) -> _Slice:
    try:
        sol, ev = _ascend(prog, mu, opts)
    except NoStartingPointError:
        return MuSample(mu=mu, solution=None, certificate=None, p0=None,
                        note="NoStartingPoint"), None
    cert = certify(prog, mu, sol, opts, ev)
    x = ev.x_candidate
    _, _, margin = eval_terms(prog, x)
    if margin < 1.0 / mu:
        x = _snap_to_margin(prog, x, 1.0 / mu)
    if is_feasible(prog, x):
        p0 = eval_objective(prog, x)
    else:
        x, p0 = None, None
    return MuSample(mu=mu, solution=sol, certificate=cert, p0=p0), x


def _select(slices: list[_Slice]) -> _Slice | None:
    cands = [c for c in slices if c[0].p0 is not None]
    if not cands:
        return None
    best_p0 = min(s.p0 for s, _ in cands)
    tol = 1e-9 * (1.0 + abs(best_p0))
    bucket = [c for c in cands if c[0].p0 <= best_p0 + tol]
    bucket.sort(
        key=lambda c: (
            c[0].certificate is None or c[0].certificate.kind is not CertificateKind.PERFECT,
            c[0].mu,
        )
    )
    return bucket[0]


def _singleton_result(prog: FractionalProgram, opts: SolverOptions, t0: float) -> SolveResult:
    # Degenerate interval: the feasible set of the only subproblem is the
    # margin peak itself, so the answer is direct evaluation there.
    x = np.array(prog.x_center)
    p0 = eval_objective(prog, x)
    primal = eval_subproblem(prog, prog.mu0, x)
    _, _, margin = eval_terms(prog, x)
    d_star = DualPoint(prog.mu0, canonical_measure(prog, x), 0.0)
    cert = Certificate(
        primal_value=primal,
        dual_value=primal,
        gap=0.0,
        stationarity_xi=0.0,
        feasibility_residual=margin - prog.mu0_inv,
        kind=CertificateKind.PERFECT,
    )
    sample = MuSample(mu=prog.mu0, solution=None, certificate=cert, p0=p0,
                      note="DirectSingleton")
    return SolveResult(
        x_star=x,
        mu_star=prog.mu0,
        d_star=d_star,
        P0_value=p0,
        best_dual_value=primal,
        certificate=cert,
        mu_profile=(sample,),
        options=opts,
        timings={"total_s": time.perf_counter() - t0, "grid_s": 0.0, "refine_s": 0.0,
                 "polish_s": 0.0},
        global_lower_bound=p0,
        global_gap=0.0,
    )


def _objective_gradient(prog: FractionalProgram, x: np.ndarray) -> np.ndarray:
    quad_grad = prog.Q @ x - prog.f_vec
    margin_grad = prog.H @ x - prog.b_vec
    _, well, margin = eval_terms(prog, x)
    well_grad = canonical_measure(prog, x) * (prog.B.T @ (prog.B @ x))
    return quad_grad + (well_grad * margin - well * margin_grad) / (margin * margin)


def _descend(prog: FractionalProgram, x0: np.ndarray, metric: np.ndarray):
    """Spectral projected gradient descent of the ratio objective (Birgin,
    Martinez and Raydan 2000) in the metric W = -H, with `metric` = W^-1.

    In W the region is a ball about x_center, so the radial snap onto the
    margin-delta shell is the exact projection.  The move d = snap(x -
    alpha W^-1 grad) - x is halved until a trial passes Armijo and decreases
    strictly; alpha is the Barzilai-Borwein step s'Ws / s'(grad change).
    Stops at a KKT point (grad.d >= 0) or when no trial decreases."""
    x = _snap_to_margin(prog, np.asarray(x0, dtype=float), prog.delta)
    val = eval_objective(prog, x)
    grad = _objective_gradient(prog, x)
    w_grad = metric @ grad
    alpha = 1.0 / (1.0 + float(np.linalg.norm(w_grad)))
    for _ in range(_DESCENT_ITERS):
        d = _snap_to_margin(prog, x - alpha * w_grad, prog.delta) - x
        slope = float(grad @ d)
        if slope >= 0.0:
            break
        for lam in _HALVINGS[:25, 0]:
            y = x + lam * d
            vy = eval_objective(prog, y)
            if vy < val - 1e-14 * (1.0 + abs(val)) and vy <= val + 1e-4 * lam * slope:
                break
        else:
            break
        s = y - x
        new_grad = _objective_gradient(prog, y)
        sy = float(s @ (new_grad - grad))
        alpha = min(max(-float(s @ prog.H @ s) / sy, 1e-12), 1e12) if sy > 0.0 else 1e12
        x, val, grad = y, vy, new_grad
        w_grad = metric @ grad
    return x, val


def _polish(prog: FractionalProgram, opts: SolverOptions, slices: list[_Slice]) -> None:
    """Local descent of the original objective from the sweep candidates.

    Dual recovery can stop short of the subproblem optimum when the ascent
    ends near the definiteness boundary; descending the ratio objective
    directly from those points (plus jittered copies to break symmetry
    traps) recovers the lost accuracy.  The improved point is re-certified
    on its own level slice so the reported certificate stays truthful.
    """
    cands = sorted(
        ((s.p0, x) for s, x in slices if s.p0 is not None), key=lambda c: c[0]
    )
    if not cands:
        return
    starts = []
    seen = set()
    for _, x in cands:
        key = tuple(np.round(np.asarray(x), 9))
        if key not in seen:
            seen.add(key)
            starts.append(np.asarray(x, dtype=float))
        if len(starts) >= 6:
            break
    starts.append(np.array(prog.x_center))
    rng = np.random.default_rng(_POLISH_SEED)
    radius = np.sqrt(2.0 * max(prog.mu0_inv - prog.delta, 0.0))
    jitter = 0.15 * radius / np.sqrt(prog.neg_h_min_eig)
    for x in list(starts[:3]):
        for _ in range(2):
            starts.append(x + jitter * rng.normal(size=prog.n))

    metric = np.linalg.inv(-prog.H)
    best_x = None
    best_val = np.inf
    for x0 in starts:
        x, val = _descend(prog, x0, metric)
        if val < best_val:
            best_x, best_val = x, val

    incumbent = cands[0][0]
    if best_x is None or best_val >= incumbent - 1e-12 * (1.0 + abs(incumbent)):
        return
    _, _, margin = eval_terms(prog, best_x)
    mu_hat = check_mu(prog, 1.0 / margin)
    slice_sample, slice_x = _solve_at_mu(prog, mu_hat, opts)
    if slice_sample.p0 is not None and slice_sample.p0 < best_val:
        slices.append((slice_sample, slice_x))
        return
    cert = slice_sample.certificate
    slices.append((
        MuSample(
            mu=mu_hat,
            solution=slice_sample.solution,
            certificate=cert if cert is not None else _uncertified(prog, mu_hat, best_x),
            p0=best_val,
            note="Polished",
        ),
        best_x,
    ))


def _envelope_min(A: np.ndarray, B: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Minimizer s in [lo, hi] and minimum of max_k (A_k + B_k*s), K >= 1 lines.

    The sets {s in [lo, hi]: A_k + B_k*s <= t} are intervals, and intervals
    meet when every two of them do (Helly's theorem in one dimension), so
    the minimum is the largest of: each line's minimum at an end, and each
    falling and rising line's value at their crossing, clamped to [lo, hi].
    A flat line counts as both.  A crossing's value is read off the flatter
    line of its pair, whose value the rounding of s moves least.  The
    minimizer is the point reaching that value where the envelope is lowest.
    """
    falling, rising = np.flatnonzero(B <= 0.0), np.flatnonzero(B >= 0.0)
    fall = falling[:, None]  # a column: pair (i, j) is falling line i, rising line j
    spread = B[rising] - B[fall]
    # two flat lines never cross: their minima are counted at the ends
    crossing = spread > 0.0
    s = np.clip(np.divide(A[fall] - A[rising], spread, out=np.full(spread.shape, lo),
                          where=crossing), lo, hi)
    flatter = np.where(B[rising] <= -B[fall], rising, fall)
    points = np.concatenate([np.full(len(rising), lo), np.full(len(falling), hi), s[crossing]])
    values = np.concatenate([A[rising] + B[rising] * lo, A[falling] + B[falling] * hi,
                             (A[flatter] + B[flatter] * s)[crossing]])
    value = values.max()
    reach = points[values == value]
    k = int((A + B * reach[:, None]).max(axis=1).argmin())
    return float(reach[k]), float(value)


def _global_lower_bound(prog: FractionalProgram, slices: list[_Slice]) -> tuple[float, float]:
    """Where in s = 1/mu the solved slices' lines bottom out, and the bound there.

    At tau = mu*varsigma and s = 1/mu a slice's dual value is A(tau, sigma)
    + (sigma - tau^2/2)*s, and A does not depend on s.  By Fenchel-Young
    (0.5*xi^2 >= varsigma*xi - 0.5*varsigma^2 for every varsigma) that line
    stays below the penalized minimum of every slice, off the box too, as
    long as G is definite there; every final dual point passed Cholesky
    and the pivot floor, boundary slices included.  So the minimum of the
    lines' upper envelope over [delta, 1/mu0] is a lower bound on the
    objective over the whole region.  At least one sample must be solved.
    """
    sols = [s.solution for s, _ in slices if s.solution is not None]
    mu = np.array([sol.point.mu for sol in sols])
    tau = mu * np.array([sol.point.varsigma for sol in sols])
    slope = np.array([sol.point.sigma for sol in sols]) - 0.5 * tau * tau
    intercept = np.array([sol.value for sol in sols]) - slope / mu
    return _envelope_min(intercept, slope, prog.delta, prog.mu0_inv)


def _gap_closed(opts: SolverOptions, slices: list[_Slice], lower: float) -> bool:
    """True when the best feasible value is within tol_gap of the bound `lower`."""
    upper = min((s.p0 for s, _ in slices if s.p0 is not None), default=np.inf)
    return bool(np.isfinite(upper)) and upper - lower <= opts.tol_gap * (1.0 + abs(upper))


# Slices _refine may add; no benchmark instance has needed more than 10.
_MAX_CUTS = 12


def _refine(prog: FractionalProgram, opts: SolverOptions, slices: list[_Slice]) -> bool:
    """Kelley's cutting planes on the dual bound D(s), convex in s = 1/mu.

    While the gap is open, solve the slice at the envelope's minimizer s*:
    when its ascent converges, its line touches D at s*, so the bound
    rises unless the envelope already meets D there.  A minimizer on a
    slice already solved adds nothing, since that slice's line is in the
    envelope: the bound cannot rise, because of a duality gap or an ascent
    that stopped short, and the loop ends.  Returns whether the gap closed.
    """
    for _ in range(_MAX_CUTS):
        s, lower = _global_lower_bound(prog, slices)
        if _gap_closed(opts, slices, lower):
            return True
        mu = check_mu(prog, 1.0 / s)
        if any(x.mu == mu for x, _ in slices):
            return False
        slices.append(_solve_at_mu(prog, mu, opts))
    return _gap_closed(opts, slices, _global_lower_bound(prog, slices)[1])


def mu_grid(prog: FractionalProgram, grid: int) -> np.ndarray:
    """The sweep's uniform grid of `grid` points over [mu0, mu_max].

    At least mu0 itself, and only mu0 when the interval is a point.
    """
    n = 1 if prog.mu_interval.degenerate else max(grid, 1)
    return np.linspace(prog.mu0, prog.mu_max, n)


def solve(prog: FractionalProgram, opts: SolverOptions | None = None) -> SolveResult:
    """Sweep the parameter interval and return the best certified candidate."""
    opts = opts or SolverOptions()
    t0 = time.perf_counter()
    if prog.mu_interval.degenerate:
        return _singleton_result(prog, opts, t0)

    slices = [_solve_at_mu(prog, float(m), opts) for m in mu_grid(prog, opts.grid)]
    t_grid = time.perf_counter()

    if all(s.solution is None for s, _ in slices):
        raise AllSubproblemsFailedError(
            f"no subproblem produced a dual solution over {len(slices)} grid points"
        )

    # The polish only lowers the best feasible value, so it does not run
    # once that value is within tol_gap of the global lower bound.
    closed = _refine(prog, opts, slices)
    t_refine = time.perf_counter()

    if not closed:
        _polish(prog, opts, slices)
    t_polish = time.perf_counter()

    chosen = _select(slices)
    if chosen is None:
        # Dual recovery never landed inside the feasible set; the margin peak
        # is always feasible, so report it as an uncertified incumbent.
        x = np.array(prog.x_center)
        chosen = MuSample(
            mu=prog.mu0,
            solution=None,
            certificate=_uncertified(prog, prog.mu0, x),
            p0=eval_objective(prog, x),
            note="FallbackCenter",
        ), x
        slices.append(chosen)
    best, best_x = chosen

    cert = best.certificate
    dual_best = best.solution.value if best.solution is not None else cert.dual_value
    _, lower = _global_lower_bound(prog, slices)
    result = SolveResult(
        x_star=np.array(best_x),
        mu_star=best.mu,
        d_star=best.solution.point if best.solution is not None else DualPoint(best.mu, 0.0, 0.0),
        P0_value=float(best.p0),
        best_dual_value=float(dual_best),
        certificate=cert,
        mu_profile=tuple(sorted((s for s, _ in slices), key=lambda s: s.mu)),
        options=opts,
        timings={
            "total_s": time.perf_counter() - t0,
            "grid_s": t_grid - t0,
            "refine_s": t_refine - t_grid,
            "polish_s": t_polish - t_refine,
        },
        global_lower_bound=lower,
        global_gap=float(best.p0) - lower,
    )
    _weak_duality_floor(prog, result)
    return result


def _weak_duality_floor(prog: FractionalProgram, result: SolveResult) -> None:
    # Lower-bound sanity: no feasible point, the answer included, can fall
    # below the global bound, and a feasible candidate of the mu* subproblem
    # can never fall below its own dual value.
    lower = result.global_lower_bound
    if lower > result.P0_value + 1e-6 * (1.0 + abs(lower)):
        raise WeakDualityError(
            f"weak duality violated: answer {result.P0_value:.12g} below "
            f"global lower bound {lower:.12g}"
        )
    if not np.isfinite(result.best_dual_value):
        return
    if not is_feasible(prog, result.x_star, mu=result.mu_star):
        return
    primal = eval_subproblem(prog, result.mu_star, result.x_star)
    slack = 1e-6 * (1.0 + abs(result.best_dual_value))
    if primal < result.best_dual_value - slack:
        raise WeakDualityError(
            f"weak duality violated: subproblem value {primal:.12g} below "
            f"dual bound {result.best_dual_value:.12g}"
        )


@dataclass(frozen=True)
class RayProbe:
    ts: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    theory_slope: float
    coercive: bool


@dataclass(frozen=True)
class ExistenceProbe:
    mu: float
    varsigma_ray: RayProbe
    sigma_ray: RayProbe


def _ray_values(prog, mu, base, direction, scales):
    pts, vals = [], []
    for t in scales:
        d = base + t * direction
        point = DualPoint(mu, float(d[0]), float(d[1]))
        fac = curvature_matrix(prog, point)
        if not fac.pd:
            continue
        pts.append(float(t))
        vals.append(evaluate_dual(prog, point, fac=fac).value)
    return pts, vals


def existence_probe(prog: FractionalProgram, mu: float, n_samples: int = 10) -> ExistenceProbe:
    """Sample the dual along the varsigma and sigma rays to infinity.

    Advisory diagnostics: each ray's recession slope, against its
    theoretical value, says whether the dual is coercive on the cone (a
    maximizer exists inside) or flat/bounded along that escape ray.
    """
    mu = check_mu(prog, mu)
    start = find_start(prog, mu)
    base = start.as_array()

    scales = [(1.0 + abs(base[0])) * 4.0**k for k in range(max(3, n_samples))]
    ts, vals = _ray_values(prog, mu, base, np.array([1.0, 0.0]), scales)
    vs_t = [base[0] + t for t in ts]
    slope = (vals[-1] - vals[-2]) / (vs_t[-1] ** 2 - vs_t[-2] ** 2)
    vs_ray = RayProbe(
        ts=tuple(vs_t),
        values=tuple(vals),
        slope=float(slope),
        theory_slope=-mu / 2.0,
        coercive=bool(slope < 0.0 and vals[-1] < vals[0]),
    )

    scales = [prog.sigma_scale * 4.0**k for k in range(max(3, n_samples))]
    ts, vals = _ray_values(prog, mu, base, np.array([0.0, 1.0]), scales)
    sg_t = [base[1] + t for t in ts]
    slope = (vals[-1] - vals[-2]) / (sg_t[-1] - sg_t[-2])
    sg_ray = RayProbe(
        ts=tuple(sg_t),
        values=tuple(vals),
        slope=float(slope),
        theory_slope=1.0 / mu - prog.mu0_inv,
        coercive=bool(slope < -1e-8 * (1.0 + abs(vals[-1]))),
    )

    return ExistenceProbe(mu=mu, varsigma_ray=vs_ray, sigma_ray=sg_ray)


"""Problem data and evaluation for ellipsoid-constrained fractional minimization.

An instance asks to minimize

    quad(x) + well(x) / margin(x)

over the set where margin(x) >= delta > 0, with

    quad(x)   = 0.5 x'Qx - f'x          (indefinite quadratic)
    well(x)   = 0.5 (0.5 |Bx|^2 - lam)^2  (nonnegative quartic well)
    margin(x) = 0.5 x'Hx - b'x          (strictly concave, H negative definite)

The margin peaks at x_center = H^{-1}b with value 1/mu0, so the feasible set
is a solid ellipsoid and the sweep parameter mu ranges over [mu0, 1/delta].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DeltaOutOfRangeError,
    HNotNegativeDefiniteError,
    InfeasibleError,
    Mu0NotPositiveError,
    MuOutOfRangeError,
    NegativeLambdaError,
    NotSymmetricError,
    ShapeMismatchError,
)

# Relative tolerances used across the package.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-10
FEASIBILITY_RTOL = 1e-9
MU_RANGE_RTOL = 1e-9


def pivot_floor(diag_scale: float) -> float:
    """Smallest Cholesky pivot accepted as positive definite."""
    return PIVOT_RTOL * (1.0 + abs(diag_scale))


def feasibility_slack(bound: float) -> float:
    """Tolerance below `bound` still accepted as feasible."""
    return FEASIBILITY_RTOL * (1.0 + abs(bound))


@dataclass(frozen=True)
class MuInterval:
    lo: float
    hi: float

    @property
    def degenerate(self) -> bool:
        return self.hi - self.lo <= 1e-12 * (1.0 + abs(self.lo))


@dataclass(frozen=True)
class FractionalProgram:
    """Validated instance plus derived quantities.

    Construct through :func:`validate`; direct construction skips all checks.
    """

    n: int
    m: int
    Q: np.ndarray
    f_vec: np.ndarray
    B: np.ndarray
    lam: float
    H: np.ndarray
    b_vec: np.ndarray
    delta: float
    # derived
    x_center: np.ndarray
    mu0_inv: float
    mu0: float
    mu_max: float
    sigma_scale: float
    neg_h_min_eig: float

    @property
    def mu_interval(self) -> MuInterval:
        return MuInterval(self.mu0, self.mu_max)

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w of the pencil (Q, -H), ascending, and U = B V,
        computed on first use.

        With V'(-H)V = I and V'QV = diag(w), the curvature matrix
        Q + tau B'B - sigma H is congruent to diag(w + sigma) + tau U'U.
        """
        from scipy.linalg import eigh  # on first use: paths that never solve skip its import

        w, V = eigh(self.Q, -self.H)
        return _freeze(w), _freeze(self.B @ V)


def gram(prog: FractionalProgram) -> np.ndarray:
    """B'B, formed on each call: it has rank m <= 3, so it is not stored.

    numpy evaluates B.T @ B with syrk, so the result is exactly symmetric.
    """
    return prog.B.T @ prog.B


def _as_array(name: str, value, *shape: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name}: expected shape {shape}, got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ShapeMismatchError(f"{name}: contains non-finite entries")
    return arr


def _check_symmetric(name: str, arr: np.ndarray) -> np.ndarray:
    scale = np.abs(arr).max() if arr.size else 0.0
    if not np.all(np.abs(arr - arr.T) <= SYMMETRY_RTOL * scale):
        raise NotSymmetricError(f"{name}: not symmetric within {SYMMETRY_RTOL:g}*max|entry|")
    # exact symmetry downstream
    return 0.5 * (arr + arr.T)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def validate(Q, f_vec, B, lam, H, b_vec, delta) -> FractionalProgram:
    """Check raw instance data and return the validated program.

    Raises the specific `ValidationError` subclass naming the first failed
    requirement: shapes, symmetry, negative definiteness of H, positivity of
    the peak margin, and the admissible delta range.
    """
    Qa = np.atleast_2d(np.asarray(Q, dtype=float))
    n = Qa.shape[0]
    Qa = _as_array("Q", Qa, n, n)
    f = _as_array("f_vec", f_vec, n)
    Ba = np.asarray(B, dtype=float)
    if Ba.ndim != 2:
        raise ShapeMismatchError(f"B: expected a 2-d array, got ndim={Ba.ndim}")
    m = Ba.shape[0]
    Ba = _as_array("B", Ba, m, n)
    Ha = _as_array("H", np.atleast_2d(np.asarray(H, dtype=float)), n, n)
    b = _as_array("b_vec", b_vec, n)

    lam = float(lam)
    delta = float(delta)
    if not np.isfinite(lam) or lam < 0.0:
        raise NegativeLambdaError(f"lambda must be finite and >= 0, got {lam}")

    Qa = _check_symmetric("Q", Qa)
    Ha = _check_symmetric("H", Ha)

    neg_h = -Ha
    floor = pivot_floor(np.abs(np.diag(neg_h)).max())
    try:
        chol = np.linalg.cholesky(neg_h)
    except np.linalg.LinAlgError:
        raise HNotNegativeDefiniteError("H: -H has a non-positive Cholesky pivot")
    pivots = np.diag(chol) ** 2
    if pivots.min() <= floor:
        raise HNotNegativeDefiniteError(
            f"H: -H pivot {pivots.min():.3e} below threshold {floor:.3e}"
        )

    # peak of the margin: H x = b  <=>  (-H) x = -b
    y = np.linalg.solve(neg_h, -b)
    mu0_inv = float(0.5 * y @ Ha @ y - b @ y)
    if mu0_inv <= 0.0:
        raise Mu0NotPositiveError(f"peak margin h(H^-1 b) = {mu0_inv:.6g} is not positive")

    if not np.isfinite(delta) or delta <= 0.0 or delta > mu0_inv * (1.0 + 1e-12):
        raise DeltaOutOfRangeError(
            f"delta must lie in (0, {mu0_inv:.12g}], got {delta!r}"
        )
    delta = min(delta, mu0_inv)

    eigs = np.linalg.eigvalsh(neg_h)
    sigma_scale = float((1.0 + np.linalg.norm(Qa, 2)) / eigs[0])

    return FractionalProgram(
        n=n,
        m=m,
        Q=_freeze(Qa),
        f_vec=_freeze(f),
        B=_freeze(Ba),
        lam=lam,
        H=_freeze(Ha),
        b_vec=_freeze(b),
        delta=delta,
        x_center=_freeze(y),
        mu0_inv=mu0_inv,
        mu0=1.0 / mu0_inv,
        mu_max=1.0 / delta,
        sigma_scale=sigma_scale,
        neg_h_min_eig=float(eigs[0]),
    )


def _point(prog: FractionalProgram, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (prog.n,):
        raise ShapeMismatchError(f"x: expected shape {(prog.n,)}, got {arr.shape}")
    return arr


def eval_terms(prog: FractionalProgram, x) -> tuple[float, float, float]:
    """Return (quad, well, margin) evaluated at x."""
    xa = _point(prog, x)
    quad = 0.5 * xa @ prog.Q @ xa - prog.f_vec @ xa
    bx = prog.B @ xa
    well = 0.5 * (0.5 * (bx @ bx) - prog.lam) ** 2
    margin = 0.5 * xa @ prog.H @ xa - prog.b_vec @ xa
    return float(quad), float(well), float(margin)


def check_mu(prog: FractionalProgram, mu: float) -> float:
    """Validate a sweep parameter value against [mu0, 1/delta]."""
    mu = float(mu)
    slack = MU_RANGE_RTOL
    if not np.isfinite(mu) or mu < prog.mu0 * (1.0 - slack) or mu > prog.mu_max * (1.0 + slack):
        raise MuOutOfRangeError(
            f"mu={mu!r} outside [{prog.mu0:.12g}, {prog.mu_max:.12g}]"
        )
    return min(max(mu, prog.mu0), prog.mu_max)


def eval_objective(prog: FractionalProgram, x) -> float:
    """Fractional objective quad + well/margin; raises InfeasibleError off the set."""
    quad, well, margin = eval_terms(prog, x)
    if margin < prog.delta - feasibility_slack(prog.delta) or margin <= 0.0:
        raise InfeasibleError(
            f"margin {margin:.6g} below feasibility bound {prog.delta:.6g}",
            h_value=margin,
            bound=prog.delta,
        )
    return quad + well / margin


def eval_subproblem(prog: FractionalProgram, mu: float, x) -> float:
    """Penalized objective quad + mu*well used by the parameter sweep."""
    mu = check_mu(prog, mu)
    quad, well, _ = eval_terms(prog, x)
    return quad + mu * well


def is_feasible(prog: FractionalProgram, x, mu: float | None = None) -> bool:
    """Membership in the feasible set (bound delta, or 1/mu when mu is given)."""
    bound = 1.0 / check_mu(prog, mu) if mu is not None else prog.delta
    _, _, margin = eval_terms(prog, x)
    return margin >= bound - feasibility_slack(bound)

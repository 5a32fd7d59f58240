"""Two-parameter concave dual of the penalized subproblem.

For a sweep value mu, a dual pair d = (varsigma, sigma) with varsigma >= -lam
and sigma >= 0 assembles the curvature matrix

    G(d) = Q + mu * varsigma * B'B - sigma * H.

On the cone where G is positive definite the dual function

    value(d) = -0.5 c'G^{-1}c - mu*lam*varsigma - 0.5*mu*varsigma^2 + sigma/mu,
    c = f - sigma*b,

is concave, bounds the subproblem from below, and recovers the primal
candidate x(d) = G^{-1}c.  Interior critical points close the gap exactly.

Every quantity comes from three triangular solves with the one Cholesky
factor G = LL': z = L^{-1}c gives the value, x = L^{-T}z the primal, and
one solve of the n x 2 block [B'(Bx), Hx - b] the Hessian.  x is not
refined: Cholesky is backward stable, a refinement step in working
precision does not improve its forward error, and every certificate
re-checks x a posteriori.  The solver's ascent reads an evaluation's
value, gradient and 2x2 Hessian as Python floats; x and the solves stay
arrays.

B'B has rank m <= 3, so the instance does not store it: an ascent forms
it from B once and assembles G from it at every point it factorizes (a
lone curvature_matrix call forms its own), and the evaluation applies it
as B'(Bx).  The factorization and the solves call LAPACK's `potrf` and
`trtrs` directly and read their `info`: at n <= 8, numpy's and scipy's
per-call checks, and numpy's exception on an indefinite G, cost several
times the arithmetic.  The handles are bound once, by the first
factorization: importing scipy.linalg is most of the cost of importing
this package, and paths that never factorize (generating, parsing,
serializing) need not pay it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPDError
from .problem import FractionalProgram, gram, pivot_floor

# min_pivot at or below ILL_CONDITIONED_RTOL*(1+max|diag G|) is treated as
# numerically untrustworthy even though the factorization succeeded.
ILL_CONDITIONED_RTOL = 1e-4
BOX_TOL = 1e-12

# LAPACK potrf and trtrs, bound by _bind_lapack on the first factorization
_potrf = _trtrs = None


def _bind_lapack() -> None:
    global _potrf, _trtrs
    from scipy.linalg.lapack import get_lapack_funcs

    _potrf, _trtrs = get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)


@dataclass(frozen=True, slots=True)
class DualPoint:
    mu: float
    varsigma: float
    sigma: float

    def as_array(self) -> np.ndarray:
        return np.array([self.varsigma, self.sigma])


@dataclass(frozen=True)
class CurvatureFactor:
    """Assembled curvature matrix with its Cholesky factor when definite.

    chol is the lower factor L, G = LL', as LAPACK's potrf returns it:
    Fortran-ordered, its upper triangle zeroed.  The solves hand it to
    trtrs as it is, with no copy, as scipy's solve_triangular(chol, rhs,
    lower=True, ...) does.  min_pivot is the smallest squared Cholesky
    pivot.  It is -inf when potrf met a non-positive pivot; that pivot's
    value is not computed.  A factor rejected by the pivot floor keeps its
    real (tiny) pivot.
    """

    matrix: np.ndarray
    chol: np.ndarray | None
    pd: bool
    min_pivot: float
    diag_scale: float

    @property
    def ill_conditioned(self) -> bool:
        return self.min_pivot <= ILL_CONDITIONED_RTOL * (1.0 + self.diag_scale)

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} rhs, so that |half_solve(c)|^2 = c'G^{-1}c."""
        return self._tri_solve(rhs, trans=0)

    def back_solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-T} rhs, so that back_solve(half_solve(c)) = G^{-1}c."""
        return self._tri_solve(rhs, trans=1)

    def _tri_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        z, info = _trtrs(self.chol, rhs, lower=1, trans=trans)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular factor: zero pivot {info - 1}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK trtrs")
        return z


@dataclass(frozen=True)
class DualEvaluation:
    value: float
    grad_varsigma: float
    grad_sigma: float
    x_candidate: np.ndarray
    xi: float
    h_at_x: float
    hessian: np.ndarray
    min_pivot: float
    ill_conditioned: bool


def curvature_matrix(
    prog: FractionalProgram, point: DualPoint, btb: np.ndarray | None = None
) -> CurvatureFactor:
    """Assemble G at the dual point and attempt a Cholesky factorization.

    `btb` is gram(prog), passed by a caller that factorizes many points of
    one instance; without it, B'B is formed here.
    """
    if btb is None:
        btb = gram(prog)
    # Q + (mu*varsigma) B'B - sigma H, with one temporary fewer
    G = (point.mu * point.varsigma) * btb
    G += prog.Q
    G -= point.sigma * prog.H
    diag_scale = float(np.abs(G.diagonal()).max())
    if _potrf is None:
        _bind_lapack()
    # G is exactly symmetric, so G.T is G in the Fortran order potrf reads
    chol, info = _potrf(G.T, lower=1)
    if info > 0:
        return CurvatureFactor(G, None, False, -np.inf, diag_scale)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    # the pivots sqrt(.) are >= 0, so the smallest square is the square of the smallest
    root = float(chol.diagonal().min())
    min_pivot = root * root
    if min_pivot <= pivot_floor(diag_scale):
        return CurvatureFactor(G, None, False, min_pivot, diag_scale)
    return CurvatureFactor(G, chol, True, min_pivot, diag_scale)


def _in_box(prog: FractionalProgram, point: DualPoint) -> bool:
    tol = BOX_TOL * (1.0 + abs(prog.lam))
    return point.varsigma >= -prog.lam - tol and point.sigma >= -tol


def in_dual_cone(prog: FractionalProgram, point: DualPoint) -> bool:
    """True when the point satisfies the box bounds and G is positive definite."""
    return _in_box(prog, point) and curvature_matrix(prog, point).pd


def evaluate_dual(
    prog: FractionalProgram,
    point: DualPoint,
    fac: CurvatureFactor | None = None,
) -> DualEvaluation:
    """Value, gradient, Hessian and primal candidate from one factorization."""
    if not _in_box(prog, point):
        raise ValueError(
            f"dual point (varsigma={point.varsigma}, sigma={point.sigma}) "
            f"violates the box bounds (>= -lam, >= 0)"
        )
    if fac is None:
        fac = curvature_matrix(prog, point)
    if not fac.pd:
        raise NotPDError(
            f"curvature matrix not positive definite at {point}",
            min_pivot=fac.min_pivot,
        )
    mu, vs, sg = point.mu, point.varsigma, point.sigma
    c = prog.f_vec - sg * prog.b_vec

    z = fac.half_solve(c)
    x = fac.back_solve(z)
    value = float(-0.5 * (z @ z) - mu * prog.lam * vs - 0.5 * mu * vs**2 + sg / mu)

    bx = prog.B @ x
    xi = float(0.5 * (bx @ bx) - prog.lam)
    hx = prog.H @ x
    h_at_x = float(0.5 * (x @ hx) - prog.b_vec @ x)

    grad_vs = mu * (xi - vs)
    grad_sg = 1.0 / mu - h_at_x

    # both Hessian right-hand sides in one solve, as the columns of an n x 2 block
    zu, zv = fac.half_solve(np.array([prog.B.T @ bx, hx - prog.b_vec]).T).T
    h_vv = -(mu**2) * (zu @ zu) - mu
    h_vs = mu * (zu @ zv)
    h_ss = -(zv @ zv)
    hessian = np.array([[h_vv, h_vs], [h_vs, h_ss]])

    return DualEvaluation(
        value=value,
        grad_varsigma=float(grad_vs),
        grad_sigma=float(grad_sg),
        x_candidate=x,
        xi=xi,
        h_at_x=h_at_x,
        hessian=hessian,
        min_pivot=fac.min_pivot,
        ill_conditioned=fac.ill_conditioned,
    )


def dual_value(prog: FractionalProgram, point: DualPoint) -> float:
    return evaluate_dual(prog, point).value


def recover_primal(prog: FractionalProgram, point: DualPoint) -> np.ndarray:
    """Primal candidate x(d) = G^{-1}(f - sigma*b)."""
    return evaluate_dual(prog, point).x_candidate


def canonical_measure(prog: FractionalProgram, x) -> float:
    """Scalar image 0.5|Bx|^2 - lam of a primal point."""
    bx = prog.B @ np.asarray(x, dtype=float)
    return float(0.5 * (bx @ bx) - prog.lam)


def legendre_conjugate(prog: FractionalProgram, varsigma: float) -> float:
    """Conjugate 0.5*varsigma^2 of the quadratic well on its admissible domain."""
    if varsigma < -prog.lam - BOX_TOL * (1.0 + abs(prog.lam)):
        raise ValueError(f"varsigma={varsigma} below the conjugate domain bound {-prog.lam}")
    return 0.5 * float(varsigma) ** 2


def total_complementary(prog: FractionalProgram, x, point: DualPoint) -> float:
    """Mixed primal-dual function whose x-minimum equals the dual value on the cone."""
    xa = np.asarray(x, dtype=float)
    mu, vs, sg = point.mu, point.varsigma, point.sigma
    G = prog.Q + (mu * vs) * gram(prog) - sg * prog.H
    c = prog.f_vec - sg * prog.b_vec
    return float(
        0.5 * xa @ G @ xa - c @ xa - mu * prog.lam * vs - 0.5 * mu * vs**2 + sg / mu
    )

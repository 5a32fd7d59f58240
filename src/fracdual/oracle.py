"""Brute-force reference minimizer, independent of the dual machinery.

Encloses the feasible ellipsoid in an axis-aligned box, exhaustively grids it
(n <= 3, at most MAX_GRID_CELLS cells), then polishes the best cells with
derivative-free coordinate descent.  Shares no gradient or factorization code with the
solver, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError
from .problem import FractionalProgram, check_mu

MAX_ORACLE_DIM = 3
DEFAULT_RESOLUTION = {1: 1e-5, 2: 1e-3, 3: 1e-2}
# Most grid cells one search may evaluate: ten times the 9.2e6 cells of the
# default grid of generate_program(3, 3, seed=2231).
MAX_GRID_CELLS = 10**8
BOX_INFLATION = 0.01
N_RESTARTS = 20
N_SHRINKS = 40
_CHUNK = 400_000


@dataclass(frozen=True)
class OracleReport:
    min_value: float
    argmin: np.ndarray
    resolution: float
    n_evals: int
    grid_feasible: bool  # False: no grid cell was feasible, argmin is x_center


def bounding_box(prog: FractionalProgram, mu: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned enclosure of the feasible ellipsoid, inflated by BOX_INFLATION."""
    bound = 1.0 / check_mu(prog, mu) if mu is not None else prog.delta
    radius_sq = max(2.0 * (prog.mu0_inv - bound), 0.0)
    inv_diag = np.diag(np.linalg.inv(-prog.H))
    half = np.sqrt(radius_sq * inv_diag) * (1.0 + BOX_INFLATION)
    return prog.x_center - half, prog.x_center + half


def _quad_batch(prog: FractionalProgram, pts: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ij,ij->i", pts @ prog.Q, pts) - pts @ prog.f_vec


def _well_batch(prog: FractionalProgram, pts: np.ndarray) -> np.ndarray:
    if prog.m:
        bx = pts @ prog.B.T
        return 0.5 * (0.5 * np.einsum("ij,ij->i", bx, bx) - prog.lam) ** 2
    return np.full(len(pts), 0.5 * prog.lam**2)


def _margin_batch(prog: FractionalProgram, pts: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ij,ij->i", pts @ prog.H, pts) - pts @ prog.b_vec


def _objective_batch(prog, pts, mu, bound):
    """Objective on feasible points, +inf elsewhere; returns (values, n_feasible)."""
    margin = _margin_batch(prog, pts)
    feas = margin >= bound
    if mu is None:
        feas &= margin > 0.0
    vals = np.full(len(pts), np.inf)
    if feas.any():
        sub = pts[feas]
        quad = _quad_batch(prog, sub)
        well = _well_batch(prog, sub)
        vals[feas] = quad + mu * well if mu is not None else quad + well / margin[feas]
    return vals, int(feas.sum())


def _objective_single(prog, x, mu, bound) -> float:
    vals, _ = _objective_batch(prog, x[None, :], mu, bound)
    return float(vals[0])


def _grid_axes(lo: np.ndarray, hi: np.ndarray, resolution: float) -> list[np.ndarray]:
    """The grid's axes, once its cells are counted and found within MAX_GRID_CELLS."""
    bounds = list(zip(lo.tolist(), hi.tolist()))
    # an axis is clamped at the cap, so a grid over it stays over it
    sizes = [math.ceil(min((b - a) / resolution, MAX_GRID_CELLS)) + 1 if b - a > 0.0 else 1
             for a, b in bounds]
    cells = math.prod(sizes)
    if cells > MAX_GRID_CELLS:
        raise DimensionTooLargeError(
            f"exhaustive search limited to {MAX_GRID_CELLS:.0e} grid cells, "
            f"got {cells:.3g} at resolution {resolution:g}"
        )
    return [np.linspace(a, b, k) if k > 1 else np.array([0.5 * (a + b)])
            for (a, b), k in zip(bounds, sizes)]


def _polish(prog, X0, vals0, spacing, mu, bound):
    """Shrinking-step coordinate search run on all restart points at once.

    A walker only ever moves to a strictly better feasible point, so no
    incumbent increases.  Walkers share the per-axis step schedule.
    """
    X = np.array(X0)
    best = np.array(vals0)
    step = np.array(spacing, dtype=float)
    n_walkers, n = X.shape
    n_evals = 0
    for _ in range(N_SHRINKS):
        for _ in range(100):
            improved = False
            for i in range(n):
                for sign in (1.0, -1.0):
                    trial = np.array(X)
                    trial[:, i] += sign * step[i]
                    vals, _ = _objective_batch(prog, trial, mu, bound)
                    n_evals += n_walkers
                    better = vals < best
                    if better.any():
                        X[better] = trial[better]
                        best[better] = vals[better]
                        improved = True
            if not improved:
                break
        step *= 0.5
    return X, best, n_evals


def _grid_minimize(prog: FractionalProgram, mu: float | None, resolution: float | None) -> OracleReport:
    if prog.n > MAX_ORACLE_DIM:
        raise DimensionTooLargeError(
            f"exhaustive search limited to n <= {MAX_ORACLE_DIM}, got n={prog.n}"
        )
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[prog.n]
    bound = 1.0 / mu if mu is not None else prog.delta
    lo, hi = bounding_box(prog, mu)
    axes = _grid_axes(lo, hi, resolution)
    mesh_shape = tuple(len(ax) for ax in axes)
    total = int(np.prod(mesh_shape))

    # exhaustive pass, chunked along the flattened C-order index
    best_val = np.inf
    best_idx = None
    top: list[tuple[float, int]] = []  # (value, flat index) candidates for polishing
    n_evals = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.unravel_index(idx, mesh_shape)
        pts = np.stack([axes[i][coords[i]] for i in range(prog.n)], axis=1)
        vals, n_feas = _objective_batch(prog, pts, mu, bound)
        n_evals += n_feas
        k = min(N_RESTARTS, len(vals))
        part = np.argpartition(vals, k - 1)[:k]
        top.extend((float(vals[j]), int(idx[j])) for j in part if np.isfinite(vals[j]))
        jmin = int(np.argmin(vals))
        if vals[jmin] < best_val:
            best_val = float(vals[jmin])
            best_idx = int(idx[jmin])

    top.sort()
    starts = top[:N_RESTARTS]
    spacing = np.array([ax[1] - ax[0] if len(ax) > 1 else resolution for ax in axes])

    best_x = None
    if best_idx is not None:
        coords = np.unravel_index(best_idx, mesh_shape)
        best_x = np.array([axes[i][coords[i]] for i in range(prog.n)])
    if starts:
        flat = np.array([s[1] for s in starts])
        coords = np.unravel_index(flat, mesh_shape)
        X0 = np.stack([axes[i][coords[i]] for i in range(prog.n)], axis=1)
        vals0 = np.array([s[0] for s in starts])
        X, vals, used = _polish(prog, X0, vals0, spacing, mu, bound)
        n_evals += used
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_x = float(vals[j]), X[j]

    if best_x is None:
        # no feasible grid point: fall back to the margin peak, always feasible
        # (its margin is mu0_inv >= bound, but rounding may put it just below)
        best_x = np.array(prog.x_center)
        best_val = _objective_single(prog, best_x, mu, -np.inf)
        n_evals += 1
    return OracleReport(
        min_value=float(best_val),
        argmin=best_x,
        resolution=float(resolution),
        n_evals=n_evals,
        grid_feasible=best_idx is not None,
    )


def grid_minimize_objective(prog: FractionalProgram, resolution: float | None = None) -> OracleReport:
    """Reference minimum of the fractional objective over the feasible set.

    The reference sees only grid cells, so it can miss a feasible region
    narrower than the grid spacing.  When the ellipsoid is thinner than
    `resolution` along an axis, no cell may be feasible at all; then
    grid_feasible is False and the report is the margin peak x_center, a
    value that proves nothing about the minimum: `fracdual gen --n 2 --m 1
    --seed 2029 --conditioning 1e6` is about 7e-4 wide along its second
    axis, and at the default 1e-3 the reference reports 1.377633624 (the
    peak) while the solver finds 1.14779557682.  So at its default
    resolution it cannot resolve the feasible set of a conditioning-1e6
    instance, and there its value is an upper check on the solver's only,
    never the minimum.
    """
    return _grid_minimize(prog, None, resolution)


def grid_minimize_subproblem(
    prog: FractionalProgram, mu: float, resolution: float | None = None
) -> OracleReport:
    """Reference minimum of the penalized objective over the mu-level set."""
    mu = check_mu(prog, mu)
    return _grid_minimize(prog, mu, resolution)

"""The slice referee: the maximum of one slice's dual, found with no code
from fracdual.solver.  The tests and scripts/answer_digest.py's --short
count import it from here."""

import numpy as np
from scipy.linalg import eigh, solve_triangular
from scipy.optimize import brentq


class _Unbracketed(Exception):
    """A referee search found no bracket within its cap."""


def slice_referee(prog, mu: float, cap: float = 1e8):
    """(value, varsigma, sigma): the maximum of slice mu's dual, or None.

    A nested maximization that shares no code with fracdual.solver.  The
    dual D is jointly concave.  For fixed varsigma its maximum over sigma
    lies above sigma_edge = max(0, -lambda_min(Q + mu varsigma B'B, -H)),
    at the root of dD/dsigma = 1/mu - h(x), or at the lower end when that
    slope is not positive there.  That maximum, phi(varsigma), is concave
    with phi' = mu (xi - varsigma) (Danskin), and is maximized over
    varsigma >= -lam the same way.  Each root is bracketed by doubling and
    found by brentq.  None when a bracket would pass `cap`, or sigma ends
    above it, where the terms of D cancel and its value is noise.
    """
    Q, H, B, f, b, lam = prog.Q, prog.H, prog.B, prog.f_vec, prog.b_vec, prog.lam
    btb = B.T @ B

    def at(vs, sg):  # D and x(d), by Cholesky in the original coordinates
        L = np.linalg.cholesky(Q + mu * vs * btb - sg * H)
        z = solve_triangular(L, f - sg * b, lower=True)
        x = solve_triangular(L.T, z, lower=False)
        return -0.5 * z @ z - mu * lam * vs - 0.5 * mu * vs * vs + sg / mu, x

    def top(slope, lo):  # the maximizer over [lo, inf) of a concave function
        if slope(lo) <= 0.0:
            return lo
        width = 1.0 + abs(lo)
        while slope(lo + width) > 0.0:
            width *= 2.0
            if width > cap:
                raise _Unbracketed
        return brentq(slope, lo, lo + width)

    def edge(vs):  # the least sigma >= sigma_edge that Cholesky accepts
        sg = max(0.0, -float(eigh(Q + mu * vs * btb, -H, eigvals_only=True)[0]))
        step = 1e-13 * (1.0 + sg)
        while True:
            try:
                at(vs, sg)
                return sg
            except np.linalg.LinAlgError:
                sg, step = sg + step, 10.0 * step

    def inner(vs):  # the sigma maximizing D(vs, .)
        def slope(sg):
            x = at(vs, sg)[1]
            return 1.0 / mu - (0.5 * x @ H @ x - b @ x)
        return top(slope, edge(vs))

    def outer_slope(vs):
        bx = B @ at(vs, inner(vs))[1]
        return mu * (0.5 * bx @ bx - lam - vs)

    try:
        vs = top(outer_slope, -lam)
        sg = inner(vs)
    except _Unbracketed:
        return None
    return (float(at(vs, sg)[0]), float(vs), float(sg)) if sg <= cap else None


def is_short(value: float, found: float, tol_gap: float) -> bool:
    """Whether a slice whose ascent ends at `value` is short: more than
    tol_gap (1 + |value|) below `found`, the referee's maximum."""
    return value < found - tol_gap * (1.0 + abs(value))

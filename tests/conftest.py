import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import eigh

import fracdual as fd

# numeric property tests can be slow on shared CI boxes
settings.register_profile("default", deadline=None, max_examples=40)
settings.load_profile("default")

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_reference(delta: float = 0.5) -> fd.FractionalProgram:
    """1-D instance with every constant hand-checkable.

    quad term x^2, well term 0.5*(x^2/2 - 1)^2, margin 2x - x^2,
    margin peak 1 at x=1, parameter interval [1, 1/delta].
    """
    return fd.validate(
        Q=np.array([[2.0]]),
        f_vec=np.array([0.0]),
        B=np.array([[1.0]]),
        lam=1.0,
        H=np.array([[-2.0]]),
        b_vec=np.array([-2.0]),
        delta=delta,
    )


def make_gap_case() -> fd.FractionalProgram:
    """2-D instance built so the dual maximizer escapes the cone.

    With no coupling rows and lam=0 the ratio term vanishes and the task
    reduces to minimizing an indefinite quadratic over a disk; past a
    threshold parameter value the dual supremum sits on the definiteness
    boundary, so no Perfect certificate exists there.
    """
    return fd.validate(
        Q=np.array([[-4.0, 0.0], [0.0, 1.0]]),
        f_vec=np.array([0.0, 0.3]),
        B=np.zeros((0, 2)),
        lam=0.0,
        H=-np.eye(2),
        b_vec=np.array([0.0, 1.0]),
        delta=0.25,
    )


# frozen by the exhaustive grid reference (resolution 1e-5, then polished),
# cross-checked against a root of the closed-form derivative
REFERENCE_P0 = 0.7541442500731802
REFERENCE_X = 0.54899342130402
REFERENCE_MU = 1.2553461017910128

# value of the delta-boundary point 1 - sqrt(1/2): the minimum of the
# hardest subproblem (mu = 2), strictly above the global minimum
REFERENCE_EDGE_X = 0.2928932188134524
REFERENCE_EDGE_P0 = 1.0018398282201788

# gap-case truth: minimize 0.5 x'Qx - f'x over the disk |x - (0,-1)|^2 <= 1,
# closed form via boundary parameterization
GAP_CASE_MIN = -0.369
GAP_CASE_ARGMIN_X2 = -0.74


def planted_program(n: int, m: int, seed: int, conditioning: float = 1.0):
    """(prog, x*, P*): an instance whose global minimum P* = P0(x*) is known.

    After Calamai, Vicente and Judice (Math. Program. 61, 1993): H, b, B and
    the draw of Q come from generate_program, and the rest is fitted so
    that at mu* = 1/margin(x*) the dual point d* = (varsigma*, sigma*) is an
    interior critical point with x* as its primal candidate and no gap, and
    its line A + (sigma* - tau*^2/2) s, tau* = mu* varsigma*, is flat.  That
    line bounds the objective from below on the whole region (the solver's
    Fenchel-Young bound), at the value P0(x*) of a feasible point.  m >= 1.
    """
    base = fd.generate_program(n, m, seed=seed, conditioning=conditioning)
    rng = np.random.default_rng([seed, n, m])
    H, b, B = base.H, base.b_vec, base.B
    # 1. x* on the level margin(x*) = t * peak, t in [0.3, 0.9]
    y = rng.normal(size=n)
    level = rng.uniform(0.3, 0.9) * base.mu0_inv
    x_star = base.x_center + y * np.sqrt(2.0 * (base.mu0_inv - level) / (y @ -H @ y))
    margin = 0.5 * x_star @ H @ x_star - b @ x_star
    mu_star = 1.0 / margin
    # 2. lam puts xi(x*) = 0.5|Bx*|^2 - lam at varsigma*, and sigma* flattens the line
    half_bx2 = 0.5 * float(np.sum((B @ x_star) ** 2))
    varsigma = rng.uniform(-1.0, 1.0) * half_bx2
    lam = half_bx2 - varsigma
    tau = mu_star * varsigma
    sigma = 0.5 * tau * tau
    # 3. Q shifted along -H until G(d*) is definite, its pencil minimum at least 0.1
    G = base.Q + tau * (B.T @ B) - sigma * H
    shift = max(0.0, 0.1 - float(eigh(G, -H, eigvals_only=True)[0]))
    G = G - shift * H
    # 4. f makes x* = G(d*)^-1 (f - sigma* b), and delta keeps x* feasible
    f = G @ x_star + sigma * b
    delta = rng.uniform(0.2, 1.0) * margin
    prog = fd.validate(base.Q - shift * H, f, B, lam, H, b, delta)
    return prog, x_star, fd.eval_objective(prog, x_star)


@pytest.fixture
def reference():
    return make_reference()


@pytest.fixture
def gap_case():
    return make_gap_case()

"""Deterministic random instance generation."""

from __future__ import annotations

import numpy as np

from .errors import GenerationError
from .problem import FractionalProgram, validate

REJECTION_BUDGET = 1000
MIN_PEAK_MARGIN = 0.1


def generate_program(n: int, m: int, seed: int, conditioning: float = 1.0) -> FractionalProgram:
    """Draw a valid instance from the seeded recipe.

    Q is a symmetrized uniform[-1,1] matrix, H = -(A'A + I) for uniform A
    (optionally rescaled to spread its spectrum by `conditioning`), B uniform,
    b redrawn until the peak margin exceeds 0.1, lam in [0,2], and delta a
    fraction in [0.2, 0.9] of the peak margin.  Same seed, same instance.
    """
    if n < 1 or m < 0:
        raise GenerationError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if not 1.0 <= conditioning < np.inf:  # also rejects nan
        raise GenerationError(f"conditioning must be finite and >= 1, got {conditioning}")
    rng = np.random.default_rng(seed)

    Q = rng.uniform(-1.0, 1.0, (n, n))
    Q = 0.5 * (Q + Q.T)
    f = rng.uniform(-1.0, 1.0, n)

    A = rng.uniform(-1.0, 1.0, (n, n))
    H = -(A.T @ A + np.eye(n))
    if conditioning > 1.0 and n > 1:
        spread = conditioning ** (np.arange(n) / (2.0 * (n - 1)))
        H = H * np.outer(spread, spread)
        H = 0.5 * (H + H.T)

    B = rng.uniform(-1.0, 1.0, (m, n)) if m else np.zeros((0, n))

    for _ in range(REJECTION_BUDGET):
        b = rng.uniform(-1.0, 1.0, n)
        y = np.linalg.solve(H, b)
        peak = float(0.5 * y @ H @ y - b @ y)
        if peak > MIN_PEAK_MARGIN:
            break
    else:
        raise GenerationError(
            f"no b with peak margin > {MIN_PEAK_MARGIN} in {REJECTION_BUDGET} draws"
        )

    lam = float(rng.uniform(0.0, 2.0))
    delta = float(rng.uniform(0.2, 0.9)) * peak
    return validate(Q, f, B, lam, H, b, delta)

"""Correctness gate, run outside the timed region.

An operation fails the gate if it raised, if its answer is infeasible, if
the reported P0 is not the objective at the reported point, if its result
text does not re-parse to the same value and certificate, or (n <= 3) if
the brute-force grid oracle finds a point better by more than the
`fracdual verify` tolerance.
"""

from __future__ import annotations

import json

import fracdual as fd


def verify_tolerance(reference: float) -> float:
    """The tolerance `fracdual verify` grants against the grid oracle."""
    return max(1e-4, 1e-3 * abs(reference))


class Gate:
    def __init__(self) -> None:
        self._oracle: dict[int, float | None] = {}

    def oracle_min(self, seed: int, prog: fd.FractionalProgram) -> float | None:
        """Grid-oracle minimum, computed once per instance; None above n = 3."""
        if seed not in self._oracle:
            try:
                self._oracle[seed] = fd.grid_minimize_objective(prog).min_value
            except fd.DimensionTooLargeError:
                self._oracle[seed] = None
        return self._oracle[seed]

    def check(self, seed: int, prog: fd.FractionalProgram, result: fd.SolveResult,
              result_text: str) -> str | None:
        """Return why the operation is wrong, or None when it passes."""
        p0 = result.P0_value
        if not fd.is_feasible(prog, result.x_star):
            return "x_star is infeasible"
        try:
            value = fd.eval_objective(prog, result.x_star)
        except fd.InfeasibleError as exc:
            return f"objective at x_star: {exc}"
        if abs(value - p0) > 1e-9 * (1.0 + abs(p0)):
            return f"reported P0 {p0!r} but the objective at x_star is {value!r}"
        try:
            data = json.loads(result_text)
            reparsed = (data["primal_value"], data["certificate_kind"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"result text does not re-parse: {exc!r}"
        if reparsed != (p0, result.certificate.kind.value):
            return f"result text re-parses to {reparsed!r}, not the reported P0 and certificate"
        reference = self.oracle_min(seed, prog)
        if reference is not None and p0 - reference > verify_tolerance(reference):
            return f"P0 {p0!r} exceeds the grid oracle minimum {reference!r}"
        return None

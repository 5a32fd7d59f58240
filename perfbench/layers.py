"""Traced run: spans around the public calls of each layer.

Spans are recorded from the benchmark's side of the public API, never
inside `fracdual`.  The solver's inner layers are reached by replaying
`maximize_dual` and `certify` for every slice of a solve's `mu_profile`,
and by timing single `curvature_matrix` / `evaluate_dual` calls at each
replayed slice's dual point.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import fmean

import fracdual as fd


class Tracer:
    """Spans kept in memory as [op, name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    @contextmanager
    def span(self, op: int, name: str, parent: int | None = None):
        idx = len(self.spans)
        record = [op, name, 0.0, 0.0, parent]
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            record[2], record[3] = start, time.perf_counter()

    def seconds(self, name: str, op: int | None = None) -> list[float]:
        return [end - start for o, n, start, end, _ in self.spans
                if n == name and (op is None or o == op)]

    def dump(self) -> list[dict]:
        keys = ("op", "name", "start", "end", "parent")
        return [dict(zip(keys, s)) for s in self.spans]


def traced_operation(tracer: Tracer, op: int, text: str):
    """One operation with a span per public call.

    `parse_instance` validates internally; `validate` is timed as one more
    call on the parsed data so that its share can be read on its own.
    """
    with tracer.span(op, "op") as parent:
        with tracer.span(op, "instance_io.parse_instance", parent):
            prog = fd.parse_instance(text)
        with tracer.span(op, "problem.validate", parent):
            fd.validate(prog.Q, prog.f_vec, prog.B, prog.lam, prog.H, prog.b_vec, prog.delta)
        with tracer.span(op, "solver.solve", parent):
            result = fd.solve(prog)
        with tracer.span(op, "instance_io.serialize_result", parent):
            text_out = fd.serialize_result(result)
    return prog, result, text_out


def replay(tracer: Tracer, op: int, prog: fd.FractionalProgram,
           result: fd.SolveResult) -> list[str]:
    """Replay every slice of the solve; return the slices that did not repeat."""
    mismatches = []
    with tracer.span(op, "replay") as parent:
        for sample in result.mu_profile:
            if sample.solution is None:
                continue
            with tracer.span(op, "solver.maximize_dual", parent):
                sol = fd.maximize_dual(prog, sample.mu, result.options)
            with tracer.span(op, "solver.certify", parent):
                fd.certify(prog, sample.mu, sol, result.options)
            want = (sample.solution.n_iter, sample.solution.status)
            if (sol.n_iter, sol.status) != want:
                mismatches.append(
                    f"mu={sample.mu!r}: replay gave {(sol.n_iter, sol.status.value)}, "
                    f"solve gave {(want[0], want[1].value)}"
                )
            _time_dual_calls(tracer, op, parent, prog, sol.point)
    return mismatches


def _time_dual_calls(tracer: Tracer, op: int, parent: int, prog, point: fd.DualPoint) -> None:
    """Time the dual's calls at the slice's dual point and at its box corner.

    The returned point is positive definite.  The corner (-lam, 0) gives
    G = Q - mu*lam*B'B, which is not positive definite whenever Q is
    indefinite; when it is definite the sample is labelled and not used.
    """
    with tracer.span(op, "dual.curvature_matrix", parent) as idx:
        fac = fd.curvature_matrix(prog, point)
    tracer.spans[idx][1] += ".pd" if fac.pd else ".nonpd"
    if fac.pd:
        with tracer.span(op, "dual.evaluate_dual", parent):
            fd.evaluate_dual(prog, point, fac=fac)
    corner = fd.DualPoint(point.mu, -prog.lam, 0.0)
    with tracer.span(op, "dual.curvature_matrix", parent) as idx:
        fac = fd.curvature_matrix(prog, corner)
    tracer.spans[idx][1] += ".corner_pd" if fac.pd else ".nonpd"


def _mean(values: list[float], scale: float) -> float:
    return scale * fmean(values) if values else float("nan")


def layer_metrics(tracer: Tracer, traced: dict[int, fd.SolveResult]) -> dict[str, float]:
    """Per-layer metrics of the traced pass, keyed by op id; per-call times are means."""
    results = list(traced.values())
    slices = [s for r in results for s in r.mu_profile]
    solved = [s.solution for s in slices if s.solution is not None]
    max_iter = results[0].options.max_iter
    iters = [sol.n_iter for sol in solved]
    sweep_self = []
    for op, result in traced.items():
        (solve_s,) = tracer.seconds("solver.solve", op)
        replayed = sum(tracer.seconds("solver.maximize_dual", op)) + sum(
            tracer.seconds("solver.certify", op))
        sweep_self.append(solve_s - replayed - result.timings.get("polish_s", 0.0))

    def timing(key: str) -> float:
        return _mean([r.timings.get(key, 0.0) for r in results], 1e3)

    def polished_winner(r: fd.SolveResult) -> bool:
        return any(s.note == "Polished" and s.mu == r.mu_star and s.p0 == r.P0_value
                   for s in r.mu_profile)

    perfect = fd.CertificateKind.PERFECT
    return {
        "instance_io.parse_ms": _mean(tracer.seconds("instance_io.parse_instance"), 1e3),
        "problem.validate_ms": _mean(tracer.seconds("problem.validate"), 1e3),
        "instance_io.serialize_ms": _mean(tracer.seconds("instance_io.serialize_result"), 1e3),
        "dual.curvature_matrix_pd_us": _mean(tracer.seconds("dual.curvature_matrix.pd"), 1e6),
        "dual.curvature_matrix_nonpd_us": _mean(
            tracer.seconds("dual.curvature_matrix.nonpd"), 1e6),
        "dual.evaluate_dual_us": _mean(tracer.seconds("dual.evaluate_dual"), 1e6),
        "solver.maximize_dual_ms": _mean(tracer.seconds("solver.maximize_dual"), 1e3),
        "solver.certify_us": _mean(tracer.seconds("solver.certify"), 1e6),
        "solver.ascent_iters_per_slice_mean": fmean(iters),
        "solver.ascent_iters_per_slice_max": max(iters),
        "solver.iter_capped_slices": sum(n == max_iter for n in iters),
        "solver.stalled_slices": sum(
            sol.status is fd.AscentStatus.MAX_ITERATIONS and sol.n_iter < max_iter
            for sol in solved),
        "solver.boundary_slice_share": fmean(
            sol.status is fd.AscentStatus.NEAR_PD_BOUNDARY for sol in solved),
        "solver.slices_per_solve": len(slices) / len(results),
        "solver.perfect_slice_share": fmean(
            s.certificate is not None and s.certificate.kind is perfect for s in slices),
        "solver.grid_ms": timing("grid_s"),
        "solver.refine_ms": timing("refine_s"),
        "solver.polish_ms": timing("polish_s"),
        "solver.polish_wins": sum(polished_winner(r) for r in results),
        "solver.sweep_self_ms": _mean(sweep_self, 1e3),
        "perfect_share": fmean(r.certificate.kind is perfect for r in results),
    }

"""Canonical instance/result serialization.

The on-disk format is a JSON-compatible key-value tree written canonically:
keys sorted, floats at 17 significant digits (enough to round-trip a double
bit-for-bit), scalar arrays inline.  parse(serialize(p)) reproduces every
field exactly and serialize(parse(text)) reproduces the canonical text.

The text itself is the format contract: a writer must reproduce it byte
for byte.  A flat array of Python floats (every matrix and vector of an
instance or result) is checked and written in one call instead of element
by element, and prints each element exactly as the per-element path does.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError
from .problem import FractionalProgram, validate

if TYPE_CHECKING:
    from .solver import SolveResult

SCHEMA_VERSION = 1


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return "%.17g" % x


def _fmt_floats(values) -> str:
    """Python floats printed as `_fmt_float` prints each one, in one `%` call."""
    if not all(map(math.isfinite, values)):
        _fmt_float(next(v for v in values if not math.isfinite(v)))  # raises
    return ", ".join(["%.17g"] * len(values)) % tuple(values)


def _emit(value, pad: str) -> str:
    if isinstance(value, dict):
        inner = pad + "  "
        items = [
            f'{inner}"{k}": {_emit(value[k], inner)}' for k in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float}:
            return "[" + _fmt_floats(value) + "]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(_emit(v, pad) for v in value) + "]"
        inner = pad + "  "
        items = [f"{inner}{_emit(v, inner)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_text(payload: dict) -> str:
    """Render a payload dict to canonical text (trailing newline included)."""
    return _emit(payload, "") + "\n"


def instance_payload(prog: FractionalProgram) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": prog.n,
        "m": prog.m,
        "Q": prog.Q.ravel().tolist(),
        "f": prog.f_vec.tolist(),
        "B": prog.B.ravel().tolist(),
        "lambda": float(prog.lam),
        "delta": float(prog.delta),
        "H": prog.H.ravel().tolist(),
        "b": prog.b_vec.tolist(),
    }


def serialize_instance(prog: FractionalProgram) -> str:
    return canonical_text(instance_payload(prog))


def _need(data: dict, field: str):
    if field not in data:
        raise ParseError(f"field '{field}': missing", field=field)
    return data[field]


def _int_field(data: dict, field: str) -> int:
    v = _need(data, field)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"field '{field}': expected an integer, got {v!r}", field=field)
    return v


def _real_field(data: dict, field: str) -> float:
    v = _need(data, field)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"field '{field}': expected a number, got {v!r}", field=field)
    return float(v)


def _array_field(data: dict, field: str, length: int) -> np.ndarray:
    v = _need(data, field)
    # exact types, so that true/false (bool, a subclass of int) are refused
    if not isinstance(v, list) or not set(map(type, v)) <= {int, float}:
        raise ParseError(f"field '{field}': expected an array of numbers", field=field)
    if len(v) != length:
        raise ParseError(
            f"field '{field}': expected {length} numbers, got {len(v)}", field=field
        )
    return np.array(v, dtype=float)


def parse_instance(text: str) -> FractionalProgram:
    """Parse canonical text into a validated program.

    ParseError carries the offending field; validation errors forward as-is.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed instance text: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("instance text must be a key-value tree")
    version = _int_field(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"field 'schema_version': unsupported version {version}", field="schema_version"
        )
    n = _int_field(data, "n")
    m = _int_field(data, "m")
    if n < 1:
        raise ParseError(f"field 'n': must be >= 1, got {n}", field="n")
    if m < 0:
        raise ParseError(f"field 'm': must be >= 0, got {m}", field="m")
    Q = _array_field(data, "Q", n * n).reshape(n, n)
    f = _array_field(data, "f", n)
    B = _array_field(data, "B", m * n).reshape(m, n)
    lam = _real_field(data, "lambda")
    delta = _real_field(data, "delta")
    H = _array_field(data, "H", n * n).reshape(n, n)
    b = _array_field(data, "b", n)
    return validate(Q, f, B, lam, H, b, delta)


def _finite_or_none(x: float):
    x = float(x)
    return x if math.isfinite(x) else None


def result_payload(result: SolveResult) -> dict:
    opts = result.options
    profile = [
        {
            "mu": s.mu,
            "dual_value": _finite_or_none(s.solution.value) if s.solution else None,
            "certificate": s.certificate.kind.value if s.certificate else "None",
            "status": s.status_label,
        }
        for s in result.mu_profile
    ]
    return {
        "x_star": result.x_star.tolist(),
        "mu_star": float(result.mu_star),
        "varsigma": float(result.d_star.varsigma),
        "sigma": float(result.d_star.sigma),
        "primal_value": float(result.P0_value),
        "dual_value": _finite_or_none(result.best_dual_value),
        "gap": _finite_or_none(result.certificate.gap),
        "global_lower_bound": _finite_or_none(result.global_lower_bound),
        "global_gap": _finite_or_none(result.global_gap),
        "certificate_kind": result.certificate.kind.value,
        "mu_profile": profile,
        "solver_options": {
            "grid": opts.grid,
            "max_iter": opts.max_iter,
            "tol_gap": opts.tol_gap,
        },
        "timings": {k: float(v) for k, v in result.timings.items()},
    }


def serialize_result(result: SolveResult) -> str:
    return canonical_text(result_payload(result))

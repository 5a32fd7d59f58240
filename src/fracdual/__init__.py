"""Global solver for constrained quadratic-fractional minimization.

Minimizes f(x) + g(x)/h(x) over the region where the concave quadratic h
stays above a threshold, by sweeping a scalar reparameterization and
solving each subproblem through a concave dual with a posteriori global
optimality certificates.
"""

import importlib

from .dual import (
    CurvatureFactor,
    DualEvaluation,
    DualPoint,
    canonical_measure,
    curvature_matrix,
    dual_value,
    evaluate_dual,
    in_dual_cone,
    legendre_conjugate,
    recover_primal,
    total_complementary,
)
from .errors import (
    AllSubproblemsFailedError,
    DeltaOutOfRangeError,
    DimensionTooLargeError,
    DualDomainError,
    FracdualError,
    GenerationError,
    HNotNegativeDefiniteError,
    InfeasibleError,
    Mu0NotPositiveError,
    MuOutOfRangeError,
    NegativeLambdaError,
    NoStartingPointError,
    NotPDError,
    NotSymmetricError,
    ParseError,
    ShapeMismatchError,
    ValidationError,
    WeakDualityError,
)
from .generate import generate_program
from .instance_io import (
    canonical_text,
    instance_payload,
    parse_instance,
    result_payload,
    serialize_instance,
    serialize_result,
)
from .problem import (
    FractionalProgram,
    MuInterval,
    check_mu,
    eval_objective,
    eval_subproblem,
    eval_terms,
    is_feasible,
    validate,
)

# The solver's and the oracle's names, imported on first use (PEP 562):
# generating, serializing and parsing never pay for building the solver.
_LAZY = dict.fromkeys(
    ("OracleReport", "bounding_box", "grid_minimize_objective", "grid_minimize_subproblem"),
    "oracle",
) | dict.fromkeys(
    ("AscentStatus", "Certificate", "CertificateKind", "DualSolution", "ExistenceProbe",
     "MuSample", "SolveResult", "SolverOptions", "certify", "existence_probe", "find_start",
     "maximize_dual", "solve"),
    "solver",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AllSubproblemsFailedError",
    "AscentStatus",
    "Certificate",
    "CertificateKind",
    "CurvatureFactor",
    "DeltaOutOfRangeError",
    "DimensionTooLargeError",
    "DualDomainError",
    "DualEvaluation",
    "DualPoint",
    "DualSolution",
    "ExistenceProbe",
    "FracdualError",
    "FractionalProgram",
    "GenerationError",
    "HNotNegativeDefiniteError",
    "InfeasibleError",
    "Mu0NotPositiveError",
    "MuInterval",
    "MuOutOfRangeError",
    "MuSample",
    "NegativeLambdaError",
    "NoStartingPointError",
    "NotPDError",
    "NotSymmetricError",
    "OracleReport",
    "ParseError",
    "ShapeMismatchError",
    "SolveResult",
    "SolverOptions",
    "ValidationError",
    "WeakDualityError",
    "bounding_box",
    "canonical_measure",
    "canonical_text",
    "certify",
    "check_mu",
    "curvature_matrix",
    "dual_value",
    "eval_objective",
    "eval_subproblem",
    "eval_terms",
    "evaluate_dual",
    "existence_probe",
    "find_start",
    "generate_program",
    "grid_minimize_objective",
    "grid_minimize_subproblem",
    "in_dual_cone",
    "instance_payload",
    "is_feasible",
    "legendre_conjugate",
    "maximize_dual",
    "parse_instance",
    "recover_primal",
    "result_payload",
    "serialize_instance",
    "serialize_result",
    "solve",
    "total_complementary",
    "validate",
]

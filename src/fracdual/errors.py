"""Exception taxonomy shared across the package."""


class FracdualError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FracdualError, ValueError):
    """Instance data rejected by validation."""


class ShapeMismatchError(ValidationError):
    pass


class NotSymmetricError(ValidationError):
    pass


class HNotNegativeDefiniteError(ValidationError):
    pass


class Mu0NotPositiveError(ValidationError):
    pass


class DeltaOutOfRangeError(ValidationError):
    pass


class NegativeLambdaError(ValidationError):
    pass


class InfeasibleError(FracdualError):
    """Point violates the feasibility bound on the concave denominator."""

    def __init__(self, msg, h_value=None, bound=None):
        super().__init__(msg)
        self.h_value = h_value
        self.bound = bound


class MuOutOfRangeError(FracdualError):
    """Parameter value outside the admissible sweep interval."""


class NotPDError(FracdualError):
    """Curvature matrix is not positive definite at the requested point."""

    def __init__(self, msg, min_pivot=None):
        super().__init__(msg)
        self.min_pivot = min_pivot


class DualDomainError(FracdualError, ValueError):
    """Dual point off the domain 0 < mu < inf, varsigma >= -lam, sigma >= 0."""


class DimensionTooLargeError(FracdualError):
    """Exhaustive reference search refused for this dimension, or for a grid
    with more cells than the oracle's MAX_GRID_CELLS at this resolution."""


class NoStartingPointError(FracdualError):
    """No positive definite starting point found in the dual cone."""


class AllSubproblemsFailedError(FracdualError):
    """Every parameter grid point failed to produce a candidate."""


class WeakDualityError(FracdualError):
    """A feasible candidate fell below the dual bound of its own slice."""


class ParseError(FracdualError):
    """Malformed instance or result file."""

    def __init__(self, msg, field=None):
        super().__init__(msg)
        self.field = field


class GenerationError(FracdualError):
    """Random instance generation got bad arguments or exhausted its rejection budget."""

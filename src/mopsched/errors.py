"""Exception types shared across the package."""


class MopschedError(Exception):
    """Base class for all package errors."""


class ModelError(MopschedError):
    """Electrical model cannot be built (bad topology, singular matrices, ...)."""


class ValidationError(MopschedError):
    """Caller-supplied data violates a documented invariant."""


class PowerFlowDivergence(ModelError):
    """The fixed-point power flow failed to converge.

    Carries the last nodal mismatch so callers can distinguish "slightly out
    of tolerance" from "far outside the solvable regime".
    """

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power flow did not converge: residual {residual:.3e} after "
            f"{iterations} iterations"
        )

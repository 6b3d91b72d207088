"""Exception hierarchy for the zeroone package."""


class ZeroOneError(Exception):
    """Base class for all package-specific errors."""


class CellIndexError(ZeroOneError):
    """A multi-index component is outside the declared dimensions."""


class StructuralZeroError(ZeroOneError):
    """A cell was addressed that is masked out as a structural zero."""


class DimensionError(ZeroOneError):
    """Model dimensions do not satisfy a builder's preconditions."""


class LengthMismatchError(ZeroOneError):
    """A table or move vector does not match the configuration's cell count."""


class NotAMoveError(ZeroOneError):
    """A vector expected to lie in the configuration kernel does not."""


class MixedFiberError(ZeroOneError):
    """Tables passed as one fiber do not share a sufficient statistic."""


class BudgetExhaustedError(ZeroOneError):
    """An exhaustive routine ran out of its budget or cap; carries what it finished, or None."""

    def __init__(self, partial, message):
        super().__init__(message)
        self.partial = partial


class NoDecompositionError(ZeroOneError):
    """No conformal decomposition exists within the supplied move set."""


class IpfError(ZeroOneError):
    """Iterative proportional fitting failed or is not applicable."""

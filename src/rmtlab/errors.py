"""Exception types shared across the package.

Invalid parameters raise plain ValueError everywhere; the classes below carry
extra diagnostic payload that a bare message would lose.
"""


class NumericalError(RuntimeError):
    """An eigensolve or other kernel failed its accuracy contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSpectrumError(ValueError):
    """An operation that needs a simple eigenvalue hit a near-degenerate one."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class InfeasibleDecompositionError(ValueError):
    """The Gaussian-divisible split has negative residual variance."""


class FixedPointError(NumericalError):
    """The self-consistent solver ran out of iterations."""


class BranchError(NumericalError):
    """The solver iterate left the upper half plane."""


class AccuracyError(NumericalError):
    """A numerically integrated quantity missed its mass/accuracy budget."""

"""Exception hierarchy shared across the package."""


class BosegasError(Exception):
    """Base class for all structured failures of this package."""


class SolverError(BosegasError):
    """An ODE solve could not produce a valid solution."""


class BracketFailure(SolverError):
    """The eigenvalue search exhausted its bracket without finding a root."""


class QuadratureError(BosegasError):
    """A radial quadrature cannot resolve the requested wave number."""


class KernelError(BosegasError):
    """A correlation-kernel formula received an out-of-domain argument."""


class ModelValidityError(BosegasError):
    """The second-order density-matrix model is invalid at this particle number."""


class BasisSizeError(BosegasError):
    """The requested occupation basis exceeds the configured state limit."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(f"occupation basis exceeds the limit {limit}: {count} states counted")


class GuardError(BosegasError):
    """A numerical validity guard of an oracle computation was violated."""

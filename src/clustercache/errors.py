"""Exception types shared across the package.

All exceptions derive from :class:`ClusterCacheError` so callers can catch
library failures with a single except clause. Configuration problems are
ValueErrors, numerical problems are RuntimeErrors.
"""


class ClusterCacheError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ClusterCacheError, ValueError):
    """An input parameter, policy, or scenario file is invalid."""


class NumericFailure(ClusterCacheError, RuntimeError):
    """A quadrature, series or root solve did not converge.

    The message carries what is needed to debug the failing call: both
    rules' values, their difference and the tolerance for a coverage
    quadrature (or the table with non-finite entries), the last Newton
    step for a root solve, and the term count for a series.
    """


class InfeasibleAccessProbability(ClusterCacheError, ValueError):
    """The ALOHA access probability cannot support the rate threshold."""


class UnstableQueueError(ClusterCacheError, ValueError):
    """A queue's utilisation, arrival over service rate, is not below 1 by
    the stability margin (it is infinite at a zero service rate)."""

    def __init__(self, queue: int, zeta: float, mu: float):
        self.queue = queue
        self.zeta = zeta
        self.mu = mu
        utilisation = zeta / mu if mu > 0 else float("inf")
        super().__init__(
            f"queue {queue} is unstable: utilisation {utilisation:.12g} "
            f"(arrival rate {zeta:.6g} /s, service rate {mu:.6g} /s)"
        )


class InfeasibleLoadError(ClusterCacheError, ValueError):
    """No caching policy stabilises both queues at this load."""

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


class ConvexityError(ClusterCacheError, ValueError):
    """The energy objective is not convex for the supplied rates."""


class UnstableQueueError(ClusterCacheError, ValueError):
    """Arrival rate meets or exceeds service rate for one of the queues."""

    def __init__(self, queue: int, zeta: float, mu: float):
        self.queue = queue
        self.zeta = zeta
        self.mu = mu
        super().__init__(
            f"queue {queue} is unstable: arrival rate {zeta:.6g} /s >= "
            f"service rate {mu:.6g} /s"
        )


class NoStableSplitError(ClusterCacheError, ValueError):
    """No bandwidth split can stabilise both queues for this policy."""


class InfeasibleLoadError(ClusterCacheError, ValueError):
    """No caching policy stabilises both queues at this load."""

"""Cache-enabled clustered D2D network: analysis, optimization, validation.

Devices form a Thomas cluster process and cache files from a Zipf
catalog under a random caching policy. The package computes coverage
probabilities and rates from stochastic geometry, optimizes the caching
vector for offloading gain, energy, and weighted request delay, and
validates every analytic quantity against an internal Monte Carlo
simulator.
"""

from .errors import (
    ClusterCacheError,
    ConfigError,
    InfeasibleAccessProbability,
    InfeasibleLoadError,
    NumericFailure,
    UnstableQueueError,
)
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    baseline_policy,
    zipf_popularity,
)
from .montecarlo import (
    ConditionalCoverage,
    McEstimate,
    PoissonConditionalCoverage,
    ProbRateExceeds,
    SingleLinkCoverage,
    simulate,
)
from .optimize import (
    BcdStep,
    BcdTrace,
    KktSolution,
    energy_conditional,
    objective_offloading,
    optimize_delay_bcd,
    optimize_energy,
    optimize_offloading,
    weighted_delay,
)
from .queueing import service_coefficients
from .stochgeo import (
    average_rate,
    bs_coverage,
    d2d_coverage_conditional,
    d2d_coverage_single_link,
    optimal_access_probability,
    prob_rate_exceeds,
    serving_distance_pdf,
)

__version__ = "0.1.0"

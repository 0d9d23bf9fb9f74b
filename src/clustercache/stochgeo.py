"""Analytical coverage quantities for the clustered D2D network.

Everything here reduces to Laplace transforms of the aggregate
interference seen by a typical receiver at the origin under Rayleigh
fading. The serving device is a cluster mate, so the serving distance is
Rayleigh with scale sqrt(2)*sigma. Interference splits into an
inter-cluster part (all other clusters, devices active with the ALOHA
probability) and an intra-cluster part (active devices of the local
cluster, with the interferer distances treated as independent
Rayleigh(sqrt(2)*sigma) draws).

Numerical conventions
---------------------
* Coverage probabilities (:func:`prob_rate_exceeds`,
  :func:`d2d_coverage_conditional`) depend on sigma and lambda_p only
  through the density lambda_p * sigma**2. They come from one table per
  (alpha, theta, mu = p*nbar), built in units of sigma with fixed-order
  Gauss-Legendre panels: serving distances r on [0, 14] with breaks where
  r, and where the kernel knee theta**(1/alpha) * r, passes 1, 2 and 4;
  at each r, log L_inter(r) per unit density and the intra-cluster
  integral I(r) with L_intra = exp(-intensity * I). A coverage is the
  contraction sum_r w(r) f_R(r) exp(density * log L_inter(r) - intensity
  * I(r)), so one table serves every sigma and lambda_p, P(R1 > R0)
  (intensity p*nbar) and every cluster size k (intensity p*k).
* Tables are built on the same panels by a ladder of rules of rising
  order, ``_RULES``. A coverage is the value of the first rule that
  agrees with the rule below it within max(1e-9, 1e-7 * value); a
  higher rule is built only when the lower two disagree. If the top two
  disagree, :class:`~clustercache.errors.NumericFailure` reports both
  values. A table with a non-finite entry raises it too.
* The tables are tested against an adaptive Gauss-Kronrod oracle of
  the two transforms, ``tests/laplace_oracle.py``, which shares none of
  their quadrature code.
* Semi-infinite ranges are mapped through v = c*t/(1-t); ranges with an
  exponentially decaying weight are truncated where the weight falls
  below 1e-18 of its peak.
* The Rice density is evaluated with the exponentially scaled Bessel
  function e^(-x) I0(x), so large center distances cannot overflow. It
  is the package's own Cephes Chebyshev evaluation
  (:func:`_i0e_inplace`, the coefficients of ``np.i0``, bit-identical to
  ``scipy.special.i0e``), and the nearest-BS coverage sums its
  hypergeometric series directly (:func:`_hyp2f1_bs`), so the package
  needs no scipy. The test oracle uses ``scipy.integrate`` and
  ``scipy.special.i0e``, so the tables' Bessel evaluation is checked
  against an independent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import numpy.polynomial.legendre  # numpy loads it lazily: import it here, not in a run

from .errors import ConfigError, InfeasibleAccessProbability, NumericFailure
from .model import NetworkConfig

__all__ = [
    "CoverageResult",
    "serving_distance_pdf",
    "prob_rate_exceeds",
    "d2d_coverage_conditional",
    "bs_coverage",
    "d2d_coverage_single_link",
    "average_rate",
    "optimal_access_probability",
]

ATOL = 1e-9
RTOL = 1e-7
# Rayleigh(sqrt(2)*sigma) mass beyond 14*sigma is ~5e-22.
_RAYLEIGH_CUTOFF = 14.0
# Rice(v, sigma) mass outside v +/- 12*sigma is below 1e-30.
_RICE_WINDOW = 12.0
# Gauss-Legendre points per panel of the coverage tables, as (r, t, u):
# serving distance, mapped cluster-center distance, and interferer
# distance (Rice window and intra-cluster integral), in rising order on
# the same panels. The gap between a rule and the one below it is that
# rule's error estimate; the next rule is built only when it fails.
_RULES = ((12, 12, 32), (16, 16, 48), (24, 24, 64))
# Serving distances per table chunk are capped so no temporary holds more
# than about this many doubles.
_CHUNK_DOUBLES = 65536
# Relative margin of the access probability above the rate threshold.
_ACCESS_MARGIN = 1e-6


@dataclass(frozen=True)
class CoverageResult:
    """A coverage probability, clamped into [0, 1] within 1e-9."""

    value: float
    degenerate: bool = False

    def __post_init__(self):
        v = self.value
        if -1e-9 <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + 1e-9:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"coverage must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


# Cephes Chebyshev coefficients of e^(-x) I0(x) in x/2 - 2 on [0, 8] and of
# sqrt(x) e^(-x) I0(x) in 32/x - 2 on (8, inf); np.i0 uses the same tables.
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18,
    4.46562142029675999901E-17, 3.46122286769746109310E-17,
    -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15,
    -9.55484669882830764870E-15, -4.15056934728722208663E-14,
    1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12,
    -1.32158118404477131188E-11, -3.14991652796324136454E-11,
    1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8,
    2.04891858946906374183E-7, 2.89137052083475648297E-6,
    6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)
# Elements per pass of the Chebyshev recurrence. Its four buffers (1 MB)
# are then reused and stay in a core's L2 cache; whole-array buffers came
# from fresh pages on every call, and the page faults cost more than the
# arithmetic. Of 8K, 16K, 32K and unblocked, 32K built the coverage
# tables fastest.
_I0E_BLOCK = 32768
# Terms after which a hypergeometric series of _hyp2f1_bs counts as not
# converging; on alpha in [2.05, 8] and theta in [1e-3, 1e5] it needs 90.
_SERIES_TERMS = 1000


def _chbevl(y: np.ndarray, coefs, b0: np.ndarray, b1: np.ndarray,
            b2: np.ndarray) -> np.ndarray:
    """Cephes ``chbevl``: the Chebyshev series ``coefs`` at ``y``.

    The Clenshaw recurrence b0 <- y*b1 - b2 + c runs in the three given
    buffers, in the same order of operations as the C code; returns the
    buffer holding the result.
    """
    b0[...] = coefs[0]
    b1[...] = 0.0
    for c in coefs[1:]:
        np.multiply(y, b0, out=b2)
        b2 -= b1
        b2 += c
        b0, b1, b2 = b2, b0, b1
    b0 -= b2
    b0 *= 0.5
    return b0


def _i0e_branch(v: np.ndarray, small: bool, work: np.ndarray) -> np.ndarray:
    """e^(-v) I0(v) for ``v`` all at most 8 (``small``) or all above,
    computed in the rows of ``work``."""
    y, b0, b1, b2 = work[:, :v.size]
    if small:
        np.multiply(v, 0.5, out=y)
        y -= 2.0
        return _chbevl(y, _I0E_A, b0, b1, b2)
    np.divide(32.0, v, out=y)
    y -= 2.0
    out = _chbevl(y, _I0E_B, b0, b1, b2)
    out /= np.sqrt(v, out=y)
    return out


def _i0e_inplace(x: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function e^(-|x|) I0(|x|),
    written over ``x`` (a C-contiguous float array), which is returned."""
    flat = x.reshape(-1)
    np.abs(flat, out=flat)
    work = np.empty((4, min(flat.size, _I0E_BLOCK)))
    for start in range(0, flat.size, _I0E_BLOCK):
        block = flat[start:start + _I0E_BLOCK]
        small = block <= 8.0
        for part, below in ((small, True), (~small, False)):
            block[part] = _i0e_branch(block[part], below, work)
    return x


def _hyp2f1_bs(theta: float, delta: float) -> float:
    """2F1(1, -delta; 1 - delta; -theta) for theta > 0 and 0 < delta < 1.

    For theta <= 3 the Pfaff transform (1 + theta)**delta *
    2F1(-delta, -delta; 1 - delta; w) with w = theta / (1 + theta) <= 3/4,
    a series of positive terms. Beyond, the continuation to large theta,
    theta**delta * pi delta / sin(pi delta)
    - sum_{n >= 1} (-1)**n delta theta**(-n) / (n + delta),
    an alternating series in 1/theta < 1/3. Raises
    :class:`~clustercache.errors.NumericFailure` if the series does not
    converge within ``_SERIES_TERMS`` terms.
    """
    if theta <= 3.0:
        w = theta / (1.0 + theta)
        term = total = 1.0
        for n in range(_SERIES_TERMS):
            term *= (n - delta) ** 2 / ((n + 1 - delta) * (n + 1)) * w
            total += term
            if term <= 1e-17 * total:
                return (1.0 + theta) ** delta * total
    else:
        x = -1.0 / theta
        # sin(pi delta) = sin(pi (1 - delta)); 1 - delta is exact near delta = 1.
        total = theta**delta * math.pi * delta / math.sin(math.pi * (1.0 - delta))
        power = 1.0
        for n in range(1, _SERIES_TERMS):
            power *= x
            term = delta * power / (n + delta)
            total -= term
            if abs(term) <= 1e-17 * abs(total):
                return total
    raise NumericFailure(
        f"hypergeometric series 2F1(1, -{delta!r}; 1 - {delta!r}; -{theta!r}) "
        f"did not converge in {_SERIES_TERMS} terms"
    )


def serving_distance_pdf(r, sigma: float):
    """Density of the serving distance: Rayleigh with scale sqrt(2)*sigma."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    r = np.asarray(r, dtype=float)
    out = (r / (2.0 * sigma**2)) * np.exp(-(r**2) / (4.0 * sigma**2))
    return out if out.ndim else float(out)


def _rice_pdf(u: np.ndarray, v, sigma: float) -> np.ndarray:
    """Rice density of the distance from the origin to a point Gaussian
    (std ``sigma``) around a center at distance ``v`` (``u`` and ``v``
    broadcast against each other), as an array; the arguments are not
    checked.

    Uses the exponentially scaled Bessel I0 so u*v/sigma^2 beyond ~700
    cannot overflow: (u/s^2) exp(-(u-v)^2 / 2s^2) I0e(u v / s^2).
    """
    s2 = sigma**2
    # Built in place, in the order of operations of the formula: the
    # coverage tables evaluate it on large arrays, and every temporary
    # costs fresh memory pages.
    out = np.asarray(u - v)
    np.square(out, out=out)
    out /= -2.0 * s2
    np.exp(out, out=out)
    out *= np.maximum(u, 0.0) / s2  # max(u, 0): no density for u < 0
    out *= _i0e_inplace(np.asarray(u * v / s2))
    return out


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_panels(edges, n: int):
    """Nodes of n-point Gauss-Legendre panels between the consecutive
    entries on the last axis of ``edges``, shape (..., panels, n), and the
    half width of each panel, shape (..., panels)."""
    x, _ = _gl_nodes(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges, axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    return mid[..., None] + half[..., None] * x, half


def _gl_rule(edges, n: int):
    """:func:`_gl_panels` as flat nodes and weights: the panels of each
    leading index are laid out along the last axis."""
    nodes, half = _gl_panels(edges, n)
    shape = nodes.shape[:-2] + (-1,)
    return nodes.reshape(shape), (half[..., None] * _gl_nodes(n)[1]).reshape(shape)


def _phi(s_sir, v, alpha: float, n: int):
    """E[ s/(s + U^alpha) ] for U ~ Rice(v, 1), with s = theta*r^alpha.

    ``s_sir`` and ``v`` (non-negative) broadcast against each other. The
    Rice mass lives in a +/- 12 window around v; the kernel transitions
    around u = s**(1/alpha), so the window is split there (at its midpoint
    when the knee lies outside) and each half gets an n-point rule.
    """
    s_sir, v = np.broadcast_arrays(np.asarray(s_sir, dtype=float),
                                   np.asarray(v, dtype=float))
    lo = np.maximum(0.0, v - _RICE_WINDOW)
    hi = v + _RICE_WINDOW
    knee = s_sir ** (1.0 / alpha)
    split = np.where((lo < knee) & (knee < hi), knee, 0.5 * (lo + hi))
    u, half = _gl_panels(np.stack([lo, split, hi], axis=-1), n)
    s_sir = s_sir[..., None, None]
    f = u**alpha  # s/(s + u**alpha), in place
    f += s_sir
    np.divide(s_sir, f, out=f)
    f *= _rice_pdf(u, v[..., None, None], 1.0)
    return ((f @ _gl_nodes(n)[1]) * half).sum(axis=-1)


class _RuleTable(NamedTuple):
    """One quadrature rule tabulated over the serving distance r/sigma."""

    weights: np.ndarray  # w(r) * f_R(r)
    log_inter: np.ndarray  # log L_inter(theta * r**alpha) / (lambda_p sigma**2)
    intra: np.ndarray  # I(r), with L_intra = exp(-intensity * I(r))

    def coverage(self, density: float, intensity: float) -> float:
        """The contraction at ``density`` = lambda_p sigma**2."""
        exponent = density * self.log_inter - intensity * self.intra
        return float(self.weights @ np.exp(exponent))


def _log_inter(s_sir: np.ndarray, alpha: float, mu: float, n_t: int, n_u: int):
    """log L_inter / (lambda_p sigma**2) at each SIR argument, with sigma = 1.

    -2 pi Int_0^inf (1 - exp(-mu phi(s, v))) v dv with phi the
    Rice-averaged fading kernel and mu = p nbar, the integral mapped to
    (0, 1) through v = c*t/(1-t) with c = s**(1/alpha) + 13.
    """
    knee = s_sir ** (1.0 / alpha)
    scale = knee + 13.0
    # Breaks at v = 1, knee and knee + 13 (t = 1/2) of v = c*t/(1-t).
    t_sigma, t_knee = 1.0 / (scale + 1.0), knee / (scale + knee)
    edges = np.stack([np.zeros_like(knee), np.minimum(t_sigma, t_knee),
                      np.maximum(t_sigma, t_knee), np.full_like(knee, 0.5),
                      np.ones_like(knee)], axis=-1)
    t, w = _gl_rule(edges, n_t)
    scale = scale[:, None]
    v = scale * t / (1.0 - t)
    w *= scale / (1.0 - t) ** 2 * v
    phi = _phi(s_sir[:, None], v, alpha, n_u)
    return -2.0 * math.pi * (w * -np.expm1(-mu * phi)).sum(axis=-1)


def _intra_integral(s_sir: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """I at each SIR argument: I(s) = E[s/(s + H**alpha)] with H the
    Rayleigh(sqrt(2)) interferer distance, cut at 14."""
    hi = _RAYLEIGH_CUTOFF
    knee = np.minimum(s_sir ** (1.0 / alpha), hi)
    edges = np.stack([np.zeros_like(knee), np.minimum(knee, 1.0),
                      np.maximum(knee, 1.0), np.full_like(knee, hi)], axis=-1)
    h, w = _gl_rule(edges, n)
    s_sir = s_sir[:, None]
    return (w * s_sir / (s_sir + h**alpha) * serving_distance_pdf(h, 1.0)).sum(axis=-1)


@lru_cache(maxsize=1024)
def _coverage_table(alpha: float, theta: float, mu: float, level: int) -> _RuleTable:
    """The table of rule ``_RULES[level]``, in units of sigma: it serves
    every sigma, lambda_p, power and bandwidth of its (alpha, theta, mu)."""
    n_r, n_t, n_u = _RULES[level]
    # Panels break where r, and where the kernel knee theta**(1/alpha) * r,
    # passes 1, 2 and 4; at large theta the coverage integrand lives on the
    # second, much shorter scale.
    breaks = np.array([1.0, 2.0, 4.0])
    breaks = np.concatenate([breaks, breaks * theta ** (-1.0 / alpha)])
    cut = _RAYLEIGH_CUTOFF
    r, w = _gl_rule(sorted({0.0, cut, *breaks[breaks < cut]}), n_r)
    s_sir = theta * r**alpha
    # The Rice kernel of one serving distance spans 4 t panels x 2 u panels.
    chunk = max(1, _CHUNK_DOUBLES // (8 * n_t * n_u))
    log_inter = np.concatenate([
        _log_inter(s_sir[i:i + chunk], alpha, mu, n_t, n_u)
        for i in range(0, r.size, chunk)
    ])
    table = _RuleTable(w * serving_distance_pdf(r, 1.0), log_inter,
                       _intra_integral(s_sir, alpha, n_u))
    for array in table:
        if not np.isfinite(array).all():
            raise NumericFailure(f"coverage table (alpha, theta, mu) = "
                                 f"{(alpha, theta, mu)} has non-finite entries")
        array.setflags(write=False)  # shared by every caller through the cache
    return table


def _coverage(cfg: NetworkConfig, intensity: float, what: str) -> float:
    """Serving-distance average of L_inter * L_intra at ``intensity``."""
    key = (cfg.alpha, cfg.theta, cfg.access_p * cfg.n_bar)
    density = cfg.lambda_p * cfg.sigma**2
    high = _coverage_table(*key, 0).coverage(density, intensity)
    for level in range(1, len(_RULES)):
        low, high = high, _coverage_table(*key, level).coverage(density, intensity)
        tol = max(ATOL, RTOL * abs(high))
        if abs(high - low) <= tol:
            return high
    raise NumericFailure(
        f"quadrature for {what} did not converge: fixed-order rules "
        f"{_RULES[-1]} and {_RULES[-2]} give {high!r} and {low!r}, "
        f"difference {abs(high - low)!r} exceeds tolerance {tol!r}"
    )


@lru_cache(maxsize=512)
def prob_rate_exceeds(cfg: NetworkConfig, r0_over_w1: float) -> CoverageResult:
    """Probability that the D2D link rate exceeds the threshold R0.

    Under fixed-rate transmission the event reduces to an SIR outage
    check, so the result is the serving-distance average of the two
    interference transforms. Requires the ALOHA rate p*W1*log2(1+theta)
    to exceed R0; otherwise the probability is identically zero and an
    :class:`InfeasibleAccessProbability` is raised.
    """
    if r0_over_w1 < 0:
        raise ConfigError("r0_over_w1 must be non-negative")
    spectral_capacity = cfg.access_p * math.log2(1.0 + cfg.theta)
    if not spectral_capacity > r0_over_w1:
        raise InfeasibleAccessProbability(
            f"access_p * log2(1 + theta) = {spectral_capacity:.6g} bits/s/Hz "
            f"does not exceed R0/W1 = {r0_over_w1:.6g} bits/s/Hz"
        )
    value = _coverage(cfg, cfg.access_p * cfg.n_bar, "P(R1 > R0)")
    return CoverageResult(value=value)


@lru_cache(maxsize=512)
def d2d_coverage_conditional(cfg: NetworkConfig, k: int) -> CoverageResult:
    """D2D coverage probability conditioned on k devices in the cluster.

    The intra-cluster interferers are modelled as a Gaussian field of
    intensity p*k. With access probability zero no transmission occurs at
    all; the interference-free value 1 is returned with the degenerate
    flag set so sweeps stay total.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if cfg.access_p == 0.0:
        return CoverageResult(value=1.0, degenerate=True)
    value = _coverage(cfg, cfg.access_p * k, f"D2D coverage | k={k}")
    return CoverageResult(value=value)


@lru_cache(maxsize=512)
def bs_coverage(theta: float, alpha: float) -> CoverageResult:
    """Coverage probability of the nearest-BS downlink under Rayleigh fading.

    Equal to 1 / 2F1(1, -d; 1-d; -theta) with d = 2/alpha; independent of
    the BS density and of all transmit powers (SIR metric). For alpha = 4
    this reduces to 1 / (1 + sqrt(theta) * arctan(sqrt(theta))).
    """
    if theta <= 0:
        raise ConfigError("theta must be positive")
    if alpha <= 2:
        raise ConfigError("alpha must exceed 2")
    delta = 2.0 / alpha
    denom = _hyp2f1_bs(theta, delta)
    if not math.isfinite(denom) or denom < 1.0:
        raise NumericFailure(f"hypergeometric evaluation failed: 2F1 = {denom!r}")
    return CoverageResult(value=1.0 / denom)


@lru_cache(maxsize=512)
def d2d_coverage_single_link(cfg: NetworkConfig) -> CoverageResult:
    """D2D coverage with exactly one active link per cluster.

    With a single transmitter per cluster the displaced interferer field
    is again Poisson with the parent density, which yields the closed
    form 1 / (4 sigma^2 Z) with
    Z = pi lambda_p theta^(2/alpha) Gamma(1+2/alpha) Gamma(1-2/alpha) + 1/(4 sigma^2).
    """
    delta = 2.0 / cfg.alpha
    z = (
        math.pi
        * cfg.lambda_p
        * cfg.theta**delta
        * math.gamma(1.0 + delta)
        * math.gamma(1.0 - delta)
        + 1.0 / (4.0 * cfg.sigma**2)
    )
    return CoverageResult(value=1.0 / (4.0 * cfg.sigma**2 * z))


def average_rate(w: float, theta: float, coverage: CoverageResult) -> float:
    """Average throughput W * log2(1 + theta) * P_c in bits/s."""
    if w < 0:
        raise ConfigError("bandwidth must be non-negative")
    return w * math.log2(1.0 + theta) * coverage.value


def optimal_access_probability(r0_over_w1: float, theta: float) -> float:
    """Smallest feasible ALOHA access probability for the rate threshold.

    The offloading problem fixes p just above R0 / (W1 log2(1+theta)),
    by the relative margin ``_ACCESS_MARGIN``, to stay strictly feasible.
    """
    if r0_over_w1 < 0:
        raise ConfigError("r0_over_w1 must be non-negative")
    bits_per_hz = math.log2(1.0 + theta) if theta > 0 else 0.0
    if not bits_per_hz > 0:  # theta = 1e-320 is positive, log2(1 + theta) is 0
        raise ConfigError(f"log2(1 + theta) must be positive, got theta = {theta!r}")
    p_star = r0_over_w1 / bits_per_hz * (1.0 + _ACCESS_MARGIN)
    if p_star > 1.0:
        raise InfeasibleAccessProbability(
            f"required access probability {p_star:.6g} exceeds 1"
        )
    return p_star

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
  integral I(r) with L_intra = exp(-intensity * I), both on the grid
  below. A coverage is the contraction sum_r w(r) f_R(r) exp(density *
  log L_inter(r) - intensity * I(r)), so one table serves every sigma and
  lambda_p, P(R1 > R0) (intensity p*nbar) and every cluster size k
  (intensity p*k).
* log L_inter of every serving distance of a table is computed on one
  shared grid: cluster-center distances v on panels at most 2 wide on
  [0, c], with c = 13 + the largest kernel knee, and interferer
  distances u on [0, c + 12], with breaks at 2**j from just below the
  smallest knee up to 1 and then at most 2 apart, so every knee lies in
  a panel its rule resolves. The Rice density is one band-limited table:
  it is evaluated once per (v, u) pair, only for the u panels within the
  Rice window v +/- 12 of each v panel, and the Rice-averaged kernel
  phi(s, v) of every r is the matrix product K @ G.T of the kernel
  K[s, u] = w(u) s/(s + u**alpha) with the density G[v, u]. The Bessel
  work of a table thus grows linearly in c and not with its number of
  r nodes. I(r) contracts the same kernel K with the Rayleigh(sqrt(2))
  density on the whole u rule. Beyond c, v is mapped as below and each
  Rice window is split at its midpoint, above every knee.
* Radial breaks closer than a factor 1.25 are one break, the larger:
  near theta = 1 the two scales would otherwise cut sliver panels that
  each get a full rule (at theta = 3 dB, alpha = 4 the panels are those
  of 0 dB; at theta = 1 the two scales coincide). Radial nodes of
  weight w(r) f_R(r) below 1e-18 are left out. The exponent of every
  contraction is at most 0, so a coverage moves by at most the weight
  left out, which is below 1e-15 for every rule.
* Tables are built on the same panels by a ladder of rules of rising
  order, ``_RULES``. A coverage is the value of the first rule that
  agrees with the rule below it within max(1e-9, 1e-7 * value); a
  higher rule is built only when the lower two disagree. If the top two
  disagree, :class:`~clustercache.errors.NumericFailure` reports both
  values. A table with a non-finite entry raises it too.
* Every coverage is a float in [0, 1]. A computed coverage that lies
  within 1e-9 outside it is clamped into it: a table's weights can sum to
  just above 1, and the single-link closed form rounds to just above 1
  at a vanishing lambda_p. Further outside, or NaN, it raises
  :class:`~clustercache.errors.NumericFailure`, since a computation and
  not an input produced it. :func:`average_rate` rejects a coverage
  outside [0, 1] from its caller with
  :class:`~clustercache.errors.ConfigError`.
* The tables are tested against an adaptive Gauss-Kronrod oracle of
  the two transforms, ``tests/laplace_oracle.py``, which shares none of
  their quadrature code.
* Semi-infinite ranges are mapped through v = c*(t/(1-t))**q, with
  q = 1 unless a heavy tail (alpha < 4) needs it larger. Serving
  distances are cut at 14 and Rice windows at v +/- 12, where the weight
  falls below 1e-18 of its peak; I(r) runs over the u rule, up to c + 12
  >= 25.
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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InfeasibleAccessProbability, NumericFailure
from .model import NetworkConfig, _check_count, _check_rate_threshold, _check_real

__all__ = [
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
# Gauss-Legendre points per panel of the coverage tables, as (r, v, u):
# serving distance, cluster-center distance and interferer distance, in
# rising order on the same panels. The wide panels get twice the v or u
# points: the mapped tail of v and its two 12-wide halves of each Rice
# window. The gap between a rule and the one below it is that rule's
# error estimate; the next rule is built only when it fails.
_RULES = ((12, 6, 16), (16, 8, 24), (24, 12, 32))
# Radial panel breaks closer than this factor are merged into one.
_BREAK_RATIO = 1.25
# Radial nodes whose weight w(r) f_R(r) is below this are left out.
_WEIGHTLESS = 1e-18
# The radial node count of every table built in this process, in build
# order: a sweep point's diagnostics report the entries it added.
_TABLE_NODES: list = []
# Widest panel of the cluster-center and interferer distances, in sigma.
_PANEL = 2.0
# Rice-density (v, u) pairs per pass of a table build: about 0.5 MB per
# array, and one pass for each of the two tables a Table-1 coverage builds.
_RICE_PASS = 65536
# Relative margin of the access probability above the rate threshold.
_ACCESS_MARGIN = 1e-6


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
# arithmetic. A Table-1 coverage table evaluates 20K-50K arguments: 16K
# and 32K built the table pairs equally fast, 8K and 64K 6-12% slower.
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
    """Density of the serving distance: Rayleigh with scale sqrt(2)*sigma,
    0 at a negative ``r``."""
    _check_real("sigma", sigma)
    r = np.asarray(r, dtype=float)
    out = (np.maximum(r, 0.0) / (2.0 * sigma**2)) * np.exp(-(r**2) / (4.0 * sigma**2))
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
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch: nodes
    are the eigenvalues of the Jacobi matrix (``eigvalsh``), polished by
    a Newton step from one three-term-recurrence pass, which also gives
    the weights 2 / ((1 - x**2) P_n'(x)**2)."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    previous, p = np.ones(n), x.copy()
    for j in range(1, n):
        previous, p = p, ((2 * j + 1) * x * p - j * previous) / (j + 1)
    slope = n * (x * p - previous) / (x * x - 1.0)
    x -= p / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _gl_rule(edges, n: int):
    """Nodes and weights of n-point Gauss-Legendre panels between the
    consecutive entries on the last axis of ``edges``: the panels of each
    leading index are laid out along the last axis."""
    x, w = _gl_nodes(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


class _RuleTable(NamedTuple):
    """One quadrature rule tabulated over the serving distance r/sigma."""

    weights: np.ndarray  # w(r) * f_R(r)
    log_inter: np.ndarray  # log L_inter(theta * r**alpha) / (lambda_p sigma**2)
    intra: np.ndarray  # I(r), with L_intra = exp(-intensity * I(r))

    def coverage(self, density: float, intensity: float) -> float:
        """The contraction at ``density`` = lambda_p sigma**2."""
        exponent = density * self.log_inter - intensity * self.intra
        return float(self.weights @ np.exp(exponent))


def _even_breaks(lo: float, hi: float) -> np.ndarray:
    """lo, hi and equally spaced breaks between them at most ``_PANEL`` apart."""
    return np.linspace(lo, hi, math.ceil((hi - lo) / _PANEL) + 1)


def _u_edges(kappa_min: float, top: float) -> np.ndarray:
    """Panel edges of the interferer distance u on [0, top]: breaks at 2**j
    from just below ``kappa_min`` up to 1, then at most ``_PANEL`` apart.

    Every kernel knee kappa >= kappa_min lies in a panel at most a factor
    2, or ``_PANEL``, wide, which a panel's rule resolves without a split
    at kappa. Knees below 2**-30 (or that underflow to 0) share the first
    panel: its Rice mass, at most u**2 / 2, and its Rayleigh(sqrt(2))
    mass, at most u**2 / 4, are below 1e-18.
    """
    lowest = min(math.floor(math.log2(max(kappa_min, 2.0**-30))), 0)
    return np.concatenate([[0.0], 2.0 ** np.arange(lowest, 0),
                           _even_breaks(1.0, top)])


def _log_inter(s_sir: np.ndarray, alpha: float, mu: float, n_v: int, n_u: int):
    """log L_inter / (lambda_p sigma**2) and the intra-cluster integral I
    at each SIR argument, with sigma = 1.

    -2 pi Int_0^inf (1 - exp(-mu phi(s, v))) v dv, with mu = p nbar and
    phi(s, v) = E[s/(s + U**alpha)] for U ~ Rice(v, 1) the Rice-averaged
    fading kernel. All SIR arguments share one grid: v on panels at most
    ``_PANEL`` wide on [0, c], with c = max kappa + 13 and kappa =
    s**(1/alpha) the kernel knee, and u on :func:`_u_edges` on
    [0, c + 12]. The Rice density of each (v, u) pair is evaluated once,
    and only for the u panels within the Rice window of the v panel, so
    phi = K @ G.T with K[s, u] = w(u) s/(s + u**alpha) and G[v, u] the
    Rice density; the cost grows linearly in c. I(s) = E[s/(s + H**alpha)]
    for H ~ Rayleigh(sqrt(2)) contracts each pass's K with the density of
    H at the u columns no earlier pass reached.

    Beyond c the integral is mapped to t in (1/2, 1) through
    v = c*(t/(1-t))**q; the integrand decays like v**(1-alpha), so with
    q = max(1, 2/(alpha-2)) it vanishes like (1-t)**(q*(alpha-2)-1), at
    least linearly, at t = 1. There every Rice window [v - 12, v + 12]
    lies above every knee and is split at its midpoint. The t panel and
    the half windows, 12 wide, get twice the points of a v or u panel.
    """
    knee = s_sir ** (1.0 / alpha)
    scale = float(knee.max()) + _RICE_WINDOW + 1.0
    s_col = s_sir[:, None]

    v_edges = _even_breaks(0.0, scale)
    u_edges = _u_edges(float(knee.min()), scale + _RICE_WINDOW)
    v, v_weights = _gl_rule(v_edges, n_v)
    u, u_weights = _gl_rule(u_edges, n_u)
    # The u nodes within the Rice window of each v panel: those of the u
    # panels that end above its low edge - 12 and start below its high
    # edge + 12.
    first = np.searchsorted(u_edges[1:], v_edges[:-1] - _RICE_WINDOW, "right") * n_u
    stop = np.searchsorted(u_edges[:-1], v_edges[1:] + _RICE_WINDOW, "left") * n_u
    pairs = n_v * (stop - first)
    v_panels = v.reshape(-1, n_v)
    phi = np.empty((s_sir.size, v.size + 2 * n_v))
    # Consecutive v panels of about _RICE_PASS pairs at a time, with the
    # kernel of the u nodes they reach.
    passes = np.flatnonzero(np.diff((np.cumsum(pairs) - 1) // _RICE_PASS)) + 1
    # The passes reach overlapping runs of u columns that cover the rule.
    intra = np.zeros(s_sir.size)
    reached = 0
    for panels in np.split(np.arange(pairs.size), passes):
        lo, hi = first[panels[0]], stop[panels[-1]]
        kernel = s_col / (s_col + u[lo:hi] ** alpha)
        kernel *= u_weights[lo:hi]
        intra += kernel[:, reached - lo:] @ serving_distance_pdf(u[reached:hi], 1.0)
        reached = hi
        rice = _rice_pdf(  # the (v, u) pairs of each v panel, u fastest
            np.concatenate([np.tile(u[first[p]:stop[p]], n_v) for p in panels]),
            np.concatenate([np.repeat(v_panels[p], stop[p] - first[p]) for p in panels]),
            1.0)
        start = 0
        for p in panels:
            end = start + pairs[p]
            phi[:, p * n_v:(p + 1) * n_v] = (kernel[:, first[p] - lo:stop[p] - lo]
                                             @ rice[start:end].reshape(n_v, -1).T)
            start = end

    q = max(1.0, 2.0 / (alpha - 2.0))
    t, t_weights = _gl_rule([0.5, 1.0], 2 * n_v)
    rest = 1.0 - t
    tail = scale * t**q / rest**q
    t_weights *= q * scale * t ** (q - 1.0) / rest ** (q + 1.0)
    window = np.stack([tail - _RICE_WINDOW, tail, tail + _RICE_WINDOW], axis=-1)
    tail_u, tail_rice = _gl_rule(window, 2 * n_u)
    tail_rice *= _rice_pdf(tail_u, tail[:, None], 1.0)
    for j, (us, density) in enumerate(zip(tail_u, tail_rice), start=v.size):
        phi[:, j] = (s_col / (s_col + us**alpha)) @ density

    weights = np.concatenate([v_weights * v, t_weights * tail])
    return -2.0 * math.pi * (-np.expm1(-mu * phi) @ weights), intra


def _radial_edges(alpha: float, theta: float) -> list:
    """Panel edges of the serving distance r, in units of sigma, on [0, 14].

    Panels break where r, and where the kernel knee theta**(1/alpha) * r,
    passes 1, 2 and 4; at large theta the coverage integrand lives on the
    second, much shorter scale. Breaks closer than a factor
    ``_BREAK_RATIO`` are one break, the larger, so no sliver panel gets a
    rule of its own.
    """
    breaks = [1.0, 2.0, 4.0]
    breaks += [b * theta ** (-1.0 / alpha) for b in breaks]
    edges = [_RAYLEIGH_CUTOFF]
    for b in sorted(breaks, reverse=True):
        if b * _BREAK_RATIO < edges[-1]:
            edges.append(b)
    return [0.0, *reversed(edges)]


def _radial_rule(alpha: float, theta: float, n: int):
    """Serving-distance nodes r and weights w(r) f_R(r) of n-point panels on
    :func:`_radial_edges`, without the nodes of weight below ``_WEIGHTLESS``."""
    r, w = _gl_rule(_radial_edges(alpha, theta), n)
    w *= serving_distance_pdf(r, 1.0)
    keep = w >= _WEIGHTLESS
    return r[keep], w[keep]


@lru_cache(maxsize=1024)
def _coverage_table(alpha: float, theta: float, mu: float, level: int) -> _RuleTable:
    """The table of rule ``_RULES[level]``, in units of sigma: it serves
    every sigma, lambda_p, power and bandwidth of its (alpha, theta, mu)."""
    n_r, n_v, n_u = _RULES[level]
    r, weights = _radial_rule(alpha, theta, n_r)
    s_sir = theta * r**alpha
    table = _RuleTable(weights, *_log_inter(s_sir, alpha, mu, n_v, n_u))
    for array in table:
        if not np.isfinite(array).all():
            raise NumericFailure(f"coverage table (alpha, theta, mu) = "
                                 f"{(alpha, theta, mu)} has non-finite entries")
        array.setflags(write=False)  # shared by every caller through the cache
    _TABLE_NODES.append(r.size)
    return table


def _clamped(value: float, what: str) -> float:
    """A computed probability, clamped into [0, 1] if it lies within 1e-9
    of it; further outside, NaN included, it raises
    :class:`~clustercache.errors.NumericFailure`."""
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise NumericFailure(f"{what} = {value!r} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _coverage(cfg: NetworkConfig, intensity: float, what: str) -> float:
    """Serving-distance average of L_inter * L_intra at ``intensity``."""
    key = (cfg.alpha, cfg.theta, cfg.access_p * cfg.n_bar)
    density = cfg.lambda_p * cfg.sigma**2
    high = _coverage_table(*key, 0).coverage(density, intensity)
    for level in range(1, len(_RULES)):
        low, high = high, _coverage_table(*key, level).coverage(density, intensity)
        tol = max(ATOL, RTOL * abs(high))
        if abs(high - low) <= tol:
            # The weights of a table can sum to just above 1.
            return _clamped(high, what)
    raise NumericFailure(
        f"quadrature for {what} did not converge: fixed-order rules "
        f"{_RULES[-1]} and {_RULES[-2]} give {high!r} and {low!r}, "
        f"difference {abs(high - low)!r} exceeds tolerance {tol!r}"
    )


# typed: r0_over_w1 = True must reach the real-number check, not the entry of 1.0.
@lru_cache(maxsize=512, typed=True)
def prob_rate_exceeds(cfg: NetworkConfig, r0_over_w1: float) -> float:
    """Probability that the D2D link rate exceeds the threshold R0.

    Under fixed-rate transmission the event reduces to an SIR outage
    check, so the result is the serving-distance average of the two
    interference transforms. Requires the ALOHA rate p*W1*log2(1+theta)
    to exceed R0; otherwise the probability is identically zero and an
    :class:`InfeasibleAccessProbability` is raised.
    """
    _check_rate_threshold(cfg, r0_over_w1)
    return _coverage(cfg, cfg.access_p * cfg.n_bar, "P(R1 > R0)")


# typed: k = True or 2.0 must reach the integer check, not the entry of 1 or 2.
@lru_cache(maxsize=512, typed=True)
def d2d_coverage_conditional(cfg: NetworkConfig, k: int) -> float:
    """D2D coverage probability conditioned on k devices in the cluster.

    The intra-cluster interferers are modelled as a Gaussian field of
    intensity p*k. With access probability zero no transmission occurs at
    all, and the interference-free value 1 is returned so sweeps stay
    total.
    """
    _check_count("k", k, 1)
    if cfg.access_p == 0.0:
        return 1.0
    return _coverage(cfg, cfg.access_p * k, f"D2D coverage | k={k}")


def bs_coverage(theta: float, alpha: float) -> float:
    """Coverage probability of the nearest-BS downlink under Rayleigh fading.

    Equal to 1 / 2F1(1, -d; 1-d; -theta) with d = 2/alpha; independent of
    the BS density and of all transmit powers (SIR metric). For alpha = 4
    this reduces to 1 / (1 + sqrt(theta) * arctan(sqrt(theta))).
    """
    _check_real("theta", theta)
    _check_real("alpha", alpha, 2.0)
    delta = 2.0 / alpha
    denom = _hyp2f1_bs(theta, delta)
    if not math.isfinite(denom) or denom < 1.0:
        raise NumericFailure(f"hypergeometric evaluation failed: 2F1 = {denom!r}")
    return 1.0 / denom


def d2d_coverage_single_link(cfg: NetworkConfig) -> float:
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
    # At a vanishing lambda_p the quotient rounds to just above 1.
    return _clamped(1.0 / (4.0 * cfg.sigma**2 * z), "single-link D2D coverage")


def average_rate(w: float, theta: float, coverage: float) -> float:
    """Average throughput W * log2(1 + theta) * P_c in bits/s."""
    _check_real("w", w, closed_low=True)
    _check_real("theta", theta)
    _check_real("coverage", coverage, 0.0, 1.0, True, True)
    return w * math.log2(1.0 + theta) * coverage


def optimal_access_probability(r0_over_w1: float, theta: float) -> float:
    """Smallest feasible ALOHA access probability for the rate threshold.

    The offloading problem fixes p just above R0 / (W1 log2(1+theta)),
    by the relative margin ``_ACCESS_MARGIN``, to stay strictly feasible.
    At R0/W1 = 0 every p > 0 is feasible and no smallest one exists.
    """
    _check_real("r0_over_w1", r0_over_w1)
    _check_real("theta", theta)
    bits_per_hz = math.log2(1.0 + theta)
    if not bits_per_hz > 0:  # theta = 1e-320 > 0 has log2(1 + theta) = 0
        raise ConfigError(f"log2(1 + theta) must be positive, got theta = {theta!r}")
    p_star = r0_over_w1 / bits_per_hz * (1.0 + _ACCESS_MARGIN)
    if p_star > 1.0:
        raise InfeasibleAccessProbability(
            f"required access probability {p_star:.6g} exceeds 1"
        )
    return p_star

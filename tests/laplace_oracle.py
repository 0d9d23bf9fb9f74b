"""Adaptive-quadrature oracle of the two interference Laplace transforms.

The package computes coverage from fixed-order Gauss-Legendre tables
(``clustercache.stochgeo``). This module evaluates the same transforms
with scipy's adaptive Gauss-Kronrod ``quad`` (absolute tolerance 1e-9,
relative 1e-7, a subdivision cap of roughly 1e6 evaluations per nested
integral) and ``scipy.special.i0e`` for the Rice density, sharing no
quadrature or Bessel code with the tables it checks. Non-convergence
raises :class:`~clustercache.errors.NumericFailure` with diagnostics.

Both transforms take the SIR argument s = theta * r**alpha of a serving
distance r; the transmit power cancels in an interference-limited
network.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e

from clustercache.errors import NumericFailure
from clustercache.stochgeo import serving_distance_pdf

ATOL = 1e-9
RTOL = 1e-7
# Subdivision cap: ~200 intervals x 21 Kronrod points x ~200 inner nodes
# keeps a nested integral under ~1e6 evaluations.
_QUAD_LIMIT = 200
# Rayleigh(sqrt(2)*sigma) mass beyond 14*sigma is ~5e-22.
_RAYLEIGH_CUTOFF = 14.0
# Rice(v, sigma) mass outside v +/- 12*sigma is below 1e-30.
_RICE_WINDOW = 12.0
_X, _W = np.polynomial.legendre.leggauss(96)


def checked_quad(fn, a, b, *, points=None, what: str) -> float:
    """``quad`` of ``fn`` on [a, b]; raises NumericFailure when its error
    estimate exceeds 50 times the requested tolerance."""
    res = quad(
        fn, a, b, epsabs=ATOL, epsrel=RTOL, limit=_QUAD_LIMIT, points=points,
        full_output=1,
    )
    val, err = res[0], res[1]
    tol = max(ATOL, RTOL * abs(val))
    if len(res) > 3 and err > 50 * tol:
        raise NumericFailure(
            f"quadrature for {what} did not converge: value={val!r}, "
            f"error estimate={err!r}, tolerance={tol!r}: {res[3]}"
        )
    return val


def _rice_kernel(s_sir: float, v: float, sigma: float, alpha: float) -> float:
    """E[s/(s + U**alpha)] for U ~ Rice(v, sigma).

    The Rice mass lies in v +/- 12 sigma; the kernel turns at
    u = s**(1/alpha), so the window is split there (at its midpoint when
    the knee lies outside) and each half gets a 96-point Gauss-Legendre
    rule.
    """
    lo = max(0.0, v - _RICE_WINDOW * sigma)
    hi = v + _RICE_WINDOW * sigma
    knee = s_sir ** (1.0 / alpha)
    split = knee if lo < knee < hi else 0.5 * (lo + hi)
    half = np.array([0.5 * (split - lo), 0.5 * (hi - split)])[:, None]
    u = np.array([0.5 * (lo + split), 0.5 * (split + hi)])[:, None] + half * _X
    s2 = sigma**2
    rice = (u / s2) * np.exp(-((u - v) ** 2) / (2.0 * s2)) * i0e(u * v / s2)
    return float(((s_sir / (s_sir + u**alpha) * rice) @ _W) @ half[:, 0])


def laplace_inter(s_sir: float, cfg) -> float:
    """Laplace transform of the inter-cluster interference.

    exp(-2 pi lambda_p Int_0^inf (1 - exp(-p nbar phi(s, v))) v dv) with
    phi the Rice-averaged fading kernel; the outer integral is mapped to
    (0, 1) through v = c*t/(1-t).
    """
    if s_sir == 0.0:
        return 1.0
    p_active = cfg.access_p * cfg.n_bar
    if p_active == 0.0 or cfg.lambda_p == 0.0:
        return 1.0
    sigma, alpha = cfg.sigma, cfg.alpha
    knee = s_sir ** (1.0 / alpha)
    scale = knee + 13.0 * sigma

    def integrand(t):
        v = scale * t / (1.0 - t)
        jac = scale / (1.0 - t) ** 2
        phi = _rice_kernel(s_sir, v, sigma, alpha)
        return -math.expm1(-p_active * phi) * v * jac

    breakpoints = sorted(
        {v / (scale + v) for v in (sigma, knee, knee + 13.0 * sigma) if v > 0}
    )
    exponent = checked_quad(
        integrand, 0.0, 1.0, points=breakpoints, what="inter-cluster Laplace transform"
    )
    return math.exp(-2.0 * math.pi * cfg.lambda_p * exponent)


def laplace_intra(s_sir: float, intensity: float, sigma: float, alpha: float) -> float:
    """Laplace transform of the intra-cluster interference.

    ``intensity`` is the expected number of simultaneously active
    intra-cluster interferers (p*nbar, or p*k conditioned on k devices).
    The interferer distance is Rayleigh(sqrt(2)*sigma).
    """
    if s_sir == 0.0 or intensity == 0.0:
        return 1.0
    hi = _RAYLEIGH_CUTOFF * sigma
    knee = min(s_sir ** (1.0 / alpha), hi)

    def integrand(h):
        return (s_sir / (s_sir + h**alpha)) * serving_distance_pdf(h, sigma)

    integral = checked_quad(
        integrand, 0.0, hi, points=[sigma, knee],
        what="intra-cluster Laplace transform",
    )
    return math.exp(-intensity * integral)

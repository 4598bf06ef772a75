"""Reference values computed apart from the rhiconst package.

Nothing here imports rhiconst.  The closed forms come straight from the
paper's formulas, the shape curve from the exact integrals of |x|**gamma,
the AffinePower means from a fixed Gauss-Legendre rule after the
substitution x = T*exp(-t), and the table means from exact integrals of a
power of a linear function on each segment.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


# ---------------------------------------------------------------------------
# Pure powers and class constants
# ---------------------------------------------------------------------------


def halfline_power(alpha: float, beta: float, gamma: float) -> float:
    """(gamma*alpha + 1)**(1/alpha) / (gamma*beta + 1)**(1/beta)."""
    return (gamma * alpha + 1.0) ** (1.0 / alpha) / (gamma * beta + 1.0) ** (1.0 / beta)


def shape_curve(alpha: float, beta: float, gamma: float, eps) -> np.ndarray:
    """Mean ratio of |x|**gamma over (-eps, 1), divided by the half-line constant.

    The mean of order r uses the exact integral
    (eps**(gamma*r + 1) + 1) / (gamma*r + 1) over an interval of length
    1 + eps; everything is combined in log space.
    """
    eps = np.asarray(eps, dtype=float)
    with np.errstate(divide="ignore"):
        log_eps = np.log(eps)

    def log_mean(r: float) -> np.ndarray:
        p = gamma * r + 1.0
        return (np.log1p(np.exp(p * log_eps)) - math.log(p) - np.log1p(eps)) / r

    log_h = math.log(gamma * alpha + 1.0) / alpha - math.log(gamma * beta + 1.0) / beta
    return np.exp(log_mean(beta) - log_mean(alpha) - log_h)


# Uniform points plus a log tail: maximizers move toward 0 as gamma nears
# the lower admissible endpoint.
CURVE_GRID = np.unique(np.concatenate((np.linspace(0.0, 1.0, 20001), np.logspace(-300.0, 0.0, 3001))))


def dense_curve_max(alpha: float, beta: float, gamma: float) -> float:
    return float(np.max(shape_curve(alpha, beta, gamma, CURVE_GRID)))


def general_bound(alpha: float, beta: float) -> float:
    """The paper's upper bound on the growth under even extension."""
    if alpha > 0.0:
        return 2.0 ** (1.0 / alpha)
    if beta < 0.0:
        return 2.0 ** (-1.0 / beta)
    return 2.0 ** (1.0 / beta - 1.0 / alpha)


def power_class_constant(alpha: float, beta: float) -> float:
    """The paper's exact supremum of the growth over pure powers."""
    if alpha > 0.0:
        return 2.0 ** (1.0 / alpha - 1.0 / beta) if alpha <= beta / 2.0 else 2.0 ** (1.0 / beta)
    if beta < 0.0:
        return 2.0 ** (1.0 / alpha - 1.0 / beta) if alpha <= 2.0 * beta else 2.0 ** (-1.0 / alpha)
    return 2.0 ** (1.0 / beta) if beta <= -alpha else 2.0 ** (-1.0 / alpha)


# ---------------------------------------------------------------------------
# AffinePower a*x**gamma + c
# ---------------------------------------------------------------------------


def affine_log_integral(scale: float, gamma: float, offset: float, order: float, upper: float) -> float:
    """log of the integral of (scale*x**gamma + offset)**order over (0, upper).

    With x = upper*exp(-t) the integrand is analytic in t.  Past the
    crossover, where the two terms of f are equal, it decays like
    exp(-kappa*t): kappa = 1 + gamma*order when the power term rules near
    the origin, 1 when the offset does.  The rule integrates to 50/kappa
    past the crossover, which leaves a tail below exp(-50).
    """
    kappa = 1.0 + gamma * order if (gamma < 0.0 or offset == 0.0) else 1.0
    if kappa <= 0.0:
        raise ValueError("f**order is not integrable at the origin")
    log_t0 = math.log(upper)
    crossover = 0.0
    if offset > 0.0 and gamma != 0.0:
        crossover = max(0.0, log_t0 - (math.log(offset) - math.log(scale)) / gamma)
    edges = np.linspace(0.0, crossover + 50.0 / kappa, int(4 * (crossover + 50.0 / kappa)) + 2)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    log_x = log_t0 - t
    log_f = math.log(scale) + gamma * log_x
    if offset > 0.0:
        log_f = np.logaddexp(log_f, math.log(offset))
    g = log_x + order * log_f
    peak = float(np.max(g))
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return peak + math.log(float(np.sum(w * np.exp(g - peak))))


def affine_mean_ratio(scale: float, gamma: float, offset: float, alpha: float, beta: float, lo: float, hi: float) -> float:
    """M_beta / M_alpha of the even extension of a*|x|**gamma + c over (lo, hi).

    Only intervals touching or straddling the origin (lo <= 0 < hi) are
    needed; a straddle integral is the sum of two origin-anchored ones.
    """
    if not lo <= 0.0 < hi:
        raise ValueError("interval must touch or straddle the origin")
    log_len = math.log(hi - lo)

    def log_mean(r: float) -> float:
        log_i = affine_log_integral(scale, gamma, offset, r, hi)
        if lo < 0.0:
            log_i = float(np.logaddexp(log_i, affine_log_integral(scale, gamma, offset, r, -lo)))
        return (log_i - log_len) / r

    return math.exp(log_mean(beta) - log_mean(alpha))


# ---------------------------------------------------------------------------
# Piecewise-linear tables
# ---------------------------------------------------------------------------


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z with its limit 1 at z = 0."""
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)


def table_integral(xs: np.ndarray, fs: np.ndarray, order: float, lo: float, hi: float) -> float:
    """Exact integral of f**order over (lo, hi) for the linear interpolant of (xs, fs).

    On a segment of length h from value u to value v the integral is
    h*(v**(r+1) - u**(r+1)) / ((r+1)*(v-u)), evaluated as
    h*u**r * phi((r+1)*L) / phi(L) with L = log(v/u) and
    phi(z) = expm1(z)/z, which stays exact as v -> u and at r = -1.
    Values must be positive.
    """
    if not xs[0] <= lo < hi <= xs[-1]:
        raise ValueError("interval leaves the table")
    inner = xs[(xs > lo) & (xs < hi)]
    knots = np.concatenate(([lo], inner, [hi]))
    vals = np.interp(knots, xs, fs)
    u, v = vals[:-1], vals[1:]
    log_ratio = np.log(v) - np.log(u)
    per_segment = np.diff(knots) * u**order * _expm1_ratio((order + 1.0) * log_ratio) / _expm1_ratio(log_ratio)
    return float(np.sum(per_segment))


def table_mean_ratio(xs: np.ndarray, fs: np.ndarray, alpha: float, beta: float, lo: float, hi: float) -> float:
    length = hi - lo

    def log_mean(r: float) -> float:
        return (math.log(table_integral(xs, fs, r, lo, hi)) - math.log(length)) / r

    return math.exp(log_mean(beta) - log_mean(alpha))

"""Reverse Holder constants of pure powers and their growth under reflection.

For f(x) = x**gamma the worst mean ratio over origin-anchored intervals has
the closed form

    H(alpha, beta, gamma) = (gamma*alpha + 1)**(1/alpha)
                          / (gamma*beta + 1)**(1/beta),

and scale invariance reduces the reflected problem to intervals (-eps, 1)
with eps in [0, 1].  The ratio there factors as H times the shape curve

    c(eps) = (eps**(gb+1) + 1)**(1/beta) * (1 + eps)**(1/alpha)
           / ((eps**(ga+1) + 1)**(1/alpha) * (1 + eps)**(1/beta)),

with ga = gamma*alpha and gb = gamma*beta.  c equals 1 at both endpoints,
exceeds 1 strictly inside (0, 1) whenever gamma != 0, and its interior
critical points are the roots of a three-term residual polynomial in
fractional powers of eps (stationarity_residual below).  The supremum over
all real intervals is therefore max(c) * H.

The maximizer is found by a dense grid scan, golden-section refinement and
a guarded Newton polish on the residual.  No unimodality result is known
for the curve, hence the global scan before any local step; the grid is
augmented with logarithmically spaced points near 0 because the maximizer
collapses toward 0 as gamma approaches the lower admissible endpoint.
All curve evaluations run in log space, so exponents close to the
admissible boundary stay finite and the endpoint values are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ExponentPair, NumericError, SearchConfig

__all__ = [
    "PowerRhiReport",
    "curve_values",
    "extension_curve",
    "halfline_constant",
    "maximize_curve",
    "power_report",
    "stationarity_residual",
    "stationarity_terms",
]

# A curve maximum this close to 1 is treated as the flat case: the grid
# maximum is reported at the left endpoint and no stationarity root applies.
_FLAT_TOL = 1e-13


def halfline_constant(pair: ExponentPair, gamma: float) -> float:
    """Worst mean ratio of x**gamma over the positive half-line.

    Evaluated as exp(log1p(gamma*alpha)/alpha - log1p(gamma*beta)/beta),
    which keeps full precision when gamma sits near the admissible
    boundary and returns exactly 1.0 at gamma = 0.
    """
    gamma = pair.require_gamma(gamma)
    log_h = (
        math.log1p(gamma * pair.alpha) / pair.alpha
        - math.log1p(gamma * pair.beta) / pair.beta
    )
    try:
        return math.exp(log_h)
    except OverflowError as exc:
        raise NumericError(
            f"half-line constant exp({log_h:.9g}) overflows a double"
        ) from exc


def curve_values(pair: ExponentPair, gamma: float, eps) -> np.ndarray:
    """Shape curve on an array of eps values in [0, 1].

    Endpoint entries come out exactly 1.0; interior entries are computed in
    log space.  Out-of-range entries raise DomainError.
    """
    gamma = pair.require_gamma(gamma)
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if eps.size == 0:
        raise DomainError("need at least one eps value")
    if not np.all(np.isfinite(eps)) or np.any(eps < 0.0) or np.any(eps > 1.0):
        raise DomainError("eps values must lie in [0, 1]")
    return _curve_array(pair, gamma, eps)


def extension_curve(pair: ExponentPair, gamma: float, eps: float) -> float:
    """Scalar shape curve value at one eps in [0, 1]."""
    return float(curve_values(pair, gamma, eps)[0])


def _curve_array(pair: ExponentPair, gamma: float, eps: np.ndarray) -> np.ndarray:
    a, b = pair.alpha, pair.beta
    out = np.ones_like(eps)
    mask = (eps > 0.0) & (eps < 1.0)
    if not np.any(mask):
        return out
    e = eps[mask]
    ln = np.log(e)
    # Both exponents are positive on the admissible range, so these powers
    # live in (0, 1) and never overflow.
    pa = np.exp((gamma * a + 1.0) * ln)
    pb = np.exp((gamma * b + 1.0) * ln)
    lne1 = np.log1p(e)
    lnc = (np.log1p(pb) - lne1) / b - (np.log1p(pa) - lne1) / a
    out[mask] = np.exp(lnc)
    return out


def _curve_scalar(pair: ExponentPair, gamma: float, eps: float) -> float:
    return float(_curve_array(pair, gamma, np.array([eps]))[0])


# ---------------------------------------------------------------------------
# Stationarity residual
# ---------------------------------------------------------------------------


def stationarity_terms(pair: ExponentPair, gamma: float, eps: float) -> tuple[float, float, float]:
    """The three summands whose total vanishes at critical points.

    Multiplying the derivative of log c by the (positive) product of the
    denominators clears it to

        (alpha - beta) * (eps**(ga+gb+1) - 1)
      + beta * (ga+1) * (eps**(gb+1) - eps**ga)
      + alpha * (gb+1) * (eps**gb - eps**(ga+1))

    with ga = gamma*alpha, gb = gamma*beta.  Each term vanishes at eps = 1
    identically, so that endpoint is always a root.  The max of the three
    magnitudes is the natural scale for judging a residual.
    """
    if not (0.0 < eps <= 1.0):
        raise DomainError("stationarity residual is defined for eps in (0, 1]")
    gamma = pair.require_gamma(gamma)
    a, b = pair.alpha, pair.beta
    ga, gb = gamma * a, gamma * b
    t1 = (a - b) * (math.pow(eps, ga + gb + 1.0) - 1.0)
    t2 = b * (ga + 1.0) * (math.pow(eps, gb + 1.0) - math.pow(eps, ga))
    t3 = a * (gb + 1.0) * (math.pow(eps, gb) - math.pow(eps, ga + 1.0))
    return (t1, t2, t3)


def stationarity_residual(pair: ExponentPair, gamma: float, eps: float) -> float:
    t1, t2, t3 = stationarity_terms(pair, gamma, eps)
    return t1 + t2 + t3


def _residual_derivative(pair: ExponentPair, gamma: float, eps: float) -> float:
    a, b = pair.alpha, pair.beta
    ga, gb = gamma * a, gamma * b
    d = (a - b) * (ga + gb + 1.0) * math.pow(eps, ga + gb)
    d += b * (ga + 1.0) * (
        (gb + 1.0) * math.pow(eps, gb) - ga * math.pow(eps, ga - 1.0)
    )
    d += a * (gb + 1.0) * (
        gb * math.pow(eps, gb - 1.0) - (ga + 1.0) * math.pow(eps, ga)
    )
    return d


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _newton_polish(pair: ExponentPair, gamma: float, x0: float, lo: float, hi: float) -> float:
    """Drive the stationarity residual to machine level near x0.

    Steps leaving (lo, hi) or failing to stay finite abandon the polish and
    the caller keeps the golden-section result, so this can only improve
    the maximizer.  A derivative that overflows means x is below about
    1e-154, where neither the grid nor the polish resolves the maximizer;
    that raises NumericError.
    """
    x = x0
    for _ in range(60):
        t1, t2, t3 = stationarity_terms(pair, gamma, x)
        r = t1 + t2 + t3
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        if abs(r) <= 1e-14 * scale:
            return x
        try:
            rp = _residual_derivative(pair, gamma, x)
        except OverflowError as exc:
            raise NumericError(
                f"shape-curve maximizer near eps={x:.3g} is too close to 0 to resolve"
            ) from exc
        if rp == 0.0 or not math.isfinite(rp):
            return x
        xn = x - r / rp
        if not (lo < xn < hi) or not math.isfinite(xn):
            return x
        if abs(xn - x) <= 1e-17 * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def _seed_grid(n: int) -> np.ndarray:
    # Uniform coverage plus a log tail: maximizers shrink like a power of
    # the distance to the admissible boundary and can fall far below the
    # first uniform point.
    tail = np.concatenate(
        (np.logspace(-300.0, -16.0, 40), np.logspace(-16.0, -1.0, 46))
    )
    # Sorted and deduplicated by hand: np.unique imports numpy.ma.
    grid = np.sort(np.concatenate((np.linspace(0.0, 1.0, n), tail)))
    return grid[np.append(True, grid[1:] != grid[:-1])]


def maximize_curve(
    pair: ExponentPair, gamma: float, cfg: SearchConfig | None = None
) -> tuple[float, float]:
    """Maximize the shape curve over [0, 1].

    Returns (eps_star, curve_max).  A flat curve (gamma = 0, or so close
    that the maximum is within 1e-13 of 1) reports eps_star = 0 and
    curve_max = 1, in which case no stationarity root is associated with
    the result.
    """
    cfg = cfg or SearchConfig()
    gamma = pair.require_gamma(gamma)
    grid = _seed_grid(cfg.eps_grid)
    vals = _curve_array(pair, gamma, grid)
    i = int(np.argmax(vals))
    if vals[i] <= 1.0 + _FLAT_TOL:
        return 0.0, 1.0
    # The endpoints evaluate to exactly 1, strictly below the maximum, so
    # the argmax always has two neighbors.
    lo, hi = float(grid[i - 1]), float(grid[i + 1])

    def fn(x: float) -> float:
        return _curve_scalar(pair, gamma, x)

    x_gold, v_gold = _golden_max(fn, lo, hi, max(1e-15, (hi - lo) * 1e-11))
    eps_star, curve_max = float(grid[i]), float(vals[i])
    if v_gold > curve_max:
        eps_star, curve_max = x_gold, v_gold
    # Value comparisons at the flat top resolve the maximizer only to about
    # sqrt(ulp); the stationarity root is sharper, so it wins whenever its
    # value matches the incumbent up to rounding.
    x_newt = _newton_polish(pair, gamma, eps_star, lo, hi)
    if x_newt != eps_star:
        v_newt = fn(x_newt)
        if v_newt >= curve_max * (1.0 - 1e-12):
            eps_star, curve_max = x_newt, max(v_newt, curve_max)
    if curve_max <= 1.0 + _FLAT_TOL:
        return 0.0, 1.0
    return eps_star, curve_max


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerRhiReport:
    """Everything the reflected problem yields for one (pair, gamma).

    extension_constant is curve_max * halfline_constant by construction;
    residual is the stationarity residual at eps_star when the maximizer is
    interior (residual_applicable True) and 0.0 otherwise.
    """

    pair: ExponentPair
    gamma: float
    halfline_constant: float
    eps_star: float
    curve_max: float
    extension_constant: float
    residual: float
    residual_applicable: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_star <= 1.0:
            raise NumericError(f"eps_star outside [0, 1]: {self.eps_star!r}")
        if not (math.isfinite(self.curve_max) and self.curve_max >= 1.0):
            raise NumericError(f"curve_max must be >= 1, got {self.curve_max!r}")
        if not (math.isfinite(self.halfline_constant) and self.halfline_constant >= 1.0 - 1e-12):
            raise NumericError(
                f"half-line constant must be >= 1, got {self.halfline_constant!r}"
            )
        expected = self.curve_max * self.halfline_constant
        if not math.isclose(self.extension_constant, expected, rel_tol=1e-12):
            raise NumericError("extension constant inconsistent with its factors")
        if not self.residual_applicable and self.residual != 0.0:
            raise NumericError("flat maximizer must carry a zero residual")
        if not math.isfinite(self.residual):
            raise NumericError("residual must be finite")


def power_report(
    pair: ExponentPair, gamma: float, cfg: SearchConfig | None = None
) -> PowerRhiReport:
    """Assemble constants, maximizer and residual for one pure power."""
    h = halfline_constant(pair, gamma)
    eps_star, curve_max = maximize_curve(pair, gamma, cfg)
    applicable = 0.0 < eps_star < 1.0
    residual = stationarity_residual(pair, gamma, eps_star) if applicable else 0.0
    return PowerRhiReport(
        pair=pair,
        gamma=gamma,
        halfline_constant=h,
        eps_star=eps_star,
        curve_max=curve_max,
        extension_constant=curve_max * h,
        residual=residual,
        residual_applicable=applicable,
    )

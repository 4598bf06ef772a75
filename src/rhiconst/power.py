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

The maximizer is found by a dense grid scan and a safeguarded Newton
iteration on the residual, bracketed by the grid points next to the grid
maximum.  No unimodality result is known for the curve, hence the global
scan before any local step; the grid is augmented with logarithmically
spaced points near 0 because the maximizer collapses toward 0 as gamma
approaches the lower admissible endpoint.  All curve evaluations run in
log space, so exponents close to the admissible boundary stay finite and
the endpoint values are exact.

Maximization is batched over exponents.  A gamma sweep scans the seed grid
once per exponent, then runs the Newton iterations of all its exponents
in lockstep, a few elementwise array calls per step.  maximize_curve and
power_report are batches of one, with the same bits as any row of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ExponentPair, NumericError

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

# Uniform seed points of the shape-curve scan: the default and the most
# accepted (the scan holds about a dozen float arrays of this length).
EPS_GRID = 4096
_EPS_GRID_MAX = 1 << 20


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
    out = np.ones_like(eps)
    mask = (eps > 0.0) & (eps < 1.0)
    if np.any(mask):
        e = eps[mask]
        orders = _orders(pair)
        out[mask] = _interior_curve(orders, gamma * orders + 1.0, np.log(e), np.log1p(e))
    return out


def extension_curve(pair: ExponentPair, gamma: float, eps: float) -> float:
    """Scalar shape curve value at one eps in [0, 1]."""
    return float(curve_values(pair, gamma, eps)[0])


def _orders(pair: ExponentPair) -> np.ndarray:
    return np.array([[pair.alpha], [pair.beta]])


def _interior_curve(orders: np.ndarray, k: np.ndarray, ln, lne1) -> np.ndarray:
    """Shape curve at interior eps, given log(eps) and log1p(eps).

    orders is _orders(pair) and k is gamma*orders + 1, of shape (2, 1) or,
    with one gamma per eps, (2, len(ln)); row 0 belongs to alpha, row 1 to
    beta.  Both rows of k are positive on the admissible range, so the
    powers eps**k live in (0, 1) and never overflow.
    """
    logs = (np.log1p(np.exp(k * ln)) - lne1) / orders
    return np.exp(logs[1] - logs[0])


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


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------


# Outcomes of a row's root search (_stationary_points).
_ROOT, _AT_ONE, _BELOW_GRID = 0, 1, 2
# A cap the iteration does not reach: bisection alone closes a bracket of
# the seed grid in at most about 60 steps, 5 geometric ones from the log
# tail's factor of 10**7 and then one per bit.
_NEWTON_STEPS = 100


def _stationary_points(
    pair: ExponentPair, gammas: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the stationarity residual R on the brackets (lo, hi), in lockstep.

    A safeguarded Newton iteration (Numerical Recipes' rtsafe) runs
    elementwise over the rows.  Row j starts at x[j] and after each residual
    keeps the half of its bracket that holds the root: left of the root R
    has the sign of alpha*beta, which is read off the pair because R(1) = 0
    for every input.  The Newton step is taken when it lands strictly inside
    the bracket; otherwise the row bisects, geometrically while the bracket
    spans more than a factor of 2 (the seed grid's log tail jumps by 10**7
    per point).  A row stops once |R| <= 1e-14 * max|terms|, after the
    Newton step computed there if that lands inside; once a Newton step
    moves it by at most 1e-16 * x; or once no double lies strictly inside
    its bracket.  Then it freezes, so it keeps the bits of a batch of one.
    Iterates stay strictly inside the bracket, never on 0 or 1.

    Returns the last point of every row and its outcome: _ROOT; _AT_ONE
    when the bracket closed on 1 without R changing sign, so the maximizer
    lies closer to 1 than doubles resolve; or _BELOW_GRID when the root lies
    below the first seed point, 1e-300.
    """
    a, b = pair.alpha, pair.beta
    ga, gb = gammas * a, gammas * b
    # The terms of stationarity_terms are coef * (x**expo[:3] - x**expo[3:]),
    # and x * dR/dx is the sum of slope * x**expo.
    expo = np.stack((ga + gb + 1.0, gb + 1.0, gb, np.zeros_like(ga), ga, ga + 1.0))
    coef = np.stack((np.full_like(ga, a - b), b * (ga + 1.0), a * (gb + 1.0)))
    slope = np.concatenate((coef, -coef)) * expo
    rising = math.copysign(1.0, a * b)
    done = np.zeros(x.size, dtype=bool)
    resolved = np.zeros(x.size, dtype=bool)
    # A Newton step that is not finite (a zero derivative, or an infinite
    # slope times a power that underflows) fails the bracket test, and the
    # row bisects instead.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            p = np.power(x, expo)
            t = coef * (p[:3] - p[3:])
            r = t.sum(axis=0)
            right = rising * r > 0.0
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            newton = x - x * (r / (slope * p).sum(axis=0))
            take = (lo < newton) & (newton < hi)
            mid = np.where(hi > 2.0 * lo, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
            step = np.where(take, newton, mid)
            converged = np.abs(r) <= 1e-14 * np.abs(t).max(axis=0)
            small = take & (np.abs(newton - x) <= 1e-16 * x)
            # lo is 0 only when the first residual puts the root below x.
            stuck = (lo == 0.0) | ~((lo < step) & (step < hi))
            # A converged row still takes the Newton step it has computed.
            x = np.where(done | stuck | (converged & ~take), x, step)
            resolved |= ~done & (converged | small)
            done |= converged | small | stuck
            if done.all():
                break
    # A frozen row keeps its x, so its bracket stays as it stopped.
    outcome = np.select((resolved, lo == 0.0, hi == 1.0), (_ROOT, _BELOW_GRID, _AT_ONE), _ROOT)
    return x, outcome


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


def _maximize_curves(pair: ExponentPair, gammas: list[float], eps_grid: int = EPS_GRID):
    """Yield (eps_star, curve_max, residual_applicable) per admissible gamma, in order.

    The seed grid, eps_grid uniform points plus a log tail, is built once
    per batch and scanned one gamma at a time, keeping only the argmax, so
    memory grows with the grid plus the batch and never with their
    product.  The stationarity roots of all non-flat rows are then found in
    lockstep (_stationary_points), each on the grid points next to its
    argmax.  numpy gives an element the same bits whatever the array
    length, so each row equals a batch of one.  The acceptance test runs
    per row as the row is yielded, so an error surfaces at its own row.
    """
    if not gammas:
        return
    grid = _seed_grid(eps_grid)
    # The grid runs from exactly 0 to exactly 1, where the curve is 1, so
    # only its interior is scanned; an interior argmax above 1 is the
    # argmax of the whole grid.
    inner = grid[1:-1]
    ln, lne1 = np.log(inner), np.log1p(inner)
    orders = _orders(pair)
    at = np.empty(len(gammas), dtype=np.intp)
    peak = np.empty(len(gammas))
    # Quiet overflow: k * log(eps) reaches -inf only where eps**k is 0 in
    # double, and an infinite k fails its report's half-line check.
    with np.errstate(over="ignore"):
        k = np.asarray(gammas) * orders + 1.0
        for j in range(len(gammas)):
            vals = _interior_curve(orders, k[:, j : j + 1], ln, lne1)
            i = int(vals.argmax())
            at[j], peak[j] = i + 1, vals[i]
        live = np.flatnonzero(peak > 1.0 + _FLAT_TOL)
        x, value = grid[at], peak.copy()
        outcome = np.full(len(gammas), _ROOT)
        if live.size:
            x[live], outcome[live] = _stationary_points(
                pair, np.asarray(gammas)[live], x[live], grid[at[live] - 1], grid[at[live] + 1]
            )
            # Every root lies strictly inside (0, 1).
            value[live] = _interior_curve(orders, k[:, live], np.log(x[live]), np.log1p(x[live]))
    rows = zip(grid[at].tolist(), peak.tolist(), x.tolist(), value.tolist(), outcome.tolist())
    for eps_star, curve_max, x_j, v_j, outcome_j in rows:
        if curve_max <= 1.0 + _FLAT_TOL:
            yield 0.0, 1.0, False
        elif outcome_j == _BELOW_GRID:
            raise NumericError(
                f"shape-curve maximizer lies below eps={grid[1]:.3g}, too close to 0 to resolve"
            )
        # Curve values resolve the flat top only to about sqrt(ulp); the
        # stationarity root is sharper, so it wins whenever its value
        # matches the grid peak up to rounding.
        elif v_j >= curve_max * (1.0 - 1e-12):
            yield x_j, max(v_j, curve_max), outcome_j == _ROOT
        else:
            yield eps_star, curve_max, True


def maximize_curve(pair: ExponentPair, gamma: float) -> tuple[float, float]:
    """Maximize the shape curve over [0, 1] on the default grid, as a batch of one.

    Returns (eps_star, curve_max).  A flat curve (gamma = 0, or so close
    that the maximum is within 1e-13 of 1) reports eps_star = 0 and
    curve_max = 1, in which case no stationarity root is associated with
    the result.
    """
    gamma = pair.require_gamma(gamma)
    ((eps_star, curve_max, _),) = _maximize_curves(pair, [gamma])
    return eps_star, curve_max


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerRhiReport:
    """Everything the reflected problem yields for one (pair, gamma).

    extension_constant is curve_max * halfline_constant by construction;
    residual is the stationarity residual at eps_star when eps_star is an
    interior critical point (residual_applicable True) and 0.0 otherwise:
    for a flat curve, and for a maximizer closer to 1 than doubles resolve,
    where eps_star is the largest double the search reached below it.
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


def power_report(pair: ExponentPair, gamma: float, eps_grid: int = EPS_GRID) -> PowerRhiReport:
    """Assemble constants, maximizer and residual for one pure power.

    eps_grid, from 64 to 2**20 and checked before gamma, sizes the uniform
    seed grid of the shape-curve scan.
    """
    if not 64 <= eps_grid <= _EPS_GRID_MAX:
        raise DomainError(f"eps_grid must lie between 64 and {_EPS_GRID_MAX}")
    return _power_reports(pair, [gamma], eps_grid)[0]


def _power_reports(
    pair: ExponentPair, gammas: list[float], eps_grid: int = EPS_GRID
) -> list[PowerRhiReport]:
    """Power reports for a batch of exponents, maximized in one lockstep batch.

    Equal to [power_report(pair, g, eps_grid) for g in gammas], errors included:
    the half-line constants are taken in order up to the first exponent
    that raises, the rows before it are reported (any of them may raise
    first), and only then is that exponent's error raised.
    """
    hs, failure = [], None
    for g in gammas:
        try:
            hs.append(halfline_constant(pair, g))
        except Exception as exc:
            failure = exc
            break
    valid = gammas[: len(hs)]
    curves = _maximize_curves(pair, [float(g) for g in valid], eps_grid)
    reports = []
    for gamma, h, (eps_star, curve_max, applicable) in zip(valid, hs, curves):
        residual = stationarity_residual(pair, gamma, eps_star) if applicable else 0.0
        reports.append(
            PowerRhiReport(
                pair=pair,
                gamma=gamma,
                halfline_constant=h,
                eps_star=eps_star,
                curve_max=curve_max,
                extension_constant=curve_max * h,
                residual=residual,
                residual_applicable=applicable,
            )
        )
    if failure is not None:
        raise failure
    return reports

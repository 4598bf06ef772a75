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

Maximization is batched over exponents.  A gamma sweep scans the seed grid
once per exponent, then runs the golden sections of all its exponents in
lockstep, one elementwise curve call per step over the rows still
refining; the polish stays per row.  maximize_curve and power_report are
batches of one, with the same bits as any row of a sweep.
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


def _golden_sections(
    orders: np.ndarray, k: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maxima of the curve on the brackets (a, b), in lockstep.

    Row j uses the column k[:, j] (see _interior_curve), stops once its
    bracket is no wider than max(1e-15, (b - a)*1e-11) or after 200 steps,
    and then freezes.  Each step is one elementwise curve call over the
    rows still refining.  Returns the better end point of every final
    bracket and its curve value.
    """

    def curve(x: np.ndarray) -> np.ndarray:
        return _interior_curve(orders, k, np.log(x), np.log1p(x))

    width = b - a
    tol = np.maximum(1e-15, width * 1e-11)
    c = b - _INVPHI * width
    d = a + _INVPHI * width
    fc, fd = curve(c), curve(d)
    x_best, v_best = np.empty_like(a), np.empty_like(a)
    rows = np.arange(a.size)
    for steps in range(201):
        done = width <= tol if steps < 200 else np.full(rows.size, True)
        if done.any():
            upper = fc >= fd
            x_best[rows[done]] = np.where(upper, c, d)[done]
            v_best[rows[done]] = np.where(upper, fc, fd)[done]
            keep = ~done
            a, b, c, d, fc, fd, width, tol, rows = (
                v[keep] for v in (a, b, c, d, fc, fd, width, tol, rows)
            )
            k = k[:, keep]
            if not rows.size:
                break
        # Rows with fc >= fd keep (a, d) and probe below their old c;
        # the others keep (c, b) and probe above their old d.
        upper = fc >= fd
        a = np.where(upper, a, c)
        b = np.where(upper, d, b)
        width = b - a
        step = _INVPHI * width
        x = np.where(upper, b - step, a + step)
        fx = curve(x)
        c, d = np.where(upper, x, d), np.where(upper, c, x)
        fc, fd = np.where(upper, fx, fd), np.where(upper, fc, fx)
    return x_best, v_best


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


def _maximize_curves(pair: ExponentPair, gammas: list[float], eps_grid: int = EPS_GRID):
    """Yield (eps_star, curve_max) for each admissible gamma, in order.

    The seed grid, eps_grid uniform points plus a log tail, is built once
    per batch and scanned one gamma at a time, keeping only the argmax, so
    memory grows with the grid plus the batch and never with their
    product.  The golden sections of all non-flat rows then run in
    lockstep (_golden_sections).  numpy gives an element the same bits
    whatever the array length, so each row equals a batch of one.  The
    Newton polish and its acceptance test run per row as the row is
    yielded, so an error surfaces at its own row.
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
        lo, hi = grid[at - 1], grid[at + 1]
        x_gold, v_gold = np.zeros_like(peak), np.zeros_like(peak)
        if live.size:
            x_gold[live], v_gold[live] = _golden_sections(
                orders, k[:, live], lo[live], hi[live]
            )
    rows = zip(
        gammas, grid[at].tolist(), peak.tolist(), lo.tolist(), hi.tolist(),
        x_gold.tolist(), v_gold.tolist(),
    )
    for j, (gamma, eps_star, curve_max, lo_j, hi_j, x_j, v_j) in enumerate(rows):
        if curve_max <= 1.0 + _FLAT_TOL:
            yield 0.0, 1.0
            continue
        if v_j > curve_max:
            eps_star, curve_max = x_j, v_j
        # Value comparisons at the flat top resolve the maximizer only to
        # about sqrt(ulp); the stationarity root is sharper, so it wins
        # whenever its value matches the incumbent up to rounding.
        x_newt = _newton_polish(pair, gamma, eps_star, lo_j, hi_j)
        if x_newt != eps_star:
            # x_newt lies strictly inside (lo_j, hi_j), within [0, 1].
            x = np.array([x_newt])
            with np.errstate(over="ignore"):
                v_newt = float(_interior_curve(orders, k[:, j : j + 1], np.log(x), np.log1p(x))[0])
            if v_newt >= curve_max * (1.0 - 1e-12):
                eps_star, curve_max = x_newt, max(v_newt, curve_max)
        yield (0.0, 1.0) if curve_max <= 1.0 + _FLAT_TOL else (eps_star, curve_max)


def maximize_curve(pair: ExponentPair, gamma: float) -> tuple[float, float]:
    """Maximize the shape curve over [0, 1] on the default grid, as a batch of one.

    Returns (eps_star, curve_max).  A flat curve (gamma = 0, or so close
    that the maximum is within 1e-13 of 1) reports eps_star = 0 and
    curve_max = 1, in which case no stationarity root is associated with
    the result.
    """
    gamma = pair.require_gamma(gamma)
    (result,) = _maximize_curves(pair, [gamma])
    return result


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
    for gamma, h, (eps_star, curve_max) in zip(valid, hs, curves):
        applicable = 0.0 < eps_star < 1.0
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

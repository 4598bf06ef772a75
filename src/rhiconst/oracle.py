"""Brute-force references: exhaustive interval grids and fine curve grids.

Everything here recomputes from first principles on deliberately dumb,
fixed-resolution meshes so it can serve as an independent check on the
adaptive machinery elsewhere.  No code is shared with the quadrature in
means or the maximizer in power; the only common surface is function
evaluation itself.

Integrals use composite 10-point Gauss-Legendre panels.  Intervals that
touch the origin get a ratio-1/2 geometric mesh whose unreachable sliver
is extrapolated from the decay ratio of the two innermost octaves; for a
pure power that ratio is exactly 2**-(s+1) per octave, making the tail
sum exact.  Interior intervals get fixed panel counts, knot-aligned for
sampled tables.

The resolution is fixed: _INTERVAL_GRID endpoints per axis and
_QUAD_PANELS panels per integral, the oracle's own constants, set by no
caller.  Grids nest under doubling: endpoint grids are
lo*(hi/lo)**(k/n) for k = 0..n, so the n-point grid is a subset of the
2n-point grid and a finer brute-force run can only see more intervals.
The width axis carries 13n/8 points; the incommensurate count keeps
endpoint ratios a/b from collapsing onto a coarse common lattice while
still nesting when n doubles.

Cells whose integrals leave double range (overflow or total underflow)
are dropped from the maximum rather than patched; the reference suites
keep their suprema well inside range.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BOUNDARY_MARGIN,
    DataError,
    DomainError,
    ExponentPair,
    NumericError,
)
from .means import FunctionSpec, SampledTable

__all__ = [
    "brute_extension",
    "brute_halfline",
    "brute_max_curve",
    "window_ratio",
]

# The 10-point Gauss-Legendre rule on [-1, 1], with the bits of
# numpy.polynomial.legendre.leggauss(10), positive half listed: the
# oracle keeps its own rule rather than importing that of means.py.
_GL10_NODES = np.array((
    0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
))
_GL10_NODES = np.concatenate((-_GL10_NODES[::-1], _GL10_NODES))
_GL10_WEIGHTS = np.array((
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
))
_GL10_WEIGHTS = np.concatenate((_GL10_WEIGHTS[::-1], _GL10_WEIGHTS))

# Own copy of generic's fixed scale window (_SCALE_MIN, _SCALE_MAX): the
# oracle stays independent but takes suprema over the same endpoints.
_SCALE_LO = 1e-3
_SCALE_HI = 1e3

# Endpoints per axis and Gauss-Legendre panels per integral.  The
# endpoint count stays a multiple of _WIDTH_DEN, so the 13n/8 width count
# is integral and doubled grids nest.
_INTERVAL_GRID = 64
_QUAD_PANELS = 64
_WIDTH_NUM = 13
_WIDTH_DEN = 8

# Octave decay ratios this close to 1 mean the near-origin mass decays
# too slowly for the geometric tail sum to be trusted.
_TAIL_RHO_LIMIT = 0.999


# ---------------------------------------------------------------------------
# Fixed-panel quadrature
# ---------------------------------------------------------------------------


def _panel_sums(fn, edges: np.ndarray) -> np.ndarray:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = mid[:, None] + half[:, None] * _GL10_NODES[None, :]
    # Overflowing panels surface as inf sums and are rejected or masked by
    # the callers; the warning itself carries no information.
    with np.errstate(over="ignore"):
        vals = fn(x.ravel()).reshape(x.shape)
        return half * (vals @ _GL10_WEIGHTS)


def _origin_integral(fn, hi: float, panels: int) -> float:
    """Integral of fn over (0, hi] with geometric octaves and a tail sum."""
    octave_edges = hi * 2.0 ** -np.arange(panels, -1, -1.0)
    edges = np.empty(2 * panels + 1)
    edges[0::2] = octave_edges
    edges[1::2] = 0.5 * (octave_edges[:-1] + octave_edges[1:])
    per_panel = _panel_sums(fn, edges)
    octaves = per_panel[0::2] + per_panel[1::2]  # innermost first
    inner, outer = octaves[0], octaves[1]
    if inner == 0.0:
        tail = 0.0
    else:
        if not (math.isfinite(inner) and math.isfinite(outer)) or outer <= 0.0:
            raise NumericError("origin octaves are not usable for extrapolation")
        rho = inner / outer
        if rho >= _TAIL_RHO_LIMIT:
            raise NumericError("near-origin mass decays too slowly to extrapolate")
        tail = inner * rho / (1.0 - rho)
    return float(np.sum(octaves) + tail)


def _interior_integral(fn, lo: float, hi: float, panels: int, knots) -> float:
    if knots is not None:
        inner = knots[(knots > lo) & (knots < hi)]
        base = np.concatenate(([lo], inner, [hi]))
        splits = -(-panels // (base.size - 1))
        t = np.linspace(0.0, 1.0, splits + 1)[1:]
        steps = base[:-1, None] + np.diff(base)[:, None] * t[None, :]
        edges = np.concatenate(([lo], steps.ravel()))
    elif hi / lo > 8.0:
        edges = lo * (hi / lo) ** (np.arange(panels + 1) / panels)
    else:
        edges = np.linspace(lo, hi, panels + 1)
    return float(np.sum(_panel_sums(fn, edges)))


def _power_integrand(f: FunctionSpec, order: float):
    # divide: f underflows to exactly 0 (deep exp tails) under a negative
    # order, giving inf values that the mean masking drops later.
    def g(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return np.power(f.evaluate(x), order)

    return g


def _quad_integral(
    f: FunctionSpec, lo: float, hi: float, order: float, panels: int
) -> float:
    g = _power_integrand(f, order)
    if lo == 0.0:
        return _origin_integral(g, hi, panels)
    knots = f.xs if isinstance(f, SampledTable) else None
    return _interior_integral(g, lo, hi, panels, knots)


# Below this an integral has drifted toward the subnormal range and its
# mantissa is mostly rounding noise; such cells are dropped, not trusted.
_MIN_TRUSTED_INTEGRAL = 1e-300


def _log_mean(integral: float, length: float, order: float) -> float:
    """log of the power mean, nan when the integral left double range."""
    if not (math.isfinite(integral) and integral >= _MIN_TRUSTED_INTEGRAL):
        return math.nan
    return (math.log(integral) - math.log(length)) / order


def _log_ratio(f, pair, lo: float, hi: float, length: float, panels: int) -> float:
    """log(M_beta / M_alpha) over (lo, hi), nan when a mean is out of range."""
    la = _log_mean(_quad_integral(f, lo, hi, pair.alpha, panels), length, pair.alpha)
    lb = _log_mean(_quad_integral(f, lo, hi, pair.beta, panels), length, pair.beta)
    return lb - la


def _ratio(logr: float) -> float:
    """exp(logr), a NumericError when the ratio leaves double range."""
    try:
        return math.exp(logr)
    except OverflowError:
        raise NumericError("the mean ratio overflows double range") from None


# ---------------------------------------------------------------------------
# Grids and validation
# ---------------------------------------------------------------------------


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma into every verify run.
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def _endpoint_grid(n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    return _SCALE_LO * (_SCALE_HI / _SCALE_LO) ** (k / n)


def _validate(f: FunctionSpec, pair: ExponentPair) -> None:
    if not isinstance(pair, ExponentPair):
        raise DomainError("expected an ExponentPair")
    lo, _ = f.domain
    if lo < 0.0:
        raise DomainError("brute-force references expect a half-line function")
    if (pair.alpha < 0.0 or pair.beta < 0.0) and not f.strictly_positive:
        raise DomainError("negative orders need a strictly positive function")
    if lo == 0.0:
        for order in (pair.alpha, pair.beta):
            s = f.zero_power_exponent(order)
            if s is not None and s + 1.0 <= BOUNDARY_MARGIN:
                raise DomainError(
                    f"f**{order:g} is not summable at the origin (exponent {s:g})"
                )


# ---------------------------------------------------------------------------
# Brute-force suprema
# ---------------------------------------------------------------------------


def brute_halfline(f: FunctionSpec, pair: ExponentPair) -> float:
    """Max mean ratio over an exhaustive (start, width) grid on the half-line."""
    _validate(f, pair)
    starts = np.concatenate(([0.0], _endpoint_grid(_INTERVAL_GRID)))
    widths = _endpoint_grid(_INTERVAL_GRID * _WIDTH_NUM // _WIDTH_DEN)
    dom_lo, dom_hi = f.domain
    panels = _QUAD_PANELS

    def row_best(start: float) -> float:
        best = -math.inf
        for width in widths:
            hi = start + width
            if start < dom_lo or hi > dom_hi:
                continue
            logr = _log_ratio(f, pair, start, hi, width, panels)
            if not math.isnan(logr):
                best = max(best, logr)
        return best

    best = max(row_best(start) for start in starts)
    if not math.isfinite(best):
        raise NumericError("no admissible interval produced finite means")
    return _ratio(best)


def window_ratio(f: FunctionSpec, pair: ExponentPair, lo: float, hi: float) -> float:
    """Mean ratio over one half-line window by the fixed-panel quadrature."""
    _validate(f, pair)
    dom_lo, dom_hi = f.domain
    if not dom_lo <= lo < hi <= dom_hi:
        raise DomainError(f"window ({lo:g}, {hi:g}) leaves the domain [{dom_lo:g}, {dom_hi:g}]")
    logr = _log_ratio(f, pair, lo, hi, hi - lo, _QUAD_PANELS)
    if math.isnan(logr):
        raise NumericError("a mean over the window left double range")
    return _ratio(logr)


def brute_extension(f: FunctionSpec, pair: ExponentPair) -> float:
    """Max mean ratio of the even extension over exhaustive (-depth, right) grids.

    Both one-sided shapes (depth 0) and lopsided straddles in either
    direction are in the grid; no symmetry of the maximizer is assumed.
    Integrals reduce to pairs of cached origin-anchored integrals, which
    is an identity of the even extension, not a search shortcut.
    """
    if isinstance(f, SampledTable):
        raise DataError("even extension of a sampled table is undefined near the origin")
    _validate(f, pair)
    depths = np.concatenate(([0.0], _endpoint_grid(_INTERVAL_GRID)))
    rights = _endpoint_grid(_INTERVAL_GRID * _WIDTH_NUM // _WIDTH_DEN)
    ts = _sorted_unique(np.concatenate((depths, rights)))
    panels = _QUAD_PANELS

    def cumulative(order: float) -> np.ndarray:
        out = np.empty(ts.size)
        for i, t in enumerate(ts):
            out[i] = 0.0 if t == 0.0 else _quad_integral(f, 0.0, t, order, panels)
        return out

    qa, qb = cumulative(pair.alpha), cumulative(pair.beta)
    di, ri = np.searchsorted(ts, depths), np.searchsorted(ts, rights)
    length = depths[:, None] + rights[None, :]
    int_a = qa[di][:, None] + qa[ri][None, :]
    int_b = qb[di][:, None] + qb[ri][None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        int_a = np.where(int_a >= _MIN_TRUSTED_INTEGRAL, int_a, np.nan)
        int_b = np.where(int_b >= _MIN_TRUSTED_INTEGRAL, int_b, np.nan)
        log_len = np.log(length)
        logr = (np.log(int_b) - log_len) / pair.beta
        logr -= (np.log(int_a) - log_len) / pair.alpha
    finite = np.isfinite(logr)
    if not finite.any():
        raise NumericError("no admissible interval produced finite means")
    return _ratio(float(np.max(logr[finite])))


def brute_max_curve(pair: ExponentPair, gamma: float, n: int) -> tuple[float, float]:
    """Max of the reflection shape curve over n uniform points in [0, 1].

    The curve is evaluated here directly from its definition rather than
    through the closed-form module under test.
    """
    pair.require_gamma(gamma)
    n = int(n)
    if n < 2:
        raise DomainError("curve grid needs at least two points")
    eps = np.linspace(0.0, 1.0, n)
    pa = pair.alpha * gamma + 1.0
    pb = pair.beta * gamma + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logc = (
            np.log(np.power(eps, pb) + 1.0) / pair.beta
            - np.log(np.power(eps, pa) + 1.0) / pair.alpha
            + (1.0 / pair.alpha - 1.0 / pair.beta) * np.log1p(eps)
        )
    logc[0] = 0.0  # both endpoints are identically 1
    logc[-1] = 0.0
    logc = np.where(np.isfinite(logc), logc, -np.inf)
    idx = int(np.argmax(logc))
    return float(eps[idx]), float(math.exp(logc[idx]))

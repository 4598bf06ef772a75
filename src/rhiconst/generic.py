"""Supremum search over intervals for arbitrary function specs.

The two suprema of interest are the half-line constant (best mean ratio
over subintervals of the positive axis) and its analogue for the even
extension.  Both are suprema over infinitely many intervals, so what a
search can honestly return is the largest ratio it actually evaluated,
together with the witness interval.  converged only means the final local
refinement stopped moving the incumbent.

Reductions from the structure of the input shrink the search space:

* monotone inputs: the half-line supremum is approached on intervals
  anchored at the origin, so the search is one-dimensional in the right
  endpoint.  For a table the anchor is pinned to the left edge of the
  data instead of 0, which leaves the reduction heuristic; the estimate
  is flagged reduction_certified=False.
* even extensions: it suffices to search straddling shapes (-eps*b, b)
  with eps in [0, 1].
* pure powers: scale invariance under x -> lambda*x collapses the
  extension search to eps alone at b = 1.

Unknown monotonicity is never upgraded from samples; those inputs get
the full two-dimensional (start, width) search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classconst import general_upper_bound
from .core import (
    DataError,
    DomainError,
    ExponentPair,
    Interval,
    NumericError,
    QuadratureError,
    SearchConfig,
)
from .means import (
    EvenExtensionView,
    FunctionSpec,
    Monotonicity,
    PowerLaw,
    SampledTable,
    mean_ratio,
)

__all__ = [
    "EvenExtensionView",
    "ExtensionRatio",
    "SupremumEstimate",
    "estimate_extension",
    "estimate_halfline",
    "extension_ratio",
]

# Fraction of a table's span used as the smallest searched width.
_TABLE_WIDTH_FLOOR = 1e-6

# Smallest straddle fraction seeded below the uniform eps grid.
_EPS_TAIL_FLOOR = 1e-6


@dataclass(frozen=True)
class SupremumEstimate:
    """Largest mean ratio observed, with the interval that produced it.

    value is a lower bound on the true supremum.  converged reports that
    the last refinement round improved the incumbent by less than the
    configured relative amount; it is not an upper-bound certificate.
    reduction_certified is False when a dimensional reduction was applied
    outside the setting that justifies it.
    """

    value: float
    witness: Interval
    search_points: int
    converged: bool
    reduction_certified: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 1.0 - 1e-6:
            raise NumericError("a mean-ratio supremum is at least 1")
        if self.search_points < 1:
            raise NumericError("search_points must be positive")


@dataclass(frozen=True)
class ExtensionRatio:
    """Half-line and extension estimates with their growth ratio."""

    halfline: SupremumEstimate
    extension: SupremumEstimate
    ratio: float
    upper_bound: float

    def __post_init__(self) -> None:
        expected = self.extension.value / self.halfline.value
        if not math.isclose(self.ratio, expected, rel_tol=1e-12):
            raise NumericError("ratio inconsistent with its factors")
        if self.ratio < 1.0 - 1e-6:
            raise NumericError("extension estimate fell below the half-line estimate")
        if self.ratio > self.upper_bound + 1e-6:
            raise NumericError(
                f"growth ratio {self.ratio:.9g} exceeds the proven bound"
                f" {self.upper_bound:.9g}"
            )


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------
#
# Intervals that cannot be evaluated (overflow, exhausted quadrature,
# degenerate cells) score -inf and count as plain non-maxima.  Coordinates
# are whatever the caller chose (log-scale or linear); refinement is
# linear in that coordinate.


def _grid_refine(ratio_at, seeds, cfg: SearchConfig):
    """Maximize ratio_at over the product of per-axis seed arrays.

    The whole seed grid is scanned (last axis fastest) and the first
    maximum becomes the incumbent, bracketed per axis by its neighbouring
    seeds.  Each refinement round rescans a 9-point-per-axis stencil over
    the brackets, in the same order, and moves the incumbent only on a
    strict improvement.  A round that gains less than converge_rtol ends
    the search; otherwise every bracket shrinks by refine_shrink around
    the incumbent, clipped to the seed range of its axis.

    Returns (point, best, evals, converged) with point a tuple of floats.
    """
    ratio_at = _guarded(ratio_at)
    vals = [ratio_at(*map(float, p)) for p in itertools.product(*seeds)]
    k = int(np.argmax(vals))
    best = float(vals[k])
    if not math.isfinite(best):
        raise NumericError("no interval in the search family could be evaluated")
    index = np.unravel_index(k, [len(s) for s in seeds])
    point = tuple(float(s[i]) for s, i in zip(seeds, index))
    brackets = [
        (float(s[i - 1]) if i > 0 else x, float(s[i + 1]) if i + 1 < len(s) else x)
        for s, i, x in zip(seeds, index, point)
    ]
    evals = len(vals)
    converged = False
    for _ in range(cfg.refine_rounds):
        previous = best
        stencil = [np.linspace(lo, hi, 9) for lo, hi in brackets]
        for p in itertools.product(*stencil):
            p = tuple(map(float, p))
            r = ratio_at(*p)
            evals += 1
            if r > best:
                best, point = r, p
        if (best - previous) / previous < cfg.converge_rtol:
            converged = True
            break
        halves = [(hi - lo) / (2.0 * cfg.refine_shrink) for lo, hi in brackets]
        brackets = [
            (max(float(s[0]), x - half), min(float(s[-1]), x + half))
            for s, x, half in zip(seeds, point, halves)
        ]
    return point, best, evals, converged


def _guarded(fn):
    """Wrap a ratio evaluation; degenerate cells become -inf."""

    def call(*args):
        try:
            return fn(*args)
        except (DomainError, NumericError, QuadratureError):
            return -math.inf

    return call


def _check_input(f: FunctionSpec, pair: ExponentPair, touches_origin: bool) -> None:
    lo, _ = f.domain
    if lo < 0.0:
        raise DomainError("expected a function on the positive half-line")
    if (pair.alpha < 0.0 or pair.beta < 0.0) and not f.strictly_positive:
        raise DomainError("negative orders need a strictly positive function")
    if touches_origin and lo == 0.0:
        for order in (pair.alpha, pair.beta):
            s = f.zero_power_exponent(order)
            if s is not None and s <= -1.0:
                raise DomainError(
                    f"f**{order:g} is not summable at the origin; no interval"
                    " touching 0 has finite means"
                )


# ---------------------------------------------------------------------------
# Half-line supremum
# ---------------------------------------------------------------------------


def estimate_halfline(
    f: FunctionSpec,
    pair: ExponentPair,
    cfg: SearchConfig | None = None,
    *,
    use_reduction: bool = True,
) -> SupremumEstimate:
    """Searched lower bound on the half-line mean-ratio supremum.

    Monotone inputs use the one-dimensional origin-anchored family; a
    use_reduction=False override forces the two-dimensional search, which
    exists mostly so the reduction itself can be cross-checked.
    """
    cfg = cfg or SearchConfig()
    _check_input(f, pair, touches_origin=True)
    dom_lo, dom_hi = f.domain
    tol, levels = cfg.quad_tol, cfg.quad_max_levels

    def window(a: float, w: float) -> Interval:
        # (a, a + e**w).  A right end past a table's last knot by rounding
        # alone is clamped onto it; anything further out is not searched.
        hi = a + math.exp(w)
        if hi > dom_hi:
            if hi > dom_hi * (1.0 + 1e-12):
                raise DomainError("window leaves the data range")
            hi = dom_hi
        return Interval(a, hi)

    def ratio_at(a: float, w: float) -> float:
        return mean_ratio(f, window(a, w), pair, tol, levels)

    # Starts are linear so a 0 anchor can participate.  Widths live in log
    # space: the configured scale window on the half-line, down to a fixed
    # fraction of the span on a table.
    n = cfg.interval_grid
    if math.isinf(dom_hi):
        starts = np.concatenate(([0.0], np.geomspace(cfg.scale_min, cfg.scale_max, n - 1)))
        wseeds = np.linspace(math.log(cfg.scale_min), math.log(cfg.scale_max), n)
    else:
        span = dom_hi - dom_lo
        starts = dom_lo + span * np.concatenate(
            ([0.0], np.geomspace(_TABLE_WIDTH_FLOOR, 1.0, n - 1)[:-1])
        )
        wseeds = np.linspace(math.log(span * _TABLE_WIDTH_FLOOR), math.log(span), n)

    if use_reduction and f.monotonicity is not Monotonicity.UNKNOWN:
        # A bounded table is anchored at its left data edge instead of 0.
        # The reduction to a one-dimensional family is not justified on a
        # bounded domain, so that result is marked accordingly.
        table = isinstance(f, SampledTable)
        anchor = dom_lo if table else 0.0
        (w,), value, evals, converged = _grid_refine(
            lambda w: ratio_at(anchor, w), [wseeds], cfg
        )
        return SupremumEstimate(
            value, window(anchor, w), evals, converged, reduction_certified=not table
        )

    # Full 2-D search over (start, width).
    (a, w), value, evals, converged = _grid_refine(ratio_at, [starts, wseeds], cfg)
    return SupremumEstimate(value, window(a, w), evals, converged)


# ---------------------------------------------------------------------------
# Even-extension supremum
# ---------------------------------------------------------------------------


def _eps_seeds(n: int) -> np.ndarray:
    # Uniform coverage of [0, 1] plus a short log tail: maximizing
    # straddles can sit at very lopsided shapes.
    return np.unique(
        np.concatenate(
            (np.linspace(0.0, 1.0, n), np.geomspace(_EPS_TAIL_FLOOR, 0.1, 16))
        )
    )


def estimate_extension(
    f: FunctionSpec, pair: ExponentPair, cfg: SearchConfig | None = None
) -> SupremumEstimate:
    """Searched lower bound on the mean-ratio supremum of the even extension.

    Only straddling shapes (-eps*b, b) need to be searched.  Pure powers
    drop the b axis by scale invariance.  Tables are rejected: their even
    extension is undefined on the gap around the origin.
    """
    cfg = cfg or SearchConfig()
    if isinstance(f, SampledTable):
        raise DataError(
            "even extension of a table is undefined near the origin;"
            " supply an analytic function spec"
        )
    if isinstance(f, EvenExtensionView):
        raise DomainError("input is already an even extension")
    _check_input(f, pair, touches_origin=True)
    tol, levels = cfg.quad_tol, cfg.quad_max_levels
    extended = EvenExtensionView(f)

    def straddle(eps: float, w: float) -> Interval:
        b = math.exp(w)
        return Interval(-eps * b, b)

    def ratio_at(eps: float, w: float) -> float:
        return mean_ratio(extended, straddle(eps, w), pair, tol, levels)

    eps_seeds = _eps_seeds(cfg.interval_grid)
    if isinstance(f, PowerLaw):
        (eps,), value, evals, converged = _grid_refine(
            lambda eps: ratio_at(eps, 0.0), [eps_seeds], cfg
        )
        point = (eps, 0.0)
    else:
        bseeds = np.linspace(math.log(cfg.scale_min), math.log(cfg.scale_max), cfg.interval_grid)
        point, value, evals, converged = _grid_refine(ratio_at, [eps_seeds, bseeds], cfg)
    return SupremumEstimate(value, straddle(*point), evals, converged)


def extension_ratio(
    f: FunctionSpec, pair: ExponentPair, cfg: SearchConfig | None = None
) -> ExtensionRatio:
    """Growth of the supremum under even extension, checked against the bound.

    Both searches must converge; the ratio of two unsettled lower bounds
    says nothing and is refused rather than reported.
    """
    cfg = cfg or SearchConfig()
    halfline = estimate_halfline(f, pair, cfg)
    extension = estimate_extension(f, pair, cfg)
    if not (halfline.converged and extension.converged):
        raise NumericError("supremum searches did not converge; ratio withheld")
    return ExtensionRatio(
        halfline=halfline,
        extension=extension,
        ratio=extension.value / halfline.value,
        upper_bound=general_upper_bound(pair),
    )

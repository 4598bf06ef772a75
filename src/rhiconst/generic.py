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
    mean_ratios,
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

# Most points scored by one batched quadrature pass.  A pass holds some
# state per interval, so this bounds memory whatever the grid size.
_SCORE_SLICE = 256


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
# The engine scores whole point sets at once: score(points) maps an
# (n, d) array of coordinates to n mean ratios, so the seed grid and each
# refinement stencil cost one batched quadrature pass (means.mean_ratios)
# instead of one Python call per interval.  Points whose interval cannot
# be built or evaluated (overflow, exhausted quadrature, degenerate
# cells) score -inf, never NaN, and count as plain non-maxima.
# Coordinates are whatever the caller chose (log-scale or linear);
# refinement is linear in that coordinate.


def _product(axes) -> np.ndarray:
    """Every combination of the axes' values as rows, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _grid_refine(score, seeds, cfg: SearchConfig):
    """Maximize a vectorised score over the product of per-axis seed arrays.

    The whole seed grid is scored and the first maximum becomes the
    incumbent, bracketed per axis by its neighbouring seeds.  Each
    refinement round scores a 9-point-per-axis stencil over the brackets
    and moves the incumbent to the stencil's first maximum only on a
    strict improvement.  A round that gains less than converge_rtol ends
    the search; otherwise every bracket shrinks by refine_shrink around
    the incumbent, clipped to the seed range of its axis.

    Returns (point, best, evals, converged) with point a tuple of floats.
    """
    grid = _product(seeds)
    vals = score(grid)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if not math.isfinite(best):
        raise NumericError("no interval in the search family could be evaluated")
    index = np.unravel_index(k, [len(s) for s in seeds])
    point = tuple(grid[k].tolist())
    brackets = [
        (float(s[i - 1]) if i > 0 else x, float(s[i + 1]) if i + 1 < len(s) else x)
        for s, i, x in zip(seeds, index, point)
    ]
    evals = len(vals)
    converged = False
    for _ in range(cfg.refine_rounds):
        previous = best
        stencil = _product([np.linspace(lo, hi, 9) for lo, hi in brackets])
        vals = score(stencil)
        evals += len(vals)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, point = float(vals[k]), tuple(stencil[k].tolist())
        if (best - previous) / previous < cfg.converge_rtol:
            converged = True
            break
        halves = [(hi - lo) / (2.0 * cfg.refine_shrink) for lo, hi in brackets]
        brackets = [
            (max(float(s[0]), x - half), min(float(s[-1]), x + half))
            for s, x, half in zip(seeds, point, halves)
        ]
    return point, best, evals, converged


def _search(f: FunctionSpec, pair: ExponentPair, cfg: SearchConfig, interval_at, seeds):
    """Largest mean ratio of f over the intervals interval_at(*point).

    Returns (value, witness, evals, converged).  The witness is scored
    once more by the scalar mean_ratio, which must give the batched value
    exactly.
    """
    tol, levels = cfg.quad_tol, cfg.quad_max_levels

    def score_slice(points: np.ndarray) -> np.ndarray:
        scores = np.full(len(points), -math.inf)
        rows, intervals = [], []
        for row, point in enumerate(points.tolist()):
            try:
                intervals.append(interval_at(*point))
            except (DomainError, NumericError, QuadratureError):
                continue
            rows.append(row)
        scores[rows] = mean_ratios(f, intervals, pair, tol, levels)
        return scores

    def score(points: np.ndarray) -> np.ndarray:
        starts = range(0, len(points), _SCORE_SLICE)
        return np.concatenate([score_slice(points[i : i + _SCORE_SLICE]) for i in starts])

    point, value, evals, converged = _grid_refine(score, seeds, cfg)
    witness = interval_at(*point)
    if mean_ratio(f, witness, pair, tol, levels) != value:
        raise NumericError("the witness does not reproduce its batched score")
    return value, witness, evals, converged


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

    def window(a: float, w: float) -> Interval:
        # (a, a + e**w).  A right end past a table's last knot by rounding
        # alone is clamped onto it; anything further out is not searched.
        hi = a + math.exp(w)
        if hi > dom_hi:
            if hi > dom_hi * (1.0 + 1e-12):
                raise DomainError("window leaves the data range")
            hi = dom_hi
        return Interval(a, hi)

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
        found = _search(f, pair, cfg, lambda w: window(anchor, w), [wseeds])
        return SupremumEstimate(*found, reduction_certified=not table)

    # Full 2-D search over (start, width).
    return SupremumEstimate(*_search(f, pair, cfg, window, [starts, wseeds]))


# ---------------------------------------------------------------------------
# Even-extension supremum
# ---------------------------------------------------------------------------


def _eps_seeds(n: int) -> np.ndarray:
    # Uniform coverage of [0, 1] plus a short log tail: maximizing
    # straddles can sit at very lopsided shapes.
    # Sorted and deduplicated by hand: np.unique imports numpy.ma.
    seeds = np.sort(
        np.concatenate((np.linspace(0.0, 1.0, n), np.geomspace(_EPS_TAIL_FLOOR, 0.1, 16)))
    )
    return seeds[np.append(True, seeds[1:] != seeds[:-1])]


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
    extended = EvenExtensionView(f)

    def straddle(eps: float, w: float = 0.0) -> Interval:
        b = math.exp(w)
        return Interval(-eps * b, b)

    eps_seeds = _eps_seeds(cfg.interval_grid)
    if isinstance(f, PowerLaw):
        return SupremumEstimate(*_search(extended, pair, cfg, straddle, [eps_seeds]))
    bseeds = np.linspace(math.log(cfg.scale_min), math.log(cfg.scale_max), cfg.interval_grid)
    return SupremumEstimate(*_search(extended, pair, cfg, straddle, [eps_seeds, bseeds]))


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

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
  endpoint.
* even extensions: it suffices to search straddling shapes (-eps*b, b)
  with eps in [0, 1].
* pure powers: scale invariance under x -> lambda*x collapses the
  extension search to eps alone at b = 1.

Analytic inputs of unknown monotonicity get the full two-dimensional
(start, width) search, which is also the reference the origin-anchored
reduction is checked against.  Every analytic search seeds _INTERVAL_GRID
points per axis; no caller sizes it, so verify checks the searches that
estimate runs.  Sampled tables get no reduction: tables.py ranks every
window between two knots, and the best knot pairs are then polished here.

Every search runs on one engine, _grid_refine, which refines many
independent searches in lockstep; an analytic search is a batch of one.
A table's polishes run as one batch, so each refinement round is one
scoring pass over the stencils of every polish still refining, and every
polish counts.
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
)
from .means import (
    EvenExtensionView,
    FunctionSpec,
    Monotonicity,
    PowerLaw,
    SampledTable,
    _scored_ratios,
    mean_ratio,
)
from .tables import _knot_seeds, _scan_knot_pairs

__all__ = [
    "EvenExtensionView",
    "ExtensionRatio",
    "SupremumEstimate",
    "estimate_extension",
    "estimate_halfline",
    "extension_ratio",
]

# Smallest straddle fraction seeded below the uniform eps grid.
_EPS_TAIL_FLOOR = 1e-6

# Most points scored by one batched quadrature pass.  A pass holds some
# state per interval and order (both means of a ratio are taken in one
# pass), so this bounds memory whatever the grid size; its integrand
# calls are bounded by means._NODE_BUDGET on their own.  A table pass
# holds O(1) state per window and is not sliced: a round of the table
# polish scores at most tables._POLISH_PAIRS * 81 windows.
_SCORE_SLICE = 1024

# The gain below which a round of a table polish ends it.  Table means are
# exact, so the polish can settle to near rounding instead of to the
# quadrature-level _CONVERGE_RTOL.
_POLISH_RTOL = 1e-12


@dataclass(frozen=True)
class SupremumEstimate:
    """Largest mean ratio observed, with the interval that produced it.

    value is a lower bound on the true supremum.  converged reports that
    the last refinement round improved the incumbent by less than the
    search's relative stopping gain; it is not an upper-bound certificate.
    """

    value: float
    witness: Interval
    search_points: int
    converged: bool

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
# The engine runs many independent searches in lockstep and scores whole
# point sets at once: a search family bounds(points) maps an (n, d) array
# of coordinates to the endpoint arrays (lo, hi) of n intervals, and the
# seed grids of all searches, then each round's refinement stencils of the
# searches still refining, cost one batched pass (means._scored_ratios)
# instead of one Python call per interval.  A quadrature pass keeps some
# state per interval, so it takes at most _SCORE_SLICE rows, in order of
# their right ends, not in grid order: a pass integrates each distinct
# piece once, and the straddles (-eps*b, b) of one b share their piece
# (0, b), so a slice that holds whole b-columns of the seed grid integrates
# each (0, b) once instead of once per eps.  A table pass keeps O(1) state
# per window and takes every row at once.  A row that is no interval (an
# endpoint not finite, or lo >= hi) or cannot be evaluated (overflow,
# exhausted quadrature) scores -inf, never NaN, and counts as a plain
# non-maximum.  Coordinates are whatever the caller chose (log-scale or
# linear); refinement is linear in that coordinate.
#
# Every mean is taken to QUAD_TOL within the level budget of means
# (means._QUAD_MAX_LEVELS).  A search runs at most _REFINE_ROUNDS rounds,
# shrinking its brackets by _REFINE_SHRINK each, and stops after a round
# that gains less than _CONVERGE_RTOL (relative).  The analytic searches
# seed widths, right ends and nonzero starts log-uniformly over
# [_SCALE_MIN, _SCALE_MAX], _INTERVAL_GRID seeds per axis, read when a
# search starts.

QUAD_TOL = 1e-8
_INTERVAL_GRID = 64
_REFINE_ROUNDS = 12
_REFINE_SHRINK = 4.0
_CONVERGE_RTOL = 1e-6
_SCALE_MIN = 1e-3
_SCALE_MAX = 1e3


def _product(axes) -> np.ndarray:
    """Every combination of the axes' values as rows, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _stencils(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """9 points per axis over each search's brackets (lo[s], hi[s]).

    Returns an (n, 9**d, d) array holding each search's stencil in
    _product order.  np.linspace along the last axis gives each bracket
    the bits of its own scalar np.linspace call.
    """
    n, d = lo.shape
    axes = np.linspace(lo, hi, 9, axis=-1)
    shape = (n,) + (9,) * d
    cols = [
        np.broadcast_to(axes[:, k].reshape((n,) + (1,) * k + (9,) + (1,) * (d - 1 - k)), shape)
        for k in range(d)
    ]
    return np.stack(cols, axis=-1).reshape(n, -1, d)


def _grid_refine(score, boxes, rtol: float = _CONVERGE_RTOL) -> list:
    """Maximize a vectorised score over many product grids in lockstep.

    boxes holds one search each: a list of per-axis seed arrays, the same
    number of axes for every search.  The seed grids of all searches are
    scored in one call, and in each search the first maximum of its own
    grid becomes its incumbent, bracketed per axis by its neighbouring
    seeds.  Each of at most _REFINE_ROUNDS refinement rounds scores a
    9-point-per-axis stencil over the brackets of every search still
    refining, again in one call, and moves a search's incumbent to its
    stencil's first maximum only on a strict improvement.  A round that
    gains less than rtol (relative) ends that search; otherwise every
    bracket of it shrinks by _REFINE_SHRINK around its incumbent, clipped
    to the seed range of its axis.  A search returns exactly what it would
    return alone.

    Returns, per search, (point, best, evals, converged) with point a
    tuple of floats, or the NumericError of a search none of whose seeds
    could be evaluated.
    """
    grids = [_product(seeds) for seeds in boxes]
    vals = score(np.concatenate(grids))
    n, d = len(boxes), len(boxes[0])
    point, lo, hi, first, last = (np.zeros((n, d)) for _ in range(5))
    best = np.full(n, -math.inf)
    evals = np.array([len(grid) for grid in grids])
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    errors = {}
    ends = np.cumsum(evals)
    for s, (seeds, grid) in enumerate(zip(boxes, grids)):
        own = vals[ends[s] - len(grid) : ends[s]]
        k = int(np.argmax(own))
        best[s], point[s] = own[k], grid[k]
        if not math.isfinite(best[s]):
            errors[s] = NumericError("no interval in the search family could be evaluated")
            active[s] = False
            continue
        index = np.unravel_index(k, [len(a) for a in seeds])
        for axis, (a, i) in enumerate(zip(seeds, index)):
            lo[s, axis] = a[max(i - 1, 0)]
            hi[s, axis] = a[min(i + 1, len(a) - 1)]
            first[s, axis], last[s, axis] = a[0], a[-1]
    for _ in range(_REFINE_ROUNDS):
        act = np.flatnonzero(active)
        if not len(act):
            break
        stencil = _stencils(lo[act], hi[act])
        vals = score(stencil.reshape(-1, d)).reshape(len(act), -1)
        evals[act] += vals.shape[1]
        k = np.argmax(vals, axis=1)
        top = vals[np.arange(len(act)), k]
        previous = best[act]
        better = top > previous
        best[act[better]] = top[better]
        point[act[better]] = stencil[better, k[better]]
        done = (best[act] - previous) / previous < rtol
        converged[act[done]] = True
        active[act[done]] = False
        act = act[~done]
        halves = (hi[act] - lo[act]) / (2.0 * _REFINE_SHRINK)
        lo[act] = np.maximum(first[act], point[act] - halves)
        hi[act] = np.minimum(last[act], point[act] + halves)
    return [
        errors[s]
        if s in errors
        else (tuple(point[s].tolist()), float(best[s]), int(evals[s]), bool(converged[s]))
        for s in range(n)
    ]


def _search(f: FunctionSpec, pair: ExponentPair, bounds, boxes, rtol: float = _CONVERGE_RTOL):
    """Largest mean ratios of f over the intervals of the family bounds.

    One lockstep search runs per box of seeds (_grid_refine).  bounds(points)
    gives the endpoint arrays (lo, hi) of the intervals at an (n, d) array
    of points.  Returns, per box, (value, witness, evals, converged) or the
    NumericError of a box none of whose seeds could be evaluated.
    """
    whole = isinstance(f, SampledTable)

    def score(points: np.ndarray) -> np.ndarray:
        scores = np.full(len(points), -math.inf)
        lo, hi = bounds(points)
        rows = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
        rows = rows[np.argsort(hi[rows], kind="stable")]
        step = max(1, len(rows)) if whole else _SCORE_SLICE
        for i in range(0, len(rows), step):
            r = rows[i : i + step]
            scores[r] = _scored_ratios(f, lo[r], hi[r], pair, QUAD_TOL)
        return scores

    found = []
    for result in _grid_refine(score, boxes, rtol):
        if not isinstance(result, NumericError):
            point, value, evals, converged = result
            lo, hi = bounds(np.array([point]))
            result = (value, Interval(lo[0], hi[0]), evals, converged)
        found.append(result)
    return found


def _best(f: FunctionSpec, pair: ExponentPair, found, evals: int = 0) -> SupremumEstimate:
    """The first best of the searches found that did not fail.

    A failed search (a NumericError in found) is dropped; when every search
    failed, the first error is raised.  Its search points are evals plus
    the evaluations of every search kept.  The other kept searches'
    witnesses are scored again in one batch, and the winner's by the scalar
    mean_ratio; each must give its search's value exactly.
    """
    kept = [r for r in found if not isinstance(r, NumericError)]
    if not kept:
        raise found[0]
    win = max(range(len(kept)), key=lambda s: kept[s][0])
    others = kept[:win] + kept[win + 1 :]
    if others:
        lo = np.array([r[1].lo for r in others])
        hi = np.array([r[1].hi for r in others])
        again = _scored_ratios(f, lo, hi, pair, QUAD_TOL)
        if again.tolist() != [r[0] for r in others]:
            raise NumericError("a witness does not reproduce its batched score")
    value, witness, _, converged = kept[win]
    if mean_ratio(f, witness, pair, QUAD_TOL) != value:
        raise NumericError("the witness does not reproduce its batched score")
    return SupremumEstimate(value, witness, evals + sum(r[2] for r in kept), converged)


def _exp(w: np.ndarray) -> np.ndarray:
    # math, not numpy: np.exp can differ from math.exp in the last bit,
    # which would move every witness.
    return np.array([math.exp(x) for x in w.tolist()])


def _log_scale_seeds(n: int) -> np.ndarray:
    """n seeds uniform in log scale over the scale window, as logs."""
    return np.linspace(math.log(_SCALE_MIN), math.log(_SCALE_MAX), n)


def _check_input(f: FunctionSpec, pair: ExponentPair) -> None:
    lo, _ = f.domain
    if lo < 0.0:
        raise DomainError("expected a function on the positive half-line")
    if (pair.alpha < 0.0 or pair.beta < 0.0) and not f.strictly_positive:
        raise DomainError("negative orders need a strictly positive function")
    if lo == 0.0:
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


def _search_table(table: SampledTable, pair: ExponentPair) -> SupremumEstimate:
    """Exhaustive knot-pair scan (tables._scan_knot_pairs), then a local
    polish of the best pairs.

    Each polish is a 2-D search over windows (a, b) with a and b free in
    the stretches beside the pair's two knots (its box), until a round
    gains less than _POLISH_RTOL; its seed grid holds the knot pair
    itself.  All polishes run in one lockstep batch, and every one counts:
    the best window of the polishes that did not fail wins (_best), the
    first on ties.
    """
    xs = table.xs
    pairs, evals = _scan_knot_pairs(table, pair)
    boxes = [[_knot_seeds(xs, i), _knot_seeds(xs, j)] for i, j in pairs]
    found = _search(table, pair, lambda p: (p[:, 0], p[:, 1]), boxes, _POLISH_RTOL)
    return _best(table, pair, found, evals)


def _halfline_2d(f: FunctionSpec, pair: ExponentPair) -> SupremumEstimate:
    """Full (start, width) search of an analytic input.

    Starts are linear so a 0 anchor can participate; widths are logs over
    the scale window.  The caller checks the input.
    """

    def window(points: np.ndarray):
        return points[:, 0], points[:, 0] + _exp(points[:, 1])

    n = _INTERVAL_GRID
    starts = np.concatenate(([0.0], np.geomspace(_SCALE_MIN, _SCALE_MAX, n - 1)))
    return _best(f, pair, _search(f, pair, window, [[starts, _log_scale_seeds(n)]]))


def estimate_halfline(f: FunctionSpec, pair: ExponentPair) -> SupremumEstimate:
    """Searched lower bound on the half-line mean-ratio supremum.

    A table gets the exhaustive knot-pair scan and polish, seeded at its
    knots.  Monotone analytic inputs use the one-dimensional
    origin-anchored family, other analytic inputs the full (start, width)
    search, each with _INTERVAL_GRID seeds per axis.
    """
    _check_input(f, pair)
    if isinstance(f, SampledTable):
        return _search_table(f, pair)
    if f.monotonicity is Monotonicity.UNKNOWN:
        return _halfline_2d(f, pair)

    def anchored(points: np.ndarray):
        # +0.0 on every row: 0.0 * w would give -0.0 for w < 0.
        return np.zeros(len(points)), _exp(points[:, 0])

    return _best(f, pair, _search(f, pair, anchored, [[_log_scale_seeds(_INTERVAL_GRID)]]))


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


def _check_extension_input(f: FunctionSpec, pair: ExponentPair) -> None:
    if isinstance(f, SampledTable):
        raise DataError(
            "even extension of a table is undefined near the origin;"
            " supply an analytic function spec"
        )
    if isinstance(f, EvenExtensionView):
        raise DomainError("input is already an even extension")
    _check_input(f, pair)


def estimate_extension(f: FunctionSpec, pair: ExponentPair) -> SupremumEstimate:
    """Searched lower bound on the mean-ratio supremum of the even extension.

    Only straddling shapes (-eps*b, b) need to be searched.  Pure powers
    drop the b axis by scale invariance.  Tables are rejected: their even
    extension is undefined on the gap around the origin.
    """
    _check_extension_input(f, pair)
    extended = EvenExtensionView(f)

    def straddle(points: np.ndarray):
        # Rows are (eps, log b), or eps alone at b = 1.
        b = _exp(points[:, 1]) if points.shape[1] > 1 else np.ones(len(points))
        return -points[:, 0] * b, b

    eps_seeds = _eps_seeds(_INTERVAL_GRID)
    if isinstance(f, PowerLaw):
        return _best(extended, pair, _search(extended, pair, straddle, [[eps_seeds]]))
    bseeds = _log_scale_seeds(_INTERVAL_GRID)
    return _best(extended, pair, _search(extended, pair, straddle, [[eps_seeds, bseeds]]))


def extension_ratio(f: FunctionSpec, pair: ExponentPair) -> ExtensionRatio:
    """Growth of the supremum under even extension, checked against the bound.

    Both searches must converge; the ratio of two unsettled lower bounds
    says nothing and is refused rather than reported.  An input without an
    even extension is refused before either search runs.
    """
    _check_extension_input(f, pair)
    halfline = estimate_halfline(f, pair)
    extension = estimate_extension(f, pair)
    if not (halfline.converged and extension.converged):
        raise NumericError("supremum searches did not converge; ratio withheld")
    return ExtensionRatio(
        halfline=halfline,
        extension=extension,
        ratio=extension.value / halfline.value,
        upper_bound=general_upper_bound(pair),
    )

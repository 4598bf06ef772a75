"""Power means of nonnegative inputs on the half-line.

The mean of order r of f over a bounded interval I is

    M_r(f, I) = ( (1/|I|) * integral_I f(x)**r dx )**(1/r),    r != 0.

Means are increasing in r, so for a validated exponent pair the ratio
M_beta / M_alpha is always >= 1.  This module provides the input family
(pure powers, shifted powers, exponential decay, sampled tables and the
even-extension wrapper), closed forms for pure powers on origin-anchored
intervals and for sampled tables, and an adaptive quadrature evaluator for
everything else.

Quadrature strategy
-------------------
A mean is the sum of integrals over pieces, and _pieces is the one place
that splits an interval.  Under an even extension an interval straddling
0 folds into two origin-anchored pieces, (0, eps*b) and (0, b); any other
interval is one piece.

Pieces are integrated with composite 16-point Gauss-Legendre panels.
Origin-anchored pieces are integrated after the substitution x = T * u**p
with p chosen from the known power behavior of f**r near 0, which turns
an integrable endpoint blowup into a function vanishing at least
quadratically; the u-mesh is graded geometrically toward 0.  Other
pieces get a linear or geometric mesh depending on the endpoint ratio.
The mesh is refined by whole levels and the error estimate is the
difference between the last two levels.  Linear and geometric meshes
double at each level and are integrated afresh.  A new origin-anchored
level splits only the first u-cell, the one next to 0, into five: its
piece keeps the sums of the other cells from the level before and
integrates the five new ones.  Its error estimate therefore measures the
cells next to 0 only; a feature farther right is never refined.  Inputs
never get evaluated at panel edges, only at interior Gauss nodes, so an
endpoint blowup of f itself is harmless.

A pass computes the means of one or more orders over a batch of
intervals: it splits and de-duplicates the pieces once, all intervals
advance a level together with every order, and the pieces of the
intervals still refining are integrated in rectangular blocks of one rule
and cell count (origin-anchored pieces share their u-mesh and differ only
in scale).  Equal pieces are integrated once per level and order, while
any interval owning them still refines that order, and the integral is
handed to each owner; the straddles (-eps*b, b) of one b all share
(0, b).  A block is cut into chunks of at most _NODE_BUDGET new nodes per
integrand call, which bounds memory whatever the batch size.  Orders with
the same substitution exponent p build each chunk's nodes once; when the
input's f**r is the default power of f.evaluate (AffinePower, ExpDecay),
they also evaluate f there once and raise it to each order.  Otherwise
(PowerLaw folds its exponents) each order calls power_values on chunks of
its own pieces.  Each piece is summed on its own (an origin-anchored
piece sums each cell's nodes, then its cell sums in cell order, so its
integral depends only on its right end, the level, the order and the
exponent s), an interval's pieces are added in order, and each interval
keeps the scalar convergence test for each order, so a mean depends
neither on the batch it is in nor on the other orders of its pass;
quad_mean and mean_ratio are batches of one, mean_ratios scores many
intervals at once.

A ratio takes both means in one pass, the beta mean leading.  An
interval's alpha mean is integrated beside its beta mean at every level
up to the one where the beta mean fails, if it does, and at none after
it; the ratio then fails with the beta mean's error.  mean_ratio asks
each mean for tol/3 and, for a mean below 1, for tol/3 times that mean:
such a mean continues from the level it reached under the tighter test
instead of starting over, which ends at the same level with the same
value, because a tighter test cannot pass earlier.

Sampled tables are not integrated numerically: tables.py takes their
means exactly, in closed form.

0**r is treated as 0 for r > 0.  For r < 0 it is inadmissible and the
entry points reject the configurations that would produce it.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DataError,
    DomainError,
    ExponentPair,
    Interval,
    NumericError,
    QuadratureError,
    RhiError,
)
from .tables import _table_means

__all__ = [
    "AffinePower",
    "EvenExtensionView",
    "ExpDecay",
    "FunctionSpec",
    "MeanValue",
    "Monotonicity",
    "PowerLaw",
    "SampledTable",
    "mean_ratio",
    "mean_ratios",
    "power_mean_closed",
    "quad_mean",
    "table_from_csv",
]


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Input family
# ---------------------------------------------------------------------------


class FunctionSpec:
    """A nonnegative input on (part of) the positive half-line.

    Subclasses provide vectorized evaluation, a domain, declared
    monotonicity, and the power behavior of f**order near the origin so
    the quadrature can pick a suitable substitution.
    """

    monotonicity: Monotonicity

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def power_values(self, x: np.ndarray, order: float) -> np.ndarray:
        """Pointwise f(x)**order.

        The default composes evaluate with a power, which can underflow
        halfway even when the composite is representable; subclasses that
        know the composite in closed form override this with the stable
        one-step version.
        """
        return np.power(self.evaluate(x), order)

    @property
    def domain(self) -> tuple[float, float]:
        """Closure of the admissible abscissa range, (0, inf) by default."""
        return (0.0, math.inf)

    def zero_power_exponent(self, order: float) -> float | None:
        """Exponent s with f(x)**order ~ c * x**s as x -> 0+, None if regular."""
        return None

    @property
    def strictly_positive(self) -> bool:
        return True

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLaw(FunctionSpec):
    """f(x) = x**gamma."""

    gamma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise DomainError("power-law exponent must be finite")

    @property
    def monotonicity(self) -> Monotonicity:
        if self.gamma < 0.0:
            return Monotonicity.DECREASING
        return Monotonicity.INCREASING

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.power(x, self.gamma)

    def power_values(self, x: np.ndarray, order: float) -> np.ndarray:
        # x**gamma can leave double range at abscissae where x**(gamma*order)
        # is perfectly representable, so fold the exponents first.
        return np.power(x, self.gamma * order)

    def zero_power_exponent(self, order: float) -> float | None:
        s = self.gamma * order
        return s if s != 0.0 else None

    def describe(self) -> str:
        return f"pow:gamma={self.gamma:g}"


@dataclass(frozen=True)
class AffinePower(FunctionSpec):
    """f(x) = scale * x**gamma + offset with scale > 0 and offset >= 0."""

    scale: float
    gamma: float
    offset: float

    def __post_init__(self) -> None:
        for name in ("scale", "gamma", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")
        if self.offset < 0.0:
            raise DomainError("offset must be nonnegative")

    @property
    def monotonicity(self) -> Monotonicity:
        if self.gamma < 0.0:
            return Monotonicity.DECREASING
        return Monotonicity.INCREASING

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.scale * np.power(x, self.gamma) + self.offset

    def zero_power_exponent(self, order: float) -> float | None:
        # A negative gamma blows up at 0 regardless of the offset; a
        # positive gamma pins f(0) = offset, singular only when that is 0.
        if self.gamma < 0.0 or (self.gamma > 0.0 and self.offset == 0.0):
            s = self.gamma * order
            return s if s != 0.0 else None
        return None

    def describe(self) -> str:
        return f"affpow:a={self.scale:g},gamma={self.gamma:g},c={self.offset:g}"


@dataclass(frozen=True)
class ExpDecay(FunctionSpec):
    """f(x) = exp(-rate * x) with rate > 0."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError("decay rate must be positive and finite")

    @property
    def monotonicity(self) -> Monotonicity:
        return Monotonicity.DECREASING

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.rate * x)

    def describe(self) -> str:
        return f"expdecay:lambda={self.rate:g}"


@dataclass(frozen=True, eq=False)
class SampledTable(FunctionSpec):
    """Piecewise-linear interpolant of sampled values, no extrapolation.

    Abscissae must be strictly increasing and positive, values nonnegative
    and finite, at least two points.  A table's monotonicity is UNKNOWN
    whatever its data: its search is exhaustive and assumes no shape.
    """

    xs: np.ndarray
    fs: np.ndarray

    monotonicity = Monotonicity.UNKNOWN

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float).copy()
        fs = np.asarray(self.fs, dtype=float).copy()
        if xs.ndim != 1 or fs.ndim != 1 or xs.size != fs.size:
            raise DataError("table abscissae and values must be 1-d and equal length")
        if xs.size < 2:
            raise DataError("table needs at least two samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise DataError("table entries must be finite")
        if xs[0] <= 0.0:
            raise DataError("table abscissae must be positive")
        if not np.all(np.diff(xs) > 0.0):
            raise DataError("table abscissae must be strictly increasing")
        if np.any(fs < 0.0):
            raise DataError("table values must be nonnegative")
        xs.setflags(write=False)
        fs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.fs)

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.fs > 0.0))

    def describe(self) -> str:
        return f"table:n={self.xs.size},range=[{self.xs[0]:g},{self.xs[-1]:g}]"


@dataclass(frozen=True)
class EvenExtensionView(FunctionSpec):
    """Reflection of a half-line input across the origin.

    Evaluation at x delegates to the base input at |x|, so means over
    origin-spanning intervals become sums of two half-line segments.  The
    view itself is not monotone; the base's declaration stays available
    through .base.
    """

    base: FunctionSpec

    def __post_init__(self) -> None:
        if isinstance(self.base, EvenExtensionView):
            raise DomainError("even extension cannot be nested")

    @property
    def monotonicity(self) -> Monotonicity:
        return Monotonicity.UNKNOWN

    @property
    def domain(self) -> tuple[float, float]:
        lo, hi = self.base.domain
        return (-hi, hi)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.base.evaluate(np.abs(x))

    def power_values(self, x: np.ndarray, order: float) -> np.ndarray:
        return self.base.power_values(np.abs(x), order)

    def zero_power_exponent(self, order: float) -> float | None:
        return self.base.zero_power_exponent(order)

    @property
    def strictly_positive(self) -> bool:
        return self.base.strictly_positive

    def describe(self) -> str:
        return f"even({self.base.describe()})"


def table_from_csv(path: str) -> SampledTable:
    """Load a SampledTable from a UTF-8 CSV file with header ``x,f``.

    A byte-order mark before the header is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read table file {path!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"table file {path!r} is not UTF-8 CSV: {exc}") from exc
    if not rows:
        raise DataError(f"empty table file {path!r}")
    header = [cell.strip() for cell in rows[0]]
    if header != ["x", "f"]:
        raise DataError(f"expected CSV header 'x,f', got {','.join(header)!r}")
    xs: list[float] = []
    fs: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{path}:{lineno}: expected two columns")
        try:
            xs.append(float(row[0]))
            fs.append(float(row[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric entry") from exc
    if not xs:
        raise DataError(f"{path}: no data rows")
    return SampledTable(np.array(xs), np.array(fs))


# ---------------------------------------------------------------------------
# Closed form for pure powers
# ---------------------------------------------------------------------------


def power_mean_closed(gamma: float, order: float, eps: float) -> float:
    """Mean of order ``order`` of x**gamma over (0, eps), in closed form.

    Integrating x**(gamma*order) gives

        M = eps**gamma * (gamma*order + 1)**(-1/order),

    valid exactly when gamma*order > -1 (summability at the origin).
    """
    if order == 0.0 or not math.isfinite(order):
        raise DomainError("mean order must be nonzero and finite")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError("interval endpoint eps must be positive and finite")
    if not math.isfinite(gamma):
        raise DomainError("gamma must be finite")
    s = gamma * order
    if s <= -1.0:
        raise DomainError(
            f"x**{gamma} has no order-{order} mean at the origin (gamma*order <= -1)"
        )
    return math.pow(eps, gamma) * math.pow(s + 1.0, -1.0 / order)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanValue:
    """A quadrature mean plus the bookkeeping needed to trust it."""

    value: float
    order: float
    interval: Interval
    abs_error_estimate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise NumericError(f"mean value must be positive and finite, got {self.value!r}")
        if not (math.isfinite(self.abs_error_estimate) and self.abs_error_estimate >= 0.0):
            raise NumericError("error estimate must be nonnegative and finite")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Most quadrature nodes handed to one integrand call.  Pieces are never
# split, so a piece with more nodes than this is integrated alone.
_NODE_BUDGET = 1 << 14

# Most refinement levels a mean takes before it fails with QuadratureError.
_QUAD_MAX_LEVELS = 12


def _substitution_exponent(s: float | None) -> float:
    # p turns x**s near 0 into u**(p*(s+1)-1); aim for at least quadratic
    # vanishing, cap p so transformed abscissae stay inside double range.
    if s is None or s >= 2.0:
        return 1.0
    if s >= 0.0:
        return 2.0
    return min(max(3.0 / (s + 1.0), 2.0), 40.0)


def _zero_edges(level: int) -> np.ndarray:
    """The u-mesh of an origin-anchored piece: 0, 2**-(10+4*level), ..., 2**-1, 1."""
    return np.concatenate(([0.0], 2.0 ** -np.arange(10 + 4 * level, -1.0, -1.0)))


def _cells(kind: str, level: int) -> int:
    # Cells a piece integrates at a level: its whole mesh, except that an
    # origin-anchored piece only integrates the cells new next to 0.
    if kind == "zero":
        return 5 if level else 11
    return 16 << level


class _Mesh(NamedTuple):
    """What the pieces of one kind share at a level, whatever their ends.

    Origin-anchored pieces share their u-mesh ``edges`` and, under x =
    T * u**p with p != 1, its Gauss nodes' u**p and u**(p-1) and the
    weights half * _GL_WEIGHTS.  Linear and geometric pieces share only
    their cell count.
    """

    kind: str
    cells: int
    p: float = 1.0
    edges: np.ndarray | None = None
    up: np.ndarray | None = None
    up1: np.ndarray | None = None
    hw: np.ndarray | None = None


def _mesh(kind: str, level: int, p: float = 1.0, edges: np.ndarray | None = None) -> _Mesh:
    """The mesh of the cells a piece of ``kind`` integrates at a level.

    For origin-anchored pieces those are the cells new next to 0, or the
    cells of ``edges`` when given.
    """
    if kind != "zero":
        return _Mesh(kind, _cells(kind, level))
    if edges is None:
        edges = _zero_edges(level)[: _cells(kind, level) + 1]
    if p == 1.0:
        return _Mesh(kind, len(edges) - 1, p, edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    return _Mesh(
        kind, len(edges) - 1, p, edges, u**p, u ** (p - 1.0), (half[:, None] * _GL_WEIGHTS).ravel()
    )


def _nodes(mesh: _Mesh, lo, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes of the pieces (lo[i], hi[i]) on a mesh, one row of
    cells * 16 per piece, and per row what _weigh needs besides the mesh:
    the nodes' Gauss weights, or the right ends under x = hi * u**p.

    Nodes stay strictly interior.  An origin-anchored piece ignores lo.
    """
    if mesh.up is not None:
        # x = hi * u**p: the u-mesh is shared, only the scale differs per row.
        return hi[:, None] * mesh.up, hi
    if mesh.kind == "zero":
        edges = hi[:, None] * mesh.edges
    else:
        space = np.geomspace if mesh.kind == "geo" else np.linspace
        edges = space(lo, hi, mesh.cells + 1, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    rows = len(edges)
    x = mid[:, :, None] + half[:, :, None] * _GL_NODES
    return x.reshape(rows, -1), (half[:, :, None] * _GL_WEIGHTS).reshape(rows, -1)


def _weigh(mesh: _Mesh, weights: np.ndarray, vals: np.ndarray, out=None) -> np.ndarray:
    """Weighted node values from rows of what _nodes returns besides the
    nodes and the f**order values at those nodes.

    The products are taken in place so that few node-sized arrays are
    alive at once: into out (vals, when the caller may overwrite it) with
    Gauss weights, into a new array under x = hi * u**p.
    """
    if mesh.up is None:
        return np.multiply(weights, vals, out=out)
    weighted = (mesh.p * weights)[:, None] * mesh.up1
    weighted *= vals
    weighted *= mesh.hw
    return weighted


def _sums(mesh: _Mesh, weighted: np.ndarray) -> np.ndarray:
    """Sums of each piece's weighted node values: per cell for an
    origin-anchored piece, shape (rows, cells), so that a cell's integral
    depends only on its edges, the right end and p; over the whole row for
    any other piece.  Each row is summed over its own contiguous block, so
    its sums do not depend on the other rows.
    """
    if mesh.kind == "zero":
        return np.sum(weighted.reshape(len(weighted), mesh.cells, 16), axis=2)
    return np.sum(weighted, axis=1)


def _zero_anchored_rows(new: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Cell sums of origin-anchored pieces at a level, from those of the level before.

    A level splits the first cell of the one before into five and keeps
    the others, so only the new cells next to 0 are integrated: the row
    is [new cell sums | previous row without its first cell].  At level 0
    all 11 cells are new and ``previous`` has no cells.
    """
    return np.concatenate((new, previous[:, 1:]), axis=1)


def _pieces(f: FunctionSpec, lo: np.ndarray, hi: np.ndarray):
    """Split intervals (lo[i], hi[i]) into pieces of the base input's domain.

    Returns (owner, piece lo, piece hi, errors).  Under an even extension
    an interval straddling 0 folds into two origin-anchored pieces and any
    other into its mirror image or itself.  Every other interval is one
    piece.  Piece q belongs to interval owner[q], and an interval's pieces
    are listed in the order its total adds them: left to right, a
    straddle's mirrored part first.  errors maps the intervals that cannot
    be split, or that leave a table's data, to their RhiError.
    """
    n = len(lo)
    base, errors = f, {}
    if isinstance(f, EvenExtensionView):
        base = f.base
        right = lo >= 0.0
        left = ~right & (hi <= 0.0)
        straddle = np.flatnonzero(~right & ~left)
        owner = np.concatenate((np.arange(n), straddle))
        first_lo = np.where(right, lo, np.where(left, -hi, 0.0))
        lo, hi = (
            np.concatenate((first_lo, np.zeros(len(straddle)))),
            np.concatenate((np.where(right, hi, -lo), hi[straddle])),
        )
    else:
        inside = lo >= 0.0
        owner = np.flatnonzero(inside)
        exc = DomainError("interval extends below 0; wrap the input in EvenExtensionView first")
        errors = dict.fromkeys(np.flatnonzero(~inside).tolist(), exc)
        lo, hi = lo[inside], hi[inside]
    if not isinstance(base, SampledTable):
        return owner, lo, hi, errors

    dom_lo, dom_hi = base.domain
    out = (lo < dom_lo) | (hi > dom_hi)
    for q in np.flatnonzero(out).tolist():
        errors.setdefault(
            int(owner[q]),
            DataError(
                f"interval ({lo[q]:g}, {hi[q]:g}) leaves the table range"
                f" [{dom_lo:g}, {dom_hi:g}]; no extrapolation is performed"
            ),
        )
    return owner[~out], lo[~out], hi[~out], errors


class _Order:
    """One order's state in a pass: per interval its tolerance, last value
    and whether it still refines, and the cell sums its origin-anchored
    pieces keep from their last level (zq lists those pieces, in the order
    of zcells' rows).
    """

    def __init__(self, base: FunctionSpec, order: float, n: int, tol, tighten, errors, zq) -> None:
        self.order = order
        self.p = _substitution_exponent(base.zero_power_exponent(order))
        self.errors = errors
        self.tols = np.full(n, tol)
        self.loose = np.full(n, tighten)
        self.values, self.diffs = np.zeros(n), np.zeros(n)
        self.previous = np.full(n, math.nan)  # NaN until an interval has a level
        self.failed = np.zeros(n, dtype=bool)
        self.failed[list(errors)] = True
        self.active = ~self.failed
        self.zq, self.zcells = zq, np.zeros((len(zq), 0))
        # Per level: the distinct pieces needed, their integrals, and the
        # next level's zcells with how many of its rows are filled.
        self.needed = self.distinct = self.next = None
        self.taken = 0

    def keep(self, mesh: _Mesh, q: np.ndarray, rows, weighted: np.ndarray) -> None:
        """Store the integrals of the distinct pieces q[rows] at this level
        from their weighted node values; origin-anchored pieces arrive in
        the order of zq.
        """
        sums = _sums(mesh, weighted)
        if mesh.kind == "zero":
            k = slice(self.taken, self.taken + len(sums))
            self.taken += len(sums)
            self.next[k] = _zero_anchored_rows(sums, self.zcells[k])
        else:
            self.distinct[q[rows]] = sums

    def fail(self, failed: np.ndarray, exc: RhiError) -> None:
        self.errors.update(dict.fromkeys(failed.tolist(), exc))
        self.failed[failed] = True
        self.active[failed] = False

    def settle(self, owner: np.ndarray, integrals: np.ndarray, lengths: np.ndarray) -> None:
        """Take a level's piece integrals and end the intervals that converge or fail."""
        n = len(lengths)
        # bincount adds each interval's pieces to 0 one at a time, in the
        # order they are listed.
        totals = np.bincount(owner, weights=integrals, minlength=n)
        finite = np.ones(n, dtype=bool)
        finite[owner[~np.isfinite(integrals)]] = False

        act = np.flatnonzero(self.active)
        total, ok = totals[act], finite[act]
        self.fail(act[~ok], NumericError("integrand overflowed during quadrature"))
        self.fail(
            act[ok & (total <= 0.0)],
            DomainError("mean undefined: integral of f**order is not positive"),
        )
        # Near the subnormal floor the panel sums carry almost no mantissa;
        # a mean built from them looks plausible but is rounding noise, so
        # refuse rather than return it.
        self.fail(
            act[ok & (total > 0.0) & (total < 1e-300)],
            NumericError("integral of f**order underflows double range"),
        )
        good = ok & (total >= 1e-300)
        act, total = act[good], total[good]
        # math, not numpy: np.log and np.exp can differ from these in the
        # last bit, which would move every reported value.
        logs = [math.log(t) for t in (total / lengths[act]).tolist()]
        with np.errstate(over="ignore"):  # an overflow fails below, as > 700
            exponent = np.array(logs) / self.order
        self.fail(act[exponent > 700.0], NumericError("mean overflows double range"))
        self.fail(act[exponent < -700.0], NumericError("mean underflows double range"))
        inside = np.abs(exponent) <= 700.0
        act, exponent = act[inside], exponent[inside]
        value = np.array([math.exp(e) for e in exponent.tolist()])
        diff = np.abs(value - self.previous[act])  # NaN, so never converged, at level 0
        scale = 1.0 + np.abs(value)
        tols = self.tols
        tightened = (diff <= tols[act] * scale) & self.loose[act] & (value < 1.0)
        t = act[tightened]
        self.loose[t] = False
        tols[t] *= value[tightened]
        self.fail(t[~(tols[t] > 0.0)], DomainError("tolerance must lie in (0, 1)"))
        done = (diff <= tols[act] * scale) & self.active[act]
        self.values[act[done]], self.diffs[act[done]] = value[done], diff[done]
        self.active[act[done]] = False
        self.previous[act] = value


def _means(f: FunctionSpec, lo, hi, orders, tol: float, tighten: bool):
    """Adaptive means of each order in orders over every interval (lo[i], hi[i]) at once.

    Every interval refines level by level, at most _QUAD_MAX_LEVELS of
    them, until two successive levels agree to tol * (1 + |value|), each
    order on its own.  With tighten, an interval whose mean converges
    below 1 has its tolerance scaled by that mean and continues from the
    level it reached; the tighter test cannot pass at an earlier level, so
    it ends where a restart from level 0 would.  The first order leads:
    from the level after its mean of an interval fails, the other orders
    do no more work on that interval.

    Returns, per order, (values, diffs, errors): per-interval means and
    last-level differences, and the RhiError each failed interval would
    raise.
    """
    base = f.base if isinstance(f, EvenExtensionView) else f
    n = len(lo)
    owner, plo, phi, found = _pieces(f, lo, hi)

    def initial_errors(order: float) -> dict[int, RhiError]:
        errors = dict(found)
        s = base.zero_power_exponent(order)
        if s is not None and s <= -1.0:
            exc = DomainError(f"f**{order:g} behaves like x**{s:g} at 0 and is not summable")
            for i in owner[plo == 0.0].tolist():
                errors.setdefault(i, exc)
        if order < 0.0 and not base.strictly_positive:
            exc = DomainError("negative-order mean of a table containing zero values")
            errors.update((i, exc) for i in range(n) if i not in errors)
        return errors

    if isinstance(base, SampledTable):
        # One piece per window that is left: tables have no origin piece.
        # The orders share the windows' geometry; a table order fails on
        # every window before its means are taken or on none.
        dropped = np.zeros(n, dtype=bool)
        dropped[list(found)] = True
        keep = ~dropped[owner]
        results = [(np.zeros(n), np.zeros(n), initial_errors(order)) for order in orders]
        live = [k for k, (_, _, errors) in enumerate(results) if len(errors) < n]
        means = _table_means(base, plo[keep], phi[keep], [orders[k] for k in live])
        for k, (got, failed) in zip(live, means):
            values, _, errors = results[k]
            values[owner[keep]] = got
            for i, exc in failed.items():
                errors.setdefault(int(owner[keep][i]), exc)
        return results

    # Equal pieces are integrated once: piece q's integral is that of
    # distinct piece uid[q].  lexsort sorts -0.0 with 0.0, and both start
    # an origin-anchored piece, whose integral depends on its right end only.
    by_ends = np.lexsort((phi, plo))
    ulo, uhi = plo[by_ends], phi[by_ends]
    new = np.ones(len(ulo), dtype=bool)
    new[1:] = (ulo[1:] != ulo[:-1]) | (uhi[1:] != uhi[:-1])
    uid = np.empty(len(ulo), dtype=np.intp)
    uid[by_ends] = np.cumsum(new) - 1
    ulo, uhi = ulo[new], uhi[new]

    # Pieces with the same rule and cell count form one rectangular block.
    zero = ulo == 0.0
    with np.errstate(divide="ignore"):
        geometric = ~zero & (uhi / ulo > 10.0)
    masks = {"zero": zero, "geo": geometric, "lin": ~zero & ~geometric}
    blocks = {kind: np.flatnonzero(m) for kind, m in masks.items() if m.any()}
    zq = blocks.get("zero", np.zeros(0, dtype=np.intp))
    passes = [
        _Order(base, order, n, tol, tighten, initial_errors(order), zq)
        for order in orders
    ]
    lead = passes[0]
    lengths = hi - lo
    # Orders whose f**order is the default power of evaluate share one
    # evaluation of f at their shared nodes.
    shared = type(base).power_values is FunctionSpec.power_values

    for level in range(_QUAD_MAX_LEVELS):
        for o in passes[1:]:
            o.active &= ~lead.failed
        live = [o for o in passes if o.active.any()]
        if not live:
            break
        for o in live:
            # A distinct piece is needed while any interval owning it refines.
            o.needed = np.zeros(len(ulo), dtype=bool)
            o.needed[uid[o.active[owner]]] = True
            o.distinct = np.zeros(len(ulo))
            keep = o.needed[o.zq]
            o.zq, o.zcells, o.taken = o.zq[keep], o.zcells[keep], 0
            cells = _cells("zero", level) + max(o.zcells.shape[1] - 1, 0)
            o.next = np.empty((len(o.zq), cells))
        for kind, qs in blocks.items():
            # Orders with the same substitution exponent share their nodes.
            by_p: dict[float, list[_Order]] = {}
            for o in live:
                by_p.setdefault(o.p if kind == "zero" else 1.0, []).append(o)
            for p, same in by_p.items():
                mesh = _mesh(kind, level, p)
                for group in [same] if shared else [[o] for o in same]:
                    _integrate(base, mesh, qs, ulo, uhi, group)
        for o in live:
            if len(o.zq):
                o.zcells = o.next
                with np.errstate(over="ignore"):
                    o.distinct[o.zq] = np.sum(o.zcells, axis=1)
            o.settle(owner, o.distinct[uid], lengths)

    for o in passes:
        for i in np.flatnonzero(o.active).tolist():
            o.errors[i] = QuadratureError(
                f"mean of order {o.order:g} over ({lo[i]:g}, {hi[i]:g})"
                f" did not reach tol={o.tols[i]:g} within {_QUAD_MAX_LEVELS} refinement levels"
            )
    return [(o.values, o.diffs, o.errors) for o in passes]


def _integrate(base: FunctionSpec, mesh: _Mesh, qs, ulo, uhi, group) -> None:
    """One level of the pieces qs on a mesh for a group of orders.

    A piece is integrated for an order only while that order needs it.
    The pieces any order of the group needs are cut into chunks of at
    most _NODE_BUDGET nodes.  A chunk builds its nodes once; an order
    alone calls f.power_values on its rows, several orders share one
    f.evaluate and each raises its rows to its own power.
    """
    need = group[0].needed if len(group) == 1 else np.any([o.needed for o in group], axis=0)
    qs = qs[need[qs]]
    step = max(1, _NODE_BUDGET // (16 * mesh.cells))
    # Deliberately quiet: an overflowing cell makes its row's total
    # non-finite, which fails its interval with a clearer message than the
    # warning.  divide fires when a deep exp tail underflows to 0 under a
    # negative order, and invalid when a node x = T * u**p underflows to 0
    # where f**order is infinite (0 * inf); both are handled the same way.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, len(qs), step):
            q = qs[start : start + step]
            x, weights = _nodes(mesh, ulo[q], uhi[q])
            if len(group) == 1:
                [o] = group
                vals = base.power_values(x.ravel(), o.order).reshape(x.shape)
                del x
                o.keep(mesh, q, slice(None), _weigh(mesh, weights, vals))
                continue
            fx = base.evaluate(x.ravel()).reshape(x.shape)
            del x
            for o in group:
                rows = o.needed[q]
                if rows.all():
                    rows = slice(None)
                elif not rows.any():
                    continue
                vals = np.power(fx[rows], o.order)
                o.keep(mesh, q, rows, _weigh(mesh, weights[rows], vals, out=vals))


def _bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([iv.lo for iv in intervals], dtype=float),
        np.array([iv.hi for iv in intervals], dtype=float),
    )


def quad_mean(
    f: FunctionSpec,
    interval: Interval,
    order: float,
    tol: float = 1e-10,
) -> MeanValue:
    """Power mean of f over an interval by adaptive composite quadrature.

    The result satisfies |value - true| <= tol * (1 + |true|) up to the
    reliability of the two-level error estimate; the achieved estimate is
    returned.  On an origin-anchored piece a new level splits only the
    cell next to 0 into five and reuses the other cell sums, so the
    estimate measures the cells next to 0 only and is blind to a feature
    of f farther right.  QuadratureError is raised when the level budget,
    _QUAD_MAX_LEVELS levels, runs out before the tolerance is met.
    """
    if order == 0.0 or not math.isfinite(order):
        raise DomainError("mean order must be nonzero and finite")
    if not (0.0 < tol < 1.0):
        raise DomainError("tolerance must lie in (0, 1)")
    [(values, diffs, errors)] = _means(f, *_bounds([interval]), (order,), tol, False)
    if errors:
        raise errors[0]
    return MeanValue(float(values[0]), order, interval, float(diffs[0]))


def _ratios(f, lo, hi, pair, tol) -> tuple[np.ndarray, dict[int, RhiError]]:
    """M_beta / M_alpha over intervals (lo[i], hi[i]), -inf where it fails,
    and the RhiError of each failed interval.

    One pass takes both means, the beta mean leading.  Alpha work on an
    interval is done while its alpha mean refines and its beta mean has
    not failed at an earlier level: an interval whose beta mean fails at
    a level gets alpha work up to that level and none after, and fails
    with the beta mean's error.  Any other interval fails with its alpha
    mean's error, if it has one.
    """
    if not (0.0 < tol < 1.0):
        raise DomainError("tolerance must lie in (0, 1)")
    orders = (pair.beta, pair.alpha)
    (beta, _, errors), (alpha, _, failed) = _means(f, lo, hi, orders, tol / 3.0, True)
    for i, exc in failed.items():
        errors.setdefault(i, exc)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = beta / alpha
    ratios[list(errors)] = -math.inf
    return ratios, errors


def _scored_ratios(f, lo: np.ndarray, hi: np.ndarray, pair, tol) -> np.ndarray:
    """mean_ratios over the intervals (lo[i], hi[i]); each must be finite with lo < hi."""
    ratios, errors = _ratios(f, lo, hi, pair, tol)
    for exc in errors.values():
        if not isinstance(exc, (DomainError, NumericError, QuadratureError)):
            raise exc
    return ratios


def mean_ratio(
    f: FunctionSpec,
    interval: Interval,
    pair: ExponentPair,
    tol: float = 1e-9,
) -> float:
    """M_beta / M_alpha over one interval, accurate to ~tol relatively.

    Each mean gets tol/3 as its mixed tolerance, rescaled by the mean's
    own magnitude when that is below 1, so the ratio keeps relative
    accuracy even when the means themselves are far from 1.  For valid
    inputs the result is >= 1 - tol.
    """
    ratios, errors = _ratios(f, *_bounds([interval]), pair, tol)
    if errors:
        raise errors[0]
    return float(ratios[0])


def mean_ratios(
    f: FunctionSpec,
    intervals,
    pair: ExponentPair,
    tol: float = 1e-9,
) -> np.ndarray:
    """mean_ratio over many intervals in one pass, equal to it bit for bit.

    An interval whose mean_ratio would raise DomainError, NumericError or
    QuadratureError scores -inf; any other error, such as a window
    leaving a table's data, is raised.
    """
    return _scored_ratios(f, *_bounds(intervals), pair, tol)

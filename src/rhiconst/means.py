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

A pass computes the means of one order over a batch of intervals: all
intervals advance a level together, and the pieces of the intervals still
refining are integrated in rectangular blocks of one rule and cell count
(origin-anchored pieces share their u-mesh and differ only in scale).
Equal pieces in a pass are integrated once per level, while any interval
owning them still refines, and the integral is handed to each owner; the
straddles (-eps*b, b) of one b all share (0, b).  A block is cut into
chunks of at most _NODE_BUDGET new nodes per integrand call, which bounds
memory whatever the batch size.  Each piece is summed on its own (an
origin-anchored piece sums each cell's nodes, then its cell sums in cell
order, so its integral depends only on its right end, the level, the
order and the exponent s), an interval's pieces are added in order, and
each interval keeps the scalar convergence test, so a mean does not
depend on the batch it is in; quad_mean and mean_ratio are batches of
one, mean_ratios scores many intervals at once.  A ratio runs
the beta pass first and the alpha pass only on the intervals whose beta
mean exists.  mean_ratio asks each mean for tol/3 and, for a mean below
1, for tol/3 times that mean: such a mean continues from the level it
reached under the tighter test instead of starting over, which ends at
the same level with the same value, because a tighter test cannot pass
earlier.

Sampled tables are not integrated numerically.  The interpolant is linear
between knots, so a window splits at every knot inside it and each
stretch of width h from value u to value v integrates in closed form,

    integral of f**r = h * u**r * phi((r+1)*L) / phi(L),
    L = log(v/u),  phi(z) = expm1(z)/z,

which stays exact as v -> u and at r = -1 (see _stretch_integrals).
Each window adds its own stretches from its left end; no window integral
is a difference of cumulative sums, which cancels catastrophically when
the window's terms are small next to the ones before it.  Table means
have no quadrature error, so tol and max_levels do not apply to them.

0**r is treated as 0 for r > 0.  For r < 0 it is inadmissible and the
entry points reject the configurations that would produce it.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

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
    """Load a SampledTable from a CSV file with header ``x,f``."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read table file {path!r}: {exc}") from exc
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


def _gl_weighted(fo, edges: np.ndarray) -> np.ndarray:
    """Gauss-Legendre on the cells of each row of ``edges``: the weighted
    node values, shape (rows, cells, 16).  Nodes stay strictly interior.
    """
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    # Deliberately quiet: an overflowing cell makes its row's total
    # non-finite, which fails its interval with a clearer message than the
    # warning.  divide fires when a deep exp tail underflows to 0 under a
    # negative order and is handled the same way.  The products are taken
    # in place so that few node-sized arrays are alive at once.
    with np.errstate(over="ignore", divide="ignore"):
        vals = fo((mid[:, :, None] + half[:, :, None] * _GL_NODES).ravel())
        weighted = half[:, :, None] * _GL_WEIGHTS
        weighted *= vals.reshape(weighted.shape)
        return weighted


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


def _zero_anchored_cells(fo, his: np.ndarray, s: float | None, edges: np.ndarray) -> np.ndarray:
    """Integrals of f**order over the pieces (0, his[i]) restricted to the
    u-cells of ``edges``, shape (rows, cells).

    Each cell's 16 weighted nodes are summed on their own, so a cell's
    integral depends only on its edges, the right end and s.
    """
    p = _substitution_exponent(s)
    with np.errstate(over="ignore", divide="ignore"):
        if p == 1.0:
            weighted = _gl_weighted(fo, his[:, None] * edges)
        else:
            # x = hi * u**p: the u-mesh is shared, only the scale differs per row.
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            u = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
            weighted = (p * his)[:, None] * u ** (p - 1.0)
            weighted *= fo((his[:, None] * u**p).ravel()).reshape(weighted.shape)
            weighted *= (half[:, None] * _GL_WEIGHTS).ravel()
        return np.sum(weighted.reshape(len(his), len(edges) - 1, 16), axis=2)


def _zero_anchored_rows(
    fo, his: np.ndarray, s: float | None, level: int, previous: np.ndarray
) -> np.ndarray:
    """Cell sums of the pieces (0, his[i]) at a level, from those of the level before.

    A level splits the first cell of the one before into five and keeps
    the others, so only the new cells next to 0 are integrated: the row
    is [new cell sums | previous row without its first cell].  At level 0
    all 11 cells are new and ``previous`` has no cells.
    """
    new = _zero_edges(level)[: _cells("zero", level) + 1]
    return np.concatenate((_zero_anchored_cells(fo, his, s, new), previous[:, 1:]), axis=1)


def _cells(kind: str, level: int) -> int:
    # Cells a piece integrates at a level: its whole mesh, except that an
    # origin-anchored piece only integrates the cells new next to 0.
    if kind == "zero":
        return 5 if level else 11
    return 16 << level


def _piece_integrals(fo, kind: str, lo, hi, level: int) -> np.ndarray:
    """Integrals over linear or geometric pieces (lo[i], hi[i]), one per row.

    Each row is summed over its own contiguous block, so its total does
    not depend on the other rows.
    """
    space = np.geomspace if kind == "geo" else np.linspace
    weighted = _gl_weighted(fo, space(lo, hi, _cells(kind, level) + 1, axis=1))
    with np.errstate(over="ignore"):
        return np.sum(weighted.reshape(len(lo), -1), axis=1)


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


def _stretch_integrals(u: np.ndarray, v: np.ndarray, h: np.ndarray, order: float) -> np.ndarray:
    """Exact integral of f**order where f runs linearly from u to v over width h.

    The closed form h * (v**(r+1) - u**(r+1)) / ((r+1) * (v - u)) is taken
    as h * b**r * phi((r+1)*L) / phi(L), phi(z) = expm1(z)/z, with b the
    larger end when r >= -1 and the smaller one otherwise, and
    L = log(other end / b): then (r+1)*L <= 0, so neither phi overflows
    and their quotient is at most 1.  It stays exact as u -> v and at
    r = -1.  A zero end (possible only for r > 0) gives h * b**r / (r+1).
    The callers scale the values so that b**r <= 1.
    """
    if order >= -1.0:
        b, other = np.maximum(u, v), np.minimum(u, v)
    else:
        b, other = np.minimum(u, v), np.maximum(u, v)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        lg = np.log(other / b)
        z = (order + 1.0) * lg
        quotient = np.where(z == 0.0, 1.0, np.expm1(z) / z) / np.where(
            lg == 0.0, 1.0, np.expm1(lg) / lg
        )
        if order > 0.0:
            quotient = np.where(other == 0.0, 1.0 / (order + 1.0), quotient)
        return h * b**order * quotient


def _table_scale(table: SampledTable, order: float) -> float:
    # The largest value for order > 0 and the smallest for order < 0: every
    # scaled stretch term is then at most its width.
    return float(table.fs.max() if order > 0.0 else table.fs.min())


def _knot_integrals(table: SampledTable, order: float) -> tuple[float, np.ndarray]:
    """(scale, terms): the integral of f**order from knot k to knot k+1 is
    scale**order * terms[k].

    scale is _table_scale, so no term overflows; a term more than about
    1e-300 below scale**order underflows.
    """
    scale = _table_scale(table, order)
    with np.errstate(invalid="ignore"):  # an all-zero table scales to NaN
        u, v = table.fs[:-1] / scale, table.fs[1:] / scale
    return scale, _stretch_integrals(u, v, np.diff(table.xs), order)


def _scaled_window_sums(table: SampledTable, lo: np.ndarray, hi: np.ndarray, order: float):
    """_window_sums with each window scaled by its own largest (order > 0)
    or smallest (order < 0) value, so its largest term is not small.

    Costs one term per stretch of every window; the fallback for windows
    whose terms are tiny at the table's scale.
    """
    xs, fs = table.xs, table.fs
    # Window w has count[w] stretches; its stretch j ends at knot
    # first[w] + j, its last one at hi instead.
    first = np.searchsorted(xs, lo, "right")
    count = np.searchsorted(xs, hi, "left") - first + 1
    starts = np.cumsum(count) - count
    w = np.repeat(np.arange(len(lo)), count)
    j = np.arange(len(w)) - starts[w]
    k = first[w] + j
    last = j == count[w] - 1
    x0 = np.where(j == 0, lo[w], xs[k - 1])
    x1 = np.where(last, hi[w], xs[k])
    u = np.where(j == 0, np.interp(lo, xs, fs)[w], fs[k - 1])
    v = np.where(last, np.interp(hi, xs, fs)[w], fs[k])
    pick = np.maximum if order > 0.0 else np.minimum
    scales = pick.reduceat(pick(u, v), starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = _stretch_integrals(u / scales[w], v / scales[w], x1 - x0, order)
    # bincount adds each window's stretches to 0 one at a time, left to right.
    return scales, np.bincount(w, weights=terms, minlength=len(lo))


def _window_sums(table: SampledTable, lo: np.ndarray, hi: np.ndarray, order: float):
    """(scales, sums): the integral of f**order over window i is
    scales[i]**order * sums[i], exact up to rounding.

    A window is its left end stretch (lo to its first inner knot), the
    whole stretches between its inner knots and its right end stretch; a
    window inside one gap is its left end stretch alone.  The whole
    stretches are added by a cumulative sum that starts at the window's
    first inner knot, shared by the windows that start in the same gap,
    so every window sums positive terms from its own left end and none is
    a difference of cumulative sums.  Terms use the table's scale; a
    window whose sum is too small there to keep full precision is summed
    again at its own scale.
    """
    xs, fs = table.xs, table.fs
    n = len(lo)
    scale = _table_scale(table, order)
    first = np.searchsorted(xs, lo, "right")
    last = np.searchsorted(xs, hi, "left") - 1
    wide = first <= last
    k0 = int(first.min())
    k1 = max(k0, int(last.max()))
    flo, fhi = np.interp(lo, xs, fs), np.interp(hi, xs, fs)
    # The whole stretches k0..k1-1, then every window's left and right end
    # stretch; the right end of a window inside one gap has width 0.
    x0 = np.concatenate((xs[k0:k1], lo, np.where(wide, xs[last], hi)))
    x1 = np.concatenate((xs[k0 + 1 : k1 + 1], np.where(wide, xs[first], hi), hi))
    u = np.concatenate((fs[k0:k1], flo, np.where(wide, fs[last], fhi)))
    v = np.concatenate((fs[k0 + 1 : k1 + 1], np.where(wide, fs[first], fhi), fhi))
    with np.errstate(invalid="ignore"):  # an all-zero table scales to NaN
        terms = _stretch_integrals(u / scale, v / scale, x1 - x0, order)
    m = k1 - k0
    inner = np.zeros(n)
    for f0 in sorted(set(first[first < last].tolist())):
        rows = np.flatnonzero((first == f0) & (last > f0))
        running = np.cumsum(terms[f0 - k0 : int(last[rows].max()) - k0])
        inner[rows] = running[last[rows] - f0 - 1]
    sums = (terms[m : m + n] + inner) + terms[m + n :]
    scales = np.full(n, scale)
    # A sum this far below its width may have lost terms to underflow.
    small = ~(sums >= 1e-200 * (hi - lo))
    if small.any():
        scales[small], sums[small] = _scaled_window_sums(table, lo[small], hi[small], order)
    return scales, sums


def _table_means(table: SampledTable, lo: np.ndarray, hi: np.ndarray, order: float):
    """Exact means of one order over table windows (lo[i], hi[i]).

    Every window lies inside the data.  Returns (values, errors) like
    _means.  numpy's elementwise functions give each element the same bits
    whatever the array length, so a mean does not depend on the batch it
    is in.
    """
    if not len(lo):
        return np.zeros(0), {}
    scales, sums = _window_sums(table, lo, hi, order)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponent = np.log(sums / (hi - lo)) / order
        log_mean = np.log(scales) + exponent
        values = np.where(
            np.abs(exponent) < 700.0, scales * np.exp(exponent), np.exp(log_mean)
        )
    undefined = ~((scales > 0.0) & (sums > 0.0))
    errors = dict.fromkeys(
        np.flatnonzero(undefined).tolist(),
        DomainError("mean undefined: integral of f**order is not positive"),
    )
    for failed, exc in (
        (log_mean > 700.0, NumericError("mean overflows double range")),
        (log_mean < -700.0, NumericError("mean underflows double range")),
    ):
        errors.update(dict.fromkeys(np.flatnonzero(failed & ~undefined).tolist(), exc))
    return values, errors


def _means(f: FunctionSpec, lo, hi, order: float, tol: float, tighten: bool, max_levels: int):
    """Adaptive means of one order over every interval (lo[i], hi[i]) at once.

    Every interval refines level by level until two successive levels
    agree to tol * (1 + |value|).  With tighten, an interval whose mean
    converges below 1 has its tolerance scaled by that mean and continues
    from the level it reached; the tighter test cannot pass at an earlier
    level, so it ends where a restart from level 0 would.

    Returns (values, diffs, errors): per-interval means and last-level
    differences, and the RhiError each failed interval would raise.
    """
    base = f.base if isinstance(f, EvenExtensionView) else f
    n = len(lo)
    owner, plo, phi, errors = _pieces(f, lo, hi)
    s = base.zero_power_exponent(order)
    if s is not None and s <= -1.0:
        exc = DomainError(f"f**{order:g} behaves like x**{s:g} at 0 and is not summable")
        for i in owner[plo == 0.0].tolist():
            errors.setdefault(i, exc)
    if order < 0.0 and not base.strictly_positive:
        exc = DomainError("negative-order mean of a table containing zero values")
        errors.update((i, exc) for i in range(n) if i not in errors)

    if isinstance(base, SampledTable):
        # One piece per window that is left: tables have no origin piece.
        dropped = np.zeros(n, dtype=bool)
        dropped[list(errors)] = True
        keep = ~dropped[owner]
        values = np.zeros(n)
        found, failed = _table_means(base, plo[keep], phi[keep], order)
        values[owner[keep]] = found
        errors.update((int(owner[keep][i]), exc) for i, exc in failed.items())
        return values, np.zeros(n), errors

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
    # Origin-anchored pieces keep the cell sums of their last level: zq
    # lists those still needed, in the order of zcells' rows.
    zero = ulo == 0.0
    with np.errstate(divide="ignore"):
        geometric = ~zero & (uhi / ulo > 10.0)
    masks = {"geo": geometric, "lin": ~zero & ~geometric}
    blocks = {kind: np.flatnonzero(m) for kind, m in masks.items() if m.any()}
    zq = np.flatnonzero(zero)
    zcells = np.zeros((len(zq), 0))

    lengths = hi - lo
    tols = np.full(n, tol)
    loose = np.full(n, tighten)
    values, diffs = np.zeros(n), np.zeros(n)
    previous = np.full(n, math.nan)  # NaN until an interval has a level
    active = np.ones(n, dtype=bool)
    active[list(errors)] = False

    def fo(x: np.ndarray) -> np.ndarray:
        return base.power_values(x, order)

    def fail(failed: np.ndarray, exc: RhiError) -> None:
        errors.update(dict.fromkeys(failed.tolist(), exc))
        active[failed] = False

    for level in range(max_levels):
        if not active.any():
            break
        # A distinct piece is needed while any interval owning it refines.
        needed = np.zeros(len(ulo), dtype=bool)
        needed[uid[active[owner]]] = True
        distinct = np.zeros(len(ulo))
        keep = needed[zq]
        zq, zcells = zq[keep], zcells[keep]
        if len(zq):
            step = max(1, _NODE_BUDGET // (16 * _cells("zero", level)))
            chunks = [
                _zero_anchored_rows(fo, uhi[zq[i : i + step]], s, level, zcells[i : i + step])
                for i in range(0, len(zq), step)
            ]
            zcells = np.concatenate(chunks)
            with np.errstate(over="ignore"):
                distinct[zq] = np.sum(zcells, axis=1)
        for kind, qs in blocks.items():
            qs = qs[needed[qs]]
            step = max(1, _NODE_BUDGET // (16 * _cells(kind, level)))
            for start in range(0, len(qs), step):
                q = qs[start : start + step]
                distinct[q] = _piece_integrals(fo, kind, ulo[q], uhi[q], level)
        integrals = distinct[uid]

        # bincount adds each interval's pieces to 0 one at a time, in the
        # order they are listed.
        totals = np.bincount(owner, weights=integrals, minlength=n)
        finite = np.ones(n, dtype=bool)
        finite[owner[~np.isfinite(integrals)]] = False

        act = np.flatnonzero(active)
        total, ok = totals[act], finite[act]
        fail(act[~ok], NumericError("integrand overflowed during quadrature"))
        fail(
            act[ok & (total <= 0.0)],
            DomainError("mean undefined: integral of f**order is not positive"),
        )
        # Near the subnormal floor the panel sums carry almost no mantissa;
        # a mean built from them looks plausible but is rounding noise, so
        # refuse rather than return it.
        fail(
            act[ok & (total > 0.0) & (total < 1e-300)],
            NumericError("integral of f**order underflows double range"),
        )
        good = ok & (total >= 1e-300)
        act, total = act[good], total[good]
        # math, not numpy: np.log and np.exp can differ from these in the
        # last bit, which would move every reported value.
        logs = [math.log(t) for t in (total / lengths[act]).tolist()]
        exponent = np.array(logs) / order
        fail(act[exponent > 700.0], NumericError("mean overflows double range"))
        fail(act[exponent < -700.0], NumericError("mean underflows double range"))
        inside = np.abs(exponent) <= 700.0
        act, exponent = act[inside], exponent[inside]
        value = np.array([math.exp(e) for e in exponent.tolist()])
        diff = np.abs(value - previous[act])  # NaN, so never converged, at level 0
        scale = 1.0 + np.abs(value)
        tightened = (diff <= tols[act] * scale) & loose[act] & (value < 1.0)
        t = act[tightened]
        loose[t] = False
        tols[t] *= value[tightened]
        fail(t[~(tols[t] > 0.0)], DomainError("tolerance must lie in (0, 1)"))
        done = (diff <= tols[act] * scale) & active[act]
        values[act[done]], diffs[act[done]] = value[done], diff[done]
        active[act[done]] = False
        previous[act] = value

    for i in np.flatnonzero(active).tolist():
        errors[i] = QuadratureError(
            f"mean of order {order:g} over ({lo[i]:g}, {hi[i]:g})"
            f" did not reach tol={tols[i]:g} within {max_levels} refinement levels"
        )
    return values, diffs, errors


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
    max_levels: int = 12,
) -> MeanValue:
    """Power mean of f over an interval by adaptive composite quadrature.

    The result satisfies |value - true| <= tol * (1 + |true|) up to the
    reliability of the two-level error estimate; the achieved estimate is
    returned.  On an origin-anchored piece a new level splits only the
    cell next to 0 into five and reuses the other cell sums, so the
    estimate measures the cells next to 0 only and is blind to a feature
    of f farther right.  QuadratureError is raised when the level budget
    runs out before the tolerance is met.
    """
    if order == 0.0 or not math.isfinite(order):
        raise DomainError("mean order must be nonzero and finite")
    if not (0.0 < tol < 1.0):
        raise DomainError("tolerance must lie in (0, 1)")
    values, diffs, errors = _means(f, *_bounds([interval]), order, tol, False, max_levels)
    if errors:
        raise errors[0]
    return MeanValue(float(values[0]), order, interval, float(diffs[0]))


def _ratios(f, lo, hi, pair, tol, max_levels) -> tuple[np.ndarray, dict[int, RhiError]]:
    if not (0.0 < tol < 1.0):
        raise DomainError("tolerance must lie in (0, 1)")
    # The beta mean comes first: an interval fails with the beta mean's
    # error when it has one, and only the others get an alpha pass.
    ratios, _, errors = _means(f, lo, hi, pair.beta, tol / 3.0, True, max_levels)
    live = np.ones(len(lo), dtype=bool)
    live[list(errors)] = False
    rest = np.flatnonzero(live)
    alpha, _, failed = _means(f, lo[rest], hi[rest], pair.alpha, tol / 3.0, True, max_levels)
    errors.update((int(rest[i]), exc) for i, exc in failed.items())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios[rest] /= alpha
    ratios[list(errors)] = -math.inf
    return ratios, errors


def _scored_ratios(f, lo: np.ndarray, hi: np.ndarray, pair, tol, max_levels) -> np.ndarray:
    """mean_ratios over the intervals (lo[i], hi[i]); each must be finite with lo < hi."""
    ratios, errors = _ratios(f, lo, hi, pair, tol, max_levels)
    for exc in errors.values():
        if not isinstance(exc, (DomainError, NumericError, QuadratureError)):
            raise exc
    return ratios


def mean_ratio(
    f: FunctionSpec,
    interval: Interval,
    pair: ExponentPair,
    tol: float = 1e-9,
    max_levels: int = 12,
) -> float:
    """M_beta / M_alpha over one interval, accurate to ~tol relatively.

    Each mean gets tol/3 as its mixed tolerance, rescaled by the mean's
    own magnitude when that is below 1, so the ratio keeps relative
    accuracy even when the means themselves are far from 1.  For valid
    inputs the result is >= 1 - tol.
    """
    ratios, errors = _ratios(f, *_bounds([interval]), pair, tol, max_levels)
    if errors:
        raise errors[0]
    return float(ratios[0])


def mean_ratios(
    f: FunctionSpec,
    intervals,
    pair: ExponentPair,
    tol: float = 1e-9,
    max_levels: int = 12,
) -> np.ndarray:
    """mean_ratio over many intervals in one pass, equal to it bit for bit.

    An interval whose mean_ratio would raise DomainError, NumericError or
    QuadratureError scores -inf; any other error, such as a window
    leaving a table's data, is raised.
    """
    return _scored_ratios(f, *_bounds(intervals), pair, tol, max_levels)

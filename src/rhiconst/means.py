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
quadratically.  Every origin-anchored piece of a level and p uses one
shared u-mesh, graded geometrically toward 0 (_mesh): its nodes are
T * u**p, and its weights p * u**(p-1) times the Gauss weights are one
constant per mesh, so a cell's integral is T times the sum of its 16
weighted values.  Other pieces get a linear or geometric mesh depending
on the endpoint ratio.  The mesh is refined by whole levels and the error
estimate is the difference between the last two levels.  Linear and
geometric meshes double at each level and are integrated afresh.  A new
origin-anchored level splits only the first u-cell, the one next to 0,
into five and integrates those: its piece keeps a single running sum, of
its cells other than the first, adds the four new cells after the first
to it, and the new first cell to that for the level's integral
(_origin_sums).  Its error estimate therefore measures the cells next to
0 only; a feature farther right is never refined.  Inputs never get
evaluated at panel edges, only at interior Gauss nodes, so an endpoint
blowup of f itself is harmless.

A pass computes the means of one or more orders over a batch of
intervals: it splits and de-duplicates the pieces once, all intervals
advance a level together with every order, and the pieces of the
intervals still refining are integrated in rectangular blocks of one rule
and cell count.  Equal pieces are integrated once per level and order,
while any interval owning them still refines that order, and the integral
is handed to each owner; the straddles (-eps*b, b) of one b all share
(0, b).  A block is cut into chunks of at most _NODE_BUDGET new nodes per
integrand call, which bounds memory whatever the batch size.  Orders with
the same substitution exponent p build each chunk's nodes once, and the
input decides how f**r is taken there, on one of three paths:

* "log", when the input overrides log_values (AffinePower): the orders
  share one log f and each takes f**r = exp(r * log f).  log_values gets
  the chunk's Nodes: on origin-anchored pieces the right ends T and the
  mesh, elsewhere np.log(x).  From them it takes log x, as log T +
  p * log u where x itself may underflow, or a * x**g, as
  (a * T**g) * u**(p*g) with the last factor once per mesh and g, which
  leaves log f of a * x**g + c one log per node, and a value that a
  factor of it would take out of range to a * exp(g * log x);
* "evaluate", when f**r is the default power of f.evaluate (ExpDecay):
  the orders share one f.evaluate and raise it to each order, while an
  order alone calls power_values;
* "power", otherwise (PowerLaw folds its exponents): each order calls
  power_values on chunks of its own pieces.

Each piece is summed on its own (an origin-anchored piece reduces each
new cell's 16 weighted values with one einsum and adds the cell sums to
its running sum in a fixed order, so its integral depends only on its
right end, the level, the order and the exponent s), an interval's pieces
are added in order, and each interval keeps the scalar convergence test
for each order; a failing interval gets the error of the first check it
fails, and an error is built only for a check that some interval fails.
Totals become means by whole-array np.log and np.exp, and every
transcendental call gets a contiguous array, so numpy takes the same
vector path in a batch as alone: a mean depends neither on the batch it
is in nor on the other orders of its pass.  quad_mean and mean_ratio are
batches of one, mean_ratios scores many intervals at once.

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
import functools
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

    def log_values(self, nodes: Nodes) -> np.ndarray:
        """log f at quadrature nodes, one row per piece as nodes holds them.

        The default composes evaluate with exp and log.  Subclasses that
        know log f in closed form override this: the quadrature then takes
        every order's f**order as exp(order * log f), from nodes.log() or
        nodes.scaled_power(), which stay in range on the shared mesh of
        origin-anchored pieces, where x itself may underflow.
        """
        x = np.exp(nodes.log())
        return np.log(self.evaluate(x.ravel())).reshape(x.shape)

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

    def log_values(self, nodes: Nodes) -> np.ndarray:
        if self.offset == 0.0:
            return math.log(self.scale) + self.gamma * nodes.log()
        # In place: few node-sized arrays are alive at once.
        f = nodes.scaled_power(self.scale, self.gamma)
        f += self.offset
        return np.log(f, out=f)

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

    Origin-anchored pieces share their u-mesh.  Under x = T * u**p a
    piece's nodes are T * up and their logs log T + logup, and its cell
    integrals are T times the sums of its values weighted by ``weights``,
    p * u**(p-1) times the Gauss weights, one row of 16 per cell.  Linear
    and geometric pieces share only their cell count.
    """

    kind: str
    cells: int
    level: int | None = None
    p: float = 1.0
    up: np.ndarray | None = None
    logup: np.ndarray | None = None
    weights: np.ndarray | None = None


@functools.lru_cache(maxsize=4 * _QUAD_MAX_LEVELS)
def _mesh(kind: str, level: int, p: float = 1.0) -> _Mesh:
    """The mesh of the cells a piece of ``kind`` integrates at a level: for
    origin-anchored pieces, the cells new next to 0.  The meshes of a pass
    (two values of p and the two other kinds, at each level) stay cached,
    their arrays read-only.
    """
    if kind != "zero":
        return _Mesh(kind, _cells(kind, level))
    return _zero_mesh(_zero_edges(level)[: _cells(kind, level) + 1], p)._replace(level=level)


def _zero_mesh(edges: np.ndarray, p: float) -> _Mesh:
    """The mesh shared by origin-anchored pieces on the u-cells of edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = mid[:, None] + half[:, None] * _GL_NODES
    weights = p * u ** (p - 1.0) * (half[:, None] * _GL_WEIGHTS)
    mesh = _Mesh("zero", len(edges) - 1, None, p, (u**p).ravel(), p * np.log(u).ravel(), weights)
    for shared in mesh[4:]:
        shared.setflags(write=False)
    return mesh


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@functools.lru_cache(maxsize=8 * _QUAD_MAX_LEVELS)
def _mesh_powers(level: int, p: float, g: float):
    """u**(p*g) at the nodes of the origin-anchored mesh of a level and p,
    as exp(g * logup), read-only, and the nodes where it is no normal
    double (such as g < 0 next to 0 at large p), None if there are none.
    """
    with np.errstate(over="ignore"):  # an overflow is outside, like an underflow
        powers = np.exp(g * _mesh("zero", level, p).logup)
    outside = np.flatnonzero(~((powers >= _TINY) & (powers <= _HUGE)))
    powers.setflags(write=False)
    return powers, (outside if len(outside) else None)


def _outer(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """t[i] * v[j] for every row i: one product per entry, as a broadcast
    multiply gives it, but einsum takes fewer passes over the entries."""
    return np.einsum("r,n->rn", t, v)


def _exp_power(a: float, g: float, logx: np.ndarray) -> np.ndarray:
    """a * exp(g * logx) as a new array."""
    f = np.multiply(logx, g)
    np.exp(f, out=f)
    f *= a
    return f


class Nodes(NamedTuple):
    """Quadrature nodes as FunctionSpec.log_values receives them: one row
    of abscissae x per piece.

    The rows of origin-anchored pieces are x = t * u**p, with t the
    piece's right end and u**p one row of the mesh they share; any other
    rows hold log x itself.
    """

    logx: np.ndarray | None = None
    t: np.ndarray | None = None
    mesh: _Mesh | None = None

    def log(self) -> np.ndarray:
        """log x, as log t + p * log u on a shared mesh; not to be written to."""
        if self.mesh is None:
            return self.logx
        return np.log(self.t)[:, None] + self.mesh.logup

    def scaled_power(self, a: float, g: float) -> np.ndarray:
        """a * x**g as a new array: a * exp(g * log x), except on a shared
        mesh, where it is (a * t**g) * u**(p*g) with the second factor
        computed once per mesh and g.  Where either factor is no normal
        double, a node takes a * exp(g * log x) instead, so that a value
        in range stays in range.
        """
        if self.mesh is None:
            return _exp_power(a, g, self.logx)
        logup = self.mesh.logup
        powers, outside = _mesh_powers(self.mesh.level, self.mesh.p, g)
        scale = a * np.power(self.t, g)
        f = _outer(scale, powers)
        if outside is not None:
            f[:, outside] = _exp_power(a, g, np.log(self.t)[:, None] + logup[outside])
        if not (_TINY <= scale.min() and scale.max() <= _HUGE):
            wide = (scale < _TINY) | (scale > _HUGE)
            f[wide] = _exp_power(a, g, np.log(self.t[wide])[:, None] + logup)
        return f


def _nodes(mesh: _Mesh, lo, hi: np.ndarray, log: bool = False):
    """Gauss nodes of the pieces (lo[i], hi[i]) on a mesh, or for pieces
    that are not origin-anchored their logs, one row of cells * 16 per
    piece, and the rows' Gauss weights, None for origin-anchored pieces,
    whose weights are the mesh's.

    Nodes stay strictly interior.  An origin-anchored piece ignores lo.
    """
    if mesh.kind == "zero":
        return _outer(hi, mesh.up), None
    space = np.geomspace if mesh.kind == "geo" else np.linspace
    edges = space(lo, hi, mesh.cells + 1, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    rows = len(edges)
    x = (mid[:, :, None] + half[:, :, None] * _GL_NODES).reshape(rows, -1)
    weights = (half[:, :, None] * _GL_WEIGHTS).reshape(rows, -1)
    return (np.log(x) if log else x), weights


def _sums(mesh: _Mesh, hi: np.ndarray, weights, vals: np.ndarray) -> np.ndarray:
    """Integrals of pieces from rows of their node values and what _nodes
    returns: per cell for an origin-anchored piece, shape (rows, cells), so
    that a cell's integral depends only on its edges, the right end and p;
    over the whole row for any other piece.

    An origin-anchored row's cells are reduced by einsum, 16 nodes against
    the mesh's weights, and then scaled by the row's right end; no row's
    sums depend on the other rows.  (A matmul would not do: its BLAS
    small-matrix paths can change the bits with the row count.)
    """
    if mesh.kind == "zero":
        cells = np.einsum("rck,ck->rc", vals.reshape(len(vals), mesh.cells, 16), mesh.weights)
        cells *= hi[:, None]
        return cells
    return np.sum(weights * vals, axis=1)


def _origin_sums(rest: np.ndarray, cells: np.ndarray):
    """An origin-anchored level's running sums, from the cell sums of its
    new cells and rest, the sum its pieces keep of their other cells.

    A level splits the first cell of the one before into five and keeps
    the others, so only the new cells next to 0 are integrated.  The new
    cells after the first are added to each other from 0 outward and
    then to rest, which gives the next rest; the first cell is added to
    that last, which gives the level's integral.  At level 0 all 11 cells
    are new and rest is 0.
    """
    added = cells[:, 1]
    for k in range(2, cells.shape[1]):
        added = added + cells[:, k]
    rest = rest + added
    return rest, cells[:, 0] + rest


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
    and whether it still refines; per distinct piece the level's integral
    and, for an origin-anchored piece, the running sum of its cells other
    than the first (_origin_sums).
    """

    def __init__(self, base: FunctionSpec, order: float, n: int, tol, tighten, errors, pieces: int) -> None:
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
        # Per distinct piece: whether an interval owning it still refines,
        # its integral at the last level and its running sum.
        self.needed = None
        self.distinct, self.rest = np.zeros(pieces), np.zeros(pieces)

    def keep(self, mesh: _Mesh, q: np.ndarray, rows, sums: np.ndarray) -> None:
        """Store the integrals of the distinct pieces q[rows] at this level from what _sums gives."""
        q = q[rows]
        if mesh.kind == "zero":
            self.rest[q], sums = _origin_sums(self.rest[q], sums)
        self.distinct[q] = sums

    def fail(self, failed: np.ndarray, exc: RhiError) -> None:
        self.errors.update(dict.fromkeys(failed.tolist(), exc))
        self.failed[failed] = True
        self.active[failed] = False

    def settle(self, owner: np.ndarray, integrals: np.ndarray, lengths: np.ndarray) -> None:
        """Take a level's piece integrals and end the intervals that converge or fail."""
        # bincount adds each interval's pieces to 0 one at a time, in the
        # order they are listed.
        totals = np.bincount(owner, weights=integrals, minlength=len(lengths))
        act = np.flatnonzero(self.active)
        total = totals[act]
        # A total or mean out of range fails below; see _fail_out_of_range.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            exponent = np.log(total / lengths[act]) / self.order
        inside = (total >= 1e-300) & (np.abs(exponent) <= 700.0)
        if not inside.all():
            out = ~inside
            self._fail_out_of_range(act[out], total[out], exponent[out], owner, integrals)
            act, exponent = act[inside], exponent[inside]
        value = np.exp(exponent)
        diff = np.abs(value - self.previous[act])  # NaN, so never converged, at level 0
        scale = 1.0 + value
        tols = self.tols
        done = diff <= tols[act] * scale
        tightened = done & self.loose[act] & (value < 1.0)
        if tightened.any():
            t = act[tightened]
            self.loose[t] = False
            tols[t] *= value[tightened]
            lost = t[~(tols[t] > 0.0)]
            if len(lost):
                self.fail(lost, DomainError("tolerance must lie in (0, 1)"))
            done = (diff <= tols[act] * scale) & self.active[act]
        ended = act[done]
        self.values[ended], self.diffs[ended] = value[done], diff[done]
        self.active[ended] = False
        self.previous[act] = value

    def _fail_out_of_range(self, act, total, exponent, owner, integrals) -> None:
        """Fail the intervals act, whose totals or means left range, each
        with the error of the first check it fails.  An interval whose
        total is finite has only finite pieces, so a non-finite piece is
        looked for only here.
        """
        broken = np.zeros(len(self.active), dtype=bool)
        broken[owner[~np.isfinite(integrals)]] = True
        # Near the subnormal floor the panel sums carry almost no mantissa;
        # a mean built from them looks plausible but is rounding noise, so
        # it is refused rather than returned.
        checks = (
            (broken[act], NumericError, "integrand overflowed during quadrature"),
            (total <= 0.0, DomainError, "mean undefined: integral of f**order is not positive"),
            (total < 1e-300, NumericError, "integral of f**order underflows double range"),
            (exponent > 700.0, NumericError, "mean overflows double range"),
            (exponent < -700.0, NumericError, "mean underflows double range"),
        )
        left = np.ones(len(act), dtype=bool)
        for hit, error, message in checks:
            hit &= left
            if hit.any():
                self.fail(act[hit], error(message))
                left &= ~hit


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
    passes = [
        _Order(base, order, n, tol, tighten, initial_errors(order), len(ulo))
        for order in orders
    ]
    lead, others = passes[0], passes[1:]
    for o in others:
        o.active &= ~lead.failed
    lengths = hi - lo
    # Orders share one evaluation of log f at their shared nodes when the
    # input knows log f, or one of f when their f**order is the default
    # power of evaluate; otherwise each order calls power_values.
    if type(base).log_values is not FunctionSpec.log_values:
        path = "log"
    elif type(base).power_values is FunctionSpec.power_values:
        path = "evaluate"
    else:
        path = "power"

    for level in range(_QUAD_MAX_LEVELS):
        live = [o for o in passes if o.active.any()]
        if not live:
            break
        for o in live:
            # A distinct piece is needed while any interval owning it refines.
            o.needed = np.zeros(len(ulo), dtype=bool)
            o.needed[uid[o.active[owner]]] = True
        for kind, qs in blocks.items():
            # Orders with the same substitution exponent share their nodes.
            by_p: dict[float, list[_Order]] = {}
            for o in live:
                by_p.setdefault(o.p if kind == "zero" else 1.0, []).append(o)
            for p, same in by_p.items():
                mesh = _mesh(kind, level, p)
                for group in [[o] for o in same] if path == "power" else [same]:
                    _integrate(base, mesh, qs, ulo, uhi, group, path)
        failures = len(lead.errors)
        for o in live:
            o.settle(owner, o.distinct[uid], lengths)
        if len(lead.errors) > failures:
            for o in others:
                o.active &= ~lead.failed

    for o in passes:
        for i in np.flatnonzero(o.active).tolist():
            o.errors[i] = QuadratureError(
                f"mean of order {o.order:g} over ({lo[i]:g}, {hi[i]:g})"
                f" did not reach tol={o.tols[i]:g} within {_QUAD_MAX_LEVELS} refinement levels"
            )
    return [(o.values, o.diffs, o.errors) for o in passes]


def _integrate(base: FunctionSpec, mesh: _Mesh, qs, ulo, uhi, group, path: str) -> None:
    """One level of the pieces qs on a mesh for a group of orders.

    A piece is integrated for an order only while that order needs it.
    The pieces any order of the group needs are cut into chunks of at
    most _NODE_BUDGET nodes.  A chunk builds its nodes once.  On the "log"
    path the group shares one f.log_values and each order takes exp of its
    multiple of it; on the "evaluate" path several orders share one
    f.evaluate and each raises its rows to its own power, while an order
    alone calls f.power_values, as every order does on the "power" path.
    Every transcendental call gets a contiguous array, so numpy takes the
    same vector path whatever the batch.
    """
    need = group[0].needed
    for o in group[1:]:
        need = need | o.needed
    qs = qs[need[qs]]
    step = max(1, _NODE_BUDGET // (16 * mesh.cells))
    # Deliberately quiet: an overflowing cell makes its row's total
    # non-finite, which fails its interval with a clearer message than the
    # warning.  divide fires when a deep exp tail underflows to 0 under a
    # negative order, and invalid when a node x = T * u**p, or its weight,
    # underflows to 0 where f**order is infinite (0 * inf); both are
    # handled the same way.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, len(qs), step):
            q = qs[start : start + step]
            hi = uhi[q]
            if path == "log" and mesh.kind == "zero":
                fx, weights = base.log_values(Nodes(t=hi, mesh=mesh)), None
            elif path == "log":
                logx, weights = _nodes(mesh, ulo[q], hi, log=True)
                fx = base.log_values(Nodes(logx))
                del logx
            else:
                x, weights = _nodes(mesh, ulo[q], hi)
                if len(group) == 1:
                    [o] = group
                    vals = base.power_values(x.ravel(), o.order).reshape(x.shape)
                    del x
                    o.keep(mesh, q, slice(None), _sums(mesh, hi, weights, vals))
                    continue
                fx = base.evaluate(x.ravel()).reshape(x.shape)
                del x
            for o in group:
                rows = slice(None)
                if len(group) > 1:
                    rows = o.needed[q]
                    if rows.all():
                        rows = slice(None)
                    elif not rows.any():
                        continue
                if path == "log":
                    vals = np.multiply(fx[rows], o.order)
                    np.exp(vals, out=vals)
                else:
                    vals = np.power(fx[rows], o.order)
                row_weights = None if weights is None else weights[rows]
                o.keep(mesh, q, rows, _sums(mesh, hi[rows], row_weights, vals))


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

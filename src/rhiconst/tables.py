"""Exact means of sampled tables, and the knot-pair scan their search starts from.

A table is a means.SampledTable: strictly increasing positive abscissae
xs and nonnegative values fs, joined linearly.  This module reads only
those two arrays, so it depends on nothing but numpy and core.

Sampled tables are not integrated numerically.  The interpolant is linear
between knots, so a window splits at every knot inside it and each
stretch of width h from value u to value v integrates in closed form,

    integral of f**r = h * u**r * phi((r+1)*L) / phi(L),
    L = log(v/u),  phi(z) = expm1(z)/z,

which stays exact as v -> u and at r = -1.  Every such integral is taken
as a log, from the logs of u, v and h (_stretch_log_integrals), so no
stretch is lost however far its values lie outside double range.  Each
window adds its own stretches from its left end; no window integral is a
difference of cumulative sums, which cancels catastrophically when the
window's terms are small next to the ones before it.  The whole stretches
between knots are the knot terms of _knot_terms, taken once per table and
order; a pass takes only its windows' end stretches per order.  Table
means have no quadrature error, so tol and the level budget do not apply
to them.

Log terms are taken at the table's scale, its largest value for a positive
order and its smallest for a negative one, so that no term exceeds its
width.  One rule, _log_sums, sums them for the means and for the scan
alike: linearly, as exp of the log terms, and by np.logaddexp.accumulate
(_log_accumulate) in a row whose sums fall below _SMALL_SUM, where terms
may have underflowed.  A mean is exp of its log, and fails only when that
log leaves double range.

A table's search gets no reduction: every window between two knots is
ranked (_scan_knot_pairs), and the best knot pairs are then polished
with both ends free inside the neighbouring stretches (_knot_seeds) by
the search engine of generic.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .core import DomainError, ExponentPair, NumericError

# A sum at the table's scale below this may have lost terms to underflow.
_SMALL_SUM = 1e-200

# Most knot pairs held at once by the exhaustive scan, or one row of knot
# pairs if it is longer.
_SCAN_BLOCK = 1 << 14

# Knot pairs kept by the scan for the polish, and seeds per stretch
# beside each polished knot (the knot included).
_POLISH_PAIRS = 16
_POLISH_SEEDS = 5


def _phi(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z, 1 at z = 0."""
    return np.where(z == 0.0, 1.0, np.expm1(z) / z)


def _stretch_log_integrals(lu: np.ndarray, lv: np.ndarray, lh: np.ndarray, order: float):
    """log of the exact integral of f**order where f runs linearly from u
    to v over width h, from lu = log u, lv = log v and lh = log h.

    The closed form h * (v**(r+1) - u**(r+1)) / ((r+1) * (v - u)) is taken
    as h * b**r * phi((r+1)*L) / phi(L), phi(z) = expm1(z)/z, with b the
    larger end when r >= -1 and the smaller one otherwise, and
    L = log(other end) - log b: then (r+1)*L <= 0, so phi((r+1)*L) is at
    most 1, and phi(L) = exp(L) * phi(-L) keeps L > 0 from overflowing.
    It stays exact as u -> v and at r = -1.  A zero end (possible only
    for r > 0) gives log h + r * log b - log1p(r).
    """
    if order >= -1.0:
        lb, lother = np.maximum(lu, lv), np.minimum(lu, lv)
    else:
        lb, lother = np.minimum(lu, lv), np.maximum(lu, lv)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = lother - lb
        quotient = np.log(_phi((order + 1.0) * lg) / _phi(-np.abs(lg))) - np.maximum(lg, 0.0)
        if order > 0.0:
            quotient = np.where(lother == -np.inf, -math.log1p(order), quotient)
        return lh + order * lb + quotient


@functools.lru_cache(maxsize=8)
def _knot_terms(table, order: float):
    """(log scale, log terms): term k is the log of the integral of
    (f/scale)**order from knot k to knot k+1, and the term after the last
    stretch is -inf, which pads the rows of _row_stretches.

    scale is the table's largest value for order > 0 and its smallest for
    order < 0, so no term exceeds the log of its width.  Cached per table
    (a table hashes by identity) and order: a search takes the same
    table's means many times.  An all-zero table has NaN terms.
    """
    fs = table.fs
    with np.errstate(divide="ignore", invalid="ignore"):
        lf = np.log(fs)
        scale = float(np.max(lf) if order > 0.0 else np.min(lf))
        lf = lf - scale
        terms = _stretch_log_integrals(lf[:-1], lf[1:], np.log(np.diff(table.xs)), order)
    terms = np.append(terms, -np.inf)
    terms.setflags(write=False)
    return scale, terms


def _log_accumulate(terms: np.ndarray) -> np.ndarray:
    """Cumulative log sums along the last axis, one term at a time."""
    return np.logaddexp.accumulate(terms, axis=-1)


def _log_sums(terms: np.ndarray) -> np.ndarray:
    """Logs of the cumulative sums of exp(terms) along the last axis.

    This is the one rule by which a table sum stays in range.  The terms
    are logs at the table's scale, none above the log of its width, so
    their exps are summed linearly; a row any of whose sums is below
    _SMALL_SUM may have lost terms to underflow and is summed by
    _log_accumulate instead, O(length) per row.  A row's sums grow along
    it, so whether it is summed in logs depends on its first term alone,
    not on how far it runs.
    """
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        sums = np.cumsum(np.exp(terms), axis=-1)
        logs = np.log(sums)
        small = ~(sums[..., 0] >= _SMALL_SUM)
        if small.any():
            logs[small] = _log_accumulate(terms[small])
    return logs


def _row_stretches(starts: np.ndarray, length: int, m: int) -> np.ndarray:
    """Row i holds the length stretches from knot starts[i] on, of a table
    of m stretches; past the last one it holds m, the knot terms' -inf pad.
    """
    return np.minimum(starts[:, None] + np.arange(length), m)


class _Windows(NamedTuple):
    """The geometry of table windows, which every order's sums share.

    ends holds (lu, lv, lh): stretch k runs over width exp(lh[k]) from
    value exp(lu[k]) to value exp(lv[k]), every window's left end stretch
    first, then every window's right end stretch.  inner marks the
    windows with two or more inner knots, and rows holds a row of
    stretches (_row_stretches) from each of their first inner knots: the
    whole stretches of the k-th such window are its row up to element
    last[k] of rows.ravel().
    """

    ends: tuple
    rows: np.ndarray
    inner: np.ndarray
    last: np.ndarray


def _windows(table, lo: np.ndarray, hi: np.ndarray) -> _Windows:
    """The _Windows of the windows (lo[i], hi[i]) inside the data.

    A window is its left end stretch (lo to its first inner knot), the
    whole stretches between its inner knots and its right end stretch; a
    window inside one gap is its left end stretch alone, and its right end
    stretch has width 0.
    """
    xs, fs = table.xs, table.fs
    first = np.searchsorted(xs, lo, "right")
    last = np.searchsorted(xs, hi, "left") - 1
    wide = first <= last
    flo, fhi = np.interp(lo, xs, fs), np.interp(hi, xs, fs)
    x0 = np.concatenate((lo, np.where(wide, xs[last], hi)))
    x1 = np.concatenate((np.where(wide, xs[first], hi), hi))
    u = np.concatenate((flo, np.where(wide, fs[last], fhi)))
    v = np.concatenate((np.where(wide, fs[first], fhi), fhi))
    with np.errstate(divide="ignore"):
        ends = (np.log(u), np.log(v), np.log(x1 - x0))
    inner = first < last
    first, count = first[inner], last[inner] - first[inner]
    starts = np.array(sorted(set(first.tolist())), dtype=np.intp)
    length = int(np.max(count, initial=0))
    rows = _row_stretches(starts, length, len(xs) - 1)
    return _Windows(ends, rows, inner, np.searchsorted(starts, first) * length + count - 1)


def _window_log_sums(table, windows: _Windows, order: float):
    """(log scale, log sums): the integral of f**order over window i is
    exp(order * log scale + sums[i]), exact up to rounding.

    The whole stretches are the knot terms (_knot_terms), added from the
    window's first inner knot in a row shared by the windows that start
    in the same gap, so every window sums its own terms from its left end
    and none is a difference of cumulative sums.  Then each window adds
    its left end stretch, those whole stretches and its right end stretch,
    in that order.  Both sums go through _log_sums.
    """
    scale, terms = _knot_terms(table, order)
    lu, lv, lh = windows.ends
    with np.errstate(invalid="ignore"):  # an all-zero table has scale -inf
        ends = _stretch_log_integrals(lu - scale, lv - scale, lh, order)
    n = len(windows.inner)
    whole = np.full(n, -np.inf)
    if windows.rows.size:
        whole[windows.inner] = _log_sums(terms[windows.rows]).ravel()[windows.last]
    return scale, _log_sums(np.stack((ends[:n], whole, ends[n:]), axis=1))[:, -1]


def _table_means(table, lo: np.ndarray, hi: np.ndarray, orders):
    """Exact means of each order over table windows (lo[i], hi[i]).

    Every window lies inside the data.  Returns (values, errors) per
    order, like means._means.  The windows' geometry is built once for
    all orders.  numpy's elementwise functions give each element the same
    bits whatever the array length, and the table alone sets the scale of
    every sum, so a mean does not depend on the batch it is in.
    """
    windows = _windows(table, lo, hi)
    log_width = np.log(hi - lo)
    found = []
    for order in orders:
        scale, sums = _window_log_sums(table, windows, order)
        with np.errstate(invalid="ignore", over="ignore"):
            log_mean = scale + (sums - log_width) / order
            values = np.exp(log_mean)
        undefined = ~(sums > -np.inf)
        errors = dict.fromkeys(
            np.flatnonzero(undefined).tolist(),
            DomainError("mean undefined: integral of f**order is not positive"),
        )
        for failed, exc in (
            (log_mean > 700.0, NumericError("mean overflows double range")),
            (log_mean < -700.0, NumericError("mean underflows double range")),
        ):
            errors.update(dict.fromkeys(np.flatnonzero(failed & ~undefined).tolist(), exc))
        found.append((values, errors))
    return found


def _scan_knot_pairs(table, pair: ExponentPair):
    """Rank every window between two knots by its log mean ratio.

    Row i holds the windows (xs[i], xs[j]) for j > i; their integrals are
    the cumulative sums (_log_sums) of the knot terms (_knot_terms) from
    knot i on, so every sum starts at its window's left knot and adds
    positive terms.  A table none of whose windows can be ranked raises
    NumericError.  Rows are taken in blocks of at most _SCAN_BLOCK pairs,
    or one row if it is longer.  Returns the _POLISH_PAIRS best (i, j),
    best first, and the number of pairs scored.
    """
    xs, m = table.xs, len(table.xs) - 1
    ca, ta = _knot_terms(table, pair.alpha)
    cb, tb = _knot_terms(table, pair.beta)
    # log(M_beta / M_alpha) = shift + log(S_b)/beta - log(S_a)/alpha
    #                         + (1/alpha - 1/beta) * log(width)
    shift = cb - ca
    tilt = 1.0 / pair.alpha - 1.0 / pair.beta
    best = np.zeros(0)
    best_i, best_j = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    r0 = 0
    while r0 < m:
        rows = np.arange(r0, min(m, r0 + max(1, _SCAN_BLOCK // (m - r0))))
        # Column c of row i is the window (xs[i], xs[k + 1]), k = i + c.
        k = _row_stretches(rows, m - r0, m)
        inside = k < m
        width = xs[np.minimum(k + 1, m)] - xs[rows][:, None]
        sa, sb = _log_sums(ta[k]), _log_sums(tb[k])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            score = sb / pair.beta - sa / pair.alpha + shift + tilt * np.log(width)
        score[~inside | np.isnan(score)] = -math.inf
        top = np.argpartition(score, -min(_POLISH_PAIRS, score.size), axis=None)
        top = top[-_POLISH_PAIRS:]
        ri, cj = np.unravel_index(top, score.shape)
        best = np.concatenate((best, score[ri, cj]))
        best_i = np.concatenate((best_i, rows[ri]))
        best_j = np.concatenate((best_j, k[ri, cj] + 1))
        keep = np.lexsort((best_j, best_i, -best))[:_POLISH_PAIRS]
        best, best_i, best_j = best[keep], best_i[keep], best_j[keep]
        r0 = int(rows[-1]) + 1
    found = np.isfinite(best)
    if not found.any():
        raise NumericError("no window of the table has finite means")
    return list(zip(best_i[found].tolist(), best_j[found].tolist())), m * (m + 1) // 2


def _knot_seeds(xs: np.ndarray, k: int) -> np.ndarray:
    """Seeds over the stretches on both sides of knot k, the knot included."""
    parts = [np.array([xs[k]])]
    if k > 0:
        parts.insert(0, np.linspace(xs[k - 1], xs[k], _POLISH_SEEDS)[:-1])
    if k + 1 < len(xs):
        parts.append(np.linspace(xs[k], xs[k + 1], _POLISH_SEEDS)[1:])
    return np.concatenate(parts)

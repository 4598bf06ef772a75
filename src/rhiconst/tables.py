"""Exact means of sampled tables, and the knot-pair scan their search starts from.

A table is a means.SampledTable: strictly increasing positive abscissae
xs and nonnegative values fs, joined linearly.  This module reads only
those two arrays, so it depends on nothing but numpy and core.

Sampled tables are not integrated numerically.  The interpolant is linear
between knots, so a window splits at every knot inside it and each
stretch of width h from value u to value v integrates in closed form,

    integral of f**r = h * u**r * phi((r+1)*L) / phi(L),
    L = log(v/u),  phi(z) = expm1(z)/z,

which stays exact as v -> u and at r = -1 (see _stretch_integrals).
Each window adds its own stretches from its left end; no window integral
is a difference of cumulative sums, which cancels catastrophically when
the window's terms are small next to the ones before it.  A pass finds
the windows' end stretches once for all its orders and takes only their
terms per order; the whole stretches between knots are the knot terms of
_knot_integrals.  Table means have no quadrature error, so tol and the
level budget do not apply to them.

Terms are taken at the table's scale, its largest value for a positive
order and its smallest for a negative one, so that none overflows.  A
window whose sum at that scale is below _SMALL_SUM times its width may
have lost terms to underflow.  One rule, _resum_small, sums such windows
again at their own scale, for the means and for the scan alike.

A table's search gets no reduction: every window between two knots is
ranked (_scan_knot_pairs), and the best knot pairs are then polished
with both ends free inside the neighbouring stretches (_knot_seeds) by
the search engine of generic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import DomainError, ExponentPair, NumericError

# A window sum this far below the window's width may have lost terms to
# underflow at the table's scale.
_SMALL_SUM = 1e-200

# Most knot pairs held at once by the exhaustive scan, or one row of knot
# pairs if it is longer; also the most stretches summed at once by
# _resum_small, or one window if it is longer.
_SCAN_BLOCK = 1 << 14

# Knot pairs kept by the scan for the polish, and seeds per stretch
# beside each polished knot (the knot included).
_POLISH_PAIRS = 16
_POLISH_SEEDS = 5


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


def _knot_integrals(table, order: float, knots=slice(None), ends=((), (), ())):
    """(scale, terms): the integral of f**order from the k-th to the
    (k+1)-th of the knots selected, every knot by default, is
    scale**order * terms[k].  The terms of the stretches in ends, values
    (u, v) over widths h, follow at the same scale: a table pass then
    takes all its terms of one order in one _stretch_integrals call.

    scale is the table's largest value for order > 0 and its smallest for
    order < 0, so no term exceeds its width; a term more than about 1e-300
    below scale**order underflows.
    """
    scale = float(table.fs.max() if order > 0.0 else table.fs.min())
    xs, fs = table.xs[knots], table.fs[knots]
    u, v, h = (np.concatenate(p) for p in zip((fs[:-1], fs[1:], np.diff(xs)), ends))
    with np.errstate(invalid="ignore", over="ignore"):  # an all-zero table scales to NaN
        u, v = u / scale, v / scale
    return scale, _stretch_integrals(u, v, h, order)


def _scaled_window_sums(table, lo: np.ndarray, hi: np.ndarray, order: float):
    """(scales, sums) of the windows (lo[i], hi[i]) with each window scaled
    by its own largest (order > 0) or smallest (order < 0) value, so its
    largest term is not small.

    Costs one term per stretch of every window.
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = _stretch_integrals(u / scales[w], v / scales[w], x1 - x0, order)
    # bincount adds each window's stretches to 0 one at a time, left to right.
    return scales, np.bincount(w, weights=terms, minlength=len(lo))


def _resum_small(table, lo: np.ndarray, hi: np.ndarray, order: float, scale: float, sums):
    """(scales, sums) of the windows (lo[i], hi[i]) from their sums at the
    table's scale: the integral of f**order over window i is
    scales[i]**order * sums[i].

    This is the one underflow rule.  A window whose sum is below _SMALL_SUM
    times its width is summed again at its own scale (_scaled_window_sums),
    at most _SCAN_BLOCK stretches per call, or one window if it has more;
    every other window keeps the table's scale and its sum.  sums is
    updated in place.
    """
    xs = table.xs
    scales = np.full(len(sums), scale)
    small = np.flatnonzero(~(sums >= _SMALL_SUM * (hi - lo)))
    if not len(small):
        return scales, sums
    first = np.searchsorted(xs, lo[small], "right")
    counts = np.cumsum(np.searchsorted(xs, hi[small], "left") - first + 1)
    a = 0
    while a < len(small):
        done = int(counts[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(counts, done + _SCAN_BLOCK, "right")))
        q = small[a:b]
        scales[q], sums[q] = _scaled_window_sums(table, lo[q], hi[q], order)
        a = b
    return scales, sums


class _Windows(NamedTuple):
    """The end stretches of table windows, which every order's sums share.

    ends holds (u, v, h): stretch k runs over width h[k] from value u[k]
    to value v[k], every window's left end stretch first, then every
    window's right end stretch.  knots selects the knots from the first
    inner knot of any window to the last, whose knot terms
    (_knot_integrals) hold every whole stretch.  runs lists, per first
    inner knot where windows with two or more inner knots start, (rows,
    start, stop, at), counted in those knot terms: the whole stretches of
    those windows sum to cumsum(knot terms[start:stop])[at].
    """

    lo: np.ndarray
    hi: np.ndarray
    ends: tuple
    knots: slice
    runs: list


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
    # initial= gives a batch of no windows an empty knot range.
    k0 = int(first.min(initial=len(xs)))
    flo, fhi = np.interp(lo, xs, fs), np.interp(hi, xs, fs)
    x0 = np.concatenate((lo, np.where(wide, xs[last], hi)))
    x1 = np.concatenate((np.where(wide, xs[first], hi), hi))
    u = np.concatenate((flo, np.where(wide, fs[last], fhi)))
    v = np.concatenate((np.where(wide, fs[first], fhi), fhi))
    runs = []
    for f0 in sorted(set(first[first < last].tolist())):
        rows = np.flatnonzero((first == f0) & (last > f0))
        runs.append((rows, f0 - k0, int(last[rows].max()) - k0, last[rows] - f0 - 1))
    return _Windows(lo, hi, (u, v, x1 - x0), slice(k0, int(last.max(initial=0)) + 1), runs)


def _window_sums(table, windows: _Windows, order: float):
    """(scales, sums): the integral of f**order over window i is
    scales[i]**order * sums[i], exact up to rounding.

    The whole stretches are the knot terms of _knot_integrals, which
    takes the end stretches' terms in the same call.  They are added by a
    cumulative sum that starts at the window's first inner knot, shared by
    the windows that start in the same gap, so every window sums positive
    terms from its own left end and none is a difference of cumulative
    sums.  A window whose sum is too small at the table's scale to keep
    full precision is summed again at its own (_resum_small).
    """
    n = len(windows.lo)
    scale, terms = _knot_integrals(table, order, windows.knots, windows.ends)
    m = len(terms) - 2 * n
    inner = np.zeros(n)
    for rows, start, stop, at in windows.runs:
        inner[rows] = np.cumsum(terms[start:stop])[at]
    sums = (terms[m : m + n] + inner) + terms[m + n :]
    return _resum_small(table, windows.lo, windows.hi, order, scale, sums)


def _table_means(table, lo: np.ndarray, hi: np.ndarray, orders):
    """Exact means of each order over table windows (lo[i], hi[i]).

    Every window lies inside the data.  Returns (values, errors) per
    order, like means._means.  The windows' geometry is built once for
    all orders.  numpy's elementwise functions give each element the same
    bits whatever the array length, so a mean does not depend on the batch
    it is in.
    """
    windows = _windows(table, lo, hi)
    found = []
    for order in orders:
        scales, sums = _window_sums(table, windows, order)
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
        found.append((values, errors))
    return found


def _scan_knot_pairs(table, pair: ExponentPair):
    """Rank every window between two knots by its log mean ratio.

    Row i holds the windows (xs[i], xs[j]) for j > i; their integrals are
    cumulative sums of the knot terms (_knot_integrals) from knot i on, so
    every sum starts at its window's left knot and adds positive terms.  A
    window whose sum in either order is too small at the table's scale
    goes through _resum_small, as the means do.  A table none of whose
    windows can be ranked raises NumericError.  Rows are taken in blocks
    of at most _SCAN_BLOCK pairs, or one row if it is longer.  Returns the
    _POLISH_PAIRS best (i, j), best first, and the number of pairs scored.
    """
    xs, m = table.xs, len(table.xs) - 1
    ca, ta = _knot_integrals(table, pair.alpha)
    cb, tb = _knot_integrals(table, pair.beta)
    if not (ca > 0.0 and cb > 0.0):
        raise NumericError("no window of the table has finite means")
    # log(M_beta / M_alpha) = shift + log(S_b)/beta - log(S_a)/alpha
    #                         + (1/alpha - 1/beta) * log(width)
    shift = math.log(cb) - math.log(ca)
    tilt = 1.0 / pair.alpha - 1.0 / pair.beta
    best = np.zeros(0)
    best_i, best_j = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    r0 = 0
    while r0 < m:
        rows = np.arange(r0, min(m, r0 + max(1, _SCAN_BLOCK // (m - r0))))
        k = np.arange(r0, m)
        inside = k[None, :] >= rows[:, None]
        sa = np.cumsum(np.where(inside, ta[k], 0.0), axis=1)
        sb = np.cumsum(np.where(inside, tb[k], 0.0), axis=1)
        width = xs[k + 1][None, :] - xs[rows][:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            score = np.log(sb) / pair.beta - np.log(sa) / pair.alpha
            score += shift + tilt * np.log(width)
            redo = inside & ~(np.minimum(sa, sb) >= _SMALL_SUM * width)
            if redo.any():
                ri, cj = np.nonzero(redo)
                lo, hi = xs[rows[ri]], xs[k[cj] + 1]
                logm = []
                for order, scale, s in ((pair.alpha, ca, sa), (pair.beta, cb, sb)):
                    scales, sums = _resum_small(table, lo, hi, order, scale, s[ri, cj])
                    logm.append(np.log(scales) + np.log(sums) / order)
                score[ri, cj] = logm[1] - logm[0] + tilt * np.log(hi - lo)
        score[~inside | np.isnan(score)] = -math.inf
        top = np.argpartition(score, -min(_POLISH_PAIRS, score.size), axis=None)
        top = top[-_POLISH_PAIRS:]
        ri, cj = np.unravel_index(top, score.shape)
        best = np.concatenate((best, score[ri, cj]))
        best_i = np.concatenate((best_i, rows[ri]))
        best_j = np.concatenate((best_j, k[cj] + 1))
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

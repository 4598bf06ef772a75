"""Power means: quadrature against closed forms, symmetry, error taxonomy."""

import contextlib
import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rhiconst.core import (
    DataError,
    DomainError,
    ExponentPair,
    Interval,
    NumericError,
    QuadratureError,
)
from rhiconst import means, tables
from rhiconst.generic import estimate_halfline
from rhiconst.means import (
    AffinePower,
    EvenExtensionView,
    ExpDecay,
    FunctionSpec,
    Monotonicity,
    PowerLaw,
    SampledTable,
    mean_ratio,
    mean_ratios,
    power_mean_closed,
    quad_mean,
    table_from_csv,
)

# M_r(x^g, (0,b)) = b^g / (g r + 1)^(1/r); the frozen values below are that
# formula evaluated by hand.
M_NEG2_X04_0_2 = 0.5901018770673837  # 2^0.4 * sqrt(0.2)
RATIO_ID_1_2 = 1.0183501544346312  # sqrt(7/3) / (3/2)
CUBIC_ID_1_4 = 2.769829128377232  # (255/12)^(1/3)


def test_linear_mean_matches_closed_form():
    m = quad_mean(PowerLaw(1.0), Interval(0.0, 1.0), 1.0)
    assert math.isclose(m.value, 0.5, rel_tol=1e-12)
    assert m.abs_error_estimate <= 1e-10 * (1.0 + m.value)


def test_singular_mean_matches_closed_form():
    m = quad_mean(PowerLaw(0.4), Interval(0.0, 2.0), -2.0)
    assert math.isclose(m.value, M_NEG2_X04_0_2, rel_tol=1e-10)
    assert math.isclose(
        power_mean_closed(0.4, -2.0, 2.0), M_NEG2_X04_0_2, rel_tol=1e-14
    )


@pytest.mark.parametrize("T", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize(
    "gamma, order",
    [(-0.9, 1.0), (0.25, -2.0), (-0.5, -1.0), (1.5, 2.0)],
    ids=["s=-0.9", "s=-0.5", "s=0.5", "s=3"],
)
def test_log_space_origin_mean_matches_closed_form(gamma, order, T):
    # AffinePower with no offset takes f**order as exp(order * log f), with
    # log f = log a + gamma * log x and log x from the shared u-mesh.
    a = 2.5
    got = quad_mean(AffinePower(a, gamma, 0.0), Interval(0.0, T), order).value
    assert math.isclose(got, a * power_mean_closed(gamma, order, T), rel_tol=1e-9)


class PlainAffine(FunctionSpec):
    """An AffinePower through evaluate alone, with its declared behavior at
    0: f**order is the default power of evaluate, on the same u-mesh."""

    monotonicity = Monotonicity.UNKNOWN

    def __init__(self, f: AffinePower) -> None:
        self.f = f

    def evaluate(self, x):
        return self.f.evaluate(x)

    def zero_power_exponent(self, order):
        return self.f.zero_power_exponent(order)


@pytest.mark.parametrize("T", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize(
    "gamma, order",
    [(-0.9, 1.0), (0.25, -2.0), (-0.5, -1.0), (1.5, 2.0)],
    ids=["s=-0.9", "s=-0.5", "s=0.5", "s=3"],
)
def test_mesh_power_origin_mean_matches_evaluate(gamma, order, T):
    # AffinePower with an offset takes f at x = T * u**p as
    # a * T**gamma * u**(p*gamma) + c, the last power once per mesh.
    for a, c in ((2.5, 0.5), (0.3, 7.0)):
        f = AffinePower(a, gamma, c)
        got = quad_mean(f, Interval(0.0, T), order).value
        want = quad_mean(PlainAffine(f), Interval(0.0, T), order).value
        assert math.isclose(got, want, rel_tol=1e-13)


def test_mesh_power_falls_back_where_a_factor_leaves_double_range():
    # At the p = 40 cap and level 11, u**(p*gamma) overflows next to 0 for
    # gamma = -0.49 and underflows for gamma = 2, and at t = 1e300 so does
    # t**2.  Those nodes take a * exp(gamma * log x) bit for bit, so a value
    # in double range stays in it; the others agree with it to rounding.
    level, p = 11, 40.0
    mesh = means._mesh("zero", level, p)
    t = np.array([1e-3, 1.0, 1e3, 1e300])
    nodes = means.Nodes(t=t, mesh=mesh)
    for a, gamma in ((1.0, -0.49), (0.5, 2.0)):
        powers, outside = means._mesh_powers(level, p, gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            got = nodes.scaled_power(a, gamma)
            want = a * np.exp(gamma * nodes.log())
            scale = a * np.power(t, gamma)
        assert outside is not None
        assert got[:, outside].tolist() == want[:, outside].tolist()
        wide = ~np.isfinite(scale)
        assert wide.tolist() == [False, False, False, gamma > 0.0]
        assert got[wide].tolist() == want[wide].tolist()
        normal = (want >= np.finfo(float).tiny) & np.isfinite(want)
        assert np.allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
        # A factor alone out of range while the value is not: the fallback
        # keeps those values finite.
        with np.errstate(over="ignore", invalid="ignore"):
            product = scale[:, None] * powers
        rescued = ~np.isfinite(product) & np.isfinite(want)
        assert rescued.any()
        assert (np.isfinite(got) == np.isfinite(want)).all()


def test_mean_ratio_of_identity_on_unit_offset_interval():
    r = mean_ratio(PowerLaw(1.0), Interval(1.0, 2.0), ExponentPair(1.0, 2.0))
    assert math.isclose(r, RATIO_ID_1_2, rel_tol=1e-9)


@given(
    gamma=st.floats(-0.45, 3.0),
    lam=st.floats(0.1, 10.0),
    b=st.floats(0.2, 5.0),
)
def test_scale_covariance(gamma, lam, b):
    # M(x^g, (0, lam*b)) = lam^g * M(x^g, (0, b)) for any order.
    m1 = quad_mean(PowerLaw(gamma), Interval(0.0, b), 2.0)
    m2 = quad_mean(PowerLaw(gamma), Interval(0.0, lam * b), 2.0)
    assert math.isclose(m2.value, lam**gamma * m1.value, rel_tol=1e-8)


@given(
    gamma=st.floats(0.05, 2.0),
    lo=st.floats(0.1, 2.0),
    width=st.floats(0.1, 3.0),
)
def test_means_are_monotone_in_order(gamma, lo, width):
    pair = ExponentPair(1.0, 2.5)
    r = mean_ratio(PowerLaw(gamma), Interval(lo, lo + width), pair)
    assert r >= 1.0 - 1e-9


def test_even_extension_mirror_symmetry():
    view = EvenExtensionView(AffinePower(1.0, 1.0, 1.0))
    a = quad_mean(view, Interval(-0.3, 0.8), 2.0)
    b = quad_mean(view, Interval(-0.8, 0.3), 2.0)
    assert math.isclose(a.value, b.value, rel_tol=1e-10)


def test_even_extension_evaluates_by_reflection():
    view = EvenExtensionView(PowerLaw(2.0))
    x = np.array([-3.0, -1.0, 1.0, 3.0])
    assert np.allclose(view.evaluate(x), [9.0, 1.0, 1.0, 9.0])


def test_table_tracks_sampled_function():
    xs = np.linspace(1.0, 4.0, 301)
    tbl = SampledTable(xs, xs.copy())
    m = quad_mean(tbl, Interval(1.0, 4.0), 3.0)
    assert math.isclose(m.value, CUBIC_ID_1_4, rel_tol=1e-4)


def test_table_refuses_extrapolation():
    xs = np.linspace(1.0, 2.0, 11)
    tbl = SampledTable(xs, xs.copy())
    with pytest.raises(DataError):
        quad_mean(tbl, Interval(0.5, 1.5), 1.0)


def test_zero_values_break_negative_orders():
    xs = np.array([1.0, 2.0, 3.0])
    tbl = SampledTable(xs, np.array([1.0, 0.0, 2.0]))
    assert not tbl.strictly_positive
    with pytest.raises(DomainError):
        quad_mean(tbl, Interval(1.0, 3.0), -1.0)


def test_non_summable_origin_is_rejected():
    f = PowerLaw(-0.6)
    with pytest.raises(DomainError):
        quad_mean(f, Interval(0.0, 1.0), 2.0)  # x^-1.2 at the origin
    assert quad_mean(f, Interval(1.0, 2.0), 2.0).value > 0.0


def test_order_on_the_summability_edge_has_means_away_from_0():
    # x**-1 has s = -1 at 0: its order-1 mean is not summable there, but
    # over (1, 2) it is log 2.
    f = PowerLaw(-1.0)
    assert math.isclose(quad_mean(f, Interval(1.0, 2.0), 1.0).value, math.log(2.0), rel_tol=1e-12)
    assert mean_ratio(f, Interval(1.0, 2.0), ExponentPair(1.0, 2.0)) > 1.0
    with pytest.raises(DomainError, match="not summable"):
        quad_mean(f, Interval(0.0, 2.0), 1.0)


def test_closed_form_rejects_non_summable():
    with pytest.raises(DomainError):
        power_mean_closed(0.5, -2.0, 1.0)


class Decay(FunctionSpec):
    """exp(-x) through evaluate alone, recording the abscissae of every
    log_values call: the default log_values, one call per chunk of nodes,
    whatever orders share it."""

    monotonicity = Monotonicity.DECREASING

    def __init__(self) -> None:
        self.calls: list[np.ndarray] = []

    def evaluate(self, x):
        return np.exp(-x)

    def log_values(self, nodes):
        self.calls.append(nodes.x().copy())
        return super().log_values(nodes)


@contextlib.contextmanager
def _kept():
    """Record every _Order.keep call as (order, mesh kind, nodes): the
    nodes that the call's order integrated, 16 per cell of each piece."""
    calls = []
    keep = means._Order.keep

    def recording(self, mesh, q, rows, sums):
        calls.append((self.order, mesh.kind, len(sums) * 16 * mesh.cells))
        keep(self, mesh, q, rows, sums)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(means._Order, "keep", recording)
        yield calls


def test_mean_below_one_continues_instead_of_restarting():
    # Both means of exp(-x) over (0, 6) lie below 1, so mean_ratio tightens
    # each one's tolerance by the mean.  Continuing from the level already
    # reached must cost each order no more than one pass at the tighter
    # tolerance and give the values such a pass gives.
    f, interval, pair, tol = Decay(), Interval(0.0, 6.0), ExponentPair(1.0, 2.0), 1e-9
    with _kept() as calls:
        ratio = mean_ratio(f, interval, pair, tol)
    ratio_calls = Counter(order for order, _, _ in calls)
    tight = {}
    for order in (pair.beta, pair.alpha):
        rough = quad_mean(f, interval, order, tol / 3.0).value
        assert rough < 1.0
        with _kept() as tight_calls:
            tight[order] = quad_mean(f, interval, order, tol / 3.0 * rough).value
        assert 0 < ratio_calls[order] <= len(tight_calls)
    assert ratio == tight[pair.beta] / tight[pair.alpha]


def test_beta_mean_is_evaluated_first():
    # The order-2 mean of exp(-x) over (368, 1368) underflows at level 0.
    # That interval fails with the beta mean's error, and its alpha mean,
    # integrated beside the beta mean, gets no work after level 0.
    pair = ExponentPair(1.0, 2.0)
    batch = [Interval(368.0, 1368.0), Interval(0.0, 1.0)]
    f, alone = Decay(), Decay()
    with _kept() as kept:
        got = mean_ratios(f, batch, pair)
    assert got[0] == -math.inf and math.isfinite(got[1])
    with pytest.raises(NumericError, match=r"integral of f\*\*order underflows"):
        mean_ratio(Decay(), batch[0], pair)
    assert got[1:].tolist() == mean_ratios(alone, batch[1:], pair).tolist()
    # Both means of the other interval keep their bits.
    orders, tol = (pair.beta, pair.alpha), 1e-9 / 3.0
    with_failing = means._means(Decay(), *means._bounds(batch), orders, tol, True)
    without = means._means(Decay(), *means._bounds(batch[1:]), orders, tol, True)
    for (values, diffs, _), (want, want_diffs, _) in zip(with_failing, without):
        assert (values[1], diffs[1]) == (want[0], want_diffs[0])
    # The failing interval is the only piece far from 0: its nodes are in
    # one log_values call, of the 16 level-0 cells of its linear mesh, and
    # the alpha mean keeps that piece's integral once.
    failing = [x for x in f.calls if np.any(x > 368.0)]
    assert len(failing) == 1 and failing[0].size == 16 * 16
    assert np.all(failing[0] > 368.0)
    assert [n for order, kind, n in kept if (order, kind) == (pair.alpha, "lin")] == [16 * 16]


class Root(FunctionSpec):
    """x**-0.2 through evaluate alone.

    The singularity at 0 is not declared, so the quadrature refines it
    level by level and intervals of one family converge at different
    levels.
    """

    monotonicity = Monotonicity.UNKNOWN

    def evaluate(self, x):
        return x**-0.2


def _levels(interval: Interval, pair: ExponentPair) -> Counter:
    # Levels each order's pass reaches for the interval alone: at most two
    # pieces, both origin-anchored, so one keep per level and order.
    with _kept() as calls:
        mean_ratio(EvenExtensionView(Root()), interval, pair)
    return Counter(order for order, _, _ in calls)


def _distinct_piece_nodes(intervals, pair: ExponentPair) -> int:
    # Every piece of a straddle family is origin-anchored, so it is known by
    # its right end; it is integrated at every level reached by any interval
    # owning it, all 11 cells of 16 nodes at level 0 and the 5 new cells
    # next to 0 at each later level.
    reach: dict[tuple[float, float], int] = {}
    for iv in intervals:
        ends = {iv.hi, -iv.lo} if iv.lo < 0.0 else {iv.hi}
        for order, levels in _levels(iv, pair).items():
            for end in ends:
                reach[order, end] = max(reach.get((order, end), 0), levels)
    return sum(16 * (11 + 5 * (levels - 1)) for levels in reach.values())


def _batch_nodes(intervals, pair: ExponentPair) -> tuple[list[float], int]:
    # The ratios of a batch and the nodes that its orders integrated.
    with _kept() as calls:
        got = mean_ratios(EvenExtensionView(Root()), intervals, pair).tolist()
    return got, sum(n for _, _, n in calls)


def test_straddle_batch_integrates_each_distinct_piece_once():
    # eps = 0 gives lo = -0.0 and the single piece (0, b), shared with the
    # straddles of the same b; eps = 1 gives two equal pieces (0, b).
    pair = ExponentPair(1.0, 2.0)
    intervals = [
        Interval(-eps * b, b)
        for eps in (0.0, 0.25, 0.5, 1.0)
        for b in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    ]
    assert math.copysign(1.0, intervals[0].lo) == -1.0
    got, nodes = _batch_nodes(intervals, pair)
    ext = EvenExtensionView(Root())
    assert got == [mean_ratio(ext, iv, pair) for iv in intervals]
    assert nodes == _distinct_piece_nodes(intervals, pair) > 0


def test_shared_piece_is_integrated_until_its_last_owner_converges():
    # Both straddles own (0, 3); the second needs one beta level more.
    pair = ExponentPair(1.0, 2.0)
    intervals = [Interval(-1.5, 3.0), Interval(-0.75, 3.0)]
    first, second = (_levels(iv, pair) for iv in intervals)
    assert 0 < first[pair.beta] < second[pair.beta]
    got, nodes = _batch_nodes(intervals, pair)
    ext = EvenExtensionView(Root())
    assert got == [mean_ratio(ext, iv, pair) for iv in intervals]
    assert nodes == _distinct_piece_nodes(intervals, pair) > 0


def _running_total(row: list[float], level: int) -> float:
    # The cells of a whole mesh, in the order _origin_sums adds them: the
    # new cells after the first of each level from 0 outward, the 10 of
    # level 0 first and then the 4 of each later level, each level's onto
    # the sum of the levels before; the first cell last.
    kept = 0.0
    for k in range(level + 1):
        new = row[-10:] if k == 0 else row[1 + 4 * (level - k) : 5 + 4 * (level - k)]
        added = new[0]
        for cell in new[1:]:
            added += cell
        kept = kept + added
    return row[0] + kept


@pytest.mark.parametrize("s", [None, -0.5, 0.5], ids=["p=1", "s=-0.5", "s=0.5"])
def test_origin_anchored_level_from_the_last_equals_whole_mesh(s):
    # A level splits the first u-cell of the one before into five and keeps
    # the rest, so the cells it integrates must be the first cells of its
    # whole mesh bit for bit, and its running sums those of the whole mesh
    # added in one fixed order.
    his = np.array([1e-3, 0.7, 1.0, 3.0, 250.0])
    sizes: list[int] = []

    def fo(x):
        sizes.append(x.size)
        smooth = np.exp(-x) + 1.0 / (1.0 + x * x)
        return smooth if s is None else x**s * smooth

    p = means._substitution_exponent(s)

    def cells(mesh):
        x = means.Nodes(t=his, mesh=mesh).x()
        return means._sums(mesh, his, None, fo(x.ravel()).reshape(x.shape))

    rest = np.zeros(len(his))
    for level in range(7):
        sizes.clear()
        new = cells(means._mesh("zero", level, p))
        rest, total = means._origin_sums(rest, new)
        assert sizes == [len(his) * 16 * (11 if level == 0 else 5)]
        whole = cells(means._zero_mesh(means._zero_edges(level), p))
        assert whole.shape == (len(his), 11 + 4 * level)
        assert new.tolist() == whole[:, : new.shape[1]].tolist()
        assert total.tolist() == [_running_total(row, level) for row in whole.tolist()]


def _exact_table_mean(xs, fs, lo, hi, order):
    # f is linear between the points below, so each stretch integrates
    # f**order exactly: h * (a + b) / 2 for order 1 and
    # h * (a*a + a*b + b*b) / 3 for order 2.
    edges = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
    ends = np.interp(edges, xs, fs)
    a, b, h = ends[:-1], ends[1:], np.diff(edges)
    if order == 1.0:
        integral = np.sum(h * (a + b) / 2.0)
    else:
        integral = np.sum(h * (a * a + a * b + b * b) / 3.0)
    return (integral / (hi - lo)) ** (1.0 / order)


def test_table_windows_split_at_knots_and_integrate_exactly():
    xs = np.array([1.0, 1.5, 2.5, 3.0, 4.5, 6.0])
    tbl = SampledTable(xs, np.array([2.0, 0.5, 3.0, 1.0, 1.0, 4.0]))
    windows = [
        (1.7, 2.2),  # inside one knot gap
        (1.5, 4.5),  # from knot to knot
        (1.2, 5.1),  # between knots at both ends
        (1.0, 6.0),  # the whole table
    ]
    lo, hi = (np.array(v) for v in zip(*windows))
    # A table window is one piece: its means are closed forms, not quadrature.
    owner, plo, phi, errors = means._pieces(tbl, lo, hi)
    assert errors == {}
    assert owner.tolist() == [0, 1, 2, 3]
    assert np.array_equal(plo, lo) and np.array_equal(phi, hi)
    for order in (1.0, 2.0):
        for a, b in windows:
            got = quad_mean(tbl, Interval(a, b), order)
            exact = _exact_table_mean(xs, tbl.fs, a, b, order)
            assert math.isclose(got.value, exact, rel_tol=1e-13)
            assert got.abs_error_estimate == 0.0


def _reference_table_mean(xs, fs, lo, hi, order):
    """Power mean of the table over (lo, hi), stretch by stretch, in 60-digit
    decimal arithmetic from the closed form
    h * (v**(r+1) - u**(r+1)) / ((r+1) * (v - u)).

    The end values are np.interp's floats, as in the code under test, so
    only the integration is compared.  None when the integral is 0.
    """
    edges = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
    ends = np.interp(edges, xs, fs).tolist()
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(order)

        def power(x, p):
            return Decimal(0) if x == 0 else (p * x.ln()).exp()

        total = Decimal(0)
        for x0, x1, u, v in zip(edges[:-1].tolist(), edges[1:].tolist(), ends[:-1], ends[1:]):
            h, u, v = Decimal(x1) - Decimal(x0), Decimal(u), Decimal(v)
            if u == v:
                total += h * power(u, r)
            elif order == -1.0:
                total += h * (v.ln() - u.ln()) / (v - u)
            else:
                total += h * (power(v, r + 1) - power(u, r + 1)) / ((r + 1) * (v - u))
        if total == 0:
            return None
        return float(power(total / (Decimal(hi) - Decimal(lo)), 1 / r))


@st.composite
def _table_windows(draw):
    n = draw(st.integers(2, 10))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    xs = draw(st.floats(0.1, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    order = draw(st.floats(-50.0, 50.0).filter(lambda r: abs(r) >= 1e-3))
    # Repeated values give flat stretches; zeros are admissible for order > 0.
    # Values 10**U(-300, 300) put a table's stretches far outside double
    # range at every order.
    values = st.one_of(
        st.just(1.0), st.floats(1e-8, 1e4), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    )
    if order > 0.0:
        values = st.one_of(st.just(0.0), values)
    fs = np.array(draw(st.lists(values, min_size=n, max_size=n)))

    def endpoint():
        # A knot, or a point inside a gap.
        k = draw(st.integers(0, n - 2))
        t = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
        return float(min(xs[k] + t * (xs[k + 1] - xs[k]), xs[k + 1]))

    lo, hi = sorted((endpoint(), endpoint()))
    assume(lo < hi)
    return xs, fs, lo, hi, order


@given(_table_windows())
def test_table_means_match_exact_reference(case):
    # A mean inside double range matches the reference; one well outside
    # it (a table mean fails beyond exp(+-700)) is a numeric error.
    xs, fs, lo, hi, order = case
    tbl = SampledTable(xs, fs)
    want = _reference_table_mean(xs, fs, lo, hi, order)
    if want is None:
        with pytest.raises(DomainError, match="not positive"):
            quad_mean(tbl, Interval(lo, hi), order)
    elif 1e-300 <= want <= 1e300:
        got = quad_mean(tbl, Interval(lo, hi), order).value
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)
    elif not 1e-306 <= want <= 1e306:
        with pytest.raises(NumericError, match="double range"):
            quad_mean(tbl, Interval(lo, hi), order)


@pytest.mark.parametrize(
    "fs, window, order, want, rel_tol",
    [
        # The values 1e-100 are 1e-400 times the table's largest: divided by
        # it they would underflow to 0, and the mean come out 9.8% low.
        ([1e300, 1e-100, 1e-100], (1.9, 3.0), 0.01, 2.9747905091354436e194, 1e-12),
        # The integral of f**-2 over a linear stretch is h / (u * v), so
        # this mean is 1, although v / u leaves double range.
        ([1e-200, 1e200], (1.0, 2.0), -2.0, 1.0, 1e-13),
    ],
    ids=["below-the-scale", "beyond-double-range"],
)
def test_wide_table_means_are_exact(fs, window, order, want, rel_tol):
    xs = np.arange(1.0, len(fs) + 1.0)
    got = quad_mean(SampledTable(xs, np.array(fs)), Interval(*window), order).value
    assert math.isclose(got, want, rel_tol=rel_tol), got
    assert math.isclose(_reference_table_mean(xs, np.array(fs), *window, order), want, rel_tol=1e-15)


def test_wide_table_log_sums_are_quadratic_in_the_knots(monkeypatch):
    # 377 stretches with values 10**U(-320, 300): most sums underflow at
    # the table's scale and are summed in logs, a row at a time, so the
    # whole search accumulates at most m * (m + 1) log terms per order.
    # The witness matches its 60-digit reference.
    rng = np.random.default_rng(1)
    tbl = SampledTable(np.linspace(0.5, 20.0, 378), 10.0 ** rng.uniform(-320, 300, 378))
    pair = ExponentPair(-2.0, -0.5)
    accumulated = []
    log_accumulate = tables._log_accumulate

    def counting(terms):
        accumulated.append(terms.size)
        return log_accumulate(terms)

    monkeypatch.setattr(tables, "_log_accumulate", counting)
    est = estimate_halfline(tbl, pair)
    m = len(tbl.xs) - 1
    assert 0 < sum(accumulated) <= 2 * m * (m + 1)
    lo, hi = est.witness.lo, est.witness.hi
    want = _reference_table_mean(tbl.xs, tbl.fs, lo, hi, pair.beta) / _reference_table_mean(
        tbl.xs, tbl.fs, lo, hi, pair.alpha
    )
    assert math.isclose(est.value, want, rel_tol=1e-12)
    assert est.value >= 3.560411666331676e303 * (1.0 - 1e-12)


def test_table_means_far_below_the_table_scale_keep_precision():
    # At order 50 the small values are 1e-450 below the table's largest:
    # their terms underflow at the table's scale, so these windows are
    # summed in logs.
    xs = np.linspace(1.0, 10.0, 10)
    fs = np.array([1.0, 3e-9, 1e-9, 2e-9, 5e-9, 1e-9, 4e-9, 1.0, 2e-9, 1.0])
    tbl = SampledTable(xs, fs)
    for a, b in ((2.0, 7.0), (2.5, 6.2), (3.1, 3.9)):
        for order in (50.0, 20.0, -50.0):
            got = quad_mean(tbl, Interval(a, b), order).value
            assert math.isclose(got, _reference_table_mean(xs, fs, a, b, order), rel_tol=1e-12)


def test_table_window_integral_is_no_prefix_difference():
    # f**4 falls from 1 to 1e-16 along the table, so a window at its end
    # integrates to less than the rounding of a cumulative sum from the
    # first knot: a difference of two such sums is wrong in every digit.
    xs = np.linspace(1.0, 200.0, 200)
    fs = np.geomspace(1.0, 1e-4, 200)
    tbl = SampledTable(xs, fs)
    i, j = 195, 199
    # The table's scale is its largest value, 1, so the knot terms are the
    # logs of the integrals themselves; the last term pads rows.
    _, terms = tables._knot_terms(tbl, 4.0)
    terms = np.exp(terms[:-1])
    prefix = np.concatenate(([0.0], np.cumsum(terms)))
    exact = math.fsum(terms[i:j].tolist())
    assert abs((prefix[j] - prefix[i]) - exact) > 0.5 * exact
    for a, b in ((xs[i], xs[j]), (xs[i] + 0.3, xs[j] - 0.6)):
        got = quad_mean(tbl, Interval(a, b), 4.0).value
        assert math.isclose(got, _reference_table_mean(xs, fs, a, b, 4.0), rel_tol=1e-12)
    pair = ExponentPair(1.0, 4.0)
    ratio = mean_ratio(tbl, Interval(xs[i], xs[j]), pair)
    want = _reference_table_mean(xs, fs, xs[i], xs[j], 4.0) / _reference_table_mean(
        xs, fs, xs[i], xs[j], 1.0
    )
    assert math.isclose(ratio, want, rel_tol=1e-12)


def test_batches_across_chunk_boundaries_equal_scalar_calls(monkeypatch):
    # Origin-anchored rows have 11 cells of 16 nodes at level 0, so
    # per_chunk of them fill one integrand call; the sizes below put the
    # first level's chunk boundary just inside and just past the batch.
    per_chunk = means._NODE_BUDGET // (16 * 11)
    pair = ExponentPair(-1.0, 1.0)
    ends = np.geomspace(1e-3, 1e3, per_chunk + 1).tolist()
    for f in (AffinePower(1.0, -0.3, 0.0), AffinePower(1.0, -0.3, 0.5), AffinePower(2.0, 0.7, 0.3)):
        for size in (1, per_chunk - 1, per_chunk + 1):
            intervals = [Interval(0.0, b) for b in ends[:size]]
            got = mean_ratios(f, intervals, pair)
            assert got.tolist() == [mean_ratio(f, iv, pair) for iv in intervals]

    # Straddles whose orders share p = 1 and so one log f per chunk.  At
    # some level the beta mean still refines pieces whose alpha mean has
    # converged, next to pieces that alpha still needs: alpha takes a
    # subset of the chunk's rows.
    subsets = []
    keep = means._Order.keep

    def recording(self, mesh, q, rows, sums):
        if not isinstance(rows, slice):
            subsets.append((int(np.sum(rows)), len(q)))
        keep(self, mesh, q, rows, sums)

    monkeypatch.setattr(means._Order, "keep", recording)
    ext = EvenExtensionView(AffinePower(1.0, 0.5, 0.5))
    intervals = [
        Interval(-eps * b, b)
        for b in np.geomspace(1e-2, 1e2, 12).tolist()
        for eps in (1e-6, 1e-3, 0.1, 0.5, 1.0)
    ]
    got = mean_ratios(ext, intervals, pair)
    assert subsets and all(0 < taken < rows for taken, rows in subsets)
    assert got.tolist() == [mean_ratio(ext, iv, pair) for iv in intervals]


def _scalar_ratio(f, interval: Interval, pair: ExponentPair) -> float:
    try:
        return mean_ratio(f, interval, pair)
    except (DomainError, NumericError, QuadratureError):
        return -math.inf


def _mixed_batch() -> list[Interval]:
    # Straddles sharing b = 1.5, origin pieces (one of them the straddles'
    # shared piece) and plain windows: linear, geometric and mirrored.
    b = 1.5
    straddles = [Interval(-eps * b, b) for eps in (0.01, 0.1, 0.5, 1.0)]
    origin = [Interval(0.0, b), Interval(0.0, 0.3), Interval(0.0, 40.0)]
    plain = [Interval(1.0, 3.0), Interval(0.02, 2.0), Interval(-3.0, -1.0), Interval(2.0, 2.5)]
    return straddles + origin + plain


@pytest.mark.parametrize(
    "f, pair, shared, pinned",
    [
        (AffinePower(1.0, 0.5, 0.5), ExponentPair(-1.0, 1.0), True, (1.0833886196051996, 1.0644984489928309)),
        (AffinePower(1.0, -0.5, 0.5), ExponentPair(-2.0, -1.0), True, (1.0565713770532414, 1.0333412375901594)),
        (AffinePower(1.0, -0.3, 0.0), ExponentPair(-1.0, 1.0), False, (1.1439877893557493, 1.0738727002662218)),
        (PowerLaw(1.5), ExponentPair(1.0, 2.0), False, (1.3069436902921092, 1.24374672763188)),
        (ExpDecay(1.0), ExponentPair(1.0, 2.0), True, (1.0902818868320618, 1.1433145985143638)),
    ],
    ids=["affpow-p1", "affpow-p2", "affpow-p-differ", "pow-folded", "expdecay"],
)
def test_shared_pass_batches_equal_scalar_calls(f, pair, shared, pinned):
    # One pass takes both means; whether the orders share nodes and log f
    # or not, a batch must score as scalar calls do.  The pinned ratios
    # over (-0.15, 1.5) and (0.02, 2.0) are those of a beta pass followed
    # by an alpha pass.
    alpha, beta = (
        means._substitution_exponent(f.zero_power_exponent(order))
        for order in (pair.alpha, pair.beta)
    )
    assert (alpha == beta) == shared
    ext, intervals = EvenExtensionView(f), _mixed_batch()
    got = mean_ratios(ext, intervals, pair).tolist()
    assert got == [_scalar_ratio(ext, iv, pair) for iv in intervals]
    assert sum(map(math.isfinite, got)) >= len(intervals) - 3
    ends = (Interval(-0.15, 1.5), Interval(0.02, 2.0))
    assert tuple(mean_ratio(ext, iv, pair) for iv in ends) == pinned


_WAVY_XS = np.linspace(1.0, 9.0, 41)


@pytest.mark.parametrize(
    "f, pair, intervals",
    [
        # The half-line 2-D family (start, width): linear and geometric pieces.
        (
            AffinePower(1.0, 1.0, 0.5),
            ExponentPair(1.0, 2.0),
            [Interval(a, a + w) for a in (1e-3, 0.05, 0.7, 3.0) for w in (0.01, 0.4, 2.0, 30.0)],
        ),
        # Table windows share their geometry between the orders.
        (
            SampledTable(_WAVY_XS, np.exp(0.6 * np.sin(_WAVY_XS) + 0.25 * np.sin(7.3 * _WAVY_XS) - 0.5)),
            ExponentPair(-1.0, 1.0),
            [Interval(a, a + w) for a in (1.0, 1.13, 4.2) for w in (0.05, 0.2, 1.0, 4.7)],
        ),
    ],
    ids=["window-family", "table"],
)
def test_shared_pass_half_line_batches_equal_scalar_calls(f, pair, intervals):
    got = mean_ratios(f, intervals, pair).tolist()
    assert got == [mean_ratio(f, iv, pair) for iv in intervals]


class EvaluateCounting(FunctionSpec):
    """0.5 + sqrt(x) through evaluate alone, recording each evaluate call's size."""

    monotonicity = Monotonicity.INCREASING

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def evaluate(self, x):
        self.sizes.append(x.size)
        return 0.5 + np.sqrt(x)


def _separate_passes(f, intervals, pair: ExponentPair) -> list[int]:
    # The beta pass, then the alpha pass on the intervals whose beta mean
    # exists: the evaluate calls of each.
    lo, hi = means._bounds(intervals)
    calls = []
    f.sizes.clear()
    [(_, _, errors)] = means._means(f, lo, hi, (pair.beta,), 1e-9 / 3.0, True)
    calls.append(len(f.sizes))
    rest = np.array([i not in errors for i in range(len(lo))])
    f.sizes.clear()
    means._means(f, lo[rest], hi[rest], (pair.alpha,), 1e-9 / 3.0, True)
    calls.append(len(f.sizes))
    return calls


def test_shared_pass_evaluates_f_once_per_chunk():
    # Origin pieces only, few enough for one chunk per level: the shared
    # pass evaluates f, through the default log_values, once per level for
    # both orders, while the separate passes evaluate it once per level
    # each.
    f, pair = EvaluateCounting(), ExponentPair(-1.0, 1.0)
    intervals = [Interval(0.0, b) for b in np.geomspace(0.01, 50.0, 40).tolist()]
    beta_calls, alpha_calls = _separate_passes(f, intervals, pair)
    f.sizes.clear()
    got = mean_ratios(f, intervals, pair)
    assert len(f.sizes) == max(beta_calls, alpha_calls) < beta_calls + alpha_calls
    assert f.sizes[0] == len(intervals) * 16 * 11
    assert got.tolist() == [mean_ratio(f, iv, pair) for iv in intervals]


def test_shared_pass_calls_log_values_no_more_than_separate_passes():
    # Orders that share their nodes keep one log_values call per chunk of
    # the pieces either needs, across chunk boundaries too, and each order
    # integrates the nodes its separate pass does.
    pair = ExponentPair(1.0, 2.0)
    per_chunk = means._NODE_BUDGET // (16 * 11)
    intervals = [Interval(0.0, b) for b in np.geomspace(0.01, 50.0, per_chunk + 7).tolist()]
    intervals += [Interval(0.5, 0.5 + w) for w in (0.1, 1.0, 20.0)]
    lo, hi = means._bounds(intervals)
    separate, separate_nodes = 0, Counter()
    for order in (pair.beta, pair.alpha):
        g = Decay()
        with _kept() as kept:
            means._means(g, lo, hi, (order,), 1e-9 / 3.0, True)
        separate += len(g.calls)
        separate_nodes[order] = sum(n for _, _, n in kept)
    f = Decay()
    with _kept() as kept:
        got = mean_ratios(f, intervals, pair)
    nodes = Counter()
    for order, _, n in kept:
        nodes[order] += n
    assert len(f.calls) < separate
    assert nodes == separate_nodes
    assert got.tolist() == [mean_ratio(Decay(), iv, pair) for iv in intervals]


@pytest.mark.parametrize(
    "f, pair",
    [
        (AffinePower(1.0, 0.5, 0.5), ExponentPair(-1.0, 1.0)),
        (AffinePower(1.0, -0.3, 0.0), ExponentPair(-1.0, 1.0)),
        (PowerLaw(1.5), ExponentPair(1.0, 2.0)),
        (PowerLaw(-0.3), ExponentPair(-1.0, 2.0)),
        (ExpDecay(1.0), ExponentPair(1.0, 2.0)),
    ],
    ids=["affpow", "affpow-c0", "pow", "pow-negative", "expdecay"],
)
def test_quadrature_takes_every_integrand_from_log_values(monkeypatch, f, pair):
    # One kernel: the spec's own log_values is the only integrand, and no
    # power_values, a pointwise helper, is called by the quadrature.
    calls = Counter()

    def counted(key, method):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)

        return wrapper

    for cls in (FunctionSpec, PowerLaw, ExpDecay, AffinePower, EvenExtensionView):
        for name in ("log_values", "power_values"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counted((cls, name), vars(cls)[name]))
    got = mean_ratios(EvenExtensionView(f), _mixed_batch(), pair)
    assert np.isfinite(got).any()
    assert calls[type(f), "log_values"] > 0
    assert sum(n for (_, name), n in calls.items() if name == "power_values") == 0


def test_batch_raises_errors_other_than_failed_evaluations():
    tbl = SampledTable(np.linspace(1.0, 3.0, 20), np.linspace(2.0, 1.0, 20))
    pair = ExponentPair(1.0, 2.0)
    ok = mean_ratios(tbl, [Interval(1.0, 2.0)], pair)
    assert ok.tolist() == [mean_ratio(tbl, Interval(1.0, 2.0), pair)]
    with pytest.raises(DataError):
        mean_ratios(tbl, [Interval(1.0, 2.0), Interval(0.5, 2.0)], pair)
    failed = mean_ratios(ExpDecay(1.0), [Interval(368.0, 1368.0), Interval(0.0, 1.0)], pair)
    assert failed[0] == -math.inf and math.isfinite(failed[1])


def test_quadrature_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(means, "_QUAD_MAX_LEVELS", 2)
    with pytest.raises(QuadratureError, match="within 2 refinement levels"):
        quad_mean(PowerLaw(-0.99), Interval(0.0, 1.0), 1.0, tol=1e-13)


def test_mean_overflow_is_reported():
    with pytest.raises(NumericError):
        quad_mean(ExpDecay(1.0), Interval(0.0, 1000.0), -2.0)


def test_mean_underflow_is_reported_as_such():
    # exp(-x)**-0.5 = exp(x/2) stays in range up to x = 1200, but its mean
    # of order -0.5, about exp(-1187), does not.
    with pytest.raises(NumericError) as exc:
        quad_mean(ExpDecay(1.0), Interval(0.0, 1200.0), -0.5)
    assert str(exc.value) == "mean underflows double range"


def test_subnormal_integral_is_refused():
    # f^2 = e^(-2x) spans only subnormal magnitudes on this interval; the
    # panel sums there are rounding noise and must not become a mean.
    with pytest.raises(NumericError):
        quad_mean(ExpDecay(1.0), Interval(368.0, 1368.0), 2.0)


class Regions(FunctionSpec):
    """0 next to the origin and then 1 + x up to 10, beyond that constants
    whose means fail each in its own way."""

    monotonicity = Monotonicity.UNKNOWN

    def evaluate(self, x):
        edges = [0.5, 10.0, 20.0, 30.0, 40.0, 50.0, 1e4]
        values = [0.0, 1.0 + x, np.inf, 0.0, 1e-305, 1e305, 1e-302]
        return np.select([x < e for e in edges], values, 1e-305)


def test_failing_means_in_a_batch_keep_their_scalar_errors():
    # At tol = 1e-22 a mean converges only where two levels agree exactly:
    # on (0, b) for b <= 512, whose cells next to 0 are all 0.  Each other
    # interval fails on one check of its order-1 mean, and the scalar call
    # must raise the same error; the converging ratios keep their bits.
    f, pair, tol = Regions(), ExponentPair(0.5, 1.0), 1e-22
    failing = {
        (11.0, 12.0): (NumericError, "integrand overflowed during quadrature"),
        (21.0, 22.0): (DomainError, "mean undefined: integral of f**order is not positive"),
        (31.0, 32.0): (NumericError, "integral of f**order underflows double range"),
        (41.0, 42.0): (NumericError, "mean overflows double range"),
        (2e4, 2e6): (NumericError, "mean underflows double range"),
        # A mean of 1e-302 tightens tol/3 to 0.
        (100.0, 4100.0): (NumericError, "tolerance scaled by the mean underflows double range"),
    }
    ends = [(0.0, 8.0), *failing, (0.0, 4.0), (0.0, 9.5)]
    batch = [Interval(lo, hi) for lo, hi in ends]
    ratios, errors = means._ratios(f, *means._bounds(batch), pair, tol)
    assert sorted(errors) == [i for i, iv in enumerate(ends) if iv in failing]
    for i, (iv, end) in enumerate(zip(batch, ends)):
        if end in failing:
            kind, message = failing[end]
            with pytest.raises(kind) as scalar:
                mean_ratio(f, iv, pair, tol)
            assert str(scalar.value) == message
            assert (type(errors[i]), str(errors[i])) == (kind, message)
            assert ratios[i] == -math.inf
        else:
            assert ratios[i] == mean_ratio(f, iv, pair, tol) > 1.0


def test_mean_order_validation():
    with pytest.raises(DomainError):
        quad_mean(PowerLaw(1.0), Interval(0.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        quad_mean(PowerLaw(1.0), Interval(0.0, 1.0), math.inf)
    with pytest.raises(DomainError):
        quad_mean(PowerLaw(1.0), Interval(0.0, 1.0), 1.0, tol=2.0)


def test_describe_strings_round_trip_the_parameters():
    assert PowerLaw(0.5).describe() == "pow:gamma=0.5"
    assert AffinePower(2.0, 3.0, 0.5).describe() == "affpow:a=2,gamma=3,c=0.5"
    assert ExpDecay(1.5).describe() == "expdecay:lambda=1.5"


def test_table_from_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    # The second file starts with a UTF-8 byte-order mark.
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"x,f\n1.0,2.0\n2.0,3.0\n3.0,5.5\n")
        tbl = table_from_csv(str(path))
        assert tbl.domain == (1.0, 3.0)
        assert tbl.monotonicity is Monotonicity.UNKNOWN
        assert np.allclose(tbl.fs, [2.0, 3.0, 5.5])


@pytest.mark.parametrize(
    "body",
    [
        "a,b\n1.0,2.0\n",  # wrong header
        "x,f\n1.0\n",  # missing column
        "x,f\none,2.0\n",  # non-numeric
        "x,f\n",  # no data rows
        pytest.param(b"\xff\xfe", id="not-utf8"),
        # Longer than the csv module's field limit of 131 072 characters.
        pytest.param("x,f\n1," + "1" * 200_000 + "\n", id="field-too-long"),
    ],
)
def test_table_from_csv_rejects_malformed_input(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(DataError):
        table_from_csv(str(path))


def test_table_from_csv_missing_file():
    with pytest.raises(DataError):
        table_from_csv("/nonexistent/table.csv")

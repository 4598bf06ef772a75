"""Power means: quadrature against closed forms, symmetry, error taxonomy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhiconst.core import (
    DataError,
    DomainError,
    ExponentPair,
    Interval,
    NumericError,
    QuadratureError,
)
from rhiconst import means
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
    tbl = SampledTable(xs, xs.copy(), Monotonicity.INCREASING)
    m = quad_mean(tbl, Interval(1.0, 4.0), 3.0)
    assert math.isclose(m.value, CUBIC_ID_1_4, rel_tol=1e-4)


def test_table_declared_monotonicity_is_checked():
    xs = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        SampledTable(xs, np.array([1.0, 5.0, 2.0]), Monotonicity.INCREASING)
    with pytest.raises(DataError):
        SampledTable(xs, np.array([5.0, 1.0, 2.0]), Monotonicity.DECREASING)


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


def test_closed_form_rejects_non_summable():
    with pytest.raises(DomainError):
        power_mean_closed(0.5, -2.0, 1.0)


class CountingDecay(FunctionSpec):
    """exp(-x), counting the integrand calls the quadrature makes."""

    monotonicity = Monotonicity.DECREASING

    def __init__(self) -> None:
        self.calls = 0

    def evaluate(self, x):
        return np.exp(-x)

    def power_values(self, x, order):
        self.calls += 1
        return super().power_values(x, order)


def test_mean_below_one_continues_instead_of_restarting():
    # Both means of exp(-x) over (0, 6) lie below 1, so mean_ratio tightens
    # each one's tolerance by the mean.  Continuing from the level already
    # reached must cost no more than one pass at the tighter tolerance and
    # give the values such a pass gives.
    f, interval, pair, tol = CountingDecay(), Interval(0.0, 6.0), ExponentPair(1.0, 2.0), 1e-9
    ratio = mean_ratio(f, interval, pair, tol)
    ratio_calls = f.calls
    tight, tight_calls = {}, 0
    for order in (pair.beta, pair.alpha):
        rough = quad_mean(f, interval, order, tol / 3.0).value
        assert rough < 1.0
        f.calls = 0
        tight[order] = quad_mean(f, interval, order, tol / 3.0 * rough).value
        tight_calls += f.calls
    assert ratio_calls <= tight_calls
    assert ratio == tight[pair.beta] / tight[pair.alpha]


class RecordingDecay(CountingDecay):
    """exp(-x), recording the abscissae of every integrand call by order."""

    def __init__(self) -> None:
        super().__init__()
        self.nodes: dict[float, list[np.ndarray]] = {}

    def power_values(self, x, order):
        self.nodes.setdefault(order, []).append(x.copy())
        return super().power_values(x, order)


def test_beta_mean_is_evaluated_first():
    # The order-2 mean of exp(-x) over (368, 1368) underflows.  That
    # interval fails with the beta mean's error and gets no alpha pass.
    pair = ExponentPair(1.0, 2.0)
    batch = [Interval(368.0, 1368.0), Interval(0.0, 1.0)]
    f, alone = RecordingDecay(), RecordingDecay()
    got = mean_ratios(f, batch, pair)
    assert got[0] == -math.inf and math.isfinite(got[1])
    with pytest.raises(NumericError, match=r"integral of f\*\*order underflows"):
        mean_ratio(f, batch[0], pair)
    mean_ratios(alone, batch[1:], pair)
    batch_nodes, alone_nodes = f.nodes[pair.alpha], alone.nodes[pair.alpha]
    assert len(batch_nodes) == len(alone_nodes)
    assert all(np.array_equal(a, b) for a, b in zip(batch_nodes, alone_nodes))


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
    owner, plo, phi, errors = means._pieces(tbl, lo, hi)
    assert errors == {}
    for i, (a, b) in enumerate(windows):
        mine = owner == i
        assert np.all(phi[mine] > plo[mine])
        assert plo[mine][0] == a and phi[mine][-1] == b
        assert np.array_equal(plo[mine][1:], phi[mine][:-1])
        assert np.array_equal(plo[mine][1:], xs[(xs > a) & (xs < b)])
        for order in (1.0, 2.0):
            got = quad_mean(tbl, Interval(a, b), order).value
            exact = _exact_table_mean(xs, tbl.fs, a, b, order)
            assert math.isclose(got, exact, rel_tol=1e-13)


def test_batches_across_chunk_boundaries_equal_scalar_calls():
    # Origin-anchored rows have 11 cells of 16 nodes at level 0, so
    # per_chunk of them fill one integrand call; the sizes below put the
    # first level's chunk boundary just inside and just past the batch.
    per_chunk = means._NODE_BUDGET // (16 * 11)
    f, pair = AffinePower(1.0, -0.3, 0.0), ExponentPair(-1.0, 1.0)
    ends = np.geomspace(1e-3, 1e3, per_chunk + 1).tolist()
    for size in (1, per_chunk - 1, per_chunk + 1):
        intervals = [Interval(0.0, b) for b in ends[:size]]
        got = mean_ratios(f, intervals, pair)
        assert got.tolist() == [mean_ratio(f, iv, pair) for iv in intervals]


def test_batch_raises_errors_other_than_failed_evaluations():
    tbl = SampledTable(np.linspace(1.0, 3.0, 20), np.linspace(2.0, 1.0, 20))
    pair = ExponentPair(1.0, 2.0)
    ok = mean_ratios(tbl, [Interval(1.0, 2.0)], pair)
    assert ok.tolist() == [mean_ratio(tbl, Interval(1.0, 2.0), pair)]
    with pytest.raises(DataError):
        mean_ratios(tbl, [Interval(1.0, 2.0), Interval(0.5, 2.0)], pair)
    failed = mean_ratios(ExpDecay(1.0), [Interval(368.0, 1368.0), Interval(0.0, 1.0)], pair)
    assert failed[0] == -math.inf and math.isfinite(failed[1])


def test_quadrature_budget_exhaustion():
    with pytest.raises(QuadratureError):
        quad_mean(PowerLaw(-0.99), Interval(0.0, 1.0), 1.0, tol=1e-13, max_levels=2)


def test_mean_overflow_is_reported():
    with pytest.raises(NumericError):
        quad_mean(ExpDecay(1.0), Interval(0.0, 1000.0), -2.0)


def test_subnormal_integral_is_refused():
    # f^2 = e^(-2x) spans only subnormal magnitudes on this interval; the
    # panel sums there are rounding noise and must not become a mean.
    with pytest.raises(NumericError):
        quad_mean(ExpDecay(1.0), Interval(368.0, 1368.0), 2.0)


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
    path.write_text("x,f\n1.0,2.0\n2.0,3.0\n3.0,5.5\n")
    tbl = table_from_csv(str(path), Monotonicity.INCREASING)
    assert tbl.domain == (1.0, 3.0)
    assert tbl.monotonicity is Monotonicity.INCREASING
    assert np.allclose(tbl.fs, [2.0, 3.0, 5.5])


@pytest.mark.parametrize(
    "body",
    [
        "a,b\n1.0,2.0\n",  # wrong header
        "x,f\n1.0\n",  # missing column
        "x,f\none,2.0\n",  # non-numeric
        "x,f\n",  # no data rows
    ],
)
def test_table_from_csv_rejects_malformed_input(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataError):
        table_from_csv(str(path))


def test_table_from_csv_missing_file():
    with pytest.raises(DataError):
        table_from_csv("/nonexistent/table.csv")

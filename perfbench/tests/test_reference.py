"""Tests of the benchmark's own reference computations and inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import reference as ref  # noqa: E402


def test_halfline_power_known_value():
    assert math.isclose(ref.halfline_power(1.0, 2.0, 1.0), 2.0 / math.sqrt(3.0), rel_tol=1e-15)


@pytest.mark.parametrize("alpha,beta,gamma", [(1.0, 2.0, 1.0), (-2.0, -0.5, -3.0), (-1.0, 1.0, 0.5)])
def test_shape_curve_is_one_at_both_ends(alpha, beta, gamma):
    assert np.allclose(ref.shape_curve(alpha, beta, gamma, [0.0, 1.0]), 1.0, rtol=1e-14)


def test_shape_curve_matches_midpoint_rule():
    alpha, beta, gamma, eps = 1.0, 2.0, 1.0, 0.3
    n = 2_000_000
    x = -eps + (1.0 + eps) * (np.arange(n) + 0.5) / n

    def mean(r):
        return np.mean(np.abs(x) ** (gamma * r)) ** (1.0 / r)

    want = mean(beta) / mean(alpha) / ref.halfline_power(alpha, beta, gamma)
    assert math.isclose(float(ref.shape_curve(alpha, beta, gamma, eps)), want, rel_tol=1e-9)


@pytest.mark.parametrize(
    "alpha,beta,bound,record",
    [
        (1.0, 2.0, 2.0, math.sqrt(2.0)),
        (-1.0, 1.0, 4.0, 2.0),
        (-2.0, -0.5, 4.0, 2.0**1.5),
        (1.5, 2.0, 2.0 ** (1 / 1.5), 2.0**0.5),
    ],
)
def test_paper_constants(alpha, beta, bound, record):
    assert math.isclose(ref.general_bound(alpha, beta), bound, rel_tol=1e-15)
    assert math.isclose(ref.power_class_constant(alpha, beta), record, rel_tol=1e-15)
    assert record < bound


@pytest.mark.parametrize("alpha,beta,gamma", [(1.0, 2.0, 3.0), (-2.0, -1.0, -0.4), (-1.0, 1.0, -0.9)])
def test_curve_max_stays_below_class_constant(alpha, beta, gamma):
    assert 1.0 < ref.dense_curve_max(alpha, beta, gamma) < ref.power_class_constant(alpha, beta)


@pytest.mark.parametrize("gamma,order", [(0.5, 2.0), (-0.5, 1.0), (1.5, -0.5), (-0.3, 3.0)])
def test_affine_integral_of_pure_power(gamma, order):
    scale, upper = 1.7, 3.0
    s = gamma * order + 1.0
    want = scale**order * upper**s / s
    got = math.exp(ref.affine_log_integral(scale, gamma, 0.0, order, upper))
    assert math.isclose(got, want, rel_tol=1e-12)


def test_affine_integral_with_offset_and_negative_order():
    # f**-1 = 1/(x**2 + 1) on (0, 3): arctan(3), though 1 + gamma*order < 0.
    assert math.isclose(math.exp(ref.affine_log_integral(1.0, 2.0, 1.0, -1.0, 3.0)), math.atan(3.0), rel_tol=1e-12)


@pytest.mark.parametrize("gamma,upper", [(0.5, 2.0), (-0.4, 1e-3), (1.2, 1e3), (-0.3, 50.0)])
def test_affine_integral_of_square(gamma, upper):
    # (a x**g + c)**2 = a**2 x**(2g) + 2ac x**g + c**2, integrated term by term.
    a, c = 0.8, 0.6
    want = a * a * upper ** (2 * gamma + 1) / (2 * gamma + 1) + 2 * a * c * upper ** (gamma + 1) / (gamma + 1) + c * c * upper
    got = math.exp(ref.affine_log_integral(a, gamma, c, 2.0, upper))
    assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("alpha,beta,gamma,eps", [(1.0, 2.0, 1.0, 0.3), (-1.0, 1.0, -0.5, 0.8), (-2.0, -1.0, 0.4, 0.05)])
def test_straddle_ratio_of_pure_power_is_h_times_curve(alpha, beta, gamma, eps):
    b = 7.0
    got = ref.affine_mean_ratio(1.0, gamma, 0.0, alpha, beta, -eps * b, b)
    want = ref.halfline_power(alpha, beta, gamma) * float(ref.shape_curve(alpha, beta, gamma, eps))
    assert math.isclose(got, want, rel_tol=1e-12)


LINE_XS, LINE_FS = np.array([0.0, 2.0]), np.array([1.0, 3.0])


@pytest.mark.parametrize(
    "order,lo,hi,want",
    [
        (2.0, 0.0, 2.0, 26.0 / 3.0),
        (-1.0, 0.0, 2.0, math.log(3.0)),
        (1.0, 0.0, 2.0, 4.0),
        (2.0, 0.5, 1.5, (2.5**3 - 1.5**3) / 3.0),
        (-2.0, 0.0, 2.0, 1.0 - 1.0 / 3.0),
    ],
)
def test_table_integral_on_a_line(order, lo, hi, want):
    assert math.isclose(ref.table_integral(LINE_XS, LINE_FS, order, lo, hi), want, rel_tol=1e-14)


def test_table_integral_across_knots_and_flat_segments():
    xs, fs = np.array([1.0, 2.0, 4.0]), np.array([2.0, 2.0, 6.0])
    assert math.isclose(ref.table_integral(xs, fs, 1.0, 1.0, 4.0), 10.0, rel_tol=1e-15)
    assert math.isclose(ref.table_integral(xs, fs, 3.0, 1.0, 2.0), 8.0, rel_tol=1e-15)
    assert math.isclose(ref.table_mean_ratio(xs, fs, -1.0, 2.0, 1.2, 1.8), 1.0, rel_tol=1e-15)
    assert ref.table_mean_ratio(xs, fs, -1.0, 2.0, 1.0, 4.0) > 1.0


def test_inputs_repeat_for_a_seed_and_cover_every_case():
    first, again = inputs.closed_form_inputs(3), inputs.closed_form_inputs(3)
    assert first == again and first != inputs.closed_form_inputs(4)
    assert inputs.extension_inputs(3) == inputs.extension_inputs(3)
    for items in (first, inputs.extension_inputs(3)):
        signs = [(p.alpha > 0, p.beta > 0) for p in items]
        assert signs[:3] == [(True, True), (False, False), (False, True)]
    for p in inputs.extension_inputs(3):
        lo, hi = inputs.gamma_range(p.alpha, p.beta)
        assert lo < p.gamma < hi


def test_tables_are_positive_non_monotone_and_written_exactly(tmp_path):
    tables = inputs.table_inputs(5, str(tmp_path))
    assert [t.path for t in tables] == sorted(t.path for t in tables)
    for t in tables:
        assert np.all(t.fs > 0.0) and np.all(np.diff(t.xs) > 0.0)
        d = np.diff(t.fs)
        assert np.any(d > 0.0) and np.any(d < 0.0)
        rows = np.loadtxt(t.path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], t.xs) and np.array_equal(rows[:, 1], t.fs)
    assert 57 <= min(t.xs.size for t in tables) and max(t.xs.size for t in tables) <= 378

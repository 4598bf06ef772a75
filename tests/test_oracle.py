"""Brute-force reference values: agreement, convergence, determinism."""

import math

import numpy as np
import pytest

from rhiconst import means, oracle
from rhiconst.core import DataError, DomainError, ExponentPair, NumericError
from rhiconst.means import AffinePower, PowerLaw, SampledTable
from rhiconst.oracle import (
    brute_extension,
    brute_halfline,
    brute_max_curve,
    window_ratio,
)
from rhiconst.power import extension_curve, power_report

P_12 = 1.1547005383792517  # 2/sqrt(3)
R_12 = 1.224744871391589  # sqrt(3/2)


@pytest.mark.parametrize(
    "nodes, weights",
    [
        (means._GL_NODES, means._GL_WEIGHTS),
        (oracle._GL10_NODES, oracle._GL10_WEIGHTS),
    ],
    ids=["means-16", "oracle-10"],
)
def test_gauss_legendre_literals_have_the_bits_of_leggauss(nodes, weights):
    # Each module lists its rule as float literals, so that importing the
    # package does not import numpy.polynomial.
    want_nodes, want_weights = np.polynomial.legendre.leggauss(nodes.size)
    assert nodes.tolist() == want_nodes.tolist()
    assert weights.tolist() == want_weights.tolist()


def test_constant_function_gives_unit_ratio():
    # start + width rounds, so the integrated interval differs from the
    # nominal width by up to ulp(start)/width ~ 5e-11 on this lattice
    value = brute_halfline(PowerLaw(0.0), ExponentPair(1.0, 2.0))
    assert math.isclose(value, 1.0, rel_tol=1e-9)


def test_halfline_brute_matches_closed_form():
    value = brute_halfline(PowerLaw(1.0), ExponentPair(1.0, 2.0))
    # a grid maximum may only undershoot, apart from quadrature rounding
    assert value <= P_12 * (1.0 + 1e-9)
    assert value >= P_12 * (1.0 - 1e-4)


def test_extension_brute_matches_closed_form():
    value = brute_extension(PowerLaw(1.0), ExponentPair(1.0, 2.0))
    assert value <= R_12 * (1.0 + 1e-9)
    assert value >= R_12 * (1.0 - 1e-3)


@pytest.mark.parametrize(
    "a, b, gamma",
    [(1.0, 2.0, -0.3), (-1.0, 1.0, 0.5), (-2.0, -0.5, -3.0)],
)
def test_brute_pipeline_across_cases(a, b, gamma):
    pair = ExponentPair(a, b)
    rep = power_report(pair, gamma)
    bp = brute_halfline(PowerLaw(gamma), pair)
    br = brute_extension(PowerLaw(gamma), pair)
    assert abs(bp - rep.halfline_constant) <= 1e-4 * rep.halfline_constant
    assert abs(br - rep.extension_constant) <= 1e-3 * rep.extension_constant


def test_grid_doubling_never_loses_the_maximum(monkeypatch):
    # Doubled endpoint grids are supersets, so the maximum is monotone
    # exactly, not just within tolerance.
    f = AffinePower(1.0, 1.0, 1.0)
    pair = ExponentPair(1.0, 2.0)
    coarse = brute_halfline(f, pair)
    monkeypatch.setattr(oracle, "_INTERVAL_GRID", 128)
    fine = brute_halfline(f, pair)
    assert fine >= coarse


def test_panel_doubling_moves_result_only_by_quadrature_error(monkeypatch):
    f = AffinePower(1.0, 1.0, 1.0)
    pair = ExponentPair(1.0, 2.0)
    a = brute_halfline(f, pair)
    monkeypatch.setattr(oracle, "_QUAD_PANELS", 128)
    b = brute_halfline(f, pair)
    assert b >= a - 1e-9 * a


def test_brute_is_deterministic():
    f = AffinePower(1.0, 1.0, 1.0)
    pair = ExponentPair(-1.0, 1.0)
    assert brute_halfline(f, pair) == brute_halfline(f, pair)
    assert brute_extension(f, pair) == brute_extension(f, pair)


def test_table_halfline_works_and_extension_is_rejected():
    xs = np.linspace(0.5, 8.0, 90)
    tbl = SampledTable(xs, xs + 1.0)
    value = brute_halfline(tbl, ExponentPair(1.0, 2.0))
    assert value >= 1.0
    with pytest.raises(DataError):
        brute_extension(tbl, ExponentPair(1.0, 2.0))


def test_window_ratio_matches_closed_forms_and_checks_the_domain():
    pair = ExponentPair(1.0, 2.0)
    assert math.isclose(window_ratio(PowerLaw(1.0), pair, 0.0, 3.0), P_12, rel_tol=1e-9)
    xs = np.linspace(1.0, 4.0, 7)
    tbl = SampledTable(xs, xs.copy())
    # On the tabulated identity, (1, 2) has M_2 / M_1 = sqrt(7/3) / (3/2).
    assert math.isclose(window_ratio(tbl, pair, 1.0, 2.0), math.sqrt(7.0 / 3.0) / 1.5, rel_tol=1e-12)
    with pytest.raises(DomainError):
        window_ratio(tbl, pair, 0.5, 2.0)
    with pytest.raises(DomainError):
        window_ratio(tbl, pair, 2.0, 2.0)


def test_brute_max_curve_flat_and_interior():
    # gamma 0 flattens the log curve to float noise, so only the value is
    # determined; the argmax location is arbitrary
    _, flat_value = brute_max_curve(ExponentPair(1.0, 2.0), 0.0, 101)
    assert math.isclose(flat_value, 1.0, rel_tol=1e-12)
    eps, value = brute_max_curve(ExponentPair(-1.0, 1.0), 0.5, 100_001)
    assert 0.0 < eps < 1.0
    assert 1.0 < value <= 4.0
    # the oracle evaluates the curve from its own formula; cross-check one
    # point against the closed-form module
    assert math.isclose(value, extension_curve(ExponentPair(-1.0, 1.0), 0.5, eps), rel_tol=1e-12)


def test_brute_max_curve_needs_two_points():
    with pytest.raises(DomainError):
        brute_max_curve(ExponentPair(1.0, 2.0), 1.0, 1)


def test_validation_rejects_bad_inputs():
    with pytest.raises(DomainError):
        brute_halfline(PowerLaw(-0.6), ExponentPair(1.0, 2.0))  # non-summable
    xs = np.linspace(1.0, 2.0, 20)
    fs = xs.copy()
    fs[3] = 0.0
    with pytest.raises(DomainError):
        brute_halfline(SampledTable(xs, fs), ExponentPair(-1.0, 1.0))


def test_ratio_beyond_double_range_is_a_numeric_error():
    # At an order this close to 0 a rounding error in a log mean, divided
    # by the order, exceeds the exponent range of a double.
    f = PowerLaw(1.0)
    calls = [
        lambda: brute_halfline(f, ExponentPair(1e-15, 1.0)),
        lambda: window_ratio(f, ExponentPair(1e-20, 1.0), 0.0, 3.0),
        lambda: brute_extension(f, ExponentPair(1e-18, 1.0)),
    ]
    for call in calls:
        with pytest.raises(NumericError, match="overflows double range"):
            call()

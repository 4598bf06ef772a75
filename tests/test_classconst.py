"""Class constants, the general bound, seams, sweeps and sharpness tables."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhiconst.classconst import (
    ClassConstants,
    class_constants,
    gamma_approach_sequence,
    gamma_sweep,
    general_upper_bound,
    power_class_constant,
    sharpness_table,
    sharpness_table_alpha,
)
from rhiconst.core import DomainError, ExponentPair, NumericError
from rhiconst.power import power_report

SQRT2 = 1.4142135623730951
TWO_T0_23 = 1.5874010519681994  # 2^(2/3)


def test_exact_values_pos_pos():
    cc = class_constants(ExponentPair(1.0, 2.0))
    assert cc.class_constant == SQRT2
    assert cc.upper_bound == 2.0
    assert cc.branch == "pos_pos:alpha<=beta/2"


def test_exact_values_neg_pos():
    cc = class_constants(ExponentPair(-1.0, 1.0))
    assert cc.class_constant == 2.0
    assert cc.upper_bound == 4.0


def test_exact_value_neg_neg():
    value, branch = power_class_constant(ExponentPair(-3.0, -1.0))
    assert math.isclose(value, TWO_T0_23, rel_tol=1e-15)
    assert branch == "neg_neg:alpha<=2*beta"


@pytest.mark.parametrize(
    "a, b, bound",
    [
        (1.0, 2.0, 2.0),  # 2^(1/alpha)
        (-2.0, -0.5, 4.0),  # 2^(-1/beta)
        (-1.0, 1.0, 4.0),  # 2^(1/beta - 1/alpha)
    ],
)
def test_general_upper_bound_branches(a, b, bound):
    assert general_upper_bound(ExponentPair(a, b)) == bound


@pytest.mark.parametrize(
    "left, right",
    [
        (ExponentPair(1.0 - 1e-13, 2.0), ExponentPair(1.0 + 1e-13, 2.0)),  # alpha=beta/2
        (ExponentPair(-2.0 - 1e-13, -1.0), ExponentPair(-2.0 + 1e-13, -1.0)),  # alpha=2beta
        (ExponentPair(-1.0, 1.0 - 1e-13), ExponentPair(-1.0, 1.0 + 1e-13)),  # beta=-alpha
    ],
)
def test_branch_seams_are_continuous(left, right):
    vl, bl = power_class_constant(left)
    vr, br = power_class_constant(right)
    assert bl != br
    assert abs(vl - vr) <= 1e-12


_exponents = st.floats(0.05, 6.0)


@st.composite
def pairs(draw):
    kind = draw(st.integers(0, 2))
    x, y = draw(_exponents), draw(_exponents)
    if kind == 0:
        return ExponentPair(x, x + y)
    if kind == 1:
        return ExponentPair(-x - y, -x)
    return ExponentPair(-x, y)


@given(pairs())
def test_class_constant_strictly_below_bound(pair):
    value, _ = power_class_constant(pair)
    bound = general_upper_bound(pair)
    assert 1.0 < value < bound


@given(pairs())
def test_class_constants_record_is_consistent(pair):
    cc = class_constants(pair)
    assert math.isclose(
        cc.sharpness_ratio, cc.class_constant / cc.upper_bound, rel_tol=1e-12
    )
    assert 0.0 < cc.sharpness_ratio < 1.0


def test_class_constants_validation():
    with pytest.raises(NumericError):
        ClassConstants(
            pair=ExponentPair(1.0, 2.0),
            upper_bound=2.0,
            class_constant=2.5,  # above the bound
            branch="pos_pos:alpha<=beta/2",
            sharpness_ratio=1.25,
        )


def test_constants_beyond_double_range_raise_numeric_error():
    # 2**(1/alpha) and 2**(1/alpha - 1/beta) overflow for alpha = 1e-4.
    with pytest.raises(NumericError):
        general_upper_bound(ExponentPair(1e-4, 2.0))
    with pytest.raises(NumericError):
        power_class_constant(ExponentPair(1e-4, 2e-3))


def test_approach_sequence_toward_finite_boundary():
    pair = ExponentPair(1.0, 2.0)
    seq = gamma_approach_sequence(pair, -0.5, 8)
    assert len(seq) == 8
    dom = pair.gamma_domain()
    gaps = [g - (-0.5) for g in seq]
    assert all(dom.contains(g) for g in seq)
    assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))


def test_approach_sequence_toward_infinity():
    seq = gamma_approach_sequence(ExponentPair(1.0, 2.0), math.inf, 10)
    assert len(seq) == 10
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] <= 1e6


def test_approach_sequence_rejects_non_boundary_target():
    with pytest.raises(DomainError):
        gamma_approach_sequence(ExponentPair(1.0, 2.0), 3.0, 5)
    with pytest.raises(DomainError):
        gamma_approach_sequence(ExponentPair(1.0, 2.0), -0.5, 0)


def test_gamma_sweep_growth_is_monotone():
    reports = gamma_sweep(ExponentPair(1.0, 2.0), [1.0, 10.0, 100.0, 1000.0])
    growth = [r.curve_max for r in reports]
    assert all(b > a for a, b in zip(growth, growth[1:]))
    assert growth[-1] >= 0.98 * SQRT2


# The maximizer of this pair at 0.8660434232677972 lies below the seed
# grid's 1e-300 floor, and 0.9 is past its admissible range (-inf, 0.867).
TIGHT_PAIR = ExponentPair(-1.1533436194361446, -1.1526183695149625)


@pytest.mark.parametrize(
    "pair, gammas, error",
    [
        (TIGHT_PAIR, [0.8660434232677972, 0.9], NumericError),
        (TIGHT_PAIR, [0.9, 0.8660434232677972], DomainError),
        # halfline_constant overflows at 1e6 for alpha = 1e-3; -2 is inadmissible.
        (ExponentPair(1e-3, 1.0), [1.0, -2.0, 1e6], DomainError),
        (ExponentPair(1e-3, 1.0), [1.0, 1e6, -2.0], NumericError),
    ],
)
def test_gamma_sweep_raises_the_first_error_in_order(pair, gammas, error):
    with pytest.raises(error):
        gamma_sweep(pair, gammas)
    # The same exception the per-exponent loop meets first.
    with pytest.raises(error):
        [power_report(pair, g) for g in gammas]


@pytest.mark.parametrize(
    "pair, toward",
    [
        (ExponentPair(1.0, 2.0), -0.5),
        (ExponentPair(-1.0, 1.0), 1.0),
        (ExponentPair(-2.0, -1.0), 0.5),
    ],
)
def test_gamma_sweep_rows_equal_reports_of_one(pair, toward):
    approach = gamma_approach_sequence(pair, toward, 12)
    assert len(approach) == 12
    for gammas in (
        [0.0, 0.25, 0.25, 0.0, -0.25] + approach,
        [0.25],
        [0.0],
        approach[::-1],
    ):
        assert gamma_sweep(pair, gammas) == [power_report(pair, g) for g in gammas]


@pytest.mark.parametrize(
    "pair, gamma, eps_star, curve_max",
    [
        (ExponentPair(1.0, 2.0), 1.0, 0.2679491924311227, 1.0606601717798212),
        (ExponentPair(1.0, 2.0), 1000.0, 0.9917438578633976, 1.4109405032576503),
        (ExponentPair(1.0, 2.0), -0.4999, 9.999966267912873e-09, 1.4127718116674874),
        (ExponentPair(-1.0, 1.0), -0.9, 0.021328828398527948, 1.6122236579024498),
        (ExponentPair(-2.0, -1.0), 0.4999, 9.999966267912868e-09, 1.4127718116674874),
    ],
    ids=["pos-1", "pos-1000", "pos-near-lower", "mixed-near-lower", "neg-near-upper"],
)
def test_sweep_maximizers_are_pinned(pair, gamma, eps_star, curve_max):
    (row,) = gamma_sweep(pair, [gamma])
    assert (row.eps_star, row.curve_max) == (eps_star, curve_max)
    rows = gamma_sweep(pair, [0.0, gamma, 0.5 * gamma])
    assert (rows[1].eps_star, rows[1].curve_max) == (eps_star, curve_max)


def test_mixed_sweep_rows_equal_reports_of_one():
    # A flat row, interior rows, approaches toward both ends of (-0.5, inf)
    # and a maximizer closer to 1 than doubles resolve, in one lockstep batch.
    pair = ExponentPair(1.0, 2.0)
    gammas = (
        [0.0, 1.0, -0.3, 7.5]
        + gamma_approach_sequence(pair, -0.5, 10)
        + gamma_approach_sequence(pair, math.inf, 10)
        + [1e306, 2.0]
    )
    rows = gamma_sweep(pair, gammas)
    assert rows == [power_report(pair, g) for g in gammas]
    assert [r.residual_applicable for r in rows] == [g not in (0.0, 1e306) for g in gammas]


def test_gamma_sweep_memory_stays_linear():
    # A (gamma x grid) matrix over the default 4096-point eps grid would
    # take 67 MB at 2 000 exponents.
    gammas = np.linspace(0.01, 100.0, 2000)
    tracemalloc.start()
    try:
        rows = gamma_sweep(ExponentPair(1.0, 2.0), gammas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2000
    assert peak < 8e6


def test_sharpness_table_climbs_to_one():
    betas = [2.0**k for k in range(1, 11)]  # 2 .. 1024
    rows = sharpness_table(1.0, betas)
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == 2.0 ** (-1.0 / 1024.0)
    assert ratios[-1] >= 0.999


def test_sharpness_table_alpha_direction():
    alphas = [-(2.0**k) for k in range(1, 11)]  # -2 .. -1024
    rows = sharpness_table_alpha(1.0, alphas)
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.999


def test_sharpness_rows_carry_their_inputs():
    rows = sharpness_table(1.0, [2.0, 4.0])
    assert rows[0].alpha == 1.0 and rows[0].beta == 2.0
    assert rows[0].class_constant == SQRT2
    assert rows[0].upper_bound == 2.0

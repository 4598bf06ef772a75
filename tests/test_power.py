"""Pure powers: half-line constant, shape curve, maximizer, stationarity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rhiconst.classconst import power_class_constant
from rhiconst.core import DomainError, ExponentPair, Interval, NumericError, RhiError
from rhiconst.means import PowerLaw, mean_ratio
from rhiconst.power import (
    PowerRhiReport,
    curve_values,
    extension_curve,
    halfline_constant,
    maximize_curve,
    power_report,
    stationarity_residual,
    stationarity_terms,
)

# For (1,2) at gamma=1 everything is algebraic: the stationarity quartic
# factors as -(e-1)(e+1)(e^2-4e+1), so the interior root is 2-sqrt(3), the
# curve maximum is 3/(2 sqrt 2) and the extension constant is sqrt(3/2).
EPS_STAR_12 = 0.2679491924311227  # 2 - sqrt(3), correctly rounded
CURVE_MAX_12 = 1.0606601717798212
P_12 = 1.1547005383792517  # 2/sqrt(3)
R_12 = 1.224744871391589  # sqrt(3/2)
CURVE_AT_HALF_12 = 1.0392304845413265  # 3 sqrt(3)/5
P_NEG2_NEG05 = 2.36227795630767  # 6.25/sqrt(7) at gamma=-3


def test_halfline_constant_linear_case():
    assert math.isclose(halfline_constant(ExponentPair(1.0, 2.0), 1.0), P_12, rel_tol=1e-14)


def test_halfline_constant_mixed_case():
    assert math.isclose(
        halfline_constant(ExponentPair(-1.0, 1.0), 0.5), 4.0 / 3.0, rel_tol=1e-14
    )


def test_halfline_constant_negative_case():
    assert math.isclose(
        halfline_constant(ExponentPair(-2.0, -0.5), -3.0), P_NEG2_NEG05, rel_tol=1e-14
    )


def test_halfline_constant_matches_quadrature_route():
    # Scale invariance: the ratio on any (0, b) equals the constant.
    pair = ExponentPair(1.0, 2.0)
    r = mean_ratio(PowerLaw(1.0), Interval(0.0, 7.3), pair)
    assert math.isclose(r, halfline_constant(pair, 1.0), rel_tol=1e-9)


def test_halfline_constant_rejects_inadmissible_gamma():
    with pytest.raises(DomainError):
        halfline_constant(ExponentPair(1.0, 2.0), -0.5)


def test_curve_value_at_one_half():
    assert math.isclose(
        extension_curve(ExponentPair(1.0, 2.0), 1.0, 0.5), CURVE_AT_HALF_12, rel_tol=1e-13
    )


_exponents = st.floats(0.05, 6.0)


@st.composite
def admissible(draw):
    kind = draw(st.integers(0, 2))
    x, y = draw(_exponents), draw(_exponents)
    if kind == 0:
        pair = ExponentPair(x, x + y)
    elif kind == 1:
        pair = ExponentPair(-x - y, -x)
    else:
        pair = ExponentPair(-x, y)
    lower, upper = pair.gamma_domain().lower, pair.gamma_domain().upper
    t = draw(st.floats(0.05, 0.9))
    if math.isinf(lower):
        gamma = upper - 4.0 * t
    elif math.isinf(upper):
        gamma = lower + 4.0 * t
    else:
        gamma = lower + t * (upper - lower)
    return pair, gamma


@given(admissible())
def test_curve_is_exactly_one_at_endpoints(case):
    pair, gamma = case
    vals = curve_values(pair, gamma, np.array([0.0, 1.0]))
    assert vals[0] == 1.0
    assert vals[1] == 1.0


@given(admissible(), st.floats(1e-3, 1.0 - 1e-3))
def test_curve_exceeds_one_in_interior(case, eps):
    pair, gamma = case
    if abs(gamma) < 1e-3:
        return
    assert extension_curve(pair, gamma, eps) > 1.0


def test_maximizer_and_value_are_algebraic_for_linear_case():
    eps, cmax = maximize_curve(ExponentPair(1.0, 2.0), 1.0)
    assert abs(eps - EPS_STAR_12) <= math.ulp(EPS_STAR_12)
    assert math.isclose(cmax, CURVE_MAX_12, rel_tol=1e-14)


@pytest.mark.parametrize(
    "a, b, gamma",
    [(1.0, 2.0, 1.0), (-1.0, 1.0, 0.5), (-2.0, -0.5, -3.0), (0.3, 0.7, 12.0)],
)
def test_maximize_agrees_with_dense_grid(a, b, gamma):
    pair = ExponentPair(a, b)
    eps, cmax = maximize_curve(pair, gamma)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    brute = float(np.max(curve_values(pair, gamma, grid)))
    assert brute <= cmax + 1e-12
    assert cmax - brute <= 1e-9 * cmax


@pytest.mark.parametrize(
    "a, b, gamma",
    [(1.0, 2.0, 1.0), (1.0, 2.0, -0.3), (-1.0, 1.0, 0.5), (-2.0, -0.5, -3.0)],
)
def test_residual_vanishes_at_interior_maximizer(a, b, gamma):
    pair = ExponentPair(a, b)
    eps, _ = maximize_curve(pair, gamma)
    assert 0.0 < eps < 1.0
    terms = stationarity_terms(pair, gamma, eps)
    scale = max(abs(t) for t in terms)
    assert abs(stationarity_residual(pair, gamma, eps)) <= 1e-10 * scale


@given(admissible())
def test_unit_eps_annihilates_residual(case):
    pair, gamma = case
    assert stationarity_residual(pair, gamma, 1.0) == 0.0


def test_flat_curve_for_zero_exponent():
    eps, cmax = maximize_curve(ExponentPair(1.0, 2.0), 0.0)
    assert (eps, cmax) == (0.0, 1.0)


def test_large_gamma_growth_approaches_class_limit():
    rep = power_report(ExponentPair(1.0, 2.0), 1000.0)
    assert rep.curve_max >= 0.98 * math.sqrt(2.0)
    assert rep.curve_max < math.sqrt(2.0)


def test_maximizer_closer_to_one_than_doubles_resolve():
    # For gamma = 1e306 the powers eps**(gamma*order + 1) vanish in double
    # for every eps < 1, so the curve rises toward sqrt(2) at eps = 1 and
    # the residual is 1 at every double below 1: no root is resolved.
    rep = power_report(ExponentPair(1.0, 2.0), 1e306)
    assert 0.0 < rep.eps_star < 1.0
    assert rep.curve_max >= 1.4142135623730945 * (1.0 - 1e-12)
    assert not rep.residual_applicable
    assert rep.residual == 0.0


def test_power_report_fields_are_consistent():
    rep = power_report(ExponentPair(1.0, 2.0), 1.0)
    assert math.isclose(rep.halfline_constant, P_12, rel_tol=1e-14)
    assert math.isclose(rep.extension_constant, R_12, rel_tol=1e-13)
    assert math.isclose(
        rep.extension_constant, rep.curve_max * rep.halfline_constant, rel_tol=1e-12
    )
    assert rep.residual_applicable
    flat = power_report(ExponentPair(1.0, 2.0), 0.0)
    assert not flat.residual_applicable
    assert flat.residual == 0.0
    assert flat.extension_constant == flat.halfline_constant


def test_eps_grid_bounds():
    pair = ExponentPair(1.0, 2.0)
    for grid in (63, 2**20 + 1):
        with pytest.raises(DomainError, match="eps_grid must lie between 64 and 1048576"):
            power_report(pair, 1.0, eps_grid=grid)
        # The grid is checked before gamma.
        with pytest.raises(DomainError, match="eps_grid"):
            power_report(pair, -5.0, eps_grid=grid)
    assert power_report(pair, 1.0, eps_grid=64).eps_star > 0.0


def test_report_validation_rejects_inconsistent_fields():
    rep = power_report(ExponentPair(1.0, 2.0), 1.0)
    with pytest.raises(NumericError):
        PowerRhiReport(
            pair=rep.pair,
            gamma=rep.gamma,
            halfline_constant=rep.halfline_constant,
            eps_star=rep.eps_star,
            curve_max=rep.curve_max,
            extension_constant=2.0 * rep.extension_constant,
            residual=rep.residual,
            residual_applicable=True,
        )


def test_curve_values_requires_admissible_gamma():
    with pytest.raises(DomainError):
        curve_values(ExponentPair(-1.0, 1.0), 1.5, np.array([0.5]))


_MAGNITUDE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_SIGN = st.sampled_from((-1.0, 1.0))


@st.composite
def _extreme_pairs_and_gammas(draw):
    """|orders| in [1e-3, 1e3]; gamma anywhere in [-1e3, 1e3] or near an end.

    Near an end, gamma is placed so that order * gamma + 1 equals a margin
    between 1e-9 (the boundary margin require_gamma enforces) and 1.
    """
    a, b = draw(_MAGNITUDE) * draw(_SIGN), draw(_MAGNITUDE) * draw(_SIGN)
    assume(a != b)
    pair = ExponentPair(min(a, b), max(a, b))
    dom = pair.gamma_domain()
    if draw(st.booleans()):
        ends = ((dom.lower, pair.beta), (dom.upper, pair.alpha))
        order = draw(st.sampled_from([o for end, o in ends if math.isfinite(end)]))
        gamma = (10.0 ** draw(st.floats(-9.0, 0.0)) - 1.0) / order
    else:
        gamma = draw(_MAGNITUDE) * draw(_SIGN)
    assume(dom.contains(gamma))
    return pair, gamma


@given(_extreme_pairs_and_gammas())
def test_power_report_is_validated_or_typed_error_at_extreme_exponents(case):
    pair, gamma = case
    try:
        rep = power_report(pair, gamma)
        bound, _ = power_class_constant(pair)
    except RhiError:
        return
    # The report validated itself on construction; the class constant is
    # the supremum of curve_max over gamma, so it bounds every point.
    assert rep.curve_max <= bound * (1.0 + 1e-12)

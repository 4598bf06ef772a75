"""Exponent pairs, admissible ranges and the shared config object."""

import math

import pytest
from hypothesis import given, strategies as st

from rhiconst.core import (
    BOUNDARY_MARGIN,
    Case,
    DomainError,
    ExponentPair,
    GammaDomain,
    Interval,
    SearchConfig,
    classify_case,
    gamma_domain,
)


def test_pair_requires_alpha_below_beta():
    with pytest.raises(DomainError):
        ExponentPair(2.0, 1.0)
    with pytest.raises(DomainError):
        ExponentPair(1.0, 1.0)


def test_pair_rejects_zero_and_nonfinite_exponents():
    for a, b in [(0.0, 1.0), (-1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            ExponentPair(a, b)


@pytest.mark.parametrize(
    "a, b, case",
    [
        (1.0, 2.0, Case.POS_POS),
        (0.3, 0.31, Case.POS_POS),
        (-2.0, -0.5, Case.NEG_NEG),
        (-1.0, 1.0, Case.NEG_POS),
    ],
)
def test_classify_case(a, b, case):
    assert classify_case(ExponentPair(a, b)) is case


@pytest.mark.parametrize(
    "a, b, lower, upper",
    [
        (1.0, 2.0, -0.5, math.inf),
        (-2.0, -0.5, -math.inf, 0.5),
        (-1.0, 1.0, -1.0, 1.0),
        (-0.25, 4.0, -0.25, 4.0),
    ],
)
def test_gamma_domain_branches(a, b, lower, upper):
    dom = gamma_domain(ExponentPair(a, b))
    assert dom.lower == lower
    assert dom.upper == upper


def test_require_gamma_accepts_interior_and_rejects_exterior():
    pair = ExponentPair(1.0, 2.0)
    assert pair.require_gamma(1.0) == 1.0
    assert pair.require_gamma(-0.499) == -0.499
    with pytest.raises(DomainError):
        pair.require_gamma(-0.5)
    with pytest.raises(DomainError):
        pair.require_gamma(-0.7)


def test_require_gamma_rejects_near_boundary_band():
    # alpha*gamma or beta*gamma within BOUNDARY_MARGIN of -1 is refused even
    # when strictly inside the open interval.
    pair = ExponentPair(1.0, 2.0)
    with pytest.raises(DomainError):
        pair.require_gamma(-0.5 + 1e-10)
    assert BOUNDARY_MARGIN == 1e-9
    assert pair.require_gamma(-0.5 + 1e-8) == -0.5 + 1e-8


def test_require_gamma_rejects_nonfinite():
    pair = ExponentPair(1.0, 2.0)
    for g in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            pair.require_gamma(g)


def test_gamma_domain_is_never_empty():
    with pytest.raises(DomainError):
        GammaDomain(1.0, 1.0)
    with pytest.raises(DomainError):
        GammaDomain(2.0, 1.0)
    with pytest.raises(DomainError):
        GammaDomain(math.nan, 1.0)


_exponents = st.floats(0.05, 8.0)


@st.composite
def pairs(draw):
    kind = draw(st.integers(0, 2))
    x = draw(_exponents)
    y = draw(_exponents)
    if kind == 0:
        return ExponentPair(x, x + y)
    if kind == 1:
        return ExponentPair(-x - y, -x)
    return ExponentPair(-x, y)


@given(pairs())
def test_domain_midpoint_is_admissible(pair):
    dom = gamma_domain(pair)
    if math.isinf(dom.lower):
        probe = dom.upper - 1.0
    elif math.isinf(dom.upper):
        probe = dom.lower + 1.0
    else:
        probe = 0.5 * (dom.lower + dom.upper)
    assert dom.contains(probe)
    assert pair.alpha * probe > -1.0
    assert pair.beta * probe > -1.0


@given(pairs(), st.floats(allow_nan=True, allow_infinity=True))
def test_contains_matches_defining_predicate(pair, gamma):
    dom = gamma_domain(pair)
    expected = (
        math.isfinite(gamma)
        and pair.alpha * gamma > -1.0
        and pair.beta * gamma > -1.0
    )
    assert dom.contains(gamma) == expected


def test_interval_validation_and_length():
    iv = Interval(-1.5, 2.0)
    assert iv.length == 3.5
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    with pytest.raises(DomainError):
        Interval(math.nan, 1.0)


def test_search_config_validation():
    cfg = SearchConfig()
    assert cfg.interval_grid == 64
    bad = [
        dict(eps_grid=63),
        dict(interval_grid=7),
    ]
    for kwargs in bad:
        with pytest.raises(DomainError):
            SearchConfig(**kwargs)
    # Tolerances, the scale window and the refinement budget are fixed in
    # generic; the config no longer takes them.
    gone = (
        "quad_tol",
        "quad_max_levels",
        "scale_min",
        "scale_max",
        "refine_rounds",
        "refine_shrink",
        "converge_rtol",
    )
    for name in gone:
        with pytest.raises(TypeError):
            SearchConfig(**{name: 1.0})

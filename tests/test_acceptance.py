"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test prints its own PASS/FAIL line through the conftest hook, so a
run of this file reads as a checklist.  Tolerances and time budgets are
part of the contract and are asserted, not logged.
"""

import math
import time

import numpy as np
import pytest

from rhiconst import oracle
from rhiconst.classconst import (
    class_constants,
    gamma_approach_sequence,
    gamma_sweep,
    general_upper_bound,
    sharpness_table,
    sharpness_table_alpha,
)
from rhiconst.core import (
    DataError,
    ExponentPair,
    gamma_domain,
)
from rhiconst.generic import estimate_halfline, extension_ratio
from rhiconst.means import (
    AffinePower,
    ExpDecay,
    PowerLaw,
    SampledTable,
)
from rhiconst.oracle import brute_extension, brute_halfline
from rhiconst.power import (
    curve_values,
    extension_curve,
    halfline_constant,
    maximize_curve,
    stationarity_residual,
    stationarity_terms,
)

SQRT2 = math.sqrt(2.0)

PAIRS_BY_CASE = {
    "pos_pos": [(1.0, 2.0), (0.5, 3.0), (2.0, 4.0), (1.0, 1.5), (0.25, 8.0)],
    "neg_neg": [(-2.0, -0.5), (-0.4, -0.2), (-3.0, -1.0), (-1.5, -0.75), (-8.0, -0.25)],
    "neg_pos": [(-1.0, 1.0), (-0.25, 4.0), (-2.0, 0.5), (-0.5, 2.0), (-4.0, 0.125)],
}

# Domain fractions for exponent probes; chosen so no probe lands on 0 for
# any pair above and every probe keeps at least a tenth of the range
# between itself and a finite boundary.
_FRACTIONS = (0.1, 0.25, 0.4, 0.55, 0.65, 0.75, 0.9)


def gamma_probes(pair: ExponentPair) -> list[float]:
    dom = gamma_domain(pair)
    lo, hi = dom.lower, dom.upper
    if math.isinf(hi):
        hi = 4.0
    elif math.isinf(lo):
        lo = -4.0
    return [lo + (hi - lo) * s for s in _FRACTIONS]


def all_probe_combos() -> list[tuple[ExponentPair, float]]:
    return [
        (ExponentPair(a, b), g)
        for pairs in PAIRS_BY_CASE.values()
        for a, b in pairs
        for g in gamma_probes(ExponentPair(a, b))
    ]


EXTENSION_COMBOS = [
    (1.0, 2.0, 1.0), (1.0, 2.0, 2.0), (1.0, 2.0, 0.5), (1.0, 2.0, -0.3), (1.0, 2.0, 5.0),
    (0.5, 3.0, 1.0), (0.5, 3.0, -0.2), (0.5, 3.0, 3.0),
    (2.0, 4.0, 0.7), (2.0, 4.0, -0.2),
    (-0.4, -0.2, 2.0), (-0.4, -0.2, -1.0), (-0.4, -0.2, -4.0),
    (-2.0, -0.5, 0.3), (-2.0, -0.5, -1.0),
    (-1.0, 1.0, 0.5), (-1.0, 1.0, -0.5), (-1.0, 1.0, 0.9),
    (-0.25, 4.0, 0.2), (-0.25, 4.0, -0.2),
]


def test_halfline_estimates_match_closed_forms():
    start = time.monotonic()
    for pair, g in all_probe_combos():
        est = estimate_halfline(PowerLaw(g), pair)
        truth = halfline_constant(pair, g)
        assert abs(est.value - truth) <= 1e-6 * truth, (pair, g, est.value, truth)
    assert time.monotonic() - start < 120.0


def test_brute_extension_over_halfline_matches_curve_max(monkeypatch):
    start = time.monotonic()
    monkeypatch.setattr(oracle, "_INTERVAL_GRID", 128)
    for a, b, g in EXTENSION_COMBOS:
        pair = ExponentPair(a, b)
        ratio = brute_extension(PowerLaw(g), pair) / halfline_constant(pair, g)
        _, curve_max = maximize_curve(pair, g)
        assert abs(ratio - curve_max) <= 1e-3 * curve_max, (a, b, g, ratio, curve_max)
    assert time.monotonic() - start < 300.0


def test_extension_growth_never_exceeds_class_bound(monkeypatch):
    ratios: list[tuple[ExponentPair, float]] = []

    monkeypatch.setattr(oracle, "_INTERVAL_GRID", 128)
    for a, b, g in EXTENSION_COMBOS:
        pair = ExponentPair(a, b)
        ratios.append(
            (pair, brute_extension(PowerLaw(g), pair) / halfline_constant(pair, g))
        )
        ratios.append((pair, maximize_curve(pair, g)[1]))

    shaped = [
        (ExpDecay(1.0), ExponentPair(1.0, 2.0)),
        (ExpDecay(2.0), ExponentPair(0.5, 3.0)),
        (ExpDecay(0.5), ExponentPair(2.0, 4.0)),
        (AffinePower(2.0, 0.5, 1.0), ExponentPair(1.0, 2.0)),
        (AffinePower(1.0, 1.0, 1.0), ExponentPair(1.0, 1.5)),
        (AffinePower(1.0, 2.0, 0.5), ExponentPair(-1.0, 1.0)),
        (AffinePower(1.0, -0.5, 0.5), ExponentPair(-0.4, -0.2)),
        (AffinePower(1.0, -0.5, 0.5), ExponentPair(-2.0, -0.5)),
    ]
    for f, pair in shaped:
        ratios.append((pair, extension_ratio(f, pair).ratio))

    # Sampled tables join the suite on the half-line only: their even
    # extension is undefined near the origin and the estimator refuses it,
    # so they contribute no growth ratio.
    xs = np.linspace(0.5, 8.0, 60)
    tables = [
        (
            SampledTable(tuple(xs), tuple(x * x + 1.0 for x in xs)),
            ExponentPair(1.0, 2.0),
        ),
        (
            SampledTable(tuple(xs), tuple(np.exp(-0.7 * xs))),
            ExponentPair(-0.4, -0.2),
        ),
    ]
    for tbl, pair in tables:
        assert estimate_halfline(tbl, pair).value >= 1.0
        with pytest.raises(DataError):
            extension_ratio(tbl, pair)

    assert len(ratios) == 48
    for pair, ratio in ratios:
        assert ratio <= general_upper_bound(pair) + 1e-6, (pair, ratio)


def test_class_constants_exact_values_and_seam_continuity():
    cc = class_constants(ExponentPair(1.0, 2.0))
    assert cc.class_constant == SQRT2
    assert cc.upper_bound == 2.0
    cc = class_constants(ExponentPair(-1.0, 1.0))
    assert cc.class_constant == 2.0
    assert cc.upper_bound == 4.0

    seams = [
        (ExponentPair(1.0 - 1e-13, 2.0), ExponentPair(1.0 + 1e-13, 2.0)),   # alpha = beta/2
        (ExponentPair(-2.0 - 1e-13, -1.0), ExponentPair(-2.0 + 1e-13, -1.0)),  # alpha = 2 beta
        (ExponentPair(-1.0, 1.0 - 1e-13), ExponentPair(-1.0, 1.0 + 1e-13)),  # beta = -alpha
    ]
    for left, right in seams:
        gap = abs(
            class_constants(left).class_constant
            - class_constants(right).class_constant
        )
        assert gap <= 1e-12, (left, right, gap)


def test_gamma_sweeps_climb_to_class_constant():
    start = time.monotonic()
    pair = ExponentPair(1.0, 2.0)

    grow = [r.curve_max for r in gamma_sweep(pair, np.geomspace(1.0, 1000.0, 25))]
    assert all(x < y for x, y in zip(grow, grow[1:]))
    assert grow[-1] >= 0.98 * SQRT2

    approach = gamma_approach_sequence(pair, gamma_domain(pair).lower, 40)
    sink = [r.curve_max for r in gamma_sweep(pair, approach)]
    assert all(x < y for x, y in zip(sink, sink[1:]))
    assert sink[-1] >= 0.98 * 2.0 ** (1.0 / pair.beta)

    assert time.monotonic() - start < 60.0


def test_shape_curve_exceeds_one_strictly_inside():
    rng = np.random.default_rng(20260814)

    def random_pair() -> ExponentPair:
        case = rng.integers(3)
        if case == 0:
            a = rng.uniform(0.2, 3.0)
            return ExponentPair(a, a + rng.uniform(0.1, 3.0))
        if case == 1:
            b = -rng.uniform(0.2, 3.0)
            return ExponentPair(b - rng.uniform(0.1, 3.0), b)
        return ExponentPair(-rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))

    def random_gamma(pair: ExponentPair) -> float:
        dom = gamma_domain(pair)
        lo, hi = dom.lower, dom.upper
        while True:
            if math.isinf(hi):
                g = lo + rng.uniform(0.1, 3.0) * max(1.0, abs(lo))
            elif math.isinf(lo):
                g = hi - rng.uniform(0.1, 3.0) * max(1.0, abs(hi))
            else:
                g = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            if abs(g) >= 1e-2:
                return g

    eps = np.linspace(0.02, 0.98, 50)
    for _ in range(200):
        pair = random_pair()
        g = random_gamma(pair)
        assert np.all(curve_values(pair, g, eps) > 1.0), (pair, g)
        assert abs(extension_curve(pair, g, 0.0) - 1.0) <= 1e-12
        assert abs(extension_curve(pair, g, 1.0) - 1.0) <= 1e-12


def test_stationarity_residual_vanishes_at_maximizers():
    interior = 0
    for pair, g in all_probe_combos():
        assert abs(stationarity_residual(pair, g, 1.0)) <= 1e-12
        eps_star, curve_max = maximize_curve(pair, g)
        if curve_max <= 1.0:
            continue
        interior += 1
        assert 0.0 < eps_star < 1.0
        scale = max(abs(t) for t in stationarity_terms(pair, g, eps_star))
        assert abs(stationarity_residual(pair, g, eps_star)) <= 1e-8 * scale
    assert interior >= 50


# One monotone function per row; chosen so the supremum is attained well
# inside the search window (an unbounded in-window growth would compare
# grid truncation points instead of the two searches).
REDUCTION_ROWS = [
    (PowerLaw(1.0), (1.0, 2.0)),
    (PowerLaw(1.0), (-0.4, -0.2)),
    (PowerLaw(1.0), (-0.25, 1.0)),
    (PowerLaw(2.0), (0.5, 3.0)),
    (PowerLaw(2.0), (-0.4, -0.2)),
    (PowerLaw(2.0), (-0.25, 1.0)),
    (PowerLaw(-0.5), (0.5, 1.5)),
    (PowerLaw(-0.5), (-0.4, -0.2)),
    (PowerLaw(-0.5), (-1.0, 1.0)),
    (AffinePower(1.0, -0.5, 0.5), (0.5, 1.5)),
    (AffinePower(1.0, -0.5, 0.5), (-0.4, -0.2)),
    (AffinePower(1.0, -0.5, 0.5), (-1.0, 1.0)),
]


def test_origin_anchored_search_dominates_full_grid():
    for f, (a, b) in REDUCTION_ROWS:
        pair = ExponentPair(a, b)
        est = estimate_halfline(f, pair)
        brute = brute_halfline(f, pair)
        assert brute <= est.value + 1e-4, (f.describe(), a, b, brute, est.value)


def test_sharpness_ratios_increase_toward_one():
    limit = 2.0 ** (-1.0 / 1024.0)

    rows = sharpness_table(1.0, [float(2**k) for k in range(1, 11)])
    ratios = [r.ratio for r in rows]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    assert math.isclose(ratios[-1], limit, rel_tol=1e-12)
    assert ratios[-1] >= 0.999

    rows = sharpness_table_alpha(-0.5, [-float(2**k) for k in range(1, 11)])
    ratios = [r.ratio for r in rows]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    assert math.isclose(ratios[-1], limit, rel_tol=1e-12)
    assert ratios[-1] >= 0.999

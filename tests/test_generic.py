"""Supremum searches for arbitrary functions and the growth-ratio pipeline."""

import math
import tracemalloc

import numpy as np
import pytest

from rhiconst import generic, tables
from rhiconst.core import (
    DataError,
    DomainError,
    ExponentPair,
    Interval,
    NumericError,
    QuadratureError,
)
from rhiconst.generic import (
    EvenExtensionView,
    SupremumEstimate,
    estimate_extension,
    estimate_halfline,
    extension_ratio,
)
from rhiconst.means import (
    AffinePower,
    ExpDecay,
    PowerLaw,
    SampledTable,
    mean_ratio,
    mean_ratios,
    quad_mean,
)
from rhiconst.oracle import brute_extension, brute_halfline
from rhiconst.power import power_report

P_12 = 1.1547005383792517  # 2/sqrt(3)
R_12 = 1.224744871391589  # sqrt(3/2)

# Trimmed grids keep the whole module under a few seconds; accuracy targets
# below are far looser than what even these grids deliver.
GRID = 32


@pytest.fixture
def trimmed_grid(monkeypatch):
    """Run the analytic searches with GRID seeds per axis."""
    monkeypatch.setattr(generic, "_INTERVAL_GRID", GRID)


def test_halfline_estimate_matches_closed_form(trimmed_grid):
    est = estimate_halfline(PowerLaw(1.0), ExponentPair(1.0, 2.0))
    assert math.isclose(est.value, P_12, rel_tol=1e-6)
    assert est.converged
    assert est.witness.lo == 0.0


def test_halfline_estimate_mixed_case_negative_gamma(trimmed_grid):
    pair = ExponentPair(-1.0, 1.0)
    rep = power_report(pair, -0.4)
    est = estimate_halfline(PowerLaw(-0.4), pair)
    assert math.isclose(est.value, rep.halfline_constant, rel_tol=1e-6)


def test_witness_reproduces_reported_value(trimmed_grid):
    est = estimate_halfline(ExpDecay(1.0), ExponentPair(1.0, 2.0))
    again = mean_ratio(ExpDecay(1.0), est.witness, ExponentPair(1.0, 2.0))
    assert math.isclose(again, est.value, rel_tol=1e-9)


def test_extension_estimate_matches_power_pipeline(trimmed_grid):
    est = estimate_extension(PowerLaw(1.0), ExponentPair(1.0, 2.0))
    assert math.isclose(est.value, R_12, rel_tol=1e-4)
    assert est.witness.lo < 0.0 < est.witness.hi


def test_extension_witness_straddles_and_reproduces(trimmed_grid):
    pair = ExponentPair(1.0, 2.0)
    f = AffinePower(1.0, 1.0, 1.0)
    est = estimate_extension(f, pair)
    view = EvenExtensionView(f)
    again = mean_ratio(view, est.witness, pair)
    assert math.isclose(again, est.value, rel_tol=1e-9)
    mirrored = Interval(-est.witness.hi, -est.witness.lo)
    assert math.isclose(mean_ratio(view, mirrored, pair), est.value, rel_tol=1e-9)


def test_extension_ratio_against_proven_bound(trimmed_grid):
    for f in (PowerLaw(1.0), ExpDecay(1.0), AffinePower(2.0, 0.5, 1.0)):
        rr = extension_ratio(f, ExponentPair(1.0, 2.0))
        assert 1.0 - 1e-6 <= rr.ratio <= rr.upper_bound + 1e-6
        assert rr.upper_bound == 2.0
        assert math.isclose(
            rr.ratio, rr.extension.value / rr.halfline.value, rel_tol=1e-12
        )


def test_extension_ratio_power_law_matches_closed_form(trimmed_grid):
    rr = extension_ratio(PowerLaw(1.0), ExponentPair(1.0, 2.0))
    rep = power_report(ExponentPair(1.0, 2.0), 1.0)
    assert math.isclose(rr.ratio, rep.curve_max, rel_tol=1e-4)


def test_two_dimensional_search_never_beats_reduction(trimmed_grid):
    pair = ExponentPair(1.0, 2.0)
    f = ExpDecay(1.0)
    one_d = estimate_halfline(f, pair)
    two_d = generic._halfline_2d(f, pair)
    assert two_d.value <= one_d.value + 1e-4 * max(1.0, one_d.value)


def test_estimates_agree_with_brute_force(trimmed_grid):
    pair = ExponentPair(1.0, 2.0)
    f = AffinePower(1.0, 1.0, 1.0)
    est_p = estimate_halfline(f, pair)
    est_r = estimate_extension(f, pair)
    bp = brute_halfline(f, pair)
    br = brute_extension(f, pair)
    assert abs(est_p.value - bp) <= 1e-3 * bp
    assert abs(est_r.value - br) <= 1e-3 * br


def test_monotone_table_gets_the_exhaustive_search():
    # Increasing data still gets the exhaustive knot-pair scan and polish,
    # never the reduction to windows anchored at the first knot.
    xs = np.linspace(0.5, 8.0, 120)
    tables = [
        (xs, xs**2 + 1.0),
        (np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0]), np.array([1.0, 1.7, 2.2, 3.1, 3.3, 5.0])),
    ]
    pair = ExponentPair(1.0, 2.0)
    for knots, values in tables:
        tbl = SampledTable(knots, values)
        est = estimate_halfline(tbl, pair)
        assert tbl.domain[0] <= est.witness.lo < est.witness.hi <= tbl.domain[1]
        again = quad_mean(tbl, est.witness, 2.0).value / quad_mean(tbl, est.witness, 1.0).value
        assert math.isclose(again, est.value, rel_tol=1e-12)
        anchored = max(mean_ratio(tbl, Interval(knots[0], x), pair) for x in knots[1:])
        assert est.value >= anchored


def _knot_pair_best(tbl, pair):
    xs = tbl.xs.tolist()
    best = -math.inf
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            best = max(best, mean_ratio(tbl, Interval(xs[i], xs[j]), pair))
    return best


def _small_tables():
    rng = np.random.default_rng(7)
    pairs = [ExponentPair(1.0, 2.0), ExponentPair(-1.0, 1.0), ExponentPair(-2.0, -0.5)]
    for k in range(9):
        n = int(rng.integers(3, 31))
        xs = np.cumsum(rng.uniform(0.05, 1.5, n)) + 0.2
        fs = np.exp(rng.normal(0.0, 1.0, n))
        yield xs, np.sort(fs) if k % 3 == 0 else fs, pairs[k % 3]
    # The maximum of this one lies in the box of the second-best knot pair,
    # which is next to the best one: polishing the best pair alone loses 1.1%.
    yield (
        np.array([0.46231794347357497, 3.20226735632096, 5.362688714223436,
                  6.5565998123772244, 6.931011326034207, 9.944480399783854,
                  14.60355001219602, 16.888992571538186, 18.645067936586347,
                  19.246309858652616]),
        np.array([2.177238609914685, 0.6431861099561726, 0.7923196337059458,
                  0.27170216853129736, 1.2291126546592646, 0.166431397544882,
                  0.3622912821143907, 3.062294159738971, 0.9796449744965958,
                  0.6952901427999716]),
        ExponentPair(-2.0, -0.5),
    )


@pytest.mark.parametrize("case", range(10))
def test_table_search_reaches_every_knot_pair_and_the_oracle(case):
    xs, fs, pair = list(_small_tables())[case]
    tbl = SampledTable(xs, fs)
    est = estimate_halfline(tbl, pair)
    # The scan ranks pairs by sums that are not added in the same order as
    # one window's mean, so a near-tie can rank in the last bits either way.
    assert est.value >= _knot_pair_best(tbl, pair) * (1.0 - 1e-13)
    assert est.value >= brute_halfline(tbl, pair) * (1.0 - 1e-9)


def test_table_without_declared_monotonicity_gets_full_search():
    xs = np.linspace(0.5, 4.0, 80)
    tbl = SampledTable(xs, np.sin(xs) + 2.0)
    est = estimate_halfline(tbl, ExponentPair(1.0, 2.0))
    assert est.value >= 1.0
    assert est.witness.lo >= 0.5 and est.witness.hi <= 4.0


@pytest.mark.parametrize(
    "search, expected",
    [
        (
            lambda: estimate_extension(PowerLaw(1.0), ExponentPair(1.0, 2.0)),
            (1.224742334458833, -0.2698412698412698, 1.0, 89, True),
        ),
        (
            lambda: estimate_halfline(AffinePower(2.0, 0.5, 1.0), ExponentPair(-1.0, 1.0)),
            (1.2751170685077322, 0.0, 999.9999999999998, 73, True),
        ),
        (
            lambda: generic._halfline_2d(ExpDecay(1.0), ExponentPair(1.0, 2.0)),
            (22.360679774998193, 68.97785379387658, 1068.9778537938764, 4177, True),
        ),
        (
            lambda: estimate_extension(AffinePower(1.0, 0.5, 0.5), ExponentPair(-1.0, 1.0)),
            (1.4026358134371757, -79.36507936507934, 999.9999999999998, 5201, True),
        ),
    ],
    ids=["pow-extension-1d", "affpow-halfline-1d", "expdecay-halfline-2d", "affpow-extension-2d"],
)
def test_default_searches_are_pinned(search, expected):
    # Exact results on the default grids: any change in seed grids,
    # stencil order, tie-breaking or bracket clipping shows up here.
    est = search()
    got = (est.value, est.witness.lo, est.witness.hi, est.search_points, est.converged)
    assert got == expected


def test_default_extension_search_memory_is_bounded():
    # A pass takes both means of _SCORE_SLICE intervals at once, and each of
    # its integrand calls holds at most means._NODE_BUDGET nodes.
    f, pair = AffinePower(1.0, 0.5, 0.5), ExponentPair(-1.0, 1.0)
    estimate_extension(f, pair)
    tracemalloc.start()
    try:
        estimate_extension(f, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# A non-monotone table small enough that its polishes score windows inside
# one knot gap, windows over several knots and windows at both table ends.
BUMPY_TABLE = SampledTable(
    np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0]), np.array([1.0, 2.2, 1.7, 3.1, 1.3, 5.0])
)


def _wavy_table(seed: int, n: int) -> SampledTable:
    # A positive, non-monotone table of n knots on [0.5, 20.5]: a slow and
    # a fast wave in log f plus a little noise, on a jittered uniform grid.
    rng = np.random.default_rng(seed)
    t = (np.arange(n) + 0.5 + 0.8 * (rng.uniform(size=n) - 0.5)) / n
    t[0], t[-1] = 0.0, 1.0
    logf = (
        0.6 * np.sin(2 * np.pi * 2.0 * t + rng.uniform(0, 6))
        + 0.25 * np.sin(2 * np.pi * 7.0 * t + rng.uniform(0, 6))
        + 0.05 * rng.standard_normal(n)
    )
    return SampledTable(0.5 + 20.0 * t, np.exp(logf - 0.5))


@pytest.mark.parametrize(
    "table, pair, expected",
    [
        (
            BUMPY_TABLE,
            ExponentPair(-1.0, 1.0),
            (1.1789191372126584, 3.5, 8.0, 2749, True),
        ),
        (
            _wavy_table(1, 60),
            ExponentPair(1.0, 2.0),
            (1.1419674193381681, 4.434372621832104, 10.315462922955097, 7116, True),
        ),
        (
            _wavy_table(2, 180),
            ExponentPair(-2.0, -1.0),
            (1.139987257673437, 11.19549166742343, 16.862825434599966, 22752, True),
        ),
        (
            _wavy_table(3, 360),
            ExponentPair(-1.0, 1.0),
            (1.317304916562964, 3.4112588966115176, 9.347920145246809, 70047, True),
        ),
    ],
    ids=["bumpy", "wavy-60-pos", "wavy-180-neg", "wavy-360-mixed"],
)
def test_table_searches_are_pinned(table, pair, expected):
    # Exact results of the scan and polish; every polished pair adds its
    # evaluations.
    est = estimate_halfline(table, pair)
    got = (est.value, est.witness.lo, est.witness.hi, est.search_points, est.converged)
    assert got == expected


def _interior(iv: Interval, geometric: bool) -> bool:
    return iv.lo > 0.0 and (iv.hi / iv.lo > 10.0) == geometric


def _inner_knots(iv: Interval) -> int:
    return int(np.sum((BUMPY_TABLE.xs > iv.lo) & (BUMPY_TABLE.xs < iv.hi)))


@pytest.mark.parametrize(
    "search, grid, covers",
    [
        (
            lambda: estimate_extension(PowerLaw(1.0), ExponentPair(1.0, 2.0)),
            None,
            lambda ivs, scores: any(iv.lo == 0.0 for iv in ivs),
        ),
        # Offset 1 keeps f regular at 0 (substitution exponent p = 1);
        # offset 0 with gamma < 0 makes it singular there (p != 1).
        (
            lambda: estimate_extension(AffinePower(2.0, 0.5, 1.0), ExponentPair(1.0, 2.0)),
            GRID,
            lambda ivs, scores: any(iv.lo < 0.0 < iv.hi for iv in ivs),
        ),
        (
            lambda: estimate_extension(AffinePower(1.0, -0.3, 0.0), ExponentPair(-1.0, 1.0)),
            GRID,
            lambda ivs, scores: any(iv.lo < 0.0 < iv.hi for iv in ivs),
        ),
        (
            lambda: generic._halfline_2d(ExpDecay(1.0), ExponentPair(1.0, 2.0)),
            GRID,
            lambda ivs, scores: (
                np.isneginf(scores).any()
                and any(_interior(iv, True) for iv in ivs)
                and any(_interior(iv, False) for iv in ivs)
            ),
        ),
        (
            lambda: estimate_halfline(BUMPY_TABLE, ExponentPair(-1.0, 1.0)),
            None,
            lambda ivs, scores: (
                any(_inner_knots(iv) == 0 for iv in ivs)
                and any(_inner_knots(iv) >= 2 for iv in ivs)
                and any(iv.lo == 0.1 for iv in ivs)
                and any(iv.hi == 8.0 for iv in ivs)
            ),
        ),
    ],
    ids=["pow-eps", "affpow-regular", "affpow-singular", "expdecay-2d", "table-polish"],
)
def test_batched_scores_equal_scalar_loop(monkeypatch, search, grid, covers):
    # Every batch a search scores (slices of the seed grid, then each
    # stencil) must score exactly as a loop of scalar mean_ratio calls,
    # failed cells (-inf) included.
    if grid is not None:
        monkeypatch.setattr(generic, "_INTERVAL_GRID", grid)
    batches = []
    scored = generic._scored_ratios

    def recording(f, lo, hi, pair, tol):
        got = scored(f, lo, hi, pair, tol)
        intervals = [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        batches.append((f, intervals, pair, tol, got))
        return got

    monkeypatch.setattr(generic, "_scored_ratios", recording)
    search()
    assert len(batches) > 1
    for f, intervals, pair, tol, got in batches:
        want = []
        for interval in intervals:
            try:
                want.append(mean_ratio(f, interval, pair, tol))
            except (DomainError, NumericError, QuadratureError):
                want.append(-math.inf)
        assert got.tolist() == want
    intervals = [iv for batch in batches for iv in batch[1]]
    assert covers(intervals, np.concatenate([batch[-1] for batch in batches]))


# Seeds of _masked_family that give no interval: a NaN end, an infinite
# end, an empty window and a reversed one.
BAD_BOUNDS = {-4.0: (math.nan, 8.0), -3.0: (0.5, math.inf), -2.0: (2.0, 2.0), -1.0: (4.0, 1.0)}


def _masked_family(points):
    # Windows (t, 8) of BUMPY_TABLE, and the BAD_BOUNDS at their seeds.
    t = points[:, 0]
    lo, hi = t.copy(), np.full(len(t), 8.0)
    for seed, (a, b) in BAD_BOUNDS.items():
        lo[t == seed], hi[t == seed] = a, b
    return lo, hi


def test_search_scores_invalid_bounds_as_minus_inf(monkeypatch):
    pair = ExponentPair(-1.0, 1.0)
    valid = np.linspace(0.1, 7.0, 12)
    seeds = np.concatenate((list(BAD_BOUNDS), valid))
    grids = []
    refine = generic._grid_refine

    def recording(score, boxes, rtol):
        def scored(points):
            got = score(points)
            grids.append((points, got))
            return got

        return refine(scored, boxes, rtol)

    monkeypatch.setattr(generic, "_grid_refine", recording)
    [masked] = generic._search(BUMPY_TABLE, pair, _masked_family, [[seeds]])
    points, got = grids[0]
    bad = np.isin(points[:, 0], list(BAD_BOUNDS))
    assert bad.sum() == len(BAD_BOUNDS)
    assert np.isneginf(got[bad]).all() and np.isfinite(got[~bad]).all()
    [plain] = generic._search(BUMPY_TABLE, pair, _masked_family, [[valid]])
    # Same value, witness and refinement; only the four bad seeds more.
    assert masked[:2] == plain[:2]
    assert masked[2] == plain[2] + len(BAD_BOUNDS)


def _peaked(points):
    # Flat at 3 left of 0, a peak off every stencil at (3.3, 7.1) on [0, 10]
    # and no interval at all right of 100.
    x, y = points[:, 0], points[:, 1]
    peak = 1.0 + 1.0 / (1.0 + (x - 3.3) ** 2 + 4.0 * (y - 7.1) ** 2)
    return np.where(x < 0.0, 3.0, np.where(x > 100.0, -math.inf, peak))


def _same(a, b) -> bool:
    if isinstance(a, NumericError) or isinstance(b, NumericError):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def test_lockstep_searches_equal_each_search_alone():
    boxes = [
        [np.linspace(-5.0, -1.0, 9), np.linspace(0.0, 1.0, 9)],
        [np.linspace(0.0, 10.0, 9), np.linspace(0.0, 10.0, 7)],
        [np.linspace(101.0, 200.0, 4), np.linspace(0.0, 1.0, 3)],
        [np.linspace(0.0, 2.0, 5), np.linspace(8.0, 10.0, 5)],
    ]
    batch = generic._grid_refine(_peaked, boxes, 1e-12)
    alone = [generic._grid_refine(_peaked, [box], 1e-12)[0] for box in boxes]
    assert all(_same(a, b) for a, b in zip(batch, alone))
    flat, peak, none, edge = batch
    # The flat box gains nothing in its first round; the peak keeps refining.
    assert flat[2:] == (81 + 81, True)
    assert peak[2] > 63 + 3 * 81
    assert isinstance(none, NumericError)
    assert edge[0] == (2.0, 8.0)


def test_table_polishes_in_one_batch_equal_each_polish_alone():
    # Boxes at both table ends (5 seeds per axis), inner boxes (9 seeds)
    # and a box whose windows are all reversed, so every seed scores -inf.
    pair = ExponentPair(-1.0, 1.0)
    xs = BUMPY_TABLE.xs
    boxes = [
        [tables._knot_seeds(xs, i), tables._knot_seeds(xs, j)]
        for i, j in [(0, 5), (1, 3), (4, 1), (2, 4), (0, 1)]
    ]

    def identity(p):
        return p[:, 0], p[:, 1]

    rtol = generic._POLISH_RTOL
    batch = generic._search(BUMPY_TABLE, pair, identity, boxes, rtol)
    alone = [generic._search(BUMPY_TABLE, pair, identity, [box], rtol)[0] for box in boxes]
    assert all(_same(a, b) for a, b in zip(batch, alone))
    assert [isinstance(r, NumericError) for r in batch] == [False, False, True, False, False]
    assert batch[0][1] == Interval(0.1, 8.0)


def test_table_search_scores_one_pass_per_round(monkeypatch):
    sizes = []
    scored = generic._scored_ratios

    def recording(f, lo, hi, pair, tol):
        sizes.append(len(lo))
        return scored(f, lo, hi, pair, tol)

    monkeypatch.setattr(generic, "_scored_ratios", recording)
    estimate_halfline(_wavy_table(3, 360), ExponentPair(-1.0, 1.0))
    # The seed grids, at most _REFINE_ROUNDS rounds, then the re-score.
    assert 3 <= len(sizes) <= generic._REFINE_ROUNDS + 2
    assert sizes[0] > generic._SCORE_SLICE
    assert max(sizes) <= tables._POLISH_PAIRS * 81


def _replay(monkeypatch, table, pair, planted):
    # The table search with the polishes numbered in planted failing with a
    # NumericError.  Returns the estimate, or the error it raised, and the
    # result of every polish as it ran.
    search = generic._search
    found = []

    def failing(*args):
        found.extend(search(*args))
        return [NumericError("planted") if k in planted else r for k, r in enumerate(found)]

    with monkeypatch.context() as patch:
        patch.setattr(generic, "_search", failing)
        try:
            result = estimate_halfline(table, pair)
        except NumericError as exc:
            result = exc
    return result, found


def test_every_polish_counts_and_a_failed_one_is_dropped(monkeypatch):
    table, pair = _wavy_table(1, 60), ExponentPair(1.0, 2.0)
    _, scanned = tables._scan_knot_pairs(table, pair)
    plain, found = _replay(monkeypatch, table, pair, set())
    assert len(found) == tables._POLISH_PAIRS
    assert plain.value == max(r[0] for r in found)
    assert plain.search_points == scanned + sum(r[2] for r in found)
    for k in range(len(found)):
        others = found[:k] + found[k + 1 :]
        # max keeps the first of equal values, like _best.
        win = max(others, key=lambda r: r[0])
        got, _ = _replay(monkeypatch, table, pair, {k})
        assert (got.value, got.witness) == win[:2]
        assert got.search_points == scanned + sum(r[2] for r in others)
    failed, _ = _replay(monkeypatch, table, pair, set(range(len(found))))
    assert isinstance(failed, NumericError) and str(failed) == "planted"


def test_polish_next_to_a_better_pair_counts():
    # The polish of the best knot pair, (1.613, 2.433), settles at
    # 1.13891177; the polishes of the two pairs next to it, which share its
    # box's stretches, reach 1.13897962, the peak of a dense scan of the
    # exact means.
    tbl = SampledTable(np.array([0.7081, 1.613, 2.433]), np.array([0.8775, 1.478, 0.2879]))
    pair = ExponentPair(2.0, 5.0)
    est = estimate_halfline(tbl, pair)
    assert est.value >= 1.13897962 * (1.0 - 1e-9)
    a = np.linspace(0.7081, 2.433, 401)
    lo, hi = np.meshgrid(a, a, indexing="ij")
    inside = lo < hi
    dense = generic._scored_ratios(tbl, lo[inside], hi[inside], pair, generic.QUAD_TOL)
    assert est.value >= dense.max()


@pytest.mark.parametrize("block", [1, 7, 100, tables._SCAN_BLOCK])
def test_scan_blocks_do_not_change_the_ranking(monkeypatch, block):
    # The second table spans beyond double range, so most of its rows of
    # knot pairs are summed in logs.  So are most of the windows with ends
    # inside stretches that mean_ratios scores.
    rng = np.random.default_rng(1)
    wide = SampledTable(np.linspace(0.5, 20.0, 40), 10.0 ** rng.uniform(-320, 300, 40))
    cases = [(_wavy_table(1, 60), ExponentPair(1.0, 2.0)), (wide, ExponentPair(-2.0, -0.5))]
    lo = rng.uniform(0.5, 18.5, 200)
    windows = [Interval(a, b) for a, b in zip(lo, lo + rng.uniform(0.01, 1.5, 200))]

    def run():
        scans = [tables._scan_knot_pairs(table, pair) for table, pair in cases]
        return scans, mean_ratios(wide, windows, ExponentPair(-2.0, -0.5)).tolist()

    expected = run()
    monkeypatch.setattr(tables, "_SCAN_BLOCK", block)
    assert run() == expected


def _wide_tables(count):
    """Tables of 3 to 19 knots with values 10**U(-320, 300)."""
    rng = np.random.default_rng(12345)
    for _ in range(count):
        n = int(rng.integers(3, 20))
        yield SampledTable(np.linspace(0.5, 20.0, n), 10.0 ** rng.uniform(-320, 300, n))


@pytest.mark.filterwarnings("error")
def test_scan_ranks_windows_beyond_double_range():
    # Rows whose sums underflow at the table's scale are summed in logs,
    # so every knot-to-knot window has a finite score and no estimate
    # falls below one.
    pair = ExponentPair(-2.0, -0.5)
    for table in _wide_tables(20):
        xs = table.xs
        i, j = np.triu_indices(len(xs), 1)
        scores = mean_ratios(table, [Interval(a, b) for a, b in zip(xs[i], xs[j])], pair)
        assert np.isfinite(scores).all()
        assert estimate_halfline(table, pair).value >= scores.max() * (1.0 - 1e-13)
    # The 40-knot table of the CI: its knot pair (35, 36) has the ratio
    # 3.0650441028226443e271 (60-digit reference).
    rng = np.random.default_rng(1)
    k40 = SampledTable(np.linspace(0.5, 20.0, 40), 10.0 ** rng.uniform(-320, 300, 40))
    assert estimate_halfline(k40, pair).value >= 3.0650441028226443e271 * (1.0 - 1e-12)


@pytest.mark.filterwarnings("error")
def test_scan_overflow_at_a_tiny_order_is_a_numeric_error():
    # 1/alpha overflows, so no window has a finite score; no numpy warning.
    tbl = SampledTable(np.array([0.5, 1.0, 2.0, 3.0]), np.array([1.0, 3.0, 0.5, 2.0]))
    with pytest.raises(NumericError, match="no window of the table has finite means"):
        estimate_halfline(tbl, ExponentPair(5e-324, 1.0))


def test_table_extension_is_rejected():
    xs = np.linspace(0.5, 8.0, 60)
    tbl = SampledTable(xs, xs.copy())
    with pytest.raises(DataError):
        estimate_extension(tbl, ExponentPair(1.0, 2.0))


def test_even_extension_input_is_rejected():
    with pytest.raises(DomainError):
        estimate_extension(EvenExtensionView(PowerLaw(1.0)), ExponentPair(1.0, 2.0))


def test_non_summable_input_is_rejected():
    with pytest.raises(DomainError):
        estimate_halfline(PowerLaw(-0.6), ExponentPair(1.0, 2.0))


def test_negative_orders_require_strict_positivity():
    xs = np.linspace(1.0, 2.0, 30)
    fs = xs.copy()
    fs[10] = 0.0
    tbl = SampledTable(xs, fs)
    with pytest.raises(DomainError):
        estimate_halfline(tbl, ExponentPair(-1.0, 1.0))


def test_supremum_estimate_validation():
    with pytest.raises(NumericError):
        SupremumEstimate(0.5, Interval(0.0, 1.0), 10, True)
    with pytest.raises(NumericError):
        SupremumEstimate(1.5, Interval(0.0, 1.0), 0, True)

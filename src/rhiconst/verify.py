"""Self-check suites pitting each module against an independent reference.

Closed forms are checked against quadrature, searches against brute-force
grids, and proven inequalities against random admissible inputs.  The
searches run exactly as the estimate command runs them, and the oracle at
its one fixed resolution.  Every check is deterministic for a fixed seed.
A failing check never raises; it comes back as a CheckResult with
passed=False so a whole suite can be reported in one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classconst, generic, means, oracle, power
from .core import DomainError, ExponentPair, Interval, gamma_domain

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("means", "power", "class", "generic")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Random admissible inputs
# ---------------------------------------------------------------------------


def _random_pair(rng: np.random.Generator) -> ExponentPair:
    case = rng.integers(0, 3)
    x = float(rng.uniform(0.2, 3.0))
    y = x + float(rng.uniform(0.2, 3.0))
    if case == 0:
        return ExponentPair(x, y)
    if case == 1:
        return ExponentPair(-y, -x)
    return ExponentPair(-x, y)


def _random_gamma(pair: ExponentPair, rng: np.random.Generator) -> float:
    """Admissible exponent, at most 90% of the way toward a finite boundary."""
    dom = gamma_domain(pair)
    t = float(rng.uniform(-1.0, 1.0))
    if math.isfinite(dom.lower) and math.isfinite(dom.upper):
        mid = 0.5 * (dom.lower + dom.upper)
        return mid + t * 0.45 * (dom.upper - dom.lower)
    if math.isinf(dom.upper):  # (-1/beta, inf)
        return 0.9 * dom.lower * -t if t < 0.0 else 4.0 * t
    return 0.9 * dom.upper * t if t > 0.0 else 4.0 * t  # (-inf, -1/alpha)


# ---------------------------------------------------------------------------
# Suite: means
# ---------------------------------------------------------------------------


def _suite_means(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    value = means.quad_mean(means.PowerLaw(1.0), Interval(0.0, 1.0), 1.0).value
    out.append(
        CheckResult(
            "means.quadrature_matches_closed_form_linear",
            _close(value, 0.5, 1e-9),
            f"mean of x on (0,1) = {value:.12g}, closed form 0.5",
        )
    )

    got = means.quad_mean(means.PowerLaw(0.4), Interval(0.0, 2.0), -2.0).value
    want = means.power_mean_closed(0.4, -2.0, 2.0)
    out.append(
        CheckResult(
            "means.quadrature_matches_closed_form_singular",
            _close(got, want, 1e-9),
            f"order -2 mean of x**0.4 on (0,2): {got:.12g} vs {want:.12g}",
        )
    )

    ok, detail = True, ""
    for _ in range(25):
        gamma = float(rng.uniform(-0.4, 2.0))
        eps = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.5, 3.0))
        lhs = means.power_mean_closed(gamma, 1.0, lam * eps)
        rhs = lam**gamma * means.power_mean_closed(gamma, 1.0, eps)
        if not _close(lhs, rhs, 1e-12):
            ok, detail = False, f"gamma={gamma:.6g} eps={eps:.6g} lam={lam:.6g}"
            break
    out.append(
        CheckResult(
            "means.scale_covariance_of_power_means",
            ok,
            detail or "M(0,lam*eps) = lam**gamma * M(0,eps) on 25 random draws",
        )
    )

    ok, detail = True, ""
    for _ in range(20):
        pair = _random_pair(rng)
        gamma = _random_gamma(pair, rng)
        lo = float(rng.uniform(0.01, 1.0))
        hi = lo + float(rng.uniform(0.1, 5.0))
        r = means.mean_ratio(means.PowerLaw(gamma), Interval(lo, hi), pair)
        if r < 1.0 - 1e-9:
            ok, detail = False, f"ratio {r:.12g} < 1 at gamma={gamma:.6g}, {pair}"
            break
    out.append(
        CheckResult(
            "means.mean_monotone_in_order",
            ok,
            detail or "mean ratio >= 1 on 20 random power laws and intervals",
        )
    )

    f = means.AffinePower(1.0, 2.0, 0.5)
    view = means.EvenExtensionView(f)
    left = means.quad_mean(view, Interval(-0.7, 1.3), 2.0).value
    right = means.quad_mean(view, Interval(-1.3, 0.7), 2.0).value
    out.append(
        CheckResult(
            "means.even_extension_mirror_symmetry",
            _close(left, right, 1e-9),
            f"mirrored means {left:.12g} vs {right:.12g}",
        )
    )

    xs = np.geomspace(0.1, 10.0, 400)
    table = means.SampledTable(xs, xs)
    got = means.quad_mean(table, Interval(0.5, 8.0), 3.0).value
    want = means.quad_mean(means.PowerLaw(1.0), Interval(0.5, 8.0), 3.0).value
    out.append(
        CheckResult(
            "means.table_tracks_sampled_function",
            _close(got, want, 1e-4),
            f"cubic mean of tabulated identity {got:.8g} vs analytic {want:.8g}",
        )
    )

    mv = means.quad_mean(means.ExpDecay(1.0), Interval(0.0, 3.0), 2.0, tol=1e-10)
    out.append(
        CheckResult(
            "means.error_estimate_within_tolerance",
            mv.abs_error_estimate <= 1e-10 * (1.0 + mv.value),
            f"reported error {mv.abs_error_estimate:.3g}",
        )
    )
    # The estimate above only measures the cells next to 0 that a level
    # refines, so the same mean is also held to its closed form.
    want = math.sqrt(-math.expm1(-6.0) / 6.0)
    out.append(
        CheckResult(
            "means.origin_mean_matches_closed_form",
            abs(mv.value - want) <= 1e-10 * (1.0 + want),
            f"order 2 mean of exp(-x) on (0,3) {mv.value:.12g},"
            f" relative error {abs(mv.value - want) / want:.2g}",
        )
    )

    try:
        means.quad_mean(means.PowerLaw(-1.5), Interval(0.0, 1.0), 1.0)
        ok, detail = False, "non-summable integrand was accepted"
    except Exception as exc:  # expected: DomainError
        ok = type(exc).__name__ == "DomainError"
        detail = f"raised {type(exc).__name__}"
    out.append(CheckResult("means.rejects_non_summable_integrand", ok, detail))

    return out


# ---------------------------------------------------------------------------
# Suite: power
# ---------------------------------------------------------------------------


def _suite_power(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    out: list[CheckResult] = []
    pair12 = ExponentPair(1.0, 2.0)

    got = power.halfline_constant(pair12, 1.0)
    out.append(
        CheckResult(
            "power.halfline_constant_linear_case",
            _close(got, 2.0 / math.sqrt(3.0), 1e-12),
            f"{got:.15g} vs 2/sqrt(3)",
        )
    )

    got = power.halfline_constant(ExponentPair(-1.0, 1.0), 0.5)
    out.append(
        CheckResult(
            "power.halfline_constant_mixed_case",
            _close(got, 4.0 / 3.0, 1e-12),
            f"{got:.15g} vs 4/3",
        )
    )

    ratio = means.mean_ratio(means.PowerLaw(1.0), Interval(0.0, 1.0), pair12)
    out.append(
        CheckResult(
            "power.halfline_constant_matches_quadrature",
            _close(ratio, power.halfline_constant(pair12, 1.0), 1e-8),
            f"quadrature ratio {ratio:.12g}",
        )
    )

    ok, detail = True, ""
    for _ in range(40):
        pair = _random_pair(rng)
        gamma = _random_gamma(pair, rng)
        lo = power.extension_curve(pair, gamma, 0.0)
        hi = power.extension_curve(pair, gamma, 1.0)
        if lo != 1.0 or hi != 1.0:
            ok, detail = False, f"c(0)={lo!r}, c(1)={hi!r} at gamma={gamma:.6g}"
            break
    out.append(
        CheckResult(
            "power.curve_is_one_at_both_endpoints",
            ok,
            detail or "exact 1.0 at eps in {0,1} for 40 random admissible inputs",
        )
    )

    ok, detail = True, ""
    for _ in range(40):
        pair = _random_pair(rng)
        gamma = _random_gamma(pair, rng)
        if gamma == 0.0:
            continue
        eps = float(rng.uniform(0.05, 0.95))
        c = power.extension_curve(pair, gamma, eps)
        if not c > 1.0:
            ok, detail = False, f"c({eps:.4g})={c:.12g} at gamma={gamma:.6g}, {pair}"
            break
    out.append(
        CheckResult(
            "power.curve_exceeds_one_in_interior",
            ok,
            detail or "c(eps) > 1 at random interior eps, 40 draws",
        )
    )

    ok, detail = True, ""
    for pair, gamma in ((pair12, 1.0), (ExponentPair(-1.0, 1.0), 0.5), (ExponentPair(-2.0, -1.0), -1.0)):
        eps_star, cmax = power.maximize_curve(pair, gamma)
        beps, bval = oracle.brute_max_curve(pair, gamma, 200001)
        if not _close(cmax, bval, 1e-8):
            ok, detail = False, f"{cmax:.12g} vs brute {bval:.12g} at gamma={gamma:g}"
            break
        if abs(eps_star - beps) > 1e-3:
            ok, detail = False, f"eps {eps_star:.6g} vs brute {beps:.6g}"
            break
    out.append(
        CheckResult(
            "power.maximizer_agrees_with_brute_grid",
            ok,
            detail or "curve maximum matches a 200001-point grid on 3 cases",
        )
    )

    report = power.power_report(pair12, 1.0)
    scale = max(
        abs(t) for t in power.stationarity_terms(pair12, 1.0, report.eps_star)
    )
    out.append(
        CheckResult(
            "power.residual_vanishes_at_maximizer",
            abs(report.residual) <= 1e-8 * max(scale, 1e-300),
            f"residual {report.residual:.3g} against term scale {scale:.3g}",
        )
    )

    ok, detail = True, ""
    for _ in range(25):
        pair = _random_pair(rng)
        gamma = _random_gamma(pair, rng)
        r = power.stationarity_residual(pair, gamma, 1.0)
        if r != 0.0:
            ok, detail = False, f"residual(1) = {r!r} at gamma={gamma:.6g}"
            break
    out.append(
        CheckResult(
            "power.residual_is_zero_at_unit_eps",
            ok,
            detail or "eps=1 annihilates the residual exactly, 25 draws",
        )
    )

    ok, detail = True, ""
    for _ in range(20):
        pair = _random_pair(rng)
        gamma = _random_gamma(pair, rng)
        rep = power.power_report(pair, gamma)
        bound = classconst.general_upper_bound(pair)
        if rep.curve_max > bound + 1e-9:
            ok, detail = False, f"curve max {rep.curve_max:.12g} above bound {bound:.12g}"
            break
    out.append(
        CheckResult(
            "power.growth_within_general_bound",
            ok,
            detail or "curve maximum below the proven ceiling, 20 draws",
        )
    )

    eps_star, cmax = power.maximize_curve(pair12, 0.0)
    out.append(
        CheckResult(
            "power.flat_curve_for_zero_exponent",
            cmax == 1.0 and power.power_report(pair12, 0.0).extension_constant == 1.0,
            f"max {cmax!r} at eps {eps_star!r}",
        )
    )

    return out


# ---------------------------------------------------------------------------
# Suite: class constants
# ---------------------------------------------------------------------------


def _suite_class(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 2)
    out: list[CheckResult] = []

    cc = classconst.class_constants(ExponentPair(1.0, 2.0))
    out.append(
        CheckResult(
            "class.exact_values_pos_pos",
            cc.class_constant == math.sqrt(2.0) and cc.upper_bound == 2.0,
            f"C={cc.class_constant!r}, bound={cc.upper_bound!r}",
        )
    )

    cc = classconst.class_constants(ExponentPair(-1.0, 1.0))
    out.append(
        CheckResult(
            "class.exact_values_mixed",
            cc.class_constant == 2.0 and cc.upper_bound == 4.0,
            f"C={cc.class_constant!r}, bound={cc.upper_bound!r}",
        )
    )

    got = classconst.power_class_constant(ExponentPair(-3.0, -1.0))[0]
    out.append(
        CheckResult(
            "class.exact_value_neg_neg",
            _close(got, 2.0 ** (2.0 / 3.0), 1e-15),
            f"{got:.15g} vs 2^(2/3)",
        )
    )

    seams = (
        (ExponentPair(1.0, 2.0 - 1e-13), ExponentPair(1.0, 2.0 + 1e-13)),
        (ExponentPair(-2.0 - 1e-13, -1.0), ExponentPair(-2.0 + 1e-13, -1.0)),
        (ExponentPair(-1.0 - 1e-13, 1.0), ExponentPair(-1.0 + 1e-13, 1.0)),
    )
    ok, detail = True, ""
    for left, right in seams:
        a = classconst.power_class_constant(left)[0]
        b = classconst.power_class_constant(right)[0]
        if abs(a - b) > 1e-12:
            ok, detail = False, f"jump {abs(a - b):.3g} between {left} and {right}"
            break
    out.append(
        CheckResult(
            "class.branch_seams_are_continuous",
            ok,
            detail or "piecewise branches agree across all three seams",
        )
    )

    ok, detail = True, ""
    for _ in range(100):
        pair = _random_pair(rng)
        cc = classconst.class_constants(pair)
        if not cc.class_constant < cc.upper_bound:
            ok, detail = False, f"not strict at {pair}"
            break
    out.append(
        CheckResult(
            "class.power_record_strictly_below_ceiling",
            ok,
            detail or "strict inequality on 100 random pairs",
        )
    )

    rows = classconst.sharpness_table(1.0, [float(2**k) for k in range(1, 11)])
    ratios = [row.ratio for row in rows]
    out.append(
        CheckResult(
            "class.sharpness_climbs_with_beta",
            all(x < y for x, y in zip(ratios, ratios[1:])) and ratios[-1] >= 0.999,
            f"final ratio {ratios[-1]:.6g}",
        )
    )

    pair = ExponentPair(1.0, 2.0)
    seq = classconst.gamma_approach_sequence(pair, math.inf, 12)
    dom = gamma_domain(pair)
    out.append(
        CheckResult(
            "class.approach_sequence_stays_admissible",
            len(seq) > 0 and all(dom.contains(g) for g in seq),
            f"{len(seq)} values, last {seq[-1]:g}",
        )
    )

    reports = classconst.gamma_sweep(pair, [1.0, 10.0, 100.0])
    values = [r.extension_constant / r.halfline_constant for r in reports]
    out.append(
        CheckResult(
            "class.growth_increases_along_gamma_sweep",
            all(x < y for x, y in zip(values, values[1:])),
            "C values " + ", ".join(f"{v:.9g}" for v in values),
        )
    )

    return out


# ---------------------------------------------------------------------------
# Suite: generic estimators
# ---------------------------------------------------------------------------


def _suite_generic(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    pair12 = ExponentPair(1.0, 2.0)

    est = generic.estimate_halfline(means.PowerLaw(1.0), pair12)
    want = power.halfline_constant(pair12, 1.0)
    out.append(
        CheckResult(
            "generic.halfline_estimate_matches_closed_form",
            _close(est.value, want, 1e-6),
            f"{est.value:.12g} vs {want:.12g}",
        )
    )

    ok, detail = True, ""
    for f in (means.PowerLaw(0.5), means.AffinePower(1.0, 1.0, 1.0)):
        est = generic.estimate_halfline(f, pair12)
        brute = oracle.brute_halfline(f, pair12)
        if abs(brute - est.value) > 1e-4 * est.value:
            ok, detail = False, f"{f.describe()}: brute {brute:.9g} vs {est.value:.9g}"
            break
    out.append(
        CheckResult(
            "generic.estimate_agrees_with_brute_force",
            ok,
            detail or "half-line estimate within 1e-4 of the brute reference",
        )
    )

    est = generic.estimate_extension(means.PowerLaw(1.0), pair12)
    want = power.power_report(pair12, 1.0).extension_constant
    out.append(
        CheckResult(
            "generic.extension_estimate_matches_power_pipeline",
            _close(est.value, want, 1e-4),
            f"{est.value:.10g} vs {want:.10g}",
        )
    )

    brute = oracle.brute_extension(means.PowerLaw(1.0), pair12)
    out.append(
        CheckResult(
            "generic.brute_extension_matches_power_pipeline",
            _close(brute, want, 1e-3),
            f"brute {brute:.10g} vs {want:.10g}",
        )
    )

    est = generic.estimate_halfline(means.ExpDecay(1.0), pair12)
    re_eval = means.mean_ratio(means.ExpDecay(1.0), est.witness, pair12, generic.QUAD_TOL)
    out.append(
        CheckResult(
            "generic.witness_reproduces_reported_value",
            _close(re_eval, est.value, 1e-7),
            f"witness ({est.witness.lo:.6g}, {est.witness.hi:.6g})"
            f" re-evaluates to {re_eval:.12g} vs {est.value:.12g}",
        )
    )

    f = means.AffinePower(1.0, 2.0, 0.5)
    est = generic.estimate_extension(f, pair12)
    view = means.EvenExtensionView(f)
    mirrored = means.mean_ratio(
        view, Interval(-est.witness.hi, -est.witness.lo), pair12, generic.QUAD_TOL
    )
    out.append(
        CheckResult(
            "generic.mirrored_witness_gives_same_ratio",
            _close(mirrored, est.value, 1e-7),
            f"mirrored ratio {mirrored:.12g} vs {est.value:.12g}",
        )
    )

    ok, detail = True, ""
    for f in (means.PowerLaw(1.0), means.ExpDecay(1.0), means.AffinePower(2.0, 0.5, 1.0)):
        rep = generic.extension_ratio(f, pair12)
        if rep.ratio > rep.upper_bound + 1e-6:
            ok, detail = False, f"{f.describe()}: ratio {rep.ratio:.9g}"
            break
    out.append(
        CheckResult(
            "generic.growth_ratio_respects_proven_bound",
            ok,
            detail or "R/P below the case bound for three function shapes",
        )
    )

    # A non-monotone table: the exhaustive search must reach the oracle's
    # grid maximum, and the oracle's own quadrature must confirm the witness.
    xs = np.linspace(0.5, 4.0, 24)
    table = means.SampledTable(xs, 2.0 + np.sin(3.0 * xs) + 0.3 * np.cos(7.0 * xs))
    est = generic.estimate_halfline(table, pair12)
    brute = oracle.brute_halfline(table, pair12)
    again = oracle.window_ratio(table, pair12, est.witness.lo, est.witness.hi)
    out.append(
        CheckResult(
            "generic.table_search_reaches_oracle",
            est.value >= brute * (1.0 - 1e-9) and _close(again, est.value, 1e-9),
            f"search {est.value:.12g} vs brute {brute:.12g}; witness"
            f" ({est.witness.lo:.6g}, {est.witness.hi:.6g}) re-evaluates to {again:.12g}",
        )
    )

    one_d = generic.estimate_halfline(means.ExpDecay(1.0), pair12)
    two_d = generic._halfline_2d(means.ExpDecay(1.0), pair12)
    out.append(
        CheckResult(
            "generic.monotone_reduction_loses_nothing",
            two_d.value <= one_d.value + 1e-4,
            f"2-D {two_d.value:.10g} vs 1-D {one_d.value:.10g}",
        )
    )

    return out


_SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "means": _suite_means,
    "power": _suite_power,
    "class": _suite_class,
    "generic": _suite_generic,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them in declaration order."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITE_NAMES:
            results.extend(_SUITES[suite](seed))
        return results
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; pick from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](seed)

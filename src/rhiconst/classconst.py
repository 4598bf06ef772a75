"""Class-level constants: the general upper bound and the power-law record.

Two numbers are attached to an exponent pair.  general_upper_bound gives
the proven ceiling on the reflection growth of *any* admissible input:

    0 < alpha < beta :  2**(1/alpha)
    alpha < beta < 0 :  2**(-1/beta)
    alpha < 0 < beta :  2**(1/beta - 1/alpha)

All three branches are upper bounds; no attainment claim is made anywhere
in this package.  power_class_constant gives the exact supremum over pure
powers, obtained from the two boundary limits of the admissible exponent
range (each limit is a closed form, and the larger one wins):

    0 < alpha < beta :  2**(1/alpha - 1/beta)  if alpha <= beta/2
                        2**(1/beta)            otherwise
    alpha < beta < 0 :  2**(1/alpha - 1/beta)  if alpha <= 2*beta
                        2**(-1/alpha)          otherwise
    alpha < 0 < beta :  2**(1/beta)            if beta <= -alpha
                        2**(-1/alpha)          otherwise

The power record always sits strictly below the general ceiling, but the
two meet asymptotically: beta -> +inf in the first case, alpha -> -inf in
the second, and either direction in the mixed case.  sharpness_table and
sharpness_table_alpha trace those approaches.

The supremum over actually-varying exponents is never reported as a single
number here; it is only ever bracketed between the power record and the
ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Case, DomainError, ExponentPair, NumericError, gamma_domain
# power_report stays importable here: perfbench/tracing.py wraps
# classconst.power_report by name.
from .power import PowerRhiReport, _power_reports, power_report  # noqa: F401

__all__ = [
    "ClassConstants",
    "SharpnessRow",
    "class_constants",
    "gamma_approach_sequence",
    "gamma_sweep",
    "general_upper_bound",
    "power_class_constant",
    "sharpness_table",
    "sharpness_table_alpha",
]


def _pow2(exponent: float) -> float:
    try:
        return math.pow(2.0, exponent)
    except OverflowError as exc:
        raise NumericError(f"2**{exponent:.9g} overflows a double") from exc


def general_upper_bound(pair: ExponentPair) -> float:
    """Proven ceiling on reflection growth over the whole input class."""
    case = pair.case
    if case is Case.POS_POS:
        return _pow2(1.0 / pair.alpha)
    if case is Case.NEG_NEG:
        return _pow2(-1.0 / pair.beta)
    return _pow2(1.0 / pair.beta - 1.0 / pair.alpha)


def power_class_constant(pair: ExponentPair) -> tuple[float, str]:
    """Supremum of reflection growth over pure powers, with its branch label."""
    a, b = pair.alpha, pair.beta
    case = pair.case
    if case is Case.POS_POS:
        if a <= b / 2.0:
            return _pow2(1.0 / a - 1.0 / b), "pos_pos:alpha<=beta/2"
        return _pow2(1.0 / b), "pos_pos:alpha>beta/2"
    if case is Case.NEG_NEG:
        if a <= 2.0 * b:
            return _pow2(1.0 / a - 1.0 / b), "neg_neg:alpha<=2*beta"
        return _pow2(-1.0 / a), "neg_neg:alpha>2*beta"
    if b <= -a:
        return _pow2(1.0 / b), "neg_pos:beta<=-alpha"
    return _pow2(-1.0 / a), "neg_pos:beta>-alpha"


@dataclass(frozen=True)
class ClassConstants:
    """The bracket [power record, general ceiling] for one pair."""

    pair: ExponentPair
    upper_bound: float
    class_constant: float
    branch: str
    sharpness_ratio: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.upper_bound) and self.upper_bound > 1.0):
            raise NumericError("upper bound must exceed 1")
        if not (math.isfinite(self.class_constant) and self.class_constant > 1.0):
            raise NumericError("power class constant must exceed 1")
        if not self.class_constant < self.upper_bound:
            raise NumericError("power class constant must sit strictly below the ceiling")
        expected = self.class_constant / self.upper_bound
        if not math.isclose(self.sharpness_ratio, expected, rel_tol=1e-12):
            raise NumericError("sharpness ratio inconsistent with its factors")
        if not 0.0 < self.sharpness_ratio < 1.0:
            raise NumericError("sharpness ratio must lie in (0, 1)")


def class_constants(pair: ExponentPair) -> ClassConstants:
    upper = general_upper_bound(pair)
    value, branch = power_class_constant(pair)
    return ClassConstants(
        pair=pair,
        upper_bound=upper,
        class_constant=value,
        branch=branch,
        sharpness_ratio=value / upper,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Halving stops here: closer approaches gain nothing visible while pushing
# gamma*order + 1 toward the significance floor of the closed forms.
_APPROACH_REL_FLOOR = 1e-7
_GAMMA_CAP = 1e6


def gamma_approach_sequence(pair: ExponentPair, toward: float, count: int) -> list[float]:
    """Exponent sequence marching toward one admissible-range endpoint.

    For a finite endpoint the distance to it halves step by step, starting
    from a quarter of the range (or half the endpoint magnitude when the
    other side is infinite) and capped at a 1e-7 relative floor.  For an
    infinite endpoint the magnitude doubles from 1, capped at 1e6.  The
    sequence is truncated at the cap, so fewer than count values can come
    back; every returned value is admissible.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    dom = gamma_domain(pair)
    if toward not in (dom.lower, dom.upper):
        raise DomainError(
            f"toward={toward!r} is not an endpoint of the admissible range {dom}"
        )
    out: list[float] = []
    if math.isinf(toward):
        sign = 1.0 if toward > 0 else -1.0
        start = 1.0
        finite_other = dom.lower if toward > 0 else dom.upper
        if math.isfinite(finite_other) and finite_other != 0.0:
            start = max(start, 2.0 * abs(finite_other))
        g = sign * start
        for _ in range(count):
            if abs(g) > _GAMMA_CAP:
                break
            out.append(g)
            g *= 2.0
        return out
    sign = 1.0 if toward == dom.lower else -1.0
    if math.isfinite(dom.lower) and math.isfinite(dom.upper):
        d0 = (dom.upper - dom.lower) / 4.0
    else:
        d0 = max(abs(toward), 1.0) / 2.0
    d_min = max(abs(toward), 1.0) * _APPROACH_REL_FLOOR
    d = d0
    for _ in range(count):
        if d < d_min:
            break
        out.append(toward + sign * d)
        d /= 2.0
    return out


def gamma_sweep(pair: ExponentPair, gammas: Iterable[float]) -> list[PowerRhiReport]:
    """Full power report for each exponent, in the given order.

    The rows equal power_report(pair, g) one by one, which is a batch
    of one; here the golden sections of all exponents run in lockstep, one
    elementwise curve call per step.  The first exponent in order that
    would raise decides the exception.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise DomainError("gamma sweep needs at least one exponent")
    return _power_reports(pair, gammas)


# ---------------------------------------------------------------------------
# Sharpness tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessRow:
    alpha: float
    beta: float
    class_constant: float
    upper_bound: float
    ratio: float


def _row(pair: ExponentPair) -> SharpnessRow:
    cc = class_constants(pair)
    return SharpnessRow(
        alpha=pair.alpha,
        beta=pair.beta,
        class_constant=cc.class_constant,
        upper_bound=cc.upper_bound,
        ratio=cc.sharpness_ratio,
    )


def sharpness_table(alpha: float, betas: Sequence[float]) -> list[SharpnessRow]:
    """Ratio of power record to ceiling as beta grows at fixed alpha.

    The ratio climbs toward 1, which is what makes the ceiling asymptotically
    unimprovable in the growing-beta direction.
    """
    if not betas:
        raise DomainError("sharpness table needs at least one beta")
    return [_row(ExponentPair(alpha, float(b))) for b in betas]


def sharpness_table_alpha(beta: float, alphas: Sequence[float]) -> list[SharpnessRow]:
    """Companion table marching alpha toward -inf at fixed beta."""
    if not alphas:
        raise DomainError("sharpness table needs at least one alpha")
    return [_row(ExponentPair(float(a), beta)) for a in alphas]

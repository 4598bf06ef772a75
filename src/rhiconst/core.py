"""Validated domain types shared by every other module.

Exponent pairs, the admissible power-exponent range, plain intervals and
the error taxonomy live here.  Construction is strict: an object that
exists is usable, so downstream numerics never re-validate their inputs.

Conventions
-----------
* An exponent pair (alpha, beta) always satisfies alpha < beta and
  alpha * beta != 0.  Power means are increasing in their order, so the
  pair orders the two means and every mean ratio taken here is >= 1.
* For a pure power input x**gamma the means of order alpha and beta exist
  on bounded intervals touching the origin exactly when alpha*gamma > -1
  and beta*gamma > -1.  The admissible gamma set is an open interval whose
  endpoints may be infinite; infinities are stored as explicit math.inf
  sentinels and NaN never enters a public type.
* Exponents within 1e-9 (relative) of an admissible-range endpoint are
  rejected by the validating entry points: that close to the boundary the
  quantities gamma*alpha + 1 and gamma*beta + 1 lose the significance the
  closed forms rely on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "BOUNDARY_MARGIN",
    "Case",
    "DataError",
    "DomainError",
    "ExponentPair",
    "GammaDomain",
    "Interval",
    "NumericError",
    "QuadratureError",
    "RhiError",
    "SUITE_NAMES",
    "classify_case",
    "gamma_domain",
]

# Relative slack kept between an accepted gamma and the admissible-range
# boundary; see require_gamma.
BOUNDARY_MARGIN = 1e-9

# The self-check suites of verify.py, kept here so that the command line
# can offer them without importing verify.
SUITE_NAMES = ("means", "power", "class", "generic")


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class RhiError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RhiError, ValueError):
    """Mathematically inadmissible input (exponents, intervals, orders)."""


class DataError(RhiError, ValueError):
    """Malformed or insufficient user data (tables, CSV files, ranges)."""


class QuadratureError(RhiError, ArithmeticError):
    """Quadrature failed to reach the requested tolerance within budget."""


class NumericError(RhiError, ArithmeticError):
    """A computed quantity violated a guaranteed numeric property."""


# ---------------------------------------------------------------------------
# Exponent pairs and case classification
# ---------------------------------------------------------------------------


class Case(enum.Enum):
    """Sign pattern of an exponent pair; every formula branches on it."""

    POS_POS = "pos_pos"  # 0 < alpha < beta
    NEG_NEG = "neg_neg"  # alpha < beta < 0
    NEG_POS = "neg_pos"  # alpha < 0 < beta


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ExponentPair:
    """An ordered pair of nonzero mean orders with alpha < beta.

    The ordering is enforced, not repaired: passing alpha >= beta raises
    DomainError instead of silently swapping, because a swapped pair almost
    always signals a caller bug and the two orders play asymmetric roles
    everywhere downstream.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        alpha = _require_finite("alpha", self.alpha)
        beta = _require_finite("beta", self.beta)
        if alpha == 0.0 or beta == 0.0:
            raise DomainError("mean orders must be nonzero")
        if not alpha < beta:
            raise DomainError(
                f"exponent pair requires alpha < beta, got ({alpha}, {beta})"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def case(self) -> Case:
        return classify_case(self)

    def gamma_domain(self) -> "GammaDomain":
        return gamma_domain(self)

    def require_gamma(self, gamma: float) -> float:
        """Validate a power exponent against this pair's admissible range.

        Returns gamma unchanged when alpha*gamma > -1 and beta*gamma > -1
        hold with relative margin BOUNDARY_MARGIN; raises DomainError
        otherwise.  The margin test is |alpha*gamma + 1| <= BOUNDARY_MARGIN
        (and the beta twin), which equals relative distance to the boundary
        point measured against the boundary itself.
        """
        gamma = _require_finite("gamma", gamma)
        pa = self.alpha * gamma + 1.0
        pb = self.beta * gamma + 1.0
        if pa <= 0.0 or pb <= 0.0:
            raise DomainError(
                f"gamma={gamma} outside admissible range {self.gamma_domain()}"
                f" for pair ({self.alpha}, {self.beta})"
            )
        if pa <= BOUNDARY_MARGIN or pb <= BOUNDARY_MARGIN:
            raise DomainError(
                f"gamma={gamma} within {BOUNDARY_MARGIN:g} (relative) of the"
                f" admissible-range boundary {self.gamma_domain()}"
            )
        return gamma


def classify_case(pair: ExponentPair) -> Case:
    """Sign case of a validated pair.  Never fails: validity is structural."""
    if pair.alpha > 0.0:
        return Case.POS_POS
    if pair.beta < 0.0:
        return Case.NEG_NEG
    return Case.NEG_POS


@dataclass(frozen=True)
class GammaDomain:
    """Open interval of power exponents admissible for a pair.

    Endpoints are plain floats and may be +-math.inf.  Membership is strict
    inequality on both sides; the interval is never empty for a valid pair.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise DomainError("admissible range endpoints must not be NaN")
        if not self.lower < self.upper:
            raise DomainError(
                f"empty admissible range ({self.lower}, {self.upper})"
            )

    def contains(self, gamma: float) -> bool:
        gamma = float(gamma)
        if not math.isfinite(gamma):
            return False
        return self.lower < gamma < self.upper

    def __str__(self) -> str:
        return f"({self.lower:g}, {self.upper:g})"


def gamma_domain(pair: ExponentPair) -> GammaDomain:
    """Admissible power exponents for a pair, as an open interval.

    The defining predicate is alpha*gamma > -1 and beta*gamma > -1; solved
    for gamma it gives one branch per sign case:

    * 0 < alpha < beta   ->  (-1/beta, +inf)
    * alpha < beta < 0   ->  (-inf, -1/alpha)
    * alpha < 0 < beta   ->  (-1/beta, -1/alpha)
    """
    case = classify_case(pair)
    if case is Case.POS_POS:
        return GammaDomain(-1.0 / pair.beta, math.inf)
    if case is Case.NEG_NEG:
        return GammaDomain(-math.inf, -1.0 / pair.alpha)
    return GammaDomain(-1.0 / pair.beta, -1.0 / pair.alpha)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A nonempty bounded open interval (lo, hi), lo < hi strictly.

    Endpoints may be negative: intervals handed to even-extension means
    routinely span the origin.  Degenerate and reversed inputs raise.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _require_finite("lo", self.lo)
        hi = _require_finite("hi", self.hi)
        if not lo < hi:
            raise DomainError(f"interval requires lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo


"""Seeded inputs for the benchmark workloads.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` and
nothing else, so one seed always gives the same inputs.  Each workload runs
in rounds over a pool of inputs that covers every sign case of the\nexponent pair.

closed_form_batch draws its pairs broadly, rounded to three decimals:

* pos_pos: alpha in [0.5, 2], beta = alpha + [0.5, 2]
* neg_neg: beta in [-2, -0.5], alpha = beta - [0.5, 2]
* neg_pos: alpha in [-2, -0.5], beta in [0.5, 2]

The search workloads jitter fixed designs instead; see JITTER.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

CASES = ("pos_pos", "neg_neg", "neg_pos")

# closed_form_batch: gammas spread over the admissible range (clipped to
# +-GAMMA_CLIP) plus points marching toward one finite endpoint.
SPREAD_GAMMAS = 8
APPROACH_GAMMAS = 4
GAMMA_CLIP = 8.0

# The two search workloads cost seconds per operation and their cost
# depends on the input in ways no simple parameter predicts, so a round
# holds one fixed design per sign case and the seed jitters every
# parameter by up to JITTER relative.  Broadly drawn inputs made the work
# of a three-input round vary by +-25% between seeds.
JITTER = 0.05

# extension_search: (alpha, beta, a, gamma, c) for f = a*x**gamma + c.
EXTENSION_DESIGNS = (
    (1.0, 2.0, 1.0, 1.0, 0.5),
    (-2.0, -1.0, 1.0, -0.5, 0.5),
    (-1.0, 1.0, 1.0, 0.5, 0.5),
)

# table_halfline: (alpha, beta, knots, slow phase, fast phase) for one
# non-monotone table each, two per sign case.  The phases are part of the
# design because they decide where the search refines: drawn uniformly,
# they moved a round's quadrature work by +-14%.  Six tables rather than
# three put the median latency between two inputs instead of on one.
TABLE_DESIGNS = (
    (1.0, 2.0, 60, 1.0, 2.0),
    (-2.0, -1.0, 120, 3.0, 5.0),
    (-1.0, 1.0, 180, 5.0, 1.0),
    (1.0, 2.0, 240, 2.5, 4.0),
    (-2.0, -1.0, 300, 4.0, 0.5),
    (-1.0, 1.0, 360, 0.5, 3.5),
)


def _jitter(rng: np.random.Generator, centre: float, digits: int = 3) -> float:
    return round(float(centre * (1.0 + JITTER * rng.uniform(-1.0, 1.0))), digits)


def _pair(rng: np.random.Generator, case: str) -> tuple[float, float]:
    if case == "pos_pos":
        alpha = rng.uniform(0.5, 2.0)
        beta = alpha + rng.uniform(0.5, 2.0)
    elif case == "neg_neg":
        beta = -rng.uniform(0.5, 2.0)
        alpha = beta - rng.uniform(0.5, 2.0)
    else:
        alpha = -rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.5, 2.0)
    return round(float(alpha), 3), round(float(beta), 3)


def gamma_range(alpha: float, beta: float) -> tuple[float, float]:
    """Open admissible range of gamma: gamma*alpha > -1 and gamma*beta > -1."""
    lo = max((-1.0 / r for r in (alpha, beta) if r > 0.0), default=-math.inf)
    hi = min((-1.0 / r for r in (alpha, beta) if r < 0.0), default=math.inf)
    return lo, hi


@dataclass(frozen=True)
class ClosedFormInput:
    alpha: float
    beta: float
    spread: tuple[float, ...]
    toward: float  # finite admissible-range endpoint the approach points target


def closed_form_inputs(seed: int) -> list[ClosedFormInput]:
    rng = np.random.default_rng(seed)
    out = []
    for case in CASES:
        alpha, beta = _pair(rng, case)
        lo, hi = gamma_range(alpha, beta)
        glo, ghi = max(lo, -GAMMA_CLIP), min(hi, GAMMA_CLIP)
        # One gamma per equal slice of the clipped range, kept off the
        # slice edges so no spread point lands on a range endpoint.
        u = (np.arange(SPREAD_GAMMAS) + 0.1 + 0.8 * rng.uniform(size=SPREAD_GAMMAS))
        spread = tuple(float(g) for g in glo + (ghi - glo) * u / SPREAD_GAMMAS)
        finite = [e for e in (lo, hi) if math.isfinite(e)]
        toward = finite[int(rng.integers(len(finite)))]
        out.append(ClosedFormInput(alpha, beta, spread, toward))
    return out


@dataclass(frozen=True)
class ExtensionInput:
    alpha: float
    beta: float
    scale: float
    gamma: float
    offset: float

    @property
    def spec(self) -> str:
        return f"affpow:a={self.scale!r},gamma={self.gamma!r},c={self.offset!r}"


def extension_inputs(seed: int) -> list[ExtensionInput]:
    rng = np.random.default_rng(seed)
    return [
        ExtensionInput(*(_jitter(rng, v) for v in design)) for design in EXTENSION_DESIGNS
    ]


@dataclass(frozen=True)
class TableInput:
    alpha: float
    beta: float
    xs: np.ndarray
    fs: np.ndarray
    path: str


# log f is centred here rather than at 0.  The mean ratio does not depend
# on the scale of f, but mean_ratio integrates a mean twice when it is
# below 1.  Centred at 0, the wide windows' means sat on 1 and that second
# pass came and went with the seed; at -0.5 every wide window takes it.
TABLE_LOG_LEVEL = -0.5


def make_table(rng: np.random.Generator, n: int, phases: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """A positive, non-monotone table of n knots on [0.5, 20.5].

    Knots sit on a jittered uniform grid.  log f is TABLE_LOG_LEVEL plus a slow wave (two
    periods, amplitude 0.6), a fast wave (seven periods, amplitude 0.25)
    and 0.05 of white noise; the seed jitters amplitudes, periods and the
    two phases by JITTER and draws the knot jitter and the noise.
    """
    t = (np.arange(n) + 0.5 + 0.8 * (rng.uniform(size=n) - 0.5)) / n
    t[0], t[-1] = 0.0, 1.0
    xs = 0.5 + 20.0 * t
    logf = (
        TABLE_LOG_LEVEL
        + _jitter(rng, 0.6, 6) * np.sin(2 * np.pi * _jitter(rng, 2.0, 6) * t + _jitter(rng, phases[0], 6))
        + _jitter(rng, 0.25, 6) * np.sin(2 * np.pi * _jitter(rng, 7.0, 6) * t + _jitter(rng, phases[1], 6))
        + 0.05 * rng.standard_normal(n)
    )
    return xs, np.exp(logf)


def table_inputs(seed: int, directory: str) -> list[TableInput]:
    """Draw the tables and write each to a CSV file in directory."""
    rng = np.random.default_rng(seed)
    out = []
    for k, (alpha, beta, knots, *phases) in enumerate(TABLE_DESIGNS):
        alpha, beta = _jitter(rng, alpha), _jitter(rng, beta)
        xs, fs = make_table(rng, int(_jitter(rng, knots, 0)), tuple(phases))
        path = os.path.join(directory, f"table{k}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,f\n")
            fh.writelines(f"{x!r},{f!r}\n" for x, f in zip(xs.tolist(), fs.tolist()))
        out.append(TableInput(alpha, beta, xs, fs, path))
    return out

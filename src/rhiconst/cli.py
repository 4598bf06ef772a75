"""Command-line front end.

Subcommands map one-to-one onto the library: power (closed-form constants
for one exponent), class (class-level constants for a pair), sweep
(tables over exponent or beta sequences), estimate (supremum search for a
parsed function spec or CSV table), verify (self-check suites).

Output is JSON by default, CSV for the tabular commands via --format csv.
Every float is printed with 17 significant digits so output is both
lossless and byte-reproducible; non-finite numbers are refused rather
than emitted.  Exit codes: 0 success, 1 failed verification, 2 usage or
domain error, 3 numeric failure, 4 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .classconst import class_constants, gamma_sweep, sharpness_table
from .core import (
    SUITE_NAMES,
    DataError,
    DomainError,
    ExponentPair,
    NumericError,
    RhiError,
    gamma_domain,
)
from .generic import QUAD_TOL, estimate_halfline, extension_ratio
from .means import (
    AffinePower,
    ExpDecay,
    FunctionSpec,
    PowerLaw,
    table_from_csv,
)
from .power import EPS_GRID, power_report

__all__ = ["main"]

SCHEMA_VERSION = "1"

_SWEEP_GAMMA_COLUMNS = (
    "gamma",
    "eps_star",
    "curve_max",
    "halfline_constant",
    "extension_constant",
)
_SWEEP_BETA_COLUMNS = ("beta", "class_constant", "upper_bound", "ratio")

# Most rows one sweep may ask for: it keeps a sweep within seconds (10 000
# gamma rows take about 1 s on 2 vCPUs) and its sequence arrays small.
_SEQUENCE_MAX = 10_000


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericError("refusing to emit a non-finite number")
    return format(x, ".17g")


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(key)}: {_render_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def _record(command: str, inputs: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
    }


def _table_rows(columns, records) -> list[dict]:
    """One output row per record, read off its attributes named by columns."""
    return [{c: getattr(rec, c) for c in columns} for rec in records]


def _csv_text(columns, rows) -> str:
    def cell(value) -> str:
        return _fmt_float(value) if isinstance(value, float) else str(value)

    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(columns)]
    lines.extend(",".join(cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_sequence(spec: str, spacing: str) -> list[float]:
    """start:stop:count with geometric, linear, or boundary-approach spacing.

    auto picks geometric when start and stop share a sign and differ,
    linear otherwise.  approach starts at start and halves the remaining
    gap to stop at every step, never reaching it; that is the shape used
    to probe admissible-range endpoints.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"sequence spec {spec!r} is not start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"sequence spec {spec!r} has a non-numeric field") from exc
    if count < 1:
        raise DomainError("sequence count must be at least 1")
    if count > _SEQUENCE_MAX:
        raise DomainError(f"sequence count {count} exceeds the cap of {_SEQUENCE_MAX}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError("sequence endpoints must be finite")
    if count == 1:
        return [start]
    if spacing == "auto":
        spacing = "geometric" if start * stop > 0.0 and start != stop else "linear"
    if spacing == "geometric":
        if start * stop <= 0.0:
            raise DomainError("geometric spacing needs nonzero same-sign endpoints")
        return [float(g) for g in np.geomspace(start, stop, count)]
    if spacing == "linear":
        return [float(g) for g in np.linspace(start, stop, count)]
    return [stop + (start - stop) * 0.5**k for k in range(count)]


_FUNCTION_FORMS = "pow:gamma=G | affpow:a=A,gamma=G,c=C | expdecay:lambda=L"

# Function kinds: the spec class and its fields, in constructor order.
_FUNCTION_KINDS = {
    "pow": (PowerLaw, ("gamma",)),
    "affpow": (AffinePower, ("a", "gamma", "c")),
    "expdecay": (ExpDecay, ("lambda",)),
}


def _parse_function(text: str) -> FunctionSpec:
    kind, _, rest = text.partition(":")
    if kind not in _FUNCTION_KINDS:
        raise DomainError(f"unknown function kind {kind!r}; expected {_FUNCTION_FORMS}")
    spec, fields = _FUNCTION_KINDS[kind]
    params: dict[str, float] = {}
    for part in filter(None, rest.split(",")):
        key, eq, value = part.partition("=")
        if not eq:
            raise DomainError(f"function spec field {part!r} is not key=value")
        if key not in fields:
            raise DomainError(f"function spec {text!r} has unknown field {key!r}")
        if key in params:
            raise DomainError(f"function spec {text!r} repeats field {key!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise DomainError(f"function spec field {part!r} is not numeric") from exc
    for key in fields:
        if key not in params:
            raise DomainError(f"function spec {text!r} is missing field {key!r}")
    return spec(*(params[key] for key in fields))


def _pair_from(args) -> ExponentPair:
    return ExponentPair(args.alpha, args.beta)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_power(args) -> int:
    pair = _pair_from(args)
    report = power_report(pair, args.gamma, args.grid)
    (row,) = _table_rows(_SWEEP_GAMMA_COLUMNS, [report])
    if args.format == "csv":
        _emit(_csv_text(_SWEEP_GAMMA_COLUMNS, [row]), args.out)
        return 0
    record = _record(
        "power",
        {"alpha": pair.alpha, "beta": pair.beta, "gamma": args.gamma},
        {**row, "residual": report.residual},
        {
            "residual_applicable": report.residual_applicable,
            "gamma_domain": str(gamma_domain(pair)),
            "eps_grid": args.grid,
        },
    )
    _emit(_render_json(record) + "\n", args.out)
    return 0


def _cmd_class(args) -> int:
    pair = _pair_from(args)
    if args.format == "csv":
        rows = _table_rows(_SWEEP_BETA_COLUMNS, sharpness_table(pair.alpha, [pair.beta]))
        _emit(_csv_text(_SWEEP_BETA_COLUMNS, rows), args.out)
        return 0
    cc = class_constants(pair)
    record = _record(
        "class",
        {"alpha": pair.alpha, "beta": pair.beta},
        {
            "upper_bound": cc.upper_bound,
            "class_constant": cc.class_constant,
            "branch": cc.branch,
            "sharpness_ratio": cc.sharpness_ratio,
        },
        {"case": pair.case.value, "gamma_domain": str(gamma_domain(pair))},
    )
    _emit(_render_json(record) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if (args.gamma is None) == (args.beta_seq is None):
        raise DomainError("sweep needs exactly one of --gamma or --beta-seq")
    if args.gamma is not None:
        if args.beta is None:
            raise DomainError("--gamma sweeps need a fixed --beta")
        pair = ExponentPair(args.alpha, args.beta)
        gammas = _parse_sequence(args.gamma, args.spacing)
        columns = _SWEEP_GAMMA_COLUMNS
        rows = _table_rows(columns, gamma_sweep(pair, gammas))
        inputs = {
            "alpha": args.alpha,
            "beta": args.beta,
            "gamma_spec": args.gamma,
            "spacing": args.spacing,
        }
    else:
        if args.beta is not None:
            raise DomainError("--beta-seq sweeps take no fixed --beta")
        betas = _parse_sequence(args.beta_seq, args.spacing)
        columns = _SWEEP_BETA_COLUMNS
        rows = _table_rows(columns, sharpness_table(args.alpha, betas))
        inputs = {
            "alpha": args.alpha,
            "beta_spec": args.beta_seq,
            "spacing": args.spacing,
        }
    if args.format == "csv":
        _emit(_csv_text(columns, rows), args.out)
        return 0
    record = _record("sweep", inputs, {"rows": rows}, {"count": len(rows)})
    _emit(_render_json(record) + "\n", args.out)
    return 0


def _estimate_results(f: FunctionSpec, pair: ExponentPair, args) -> dict:
    rep = extension_ratio(f, pair) if args.extension else None
    est = estimate_halfline(f, pair) if rep is None else rep.halfline
    results = {
        "halfline_value": est.value,
        "halfline_witness_lo": est.witness.lo,
        "halfline_witness_hi": est.witness.hi,
        "halfline_converged": est.converged,
        "halfline_search_points": est.search_points,
    }
    if rep is None:
        return results
    ext = rep.extension
    return {
        **results,
        "extension_value": ext.value,
        "extension_witness_lo": ext.witness.lo,
        "extension_witness_hi": ext.witness.hi,
        "extension_converged": ext.converged,
        "extension_search_points": ext.search_points,
        "ratio": rep.ratio,
        "upper_bound": rep.upper_bound,
        "bound_satisfied": rep.ratio <= rep.upper_bound + 1e-6,
    }


def _cmd_estimate(args) -> int:
    pair = _pair_from(args)
    if args.function is not None:
        f = _parse_function(args.function)
        source = args.function
    else:
        f = table_from_csv(args.csv)
        if (pair.alpha < 0.0 or pair.beta < 0.0) and not f.strictly_positive:
            raise DataError(
                "table contains zero values; negative-order means are undefined"
            )
        source = args.csv
    record = _record(
        "estimate",
        {
            "function": source,
            "alpha": pair.alpha,
            "beta": pair.beta,
            "extension": args.extension,
        },
        _estimate_results(f, pair, args),
        {"quad_tol": QUAD_TOL, "monotonicity": f.monotonicity.value},
    )
    _emit(_render_json(record) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    # Imported here: no other command needs the suites.
    from .verify import run_suite

    results = run_suite(args.suite, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        sys.stdout.write(
            f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}\n"
        )
    failed = sum(1 for r in results if not r.passed)
    sys.stdout.write(f"{len(results)} checks, {failed} failed\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(
        prog="rhiconst",
        description="Reverse Holder constants on the half-line and under even extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt: bool, beta_required: bool = True) -> None:
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=beta_required, default=None)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("power", help="closed-form constants for f(x)=x**gamma")
    add_common(p, fmt=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=int, default=EPS_GRID, help="shape-curve seeds, 64 to 2**20")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("class", help="class-level constants for an exponent pair")
    add_common(p, fmt=True)
    p.set_defaults(handler=_cmd_class)

    p = sub.add_parser("sweep", help="tables over gamma or beta sequences")
    add_common(p, fmt=True, beta_required=False)
    p.add_argument(
        "--gamma",
        default=None,
        help=f"gamma sequence start:stop:count, count at most {_SEQUENCE_MAX}",
    )
    p.add_argument(
        "--beta-seq",
        default=None,
        help=f"beta sequence start:stop:count, count at most {_SEQUENCE_MAX}",
    )
    p.add_argument(
        "--spacing",
        choices=("auto", "geometric", "linear", "approach"),
        default="auto",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("estimate", help="supremum search for a function spec or table")
    add_common(p, fmt=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--function", default=None, help=_FUNCTION_FORMS)
    group.add_argument("--csv", default=None, help="path to an x,f table")
    p.add_argument("--extension", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 4
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except RhiError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one benchmark workload in this process and print its raw figures.

run.py starts this script in a fresh process for every set-up probe and
every measured run, with RHI_THREADS=1 and PYTHONPATH pointing at the
checkout's src directory.  The process:

1. imports rhiconst and generates the workload's inputs from the seed
   (set-up, timed from the moment run.py started the process);
2. runs whole rounds of operations, one at a time, for about the run
   length, timing each operation around the public call;
3. checks the outputs against perfbench.reference, outside the timing;
4. prints one JSON object on its last line of standard output.

With --trace the rounds alternate between untraced and traced; the
traced rounds give the per-layer figures and the ratio of round times
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

# Relative tolerance for re-evaluating a reported witness with the
# reference quadrature: ten times the estimator's quadrature tolerance.
WITNESS_RTOL = 1e-7
# Relative tolerance between two searched suprema (estimate against the
# brute-force oracle, half-line against extension).  It is the agreement
# tolerance the package's own verify suite and tests use for the same
# comparison; the searches stop on a 1e-6 relative gain per round, so
# their shortfall is not bounded by the quadrature tolerance.
SEARCH_RTOL = 1e-4
# Identities between closed forms computed two ways.
CLOSED_RTOL = 1e-12


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


class ClosedFormBatch:
    """class_constants(pair) plus gamma_sweep(pair, gammas), one pair per op."""

    def __init__(self, rhiconst, seed: int, workdir: str) -> None:
        import inputs

        self.rc = rhiconst
        self.inputs = inputs.closed_form_inputs(seed)
        self.gammas = []
        for inp in self.inputs:
            pair = rhiconst.ExponentPair(inp.alpha, inp.beta)
            approach = rhiconst.gamma_approach_sequence(pair, inp.toward, inputs.APPROACH_GAMMAS)
            self.gammas.append(list(inp.spread) + approach)

    def run(self, i: int):
        inp = self.inputs[i]
        pair = self.rc.ExponentPair(inp.alpha, inp.beta)
        cc = self.rc.classconst.class_constants(pair)
        return cc, self.rc.classconst.gamma_sweep(pair, self.gammas[i])

    def status(self, outcome) -> str | None:
        return None

    def check(self, i: int, outcome) -> list[str]:
        import reference as ref

        a, b = self.inputs[i].alpha, self.inputs[i].beta
        cc, reports = outcome
        bound, pcc = ref.general_bound(a, b), ref.power_class_constant(a, b)
        problems = []
        if not _close(cc.upper_bound, bound, CLOSED_RTOL):
            problems.append(f"upper_bound {cc.upper_bound!r} != paper bound {bound!r}")
        if not _close(cc.class_constant, pcc, CLOSED_RTOL):
            problems.append(f"class_constant {cc.class_constant!r} != paper value {pcc!r}")
        if [r.gamma for r in reports] != self.gammas[i]:
            problems.append("gamma_sweep rows do not follow the requested gammas")
        for r in reports:
            h = ref.halfline_power(a, b, r.gamma)
            at_star = float(ref.shape_curve(a, b, r.gamma, r.eps_star))
            dense = ref.dense_curve_max(a, b, r.gamma)
            where = f"gamma={r.gamma!r}"
            if not _close(r.halfline_constant, h, CLOSED_RTOL):
                problems.append(f"{where}: halfline_constant {r.halfline_constant!r} != {h!r}")
            if not _close(r.curve_max, at_star, CLOSED_RTOL):
                problems.append(f"{where}: curve_max {r.curve_max!r} != c(eps_star) {at_star!r}")
            if r.curve_max < dense * (1.0 - CLOSED_RTOL):
                problems.append(f"{where}: curve_max {r.curve_max!r} below dense-grid max {dense!r}")
            if not _close(r.extension_constant, r.curve_max * h, CLOSED_RTOL):
                problems.append(f"{where}: extension_constant != curve_max * H")
            if not 1.0 <= r.curve_max <= pcc * (1.0 + CLOSED_RTOL):
                problems.append(f"{where}: curve_max {r.curve_max!r} outside [1, {pcc!r}]")
        return problems


class _CliWorkload:
    """One in-process `rhiconst estimate` call per op, output captured."""

    argv: list[list[str]]

    def __init__(self, rhiconst) -> None:
        self.rc = rhiconst

    def run(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rc.cli.main(self.argv[i])
        return code, out.getvalue(), err.getvalue()

    def status(self, outcome) -> str | None:
        code, _, err = outcome
        return None if code == 0 else f"exit {code}: {err.strip()}"


class ExtensionSearch(_CliWorkload):
    """estimate --function affpow:... --extension."""

    def __init__(self, rhiconst, seed: int, workdir: str) -> None:
        import inputs

        super().__init__(rhiconst)
        self.inputs = inputs.extension_inputs(seed)
        self.argv = [
            ["estimate", "--alpha", repr(p.alpha), "--beta", repr(p.beta), "--function", p.spec, "--extension"]
            for p in self.inputs
        ]

    def check(self, i: int, outcome) -> list[str]:
        import reference as ref

        p = self.inputs[i]
        res = json.loads(outcome[1])["results"]
        hl, ext = res["halfline_value"], res["extension_value"]
        problems = []
        if not (res["halfline_converged"] and res["extension_converged"]):
            problems.append("a search did not converge")
        if not 1.0 - WITNESS_RTOL <= hl <= ext * (1.0 + SEARCH_RTOL):
            problems.append(f"expected 1 <= halfline {hl!r} <= extension {ext!r}")
        bound = ref.general_bound(p.alpha, p.beta)
        if res["ratio"] > bound or not _close(res["upper_bound"], bound, CLOSED_RTOL):
            problems.append(f"ratio {res['ratio']!r} / upper_bound {res['upper_bound']!r} vs paper bound {bound!r}")
        f = self.rc.AffinePower(p.scale, p.gamma, p.offset)
        pair = self.rc.ExponentPair(p.alpha, p.beta)
        for name, value, brute in (
            ("halfline", hl, self.rc.oracle.brute_halfline(f, pair)),
            ("extension", ext, self.rc.oracle.brute_extension(f, pair)),
        ):
            if value < brute * (1.0 - SEARCH_RTOL):
                problems.append(f"{name} {value!r} below brute-force {brute!r}")
            lo, hi = res[f"{name}_witness_lo"], res[f"{name}_witness_hi"]
            again = ref.affine_mean_ratio(p.scale, p.gamma, p.offset, p.alpha, p.beta, lo, hi)
            if not _close(value, again, WITNESS_RTOL):
                problems.append(f"{name} {value!r} but its witness ({lo!r}, {hi!r}) gives {again!r}")
        return problems


class TableHalfline(_CliWorkload):
    """estimate --csv table.csv, monotonicity unknown (2-D search)."""

    def __init__(self, rhiconst, seed: int, workdir: str) -> None:
        import inputs

        super().__init__(rhiconst)
        self.inputs = inputs.table_inputs(seed, workdir)
        self.argv = [
            ["estimate", "--alpha", repr(t.alpha), "--beta", repr(t.beta), "--csv", t.path]
            for t in self.inputs
        ]

    def check(self, i: int, outcome) -> list[str]:
        import reference as ref

        t = self.inputs[i]
        res = json.loads(outcome[1])["results"]
        value, lo, hi = res["halfline_value"], res["halfline_witness_lo"], res["halfline_witness_hi"]
        problems = []
        if not t.xs[0] <= lo < hi <= t.xs[-1]:
            return [f"witness ({lo!r}, {hi!r}) leaves the data [{t.xs[0]!r}, {t.xs[-1]!r}]"]
        spread = float(t.fs.max() / t.fs.min())
        if not 1.0 - WITNESS_RTOL <= value <= spread:
            problems.append(f"value {value!r} outside [1, max f / min f = {spread!r}]")
        again = ref.table_mean_ratio(t.xs, t.fs, t.alpha, t.beta, lo, hi)
        if not _close(value, again, WITNESS_RTOL):
            problems.append(f"value {value!r} but exact integrals over the witness give {again!r}")
        return problems


WORKLOADS = {
    "closed_form_batch": ClosedFormBatch,
    "extension_search": ExtensionSearch,
    "table_halfline": TableHalfline,
}


def run_rounds(work, seconds: float, tracer):
    """Closed loop over whole rounds, ending as near `seconds` as it can.

    A new round starts only while the run would otherwise end more than
    half a round short.  Traced runs make at least one untraced and one
    traced round.

    Returns per-op records (input index, latency ms, traced, error or
    None), the canonical outcome of each input, the measured elapsed time
    and the round times split by tracing.
    """
    n = len(work.inputs)
    canonical = [None] * n
    records = []
    round_times = {False: [], True: []}
    begin = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for i in range(n):
            if traced:
                tracer.operation = len(records)
            t0 = time.perf_counter()
            try:
                outcome, error = work.run(i), None
            except (Exception, SystemExit) as exc:
                outcome, error = None, f"raised {type(exc).__name__}: {exc}"
            latency_ms = (time.perf_counter() - t0) * 1e3
            error = error or work.status(outcome)
            if error is None:
                if canonical[i] is None:
                    canonical[i] = outcome
                elif outcome != canonical[i]:
                    error = "output differs from the first output for the same input"
            records.append((i, latency_ms, traced, error))
        round_times[traced].append(time.perf_counter() - round_start)
        if traced:
            tracer.remove()
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed * (1.0 + 0.5 / rounds) >= seconds and (tracer is None or rounds >= 2):
            return records, canonical, elapsed, round_times


def layer_metrics(tracer, traced_ops: int, round_times) -> dict:
    calls, total = tracer.calls, tracer.total_s

    def per_call(name: str, scale: float, times=total) -> float:
        return times[name] / calls[name] * scale if calls[name] else 0.0

    def per_op(count: float) -> float:
        return count / traced_ops

    ratios = calls["means.mean_ratio"]
    failed = {kind: n for (name, kind), n in tracer.raised.items() if name == "means.mean_ratio"}
    failed_total = sum(failed.values())
    rows = calls["power.power_report"]
    return {
        "cli.main_self_ms": per_call("cli.main", 1e3, tracer.self_s),
        "power.power_report_us": per_call("power.power_report", 1e6),
        "power.maximize_curve_us": per_call("power.maximize_curve", 1e6),
        "classconst.gamma_sweep_ms_per_row": total["classconst.gamma_sweep"] / rows * 1e3 if rows else 0.0,
        "classconst.class_constants_us": per_call("classconst.class_constants", 1e6),
        "generic.estimate_extension_ms": per_call("generic.estimate_extension", 1e3),
        "generic.estimate_halfline_ms": per_call("generic.estimate_halfline", 1e3),
        "generic.search_points": per_op(tracer.search_points),
        "generic.ratio_evals": per_op(ratios),
        "generic.failed_evals": per_op(failed_total),
        "generic.failed_evals.DomainError": per_op(failed.get("DomainError", 0)),
        "generic.failed_evals.NumericError": per_op(failed.get("NumericError", 0)),
        "generic.failed_evals.QuadratureError": per_op(failed.get("QuadratureError", 0)),
        "generic.useful_eval_share": (ratios - failed_total) / ratios if ratios else 0.0,
        "generic.self_ms": per_op(sum(v for k, v in tracer.self_s.items() if k.startswith("generic.")) * 1e3),
        "means.mean_ratio_us": per_call("means.mean_ratio", 1e6),
        "means.quad_mean_calls": per_op(calls["means.quad_mean"]),
        "means.quad_mean_per_ratio": calls["means.quad_mean"] / ratios if ratios else 0.0,
        "means.integrand_calls": per_op(tracer.integrand_calls),
        "means.integrand_nodes": per_op(tracer.integrand_nodes),
        "means.nodes_per_integrand_call": (
            tracer.integrand_nodes / tracer.integrand_calls if tracer.integrand_calls else 0.0
        ),
        "means.table_from_csv_ms": per_call("means.table_from_csv", 1e3),
        "oracle.brute_halfline_ms": per_call("oracle.brute_halfline", 1e3),
        "oracle.brute_extension_ms": per_call("oracle.brute_extension", 1e3),
        "tracing_overhead": statistics.fmean(round_times[True]) / statistics.fmean(round_times[False]) - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    # The benchmark's own modules import numpy too, so they are imported
    # only after this, inside the workloads: import_s includes numpy.
    t0 = time.perf_counter()
    import rhiconst
    import rhiconst.cli

    import_s = time.perf_counter() - t0
    workdir = os.path.join(args.out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = WORKLOADS[args.workload](rhiconst, args.seed, workdir)
        setup_s = time.monotonic() - args.started
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            result.update(measure(work, args, rhiconst))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def checked(work, i: int, outcome) -> list[str]:
    """work.check, with a check that raises counted as a problem."""
    try:
        return work.check(i, outcome)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def measure(work, args, rhiconst) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(rhiconst)
    records, canonical, elapsed, round_times = run_rounds(work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The checks call no traced function but the oracle's, so tracing them
    # adds the oracle timings and leaves the per-operation counts alone.
    if tracer is not None:
        tracer.operation = -1
        tracer.install()
    problems = [checked(work, i, out) if out is not None else [] for i, out in enumerate(canonical)]
    if tracer is not None:
        tracer.remove()
        layers = layer_metrics(tracer, sum(1 for r in records if r[2]), round_times)
        tracer.write_spans(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    errors = []
    for i, _, _, error in records:
        if error is None and problems[i]:
            error = "; ".join(problems[i])
        errors.append(error)
    failed = sum(1 for e in errors if e is not None)
    out = {
        "attempted": len(records),
        "failed": failed,
        "failures": sorted({e for e in errors if e is not None})[:10],
        "elapsed_s": elapsed,
        "latencies_ms": [r[1] for r in records if not r[2]],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())

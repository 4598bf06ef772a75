"""Benchmark of the rhiconst package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each run starts fresh single-threaded processes (RHI_THREADS=1) running
perfbench/workload.py: one that sets up and measures, and SETUP_PROBES
that only set up, half of them before it and half after.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones.  --smoke runs every workload briefly in both modes and
exits non-zero if any run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("closed_form_batch", "extension_search", "table_halfline")
SETUP_PROBES = 6
# Every run must end well inside 180 s.
DEADLINE_S = 170.0
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# Threads of numpy's linear-algebra back ends are pinned along with
# rhiconst's own pool: the default pool adds its own jitter.
SINGLE_THREAD_ENV = {
    "RHI_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def start_workload(args, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **SINGLE_THREAD_ENV)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out-dir", OUT_DIR,
    ]
    if args.trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(latencies: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 40:
        return None
    p = max(q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10.0)
    ordered = sorted(latencies)
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def run_once(args, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; print the report and return the result object."""
    if not os.path.isfile(os.path.join(SRC, "rhiconst", "__init__.py")):
        raise RunError(f"no rhiconst package under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    # Set-up probes before and after the measured run, so that their
    # median spans the run rather than one moment of the machine's speed.
    setup_runs = [start_workload(args, True, deadline) for _ in range(probes - probes // 2)]
    main = start_workload(args, False, deadline)
    setup_runs += [start_workload(args, True, deadline) for _ in range(probes // 2)]
    setups = [p["setup_s"] for p in setup_runs] + [main["setup_s"]]
    imports = [p["import_s"] for p in setup_runs] + [main["import_s"]]
    ok = main["attempted"] - main["failed"]
    lat = main["latencies_ms"]
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}: {main['attempted']} operations,"
          f" {main['failed']} failed, {main['elapsed_s']:.2f} s measured")
    for failure in main["failures"]:
        print(f"  failure: {failure}")
    if args.trace:
        metrics = {"cli.import_s": statistics.median(imports), **main["layers"]}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ok_ops_per_s": ok / main["elapsed_s"],
            "latency_p50_ms": statistics.median(lat),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        tail = tail_percentile(lat)
        if tail is not None:
            print(f"  latency p{tail[0]:g} = {tail[1]:.4f} ms over {len(lat)} samples (not gated)")
        else:
            print(f"  {len(lat)} latency samples: too few for a tail percentile")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RunError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    return {
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    bad = 0
    for trace in (False, True):
        for workload in WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=0, seconds=1.0, trace=trace)
            try:
                result = run_once(args, probes=1)
            except RunError as exc:
                print(f"{workload}: {exc}")
                bad += 1
                continue
            bad += result["failed"] > 0 or not result["correct"]
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="rhiconst benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    args.trace = bool(args.trace)
    try:
        result = run_once(args)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

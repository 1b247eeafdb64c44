#!/usr/bin/env python3
"""Paced open-loop dispatch benchmark.

Builds perfbench/dispatch_bench from the repository's sources, runs one
workload, checks its outputs and prints every metric by name with its unit.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 perfbench/run.py --workload b20-lunch --seed 0 --seconds 52 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics
named in BENCHMARK.json; --trace 1 runs the workload untraced and then
traced and prints the per-layer metrics. Exits nonzero when the build fails
or a check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory source-only
import benchstats  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT_DIR = Path(".bench_out")
# Clock-rounding allowance of the pacer consistency check, seconds.
CLOCK_EPSILON_S = 1e-6


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir / "perfbench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4",
                    "--target", "dispatch_bench"],
                   stdout=sys.stderr, check=True)
    return build_dir / "dispatch_bench"


def window_figures(passes, budget, delta, orders_per_s_per_speedup):
    """End-to-end timing figures over the paced windows of all `passes`."""
    service = [s for p in passes for s in p["service_s"]]
    lags = [lag for p in passes for lag in p["lag_s"]]
    late = sum(1 for lag in lags if lag > budget)
    return {
        "window_p50_ms": benchstats.median(service) * 1e3,
        "window_tail_ms": benchstats.tail_percentile(service)[1] * 1e3,
        "lag_p50_ms": benchstats.median(lags) * 1e3,
        "lag_tail_ms": benchstats.tail_percentile(lags)[1] * 1e3,
        "on_time_windows_pct": 100.0 * (len(lags) - late) / len(lags),
        "capacity_orders_per_s": benchstats.capacity_speedup(
            [p["service_s"] for p in passes], delta) * orders_per_s_per_speedup,
    }


def check_pass(p, budget, windows, failures):
    a = p["accounting"]
    if a["placed"] != a["delivered"] + a["rejected"] + a["pending"]:
        failures.append(f"order accounting does not close: {a}")
    if (a["outcome_delivered"], a["outcome_rejected"], a["outcome_pending"]) \
            != (a["delivered"], a["rejected"], a["pending"]):
        failures.append(f"per-order outcomes disagree with counters: {a}")
    if len(p["service_s"]) != windows or len(p["lag_s"]) != windows:
        failures.append(f"expected {windows} paced windows, "
                        f"got {len(p['service_s'])}")
        return
    pacer_late = max(p["late_s"], default=0.0)
    error = benchstats.max_replay_error(p["service_s"], p["lag_s"], budget)
    if error > pacer_late + CLOCK_EPSILON_S:
        failures.append(f"lag recursion misses measured lags by {error:.6f} s "
                        f"(pacer late by at most {pacer_late:.6f} s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out-dir={OUT_DIR}"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"dispatch_bench failed with code {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    delta = raw["delta_s"]
    budget = delta / raw["speedup"]
    windows = round(raw["horizon_s"] / delta)
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]

    failures = []
    for p in passes:
        check_pass(p, budget, windows, failures)
    fingerprints = {p["fingerprint"] for p in passes}
    if len(fingerprints) != 1:
        failures.append(f"passes disagree on the fingerprint: {fingerprints}")
    if raw["seed"] == raw["default_seed"] and \
            fingerprints != {raw["pinned_fingerprint"]}:
        failures.append(f"fingerprint {sorted(fingerprints)} != pinned "
                        f"{raw['pinned_fingerprint']}")

    orders_per_s = passes[0]["accounting"]["placed"] / raw["horizon_s"]
    figures = window_figures(untraced, budget, delta, orders_per_s)
    values = {}
    notes = {}
    if args.trace == 0:
        declared = SPEC["end_to_end"]
        values.update(figures)
        percentile, _, n = benchstats.tail_percentile(
            [lag for p in untraced for lag in p["lag_s"]])
        notes["window_tail_ms"] = notes["lag_tail_ms"] = (
            f"p{percentile} of {n} windows from {len(untraced)} pass(es)")
        accounting = untraced[0]["accounting"]
        values.update(untraced[0]["quality"])
        values["served_pct"] = (100.0 * accounting["delivered"]
                                / accounting["placed"])
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        values["setup_s"] = benchstats.median(raw["setup_s"])
    else:
        declared = SPEC["per_layer"]
        traced = [p for p in passes if p["traced"]][0]
        values.update(traced["layers"])
        values.update(traced["quality"])
        values["gen.workload_s"] = benchstats.median(raw["gen_s"])
        values["graph.warm_s"] = benchstats.median(raw["warm_s"])
        traced_p50 = benchstats.median(traced["service_s"]) * 1e3
        values["bench.pacer_late_ms"] = max(
            max(p["late_s"], default=0.0) for p in passes) * 1e3
        values["bench.trace_overhead_pct"] = (
            100.0 * (traced_p50 / figures["window_p50_ms"] - 1.0))
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = (values[m["name"]], m["unit"])
        else:
            failures.append(f"metric {m['name']} was not measured")

    correct = not failures
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(f"{raw['workload']} seed {raw['seed']}: {len(passes)} pass(es), "
          f"S={raw['speedup']:g}, window budget {budget * 1e3:.1f} ms, "
          f"{windows} paced windows, fingerprint {passes[0]['fingerprint']}")
    # Harness health, in every mode: a late pacer, or warm set-ups (the
    # first one is cold) that disagree with each other, mark a run slowed by
    # the host rather than the program.
    setups = raw["setup_s"]
    warm = setups[1:]
    print(f"  harness: pacer woke at most "
          f"{max(max(p['late_s'], default=0.0) for p in passes) * 1e3:.3f} ms "
          f"late; set-ups {', '.join(f'{x:.3f}' for x in setups)} s, "
          f"warm ones differ by {100.0 * (max(warm) / min(warm) - 1.0):.0f}%")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    attempted = sum(p["accounting"]["placed"] for p in passes)
    failed = sum(p["accounting"]["rejected"] + p["accounting"]["pending"]
                 for p in passes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

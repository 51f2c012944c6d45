#!/usr/bin/env python3
"""Steadiness and determinism checks for the benchmark.

    python3 perfbench/steady.py [--workloads scan,operators,tiered]
                                [--runs 10] [--first-seed 1] [--seconds N]
    python3 perfbench/steady.py --determinism [--workloads ...] [--seconds N]

Steadiness mode runs each workload --runs times, each with another seed,
and prints every end-to-end metric's median, first and third quartile
(Python's statistics.quantiles(values, n=4)) and its spread: the distance
between the quartiles as a share of the median. The spread is compared
with the metric's bound in BENCHMARK.json: "steady" below a third of the
bound, "within" below the bound, "NOISY" otherwise. The spread of setup_s
is only printed: set-up is judged by how far its median moves between
two sets of runs. Each run's host facts are printed too, and the same
statistics of the timings before they were scaled to the nominal host
(see src/speed.rs). This is the evidence the bounds are set from.

Determinism mode makes two traced runs of one seed per workload and
checks that their deterministic counters (events, packets, bytes, tier
and serve counts, simulated times) are identical; the host's page-fault
counts are printed beside them.

--workloads defaults to the workloads of BENCHMARK.json; `serve` can be
named too. Run from the repository root. Exit code 0 when every check
passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """Run the benchmark once; return its output lines as JSON objects."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return [json.loads(l) for l in lines]


def spread_line(name, xs, bound):
    """Median, quartiles and spread of `xs`, and how the spread compares
    with `bound`; the verdict is "info" for set-up time."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    spread = (q3 - q1) / med if med else 0.0
    if name == "setup_s":
        # Judged by the drift of its median between sets, not by its
        # spread within one.
        verdict = "info"
    else:
        verdict = ("steady" if spread < bound / 3
                   else "within" if spread <= bound else "NOISY")
    line = (f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f} {bound:6.3f} {verdict}"
            f"  [{' '.join(f'{x:.4g}' for x in xs)}]")
    return line, verdict


def steadiness(bench, workloads, runs, first_seed, seconds):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        hosts = []
        for seed in range(first_seed, first_seed + runs):
            lines = run(w, seed, seconds, 0)
            result, host = lines[-1], lines[-2]
            if not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            hosts.append(host)
        print(f"\n{w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, {seconds} s")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, xs in values.items():
            line, verdict = spread_line(name, xs, bounds[name]["bound"])
            ok &= verdict != "NOISY"
            print(line, flush=True)
        print("  unscaled (host wall times as measured, for comparison):")
        for name in hosts[0]["unscaled"]:
            xs = [h["unscaled"][name] for h in hosts]
            print(spread_line(name, xs, bounds[name]["bound"])[0])
        spreads = [h["run"]["window_median_spread"] for h in hosts]
        scales = [h["run"]["window_scale"] for h in hosts]
        steal = [h["host"]["steal_ticks"] for h in hosts]
        print(f"  host: nproc {hosts[0]['host']['nproc']}, kernel {hosts[0]['host']['kernel']}, "
              f"steal ticks per run {steal}, window-median spread per run "
              f"{[round(s, 3) for s in spreads]}, window scale [min, median, max] per run "
              f"{[[round(x, 3) for x in s] for s in scales]}")
    return ok


def determinism(workloads, seconds, seed=7):
    """Counters must match exactly, except the host's page-fault counts:
    those depend on thread stacks and on where the allocator's heap ends,
    which vary between processes on workloads that spawn scatter threads
    or iterate hash maps, so they are printed beside the others but not
    required to match."""
    ok = True
    for w in workloads:
        first = run(w, seed, seconds, 1)[0]["counters"]
        second = run(w, seed, seconds, 1)[0]["counters"]
        keys = sorted(set(first) | set(second))
        value = lambda c, k: c.get(k, {}).get("value")
        diff = [k for k in keys if value(first, k) != value(second, k)]
        exact_diff = [k for k in diff if not k.startswith("host.")]
        ok &= not exact_diff
        verdict = "identical" if not exact_diff else f"DIFFER: {exact_diff}"
        print(f"{w}: {len(keys) - len([k for k in keys if k.startswith('host.')])} exact counters {verdict}")
        for k in keys:
            if k.startswith("host."):
                print(f"  {k}: {value(first, k)} vs {value(second, k)} (host, not required to match)")
        for k in exact_diff:
            print(f"  {k}: {value(first, k)} vs {value(second, k)}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--determinism", action="store_true")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    if a.determinism:
        ok = determinism(workloads, a.seconds)
    else:
        ok = steadiness(bench, workloads, a.runs, a.first_seed, a.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

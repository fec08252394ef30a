#!/usr/bin/env python3
"""Steadiness check and reference figures for the NWADE benchmark.

Run from the repository root:

    python3 benchmark/tools.py steadiness [--runs 5]
    python3 benchmark/tools.py reference  [--runs 3]

`steadiness` runs two independent sets of every workload, alternating which
set goes first and rotating the workload order, each run with its own seed.
For every end-to-end metric it prints each set's median and quartiles, the
spread over all runs (interquartile distance / median) and the drift of the
second set's median from the first's, beside the metric's bound in
BENCHMARK.json. The bounds are set from this output.

`reference` measures every workload from scratch (untraced runs on fresh
seeds, one traced run each) and rewrites the reference section of
benchmark/README.md between its markers.

Both build the benchmark through the command in BENCHMARK.json, so the first
run of a checkout includes the build.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "benchmark", "README.md")
BEGIN = "<!-- reference:begin -->"
END = "<!-- reference:end -->"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed with code {out.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    print(
        f"  {workload:<6} seed {seed:<8} trace {int(trace)}  {wall:6.1f} s  "
        f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
        flush=True,
    )
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for i in range(args.runs):
        for tag in ("A", "B") if i % 2 == 0 else ("B", "A"):
            seed = args.seed_base + 2 * i + (0 if tag == "A" else 1)
            k = i % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                sets[tag][w].append(run(bench, w, seed, False))
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<20} {'set':<4} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>8} {'drift':>8} {'bound':>6}")
        for name in bounds:
            a = [r["metrics"][name]["value"] for r in sets["A"][w]]
            b = [r["metrics"][name]["value"] for r in sets["B"][w]]
            q1, med, q3 = quartiles(a + b)
            spread = (q3 - q1) / med if med else float("inf")
            ma, mb = statistics.median(a), statistics.median(b)
            drift = (mb - ma) / ma if ma else float("inf")
            for tag, vals in (("A", a), ("B", b)):
                s1, s2, s3 = quartiles(vals)
                print(f"  {name:<20} {tag:<4} {s1:>10.4f} {s2:>10.4f} {s3:>10.4f}")
            bound = bounds[name]
            steady = abs(drift) <= bound and spread <= bound
            ok &= steady
            print(
                f"  {name:<20} {'all':<4} {q1:>10.4f} {med:>10.4f} {q3:>10.4f} "
                f"{spread:>8.3f} {drift:>+8.3f} {bound:>6.2f}{'' if steady else '  NOT STEADY'}"
            )
        shares = {
            r["failed"] / r["attempted"] for tag in "AB" for r in sets[tag][w]
        }
        print(f"  failed share per run: {sorted(shares)}")
        ok &= len(shares) == 1 and all(r["correct"] for tag in "AB" for r in sets[tag][w])
        walls = [r["wall_s"] for tag in "AB" for r in sets[tag][w]]
        print(f"  wall per run: {min(walls):.1f}-{max(walls):.1f} s")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def host():
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()} logical CPUs, {model}"


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def reference(args):
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m for m in bench["end_to_end"]]
    layers = [m for m in bench["per_layer"]]
    untraced = {w: [] for w in workloads}
    traced = {}
    for i in range(args.runs):
        for w in workloads:
            untraced[w].append(run(bench, w, args.seed_base + i, False))
    for w in workloads:
        traced[w] = run(bench, w, args.seed_base, True)
    lines = [
        BEGIN,
        f"Host: {host()}. Untraced: median of {args.runs} runs "
        f"(seeds {args.seed_base}..{args.seed_base + args.runs - 1}); traced: seed {args.seed_base}. "
        f"Regenerate with `python3 benchmark/tools.py reference`.",
        "",
        "| metric | unit | " + " | ".join(workloads) + " |",
        "|---|---|" + "---:|" * len(workloads),
    ]
    for m in e2e:
        row = [fmt(statistics.median(r["metrics"][m["name"]]["value"] for r in untraced[w])) for w in workloads]
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(row) + " |")
    row = [
        f"{sum(r['failed'] for r in untraced[w])}/{sum(r['attempted'] for r in untraced[w])}"
        for w in workloads
    ]
    lines.append("| failed/attempted | ops | " + " | ".join(row) + " |")
    for m in layers:
        row = [fmt(traced[w]["metrics"][m["name"]]["value"]) for w in workloads]
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(row) + " |")
    lines.append(END)
    with open(README) as f:
        text = f.read()
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    with open(README, "w") as f:
        f.write(head + "\n".join(lines) + tail)
    print(f"rewrote the reference section of {os.path.relpath(README, ROOT)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steadiness")
    s.add_argument("--runs", type=int, default=5, help="seeds per set")
    s.add_argument("--seed-base", type=int, default=1000)
    r = sub.add_parser("reference")
    r.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    r.add_argument("--seed-base", type=int, default=2000)
    args = p.parse_args()
    return steadiness(args) if args.cmd == "steadiness" else reference(args)


if __name__ == "__main__":
    sys.exit(main())

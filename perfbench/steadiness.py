#!/usr/bin/env python3
"""Steadiness pass: run the benchmark once per seed on each workload and
report, per end-to-end metric, the median and the inter-quartile spread
(Q3 - Q1 over the median, from statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/set1.json
    python3 perfbench/steadiness.py --runs 5 --workloads serve_window

The command, workloads, run length and metrics come from BENCHMARK.json.
`--bin <path>` runs an already built perfbench binary instead of the
manifest's `cargo run` command (useful while tuning). `--compare <a> <b>`
prints how far the medians of a second recorded set moved from the first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def measure(args, manifest):
    cmd = [args.bin] if args.bin else manifest["command"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in manifest["workloads"]]
    record = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(cmd, w, seed, manifest["run_seconds"])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        record[w] = runs
    return record


def report(record, manifest):
    worst_ok = True
    for w, runs in record.items():
        print(f"\n{w} ({len(runs)} runs)")
        for m in manifest["end_to_end"]:
            med, s = spread([r[m["name"]] for r in runs])
            share = s / m["bound"]
            flag = "" if m["name"] == "setup_s" or share < 1 / 3 else "  <-- above bound/3"
            worst_ok &= m["name"] == "setup_s" or share <= 1
            print(f"  {m['name']:<18} median {med:>12.4f} {m['unit']:<4} "
                  f"spread {s:7.4f} bound {m['bound']:.2f}{flag}")
    return worst_ok


def compare(a, b, manifest):
    ok = True
    for w in a:
        print(f"\n{w}: second median vs first")
        for m in manifest["end_to_end"]:
            ma = statistics.median(r[m["name"]] for r in a[w])
            mb = statistics.median(r[m["name"]] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok &= worse <= m["bound"]
            print(f"  {m['name']:<18} {ma:>12.4f} -> {mb:>12.4f}  worse by {worse:+.4f} "
                  f"(bound {m['bound']:.2f})")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--bin")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    manifest = load_manifest()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(a, b, manifest) else 1)
    record = measure(args, manifest)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if report(record, manifest) else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs the benchmark several times per workload, each with another seed,
and prints, for every end-to-end metric, the median, the quartiles and
the quartile spread (IQR / median) against the metric's bound from
BENCHMARK.json, plus the sample count behind each run's p90_ms.

    python3 perfbench/steady.py --runs 10 [--workloads edit,fleet] [--seed0 100]
        [--out perfbench/STEADINESS.md] [--raw runs.jsonl]
    python3 perfbench/steady.py --compare first.jsonl second.jsonl

Run it from the repository root.  Each run is the command BENCHMARK.json
names, so the figures are the ones the benchmark reports.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed ({workload}, seed {seed}): {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    return json.loads(lines[-1]), info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--out", default="")
    ap.add_argument("--raw", default="", help="also write every run's result and info line here (JSON lines)")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two --raw files against the bounds")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    if opts.compare:
        compare(bench, *opts.compare)
        return
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    out = ["| workload | metric | unit | median | Q1 | Q3 | spread | bound | spread/bound |",
           "|---|---|---|---|---|---|---|---|---|"]
    notes = []
    worst = 0.0
    raw = open(opts.raw, "w") if opts.raw else None
    for w in names:
        values = {m: [] for m in bounds}
        whole = {m: [] for m in ("ops_per_s", "p50_ms", "p90_ms")}
        quiet = []
        tails, steals, attempted, failed = [], [], 0, 0
        started = time.time()
        for i in range(opts.runs):
            res, info = run_once(bench["command"], w, opts.seed0 + i, bench["run_seconds"])
            if raw:
                raw.write(json.dumps({"workload": w, "seed": opts.seed0 + i, "result": res, "info": info}) + "\n")
                raw.flush()
            attempted += res["attempted"]
            failed += res["failed"]
            tails.append(f'{info["latency_samples"]}/{info["p90_samples_beyond"]}')
            steals.append(f'{info["steal_share"] or 0:.2f}')
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            for m in whole:
                whole[m].append(info["all_loop"][m])
            quiet.append(f'{info["quiet_share"]:.2f}')
        rows = [(m, m, vals) for m, vals in values.items()]
        rows += [(m, m + " (whole loop, not gated)", vals) for m, vals in whole.items()]
        for m, label, vals in rows:
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[m]["bound"]
            ratio = spread / bound
            if label == m:
                worst = max(worst, ratio)
            out.append(f"| {w} | {label} | {bounds[m]['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                       f"| {spread:.3f} | {bound} | {ratio:.2f} |")
        notes.append(f"- {w}: {opts.runs} runs in {time.time() - started:.0f} s, seeds "
                     f"{opts.seed0}..{opts.seed0 + opts.runs - 1}; ops attempted {attempted}, failed {failed}; "
                     f"p90_ms samples/samples beyond p90 per run: {', '.join(tails)}; "
                     f"host steal share of the loop per run: {', '.join(steals)}; "
                     f"quiet share of the loop per run: {', '.join(quiet)}")
        print("\n".join(out[-len(rows):]), flush=True)
    text = "\n".join(out + [""] + notes) + "\n"
    text += f"\nLargest spread/bound: {worst:.2f}\n"
    print(text)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)


def compare(bench, first, second):
    """Prints, per workload and end-to-end metric, how far the second
    set's median is from the first's, in the metric's worse direction,
    against its bound."""
    def medians(path):
        vals = {}
        for line in open(path):
            run = json.loads(line)
            for m, v in run["result"]["metrics"].items():
                vals.setdefault((run["workload"], m), []).append(v["value"])
        return {k: statistics.median(v) for k, v in vals.items()}
    a, b = medians(first), medians(second)
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        for w in [x["name"] for x in bench["workloads"]]:
            if (w, m["name"]) not in a or (w, m["name"]) not in b:
                continue
            x, y = a[(w, m["name"])], b[(w, m["name"])]
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            print(f"| {w} | {m['name']} | {x:.6g} | {y:.6g} | {worse:+.3f} | {m['bound']} |")


if __name__ == "__main__":
    main()

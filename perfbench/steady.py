#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds, compare spreads to bounds.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Run from the repository root. For each workload it runs `perfbench/run.py`
once per seed (with `run_seconds` from BENCHMARK.json) and prints, per
end-to-end metric, the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (interquartile distance
over the median) and the metric's bound. A spread above a third of its
bound is flagged; `setup_s` is reported but, like the acceptance rule,
judged only on its median. With `--json FILE` the raw results are saved.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    raw = {}
    for w in names:
        raw[w] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed ({out.returncode})", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            raw[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']}",
                  file=sys.stderr)

    worst = 0.0
    for w in names:
        print(f"\n## {w} ({len(raw[w])} runs)")
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in raw[w] if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                worst = max(worst, spread / bound)
            print(f"{m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)
    sys.exit(1 if worst > 0 else 0)


if __name__ == "__main__":
    main()

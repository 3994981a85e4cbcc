"""Run the benchmark over ten seeds and summarise its run-to-run spread.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in `BENCHMARK.json` it makes one untraced run per seed
(seeds 1 to 10) and two traced runs. For every end-to-end metric it records
the values, their median and quartiles (`statistics.quantiles(values, n=4)`)
and the spread (the interquartile distance as a share of the median) next to
the metric's bound; it also keeps the times of the single fits of each run.
For the per-layer metrics it records the median of each time across the
traced runs and the value of each counter, which must be the same in both
traced runs; a counter that differs marks the workload failed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import ROOT, TIME_UNITS  # noqa: E402

SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:2]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple:
    """One benchmark process; returns (machine/sample line, result line)."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def per_layer(bench: dict, traced: list) -> tuple:
    """Median times and exact counters of the traced runs, and the counters that differ."""
    out, differing = {}, {}
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        values = [r["metrics"][name]["value"] for r in traced]
        if unit in TIME_UNITS:
            out[name] = {"value": statistics.median(values), "unit": unit}
        else:
            out[name] = {"value": values[0], "unit": unit}
            if any(v != values[0] for v in values):
                differing[name] = values
    return out, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    summary = {"run_seconds": bench["run_seconds"], "seeds": SEEDS,
               "traced_seeds": TRACED_SEEDS, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        results, fit_samples = [], []
        for seed in SEEDS:
            info, result = run_once(bench, name, seed, 0)
            summary.setdefault("machine", info["machine"])
            results.append(result)
            fit_samples.append(info["samples"]["fit_s"])
            print("%s seed %d: %s" % (name, seed, json.dumps(result)), flush=True)
        traced = [run_once(bench, name, seed, 1)[1] for seed in TRACED_SEEDS]
        layers, differing = per_layer(bench, traced)
        entry = {
            "attempted": sum(r["attempted"] for r in results + traced),
            "failed": sum(r["failed"] for r in results + traced),
            "correct": all(r["correct"] for r in results + traced) and not differing,
            "end_to_end": {},
            "fit_s_per_run": fit_samples,
            "per_layer": layers,
            "differing_counters": differing,
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = dict(
                summarise(values), unit=metric["unit"], bound=metric["bound"])
        summary["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print("%-20s %-12s median %10.4f  spread %.3f  bound %.2f"
                  % (name, metric, s["median"], s["spread"], s["bound"]), flush=True)
        for metric, values in differing.items():
            print("%-20s counter %s differs across traced runs: %r" % (name, metric, values),
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Runs every workload of BENCHMARK.json in two interleaved sets of runs
(A1 B1 A2 B2 ...), each run with its own seed, and prints per metric each
set's median and quartiles and the quartile spread as a share of the
median. It flags:

  * an end-to-end metric whose spread in a set exceeds its bound;
  * an end-to-end metric whose two medians differ by more than its bound,
    in either direction (the difference as a share of the smaller one);
  * a workload whose failed share differs between the sets.

Usage (from the repository root):

  python3 perfbench/steadiness.py [--runs 10]

Every run uses BENCHMARK.json's run_seconds. Results also go to
perfbench/out/steadiness-<time>.json. Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    started = time.time()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(command),
                                                       proc.returncode))
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for name, seed in (("A", 1 + i), ("B", 1001 + i)):
                result = run_once(spec, workload, seed)
                runs[workload][name].append(result)
                sys.stderr.write("%s %s seed %d: %.1f s, %d/%d failed\n" % (
                    workload, name, seed, result["elapsed_s"],
                    result["failed"], result["attempted"]))

    flags = []
    report = {"nproc": os.cpu_count(), "seconds": seconds,
              "runs_per_set": args.runs, "workloads": {}}
    for workload in workloads:
        print("\n%s (%d runs per set, %d s each, nproc %d)" % (
            workload, args.runs, seconds, os.cpu_count()))
        print("  %-32s %-4s %14s %14s %14s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread"))
        table = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sets = {}
            for set_name in ("A", "B"):
                values = [r["metrics"][name]["value"]
                          for r in runs[workload][set_name]]
                sets[set_name] = summary(values) if len(values) > 1 else {
                    "median": values[0], "q1": values[0], "q3": values[0],
                    "spread": 0.0}
                s = sets[set_name]
                print("  %-32s %-4s %14.6g %14.6g %14.6g %7.1f%%" % (
                    name, set_name, s["median"], s["q1"], s["q3"],
                    100 * s["spread"]))
            table[name] = sets
            bound = metric["bound"]
            for set_name in ("A", "B"):
                if sets[set_name]["spread"] > bound:
                    flags.append("%s %s: set %s spread %.1f%% > bound %.0f%%"
                                 % (workload, name, set_name,
                                    100 * sets[set_name]["spread"],
                                    100 * bound))
            low, high = sorted((sets["A"]["median"], sets["B"]["median"]))
            drift = (high - low) / low if low > 0 else float("inf")
            if drift > bound:
                flags.append("%s %s: medians differ by %.1f%% > bound %.0f%%"
                             % (workload, name, 100 * drift, 100 * bound))
        shares = {}
        for set_name in ("A", "B"):
            failed = sum(r["failed"] for r in runs[workload][set_name])
            attempted = sum(r["attempted"] for r in runs[workload][set_name])
            shares[set_name] = failed / attempted
        if shares["A"] != shares["B"]:
            flags.append("%s: failed share %g vs %g" % (
                workload, shares["A"], shares["B"]))
        print("  failed share: A %g, B %g" % (shares["A"], shares["B"]))
        report["workloads"][workload] = {"metrics": table,
                                         "failed_share": shares}

    report["flags"] = flags
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steadiness-%d.json" % time.time())
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("\nwrote %s" % os.path.relpath(path, ROOT))
    for flag in flags:
        print("FLAG: " + flag)
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()

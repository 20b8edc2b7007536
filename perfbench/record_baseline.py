#!/usr/bin/env python3
"""Measure the benchmark's baseline and steadiness and record it.

    python3 perfbench/record_baseline.py [--seeds 1,2,...] [--workloads a,b]

Run from the repository root.  Makes --sets sets of runs (two by
default, as a later comparison would).  In each set, runs run.py once per
seed and workload, untraced, and reports each end-to-end metric's median,
quartiles and spread (interquartile distance over the median) against its
bound in BENCHMARK.json, and from the second set on how far its median moved
from the first set's.  Every seed's digest must equal the one recorded for
it.  Seeds whose unenforced check fails stay out of the baseline and are
listed.  Then makes one traced run per workload on the default seed.  Writes
the sets, the digests, the tracing overheads (with the noise they are read
against) and the machine description into perfbench/record.json; exits
nonzero if a spread or a move reaches a third of its bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

RECORD = os.path.join(HERE, "record.json")


def bench(workload, seed, seconds, trace):
    """One run.py run: its metric values, digest and unenforced failures."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT)
    lines = r.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    if r.returncode != 0 or not out["correct"]:
        sys.exit("%s seed %d failed its checks" % (workload, seed))
    digest = next(l.split()[1] for l in lines if l.split()[:1] == ["digest"])
    unenforced = [l.split("failed: ", 1)[1] for l in lines
                  if l.lstrip().startswith("check not enforced")]
    return ({k: v["value"] for k, v in out["metrics"].items()}, digest,
            unenforced)


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": round((q3 - q1) / med, 4)}


def dump(obj, indent=0):
    """JSON with every container that fits on one line kept on one line."""
    flat = json.dumps(obj)
    if not isinstance(obj, (dict, list)) or len(flat) + indent <= 78:
        return flat
    pad = " " * (indent + 2)
    if isinstance(obj, dict):
        items = ["%s%s: %s" % (pad, json.dumps(k), dump(v, indent + 2))
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + dump(v, indent + 2) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def machine():
    cache = {}
    with open(os.path.join(run.BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("#"):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    with open(RECORD) as f:
        record = json.load(f)
    run.build()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = record.get("sets", [{} for _ in range(args.sets)])
    sets += [{} for _ in range(args.sets - len(sets))]
    digests = record.setdefault("digests", {})
    excluded = record.setdefault("excluded_seeds", {})
    steady = True
    for k in range(args.sets):
        for w in workloads:
            values, skipped = {}, {}
            for seed in seeds:
                metrics, digest, unenforced = bench(w, seed, args.seconds, 0)
                print("  %s seed %d: %s" % (w, seed, " ".join(
                    "%s %.6g" % kv for kv in sorted(metrics.items()))),
                    flush=True)
                known = digests.setdefault(w, {}).setdefault(str(seed),
                                                              digest)
                if known != digest:
                    sys.exit("%s seed %d: digest %s, earlier %s"
                             % (w, seed, digest, known))
                if unenforced:
                    # A run whose unenforced check failed is not correct:
                    # it stays out of the baseline.
                    skipped[str(seed)] = unenforced[0]
                    continue
                for name, v in metrics.items():
                    values.setdefault(name, []).append(v)
            excluded[w] = skipped
            sets[k][w] = {name: stats(v) for name, v in values.items()}
            for name, st in sets[k][w].items():
                over = st["spread"] >= bounds[name] / 3
                steady &= name == "setup_s" or not over
                if k > 0:
                    first = sets[0][w][name]["median"]
                    worse = ((first - st["median"]) / first
                             if name == "ops_per_s"
                             else (st["median"] - first) / first)
                    over |= worse > bounds[name]
                    steady &= worse <= bounds[name] / 3
                print("set %d %-15s %-12s median %-12.6g spread %.4f "
                      "(bound %.2f)%s" % (k + 1, w, name, st["median"],
                                          st["spread"], bounds[name],
                                          "  <-- unsteady" if over else ""),
                      flush=True)
    overhead = record.setdefault("tracing_overhead_pct", {})
    for w in workloads:
        layers = bench(w, record["seeds"]["default"], args.seconds, 1)[0]
        over, noise = layers["trace.overhead_pct"], layers["trace.noise_pct"]
        overhead[w] = {"overhead": round(over, 2) if abs(over) > noise
                       else "unresolved", "noise": round(noise, 2)}
        print("%-15s tracing overhead %.2f%% (noise %.2f%%)"
              % (w, over, noise), flush=True)
    record["sets"] = sets
    record["baseline_seeds"] = seeds
    record["machine"] = machine()
    with open(RECORD, "w") as f:
        f.write(dump(record) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

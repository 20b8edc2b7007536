#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library and the benchmark binary
from source (pinned Release, into .bench_build/perfbench), runs the
workload in its own process, checks its outputs, prints every metric by
name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a traced run: spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.json).  Exits nonzero when a
check fails or the sources are missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the binary up to date (no-op if it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def recorded_digest(workload, seed):
    """The digest record.json holds for `workload` at `seed`, if any."""
    path = os.path.join(HERE, "record.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        record = json.load(f)
    return record.get("digests", {}).get(workload, {}).get(str(seed))


def run_json(cmd):
    """Runs `cmd`, echoes its stdout but the last line, parses that line."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("no output from: " + " ".join(cmd))
    for line in lines[:-1]:
        print(line)
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("unparseable result from: " + " ".join(cmd))
    return r.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    found = {}  # metric name -> (value, unit)
    cmd = [BINARY, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    inputs_digest = None
    if args.workload == "coop_replay":
        # The trace is generated and written before timing starts, by a
        # process of its own, so neither its time nor its memory is charged
        # to the replay.
        trace_file = os.path.join(BUILD, "coop-%d.trace" % args.seed)
        code, gen = run_json([BINARY, "gen_trace", "--seed", str(args.seed),
                              "--out", trace_file])
        if code != 0:
            fail("trace generation failed")
        found["trace.generate_s"] = (gen["generate_s"], "s")
        inputs_digest = gen["inputs_digest"]
        cmd += ["--trace-file", trace_file,
                "--trace-records", str(gen["records"])]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        code, res = run_json(cmd)
    finally:
        if trace_file and os.path.exists(trace_file):
            os.remove(trace_file)

    for group in ("e2e", "layer"):
        for name, (value, unit) in res[group].items():
            found[name] = (value, unit)
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(found) - set(listed))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    mismatched = sorted(n for n, (_, u) in found.items()
                        if u != listed[n]["unit"])
    if mismatched:
        fail("units differ from BENCHMARK.json: " + ", ".join(mismatched))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in found:
            value = found[m["name"]][0]
        elif args.trace:
            value = 0.0  # the layer does no work in this workload
        else:
            fail("end-to-end metric %s not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("%s seed %d, %s run:" % (args.workload, args.seed,
                                   "traced" if args.trace else "untraced"))
    shown = sorted(found) if not args.trace else [m["name"] for m in wanted]
    for name in shown:
        value, unit = found.get(name, (0.0, listed[name]["unit"]))
        print("  %-26s %16.6g %s" % (name, value, unit))
    if "trace.overhead_pct" in found and (abs(found["trace.overhead_pct"][0])
                                          <= found["trace.noise_pct"][0]):
        print("  trace.overhead_pct is unresolved: within trace.noise_pct, "
              "the spread of the untraced repetitions")
    print("  %-26s %16s" % ("digest", res["digest"]))
    print("  %-26s %16s" % ("inputs_digest",
                             inputs_digest or res["inputs_digest"]))
    recorded = recorded_digest(args.workload, args.seed)
    if recorded and recorded != res["digest"]:
        print("  the digest differs from the one record.json holds for this "
              "seed (%s): the simulated model changed" % recorded)
    for what in res["unenforced"]:
        print("  check not enforced (known library bug) failed: " + what)
    correct = bool(res["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism, lane invariance, seeding,
and agreement between what the binary reports, BENCHMARK.json and
record.json.

    python3 perfbench/test_perfbench.py

Builds the binary through run.py's build step, then drives it directly on
short simulated horizons (about a minute in all).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SHORT_MS = {"serve_xfs": "2000", "serve_building": "1000", "rpc_lanes": "5"}


def perfbench(*args):
    r = subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE,
                       text=True, timeout=run.RUN_TIMEOUT_S)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


def engine_run(workload, seed, *extra):
    code, out = perfbench(workload, "--seed", str(seed), "--seconds", "0",
                          "--sim-ms", SHORT_MS[workload], *extra)
    assert code == 0 and out["correct"], (workload, out)
    return out


class CoopTrace:
    """A generated coop_replay trace, removed afterwards."""

    def __init__(self, seed):
        self.path = os.path.join(run.BUILD, "test-coop-%d.trace" % seed)
        code, self.gen = perfbench("gen_trace", "--seed", str(seed),
                                   "--out", self.path)
        assert code == 0

    def replay(self, *extra):
        code, out = perfbench("coop_replay", "--seed", "1", "--seconds", "0",
                              "--trace-file", self.path, "--trace-records",
                              str(self.gen["records"]), *extra)
        assert code == 0 and out["correct"], out
        return out

    def remove(self):
        os.remove(self.path)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_same_digest(self):
        for w in SHORT_MS:
            self.assertEqual(engine_run(w, 7)["digest"],
                             engine_run(w, 7)["digest"], w)
        trace = CoopTrace(7)
        try:
            self.assertEqual(trace.replay()["digest"],
                             trace.replay()["digest"])
        finally:
            trace.remove()

    def test_rpc_lanes_digest_is_lane_invariant(self):
        one = engine_run("rpc_lanes", 3, "--lanes", "1")
        two = engine_run("rpc_lanes", 3, "--lanes", "2")
        self.assertEqual(one["digest"], two["digest"])
        self.assertEqual(one["e2e"]["sim_mean_ms"], two["e2e"]["sim_mean_ms"])

    def test_seed_changes_generated_inputs(self):
        for w in SHORT_MS:
            self.assertNotEqual(engine_run(w, 1)["inputs_digest"],
                                engine_run(w, 2)["inputs_digest"], w)
        a, b = CoopTrace(1), CoopTrace(2)
        try:
            self.assertNotEqual(a.gen["inputs_digest"], b.gen["inputs_digest"])
        finally:
            a.remove()
            b.remove()

    def test_traced_runs_report_exactly_the_listed_metrics(self):
        produced = set()
        for w in SHORT_MS:
            out = engine_run(w, 1, "--trace", "1")
            produced |= set(out["e2e"]) | set(out["layer"])
        trace = CoopTrace(1)
        try:
            out = trace.replay("--trace", "1")
        finally:
            trace.remove()
        produced |= set(out["e2e"]) | set(out["layer"])
        produced.add("trace.generate_s")  # added by run.py
        listed = {m["name"] for m in
                  self.spec["end_to_end"] + self.spec["per_layer"]}
        self.assertEqual(produced, listed)

    def test_record_maps_exactly_the_listed_metrics(self):
        with open(os.path.join(HERE, "record.json")) as f:
            record = json.load(f)
        mapped = [n for m in record["metrics"] for n in m["names"]]
        listed = [m["name"] for m in
                  self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(sorted(mapped), sorted(listed))

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(run.BUILD, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve_xfs",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size: every workload, traced and
untraced, prints a correct result whose metrics match BENCHMARK.json, the
digest repeats for a fixed seed, and the benchmark refuses to run without
the simulator sources.

    python3 perfbench/test_smoke.py
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(workload, seed=1, trace=0, cwd=ROOT, cpus=None):
    args = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--tiny"]
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=600, preexec_fn=pin)


def parse(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        done = run(workload, trace=trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result, context = parse(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
            for name in ("setup_s", "items_per_s", "latency_p50_ms", "cpu_s",
                         "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0.0, name)
        self.assertEqual(context["workload"], workload)
        self.assertRegex(context["digest"], "^[0-9a-f]{16}$")
        return result, context

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_fig7_layers_reproduce_the_paper_figure(self):
        result, _ = self.check("fig7_figure", 1)
        metrics = result["metrics"]
        self.assertAlmostEqual(metrics["channel.kbps_w15000"]["value"], 35.0, 6)
        self.assertGreater(metrics["mee.read_walks"]["value"], 0.0)
        self.assertEqual(metrics["mee.write_walks"]["value"], 0.0)
        self.assertEqual(metrics["crypto.self_s"]["value"], 0.0)

    def test_enclave_writes_and_crypto(self):
        result, _ = self.check("enclave_rw", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["mee.write_walks"]["value"], 0.0)
        self.assertGreater(metrics["crypto.mac_verifies"]["value"], 0.0)

    def test_digest_repeats_for_a_seed(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                first = parse(run(workload, seed=5))[1]["digest"]
                again = parse(run(workload, seed=5))[1]["digest"]
                other = parse(run(workload, seed=6))[1]["digest"]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_one_thread_per_workload(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                done = run(workload, cpus={min(os.sched_getaffinity(0))})
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.assertEqual(parse(done)[1]["jobs"], "1")

    def test_bad_usage(self):
        done = subprocess.run(RUN + ["--workload", "fig7_figure"], cwd=ROOT,
                              capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")

    def test_refuses_without_simulator_sources(self):
        alone = os.path.join(ROOT, ".bench_work", "without-sources")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("fig7_figure", cwd=alone)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

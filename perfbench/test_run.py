#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

  python3 perfbench/test_run.py

It builds the simulator like a benchmark run does, then checks on short
runs of every workload that the layer tracer reproduces the untraced
simulation, that its spans nest so no layer's self time is negative,
that every metric BENCHMARK.json names is printed with its unit, that
the outside measurements of t4-replay-procs are not zero, that a worker
killed mid-job shows as a retry, that a run leaves the git tree
unchanged, and that a directory holding only the benchmark fails
without printing a result. Unit tests on made-up data show that the
nesting and reference checks fail when they should.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
UNITS = {m["name"]: m["unit"]
         for m in BENCH["end_to_end"] + BENCH["per_layer"]}
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def cli(*args):
    """Run the benchmark's entry point in-process; return its result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(args))
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def check_workload(self, name):
        with run.Scratch() as scratch:
            attempted, failed, metrics, raw = run.run_traced(
                self.exe, name, 1, scratch)
        w = run.WORKLOADS[name]
        self.assertEqual(failed, 0)

        # (a) every traced cell's outputs equal the untraced run's.
        plain = run.untraced_outputs(w, raw["untraced"])
        cells = raw["trace"]["cells"]
        self.assertEqual(len(cells),
                         len(run.labels_of(w)) * len(raw["untraced"]))
        self.assertEqual(len(plain), len(cells))
        for c in cells:
            self.assertEqual(tuple(c[k] for k in run.outputs_of(w)),
                             plain[(c["seed"], c["label"])], c["label"])

        # (b) spans nest, so no layer's self time is negative.
        self.assertEqual(run.nesting_violations(raw["trace"]), set())
        st = raw["self_times"]
        self.assertEqual(len(st), len(cells))
        for cell, v in st.items():
            self.assertGreater(v["wall"], 0)
            self.assertGreater(v["self"]["cpu"], 0, cell)
            for layer, ns in v["self"].items():
                self.assertGreaterEqual(ns, 0, (cell, layer))

        # (c) the traced run yields every per-layer metric with its unit.
        self.assertEqual(set(metrics), PER_LAYER)
        for k, (value, unit) in metrics.items():
            self.assertEqual(unit, UNITS[k], k)
            self.assertIsInstance(value, (int, float), k)
        return metrics

    def test_t3_gen(self):
        m = self.check_workload("t3-gen")
        self.assertGreater(m["cacheport.select_ns.bank"][0], 0)
        self.assertGreater(m["workload.gen_ns_per_inst"][0], 0)

    def test_t4_replay_procs(self):
        m = self.check_workload("t4-replay-procs")
        self.assertGreater(m["cacheport.select_ns.lbic"][0], 0)
        self.assertGreater(m["service.store_put_ms_p50"][0], 0)

    def test_t3_sampled(self):
        m = self.check_workload("t3-sampled")
        self.assertGreater(m["sample.checkpoint_s"][0], 0)
        self.assertEqual(m["sample.intervals"][0], 5)

    def test_worker_death_counts_as_retry(self):
        w = dict(run.WORKLOADS["t4-replay-procs"], insts=20_000)
        os.environ["LBIC_WORKER_FAULT"] = "sigkill@gcc/lbic:4x2@1"
        try:
            with run.Scratch() as scratch:
                traces, _, _ = run.make_traces(self.exe, w, [1], scratch)
                sw = run.sweep(self.exe, w, 1, scratch, traces,
                               flight=True)
        finally:
            del os.environ["LBIC_WORKER_FAULT"]
        self.assertEqual(sw["json"]["store"]["worker_deaths"], 1)
        self.assertEqual(sw["retries"], 1)
        self.assertTrue(all(r["status"] == "ok"
                            for r in sw["json"]["runs"]))


def span(name, start, end, parent, cell):
    return [name, start, end, parent, cell]


class CheckTest(unittest.TestCase):
    """The checks of a run fail on outputs that break them."""

    def test_nesting_violations(self):
        ok = {"spans": [span("sim.cell", 0, 100, -1, 0),
                        span("sim.build", 0, 10, 0, 0),
                        span("sim.run", 10, 100, 0, 0)],
              "aggs": [["workload.next", 2, 50, 5],
                       ["memory.access", 2, 40, 5]]}
        self.assertEqual(run.nesting_violations(ok), set())
        over = dict(ok, aggs=ok["aggs"] + [["cacheport.select", 2, 1, 1]])
        self.assertEqual(run.nesting_violations(over), {0})
        self.assertLess(run.self_times(over)[0]["self"]["cpu"], 0)
        outside = dict(ok, spans=ok["spans"] + [
            span("service.put", 90, 101, 0, 0)], aggs=[])
        self.assertEqual(run.nesting_violations(outside), {0})
        crossed = {"spans": [span("sim.cell", 0, 100, -1, 0),
                             span("sim.cell", 100, 200, -1, 1),
                             span("sim.run", 150, 160, 1, 0)],
                   "aggs": []}
        self.assertEqual(run.nesting_violations(crossed), {0})

    def sampled_sweep(self, seed):
        w = run.WORKLOADS["t3-sampled"]
        refs = run.load_refs("t3-sampled")
        runs = []
        for label in run.labels_of(w):
            r = {"label": label, "status": "ok", "ipc": 1.0,
                 "sampling": {"ci_valid": 1, "ci_low": 0.9,
                              "ci_high": 1.1}}
            refs[str(seed)][label]["sampled"] = run.sampled_digest(r)
            runs.append(r)
        return w, refs, dict(seed=seed, json={"runs": runs})

    def test_sampled_outputs_are_checked(self):
        w, refs, sw = self.sampled_sweep(3)
        self.assertEqual(run.check_sweep(w, "t3-sampled", sw, refs), 0)
        sw["json"]["runs"][5]["sampling"]["ci_low"] = 0.91
        sw["json"]["runs"][7]["ipc"] = 1.01
        self.assertEqual(run.check_sweep(w, "t3-sampled", sw, refs), 2)
        del refs["3"]["go/bank:4"]["sampled"]
        with self.assertRaises(run.BenchError):
            run.check_sweep(w, "t3-sampled", sw, refs)

    def test_failed_cell_is_counted_not_fatal(self):
        w, refs, sw = self.sampled_sweep(4)
        runs = sw["json"]["runs"]
        runs[2] = {"label": runs[2]["label"], "status": "failed"}
        self.assertEqual(run.check_sweep(w, "t3-sampled", sw, refs), 1)
        self.assertIn("ci_miss_ratio", run.accuracy(w, "t3-sampled", [sw]))
        # A failed run carries no port or sampling block.
        ok = {"label": "gcc/ideal:1", "status": "ok", "instructions": 1,
              "cycles": 1, "ipc": 1.0, "l1_miss_rate": 0.0,
              "port": {"requests_seen": 1, "requests_granted": 1}}
        failed = {"label": "go/ideal:1", "status": "failed"}
        plain = run.untraced_outputs(
            run.WORKLOADS["t3-gen"],
            [dict(seed=4, json={"runs": [ok, failed]})])
        self.assertEqual(list(plain), [(4, "gcc/ideal:1")])


class CommandTest(unittest.TestCase):
    def git_status(self):
        p = subprocess.run(["git", "status", "--porcelain"], cwd=run.ROOT,
                           capture_output=True, text=True)
        return p.stdout if p.returncode == 0 else None

    def test_end_to_end_metrics_and_clean_tree(self):
        before = self.git_status()
        for name in run.WORKLOADS:
            rc, res = cli("--workload", name, "--seed", "2",
                          "--seconds", "1", "--trace", "0")
            self.assertEqual(rc, 0)
            self.assertTrue(res["correct"], name)
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 120)
            self.assertEqual(set(res["metrics"]), END_TO_END)
            for k, v in res["metrics"].items():
                self.assertEqual(v["unit"], UNITS[k], k)
                self.assertGreater(v["value"], 0, (name, k))
            if name == "t4-replay-procs":
                # The driver's own resources block reports zero for
                # both on the worker-process path.
                self.assertGreater(res["metrics"]["table_minst_per_s"]
                                   ["value"], 0)
                self.assertGreater(res["metrics"]["peak_rss_mb"]["value"],
                                   0)
        if before is None:
            self.skipTest("not a git checkout")
        self.assertEqual(self.git_status(), before)

    def test_traced_command_prints_per_layer_metrics(self):
        rc, res = cli("--workload", "t3-gen", "--seed", "1",
                      "--seconds", "1", "--trace", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]), PER_LAYER)
        for k, v in res["metrics"].items():
            self.assertEqual(v["unit"], UNITS[k], k)

    def test_fails_without_the_program(self):
        bare = os.path.join(run.BUILD_ROOT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "t3-gen",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

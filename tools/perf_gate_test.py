#!/usr/bin/env python3
"""Tests of the perf gate's comparator (tools/perf_gate.py) on fixture
perfbench reports; no benchmark runs. The bounds come from BENCHMARK.json.

    python3 tools/perf_gate_test.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import perf_gate  # noqa: E402

HOST = ('host: cores=4 cpu="Test CPU" compiler="GNU 12.2.0" build=Release '
        'simd=avx2')
BASE = {"setup_s": 0.5, "peak_rss_mb": 100.0, "ops_per_s": 10.0,
        "op_ms_p50": 200.0, "op_ms_tail": 260.0, "precision_at_10": 0.5}
# Per-seed relative offsets: a quartile spread of about 0.04.
JITTER = [-0.04, -0.02, 0.0, 0.02, 0.04]


def report(values, correct=True, attempted=100, failed=0):
    """A perfbench/run.py report: its host and note lines, then the result."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    return "\n".join([HOST, "inputs: train=0 audit=0", "note: fixture",
                      "run: 12.0 s wall", json.dumps(result)]) + "\n"


def load_spec():
    with open(os.path.join(TOOLS, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def runs(scale=None, jitter=JITTER, **counts):
    """Five parsed run records, metric `name` scaled by scale[name]."""
    records = []
    for seed, offset in zip(perf_gate.SEEDS, jitter):
        values = {k: v * (1 + offset) * (scale or {}).get(k, 1.0)
                  for k, v in BASE.items()}
        host, result = perf_gate.parse_run(report(values, **counts))
        assert host == HOST
        records.append(perf_gate.run_record(seed, result))
    return records


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()
        self.workloads = [w["name"] for w in self.spec["workloads"]]
        self.reference = {"hosts": {HOST: {
            "seeds": perf_gate.SEEDS, "seconds": perf_gate.SECONDS,
            "workloads": {w: runs() for w in self.workloads}}}}

    def gate(self, fresh_by_workload=None):
        """(exit status, printed text) of the gate on `fresh` runs."""
        fresh = {w: runs() for w in self.workloads}
        fresh.update(fresh_by_workload or {})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            entry = perf_gate.baseline(self.reference, HOST)
            status = perf_gate.report(self.spec, entry, fresh)
        return status, out.getvalue()

    def test_within_bound_passes(self):
        # Every metric 10% worse: inside the 0.25 and 0.15 bounds, and
        # precision 5% lower, inside its 0.10 bound.
        worse = {"setup_s": 1.1, "peak_rss_mb": 1.1, "ops_per_s": 0.9,
                 "op_ms_p50": 1.1, "op_ms_tail": 1.1, "precision_at_10": 0.95}
        status, text = self.gate({"batch-dense": runs(worse)})
        self.assertEqual(status, 0, text)
        self.assertIn("perf gate: OK (0 unresolved)", text)

    def test_past_bound_fails_naming_workload_and_metric(self):
        status, text = self.gate({"serve-highway": runs({"op_ms_p50": 1.3})})
        self.assertEqual(status, 1, text)
        self.assertIn("perf gate FAILED: serve-highway op_ms_p50", text)
        self.assertEqual(text.count("perf gate FAILED: "), 1, text)

    def test_higher_failed_share_fails(self):
        self.reference["hosts"][HOST]["workloads"]["watch-edits"] = runs(
            failed=10)
        status, text = self.gate({"watch-edits": runs(failed=10)})
        self.assertEqual(status, 0, text)
        status, text = self.gate({"watch-edits": runs(failed=11)})
        self.assertEqual(status, 1, text)
        self.assertIn("perf gate FAILED: watch-edits: failed/attempted "
                      "55/500 is a higher share than the reference 50/500",
                      text)

    def test_incorrect_run_fails(self):
        fresh = runs()
        fresh[2]["correct"] = False
        status, text = self.gate({"batch-dense": fresh})
        self.assertEqual(status, 1, text)
        self.assertIn("perf gate FAILED: batch-dense seed %d: correct: false"
                      % perf_gate.SEEDS[2], text)

    def test_failed_run_fails(self):
        fresh = runs()
        fresh[0] = {"seed": perf_gate.SEEDS[0], "exit": 2}
        status, text = self.gate({"batch-dense": fresh})
        self.assertEqual(status, 1, text)
        self.assertIn("perfbench exited 2", text)

    def test_wide_reference_spread_is_unresolved(self):
        wide = [-0.4, -0.2, 0.0, 0.2, 0.4]
        self.reference["hosts"][HOST]["workloads"]["watch-edits"] = runs(
            jitter=wide)
        # The median is 30% worse, but the runs overlap the reference's.
        status, text = self.gate({"watch-edits": runs({"op_ms_p50": 1.3})})
        self.assertEqual(status, 0, text)
        self.assertRegex(text, r"op_ms_p50 .* unresolved")
        self.assertIn("perf gate: OK (1 unresolved)", text)
        # Every fresh run worse than every reference run fails all the same.
        status, text = self.gate({"watch-edits": runs({"op_ms_p50": 2.0})})
        self.assertEqual(status, 1, text)
        self.assertIn("perf gate FAILED: watch-edits op_ms_p50", text)

    def test_unknown_host_has_no_comparable_baseline(self):
        # The whole check on a host the reference does not know: the smoke
        # runs, then `no comparable baseline`, exit 0 and no timed runs.
        other = HOST.replace("cores=4", "cores=1")
        calls = []

        def fake_perfbench(workload, seed, extra):
            calls.append(extra)
            host, result = perf_gate.parse_run(report(BASE))
            return other, perf_gate.run_record(seed, result)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reference.json")
            with open(path, "w") as f:
                json.dump(self.reference, f)
            saved = perf_gate.REFERENCE, perf_gate.perfbench
            perf_gate.REFERENCE, perf_gate.perfbench = path, fake_perfbench
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    status = perf_gate.check(self.spec)
            finally:
                perf_gate.REFERENCE, perf_gate.perfbench = saved
        self.assertEqual(status, 0, out.getvalue())
        self.assertIn("perf gate: no comparable baseline for " + other,
                      out.getvalue())
        self.assertEqual(len(calls), 3)
        self.assertTrue(all("--smoke" in extra for extra in calls))

    def test_other_seeds_have_no_comparable_baseline(self):
        self.reference["hosts"][HOST]["seeds"] = [1, 2, 3, 4, 5]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertIsNone(perf_gate.baseline(self.reference, HOST))

    def test_reads_only_the_end_to_end_metrics(self):
        # A per-layer reading (even a negative one) never reaches the gate.
        fresh = runs()
        for run in fresh:
            run["values"]["watch.poll_wait_ms_p50"] = -3.9
        status, text = self.gate({"watch-edits": fresh})
        self.assertEqual(status, 0, text)
        self.assertNotIn("poll_wait", text)


if __name__ == "__main__":
    unittest.main()

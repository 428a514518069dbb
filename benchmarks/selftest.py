"""Self-test of the benchmark harness, at smoke size (about four minutes).

    python3 benchmarks/selftest.py

Checks the self-time arithmetic on synthetic span trees, that BENCHMARK.json
and the harness name the same workloads and metrics, that a smoke-size run of
every workload, untraced and traced, prints every named metric with its unit
and passes its checks, that a repeat with one seed is compared with the
earlier run of the same code version only, that a failing operation is
reported as a failed check with a summary line, and that the benchmark refuses
to run without the package source.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Checks, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SEED = 5


def _span(name, layer, start, end, parent, op=0):
    return spans.Span(name, layer, start, end, parent, op)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        tree = [
            _span("op", "bench", 0.0, 10.0, -1),
            _span("pipeline.stage_tomo", "pipeline", 1.0, 3.0, 0),
            _span("pipeline.stage_certify", "pipeline", 4.0, 8.0, 0),
            _span("sdp.solve", "sdp", 5.0, 6.0, 2),
            _span("sdp.solve", "sdp", 6.5, 7.0, 2),
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 2.5, 1.0, 0.5])
        by_layer = spans.layer_self_times(tree)
        self.assertEqual(by_layer, {"bench": 4.0, "pipeline": 4.5, "sdp": 1.5})
        self.assertEqual(sum(by_layer.values()), 10.0)

    def test_overlapping_children_count_once(self):
        tree = [
            _span("op", "bench", 0.0, 10.0, -1),
            _span("a", "x", 2.0, 6.0, 0),
            _span("b", "x", 4.0, 9.0, 0),
            _span("c", "x", 8.0, 12.0, 0),
        ]
        self.assertEqual(spans.self_times(tree)[0], 2.0)

    def test_tracer_records_only_inside_operations(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: 1, "inner", "sdp", lambda r, a, k: {"value": r})
        outer = tracer.wrap(lambda: inner() + inner(), "outer", "certify")
        self.assertEqual(outer(), 2)
        self.assertEqual(tracer.spans, [])
        tracer.begin_op(3)
        self.assertEqual(outer(), 2)
        root = tracer.end_op()
        names = [(s.name, s.parent, s.op) for s in tracer.spans]
        self.assertEqual(names, [("op", -1, 3), ("outer", 0, 3), ("inner", 1, 3), ("inner", 1, 3)])
        self.assertEqual(tracer.spans[2].attrs, {"value": 1})
        own = spans.self_times(tracer.spans)
        self.assertAlmostEqual(sum(own), root.duration)


class DeclarationTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_metric_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, layers.METRICS)


class RepeatStoreTest(unittest.TestCase):
    def test_compares_within_one_code_version_only(self):
        first = {"digest": "a", "counts": {"simulate.tags": 10}}
        changed = {"digest": "b", "counts": {"simulate.tags": 9}}
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "digests.json"
            checks = Checks()
            worker.compare_with_store(checks, store, "w/1/full/old", [first, dict(first)])
            self.assertEqual((checks.attempted, checks.failed), (1, 0))
            worker.compare_with_store(checks, store, "w/1/full/old", [changed])
            self.assertEqual((checks.attempted, checks.failed), (2, 1))
            # New code may change the outputs on purpose: a new entry, no failure.
            worker.compare_with_store(checks, store, "w/1/full/new", [changed])
            self.assertEqual((checks.attempted, checks.failed), (2, 1))
            self.assertEqual(set(json.loads(store.read_text())), {"w/1/full/old", "w/1/full/new"})


class FailureReportTest(unittest.TestCase):
    """A failing first operation leaves no outcome; it must still be reported."""

    def _report(self, operation, check):
        WORKLOADS["broken"] = Workload("broken", lambda seed, smoke: None, operation, check)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "worker.json"
                worker.main(["--workload", "broken", "--seed", "1", "--seconds", "0.01",
                             "--work-dir", str(Path(tmp) / "work"), "--out", str(out)])
                result = json.loads(out.read_text())
                args = argparse.Namespace(workload="broken", seed=1, smoke=True, trace=0)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = run.report(args, result, [0.1], "sha", Path(tmp) / "record.json")
        finally:
            del WORKLOADS["broken"]
        return code, stdout.getvalue()

    def _assert_failed(self, code, stdout):
        self.assertEqual(code, 1)
        self.assertIn("FAILED  operation completes", stdout)
        last = json.loads(stdout.strip().splitlines()[-1])
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)
        self.assertGreaterEqual(last["attempted"], last["failed"])
        return last

    def test_check_raises_on_first_operation(self):
        def check(state, op_dir, result, checks, first_op):
            checks.add("extracted length = blocks x output_length", False, "short")
            raise ValueError("cannot reshape")

        last = self._assert_failed(*self._report(lambda state, op_dir: None, check))
        self.assertEqual(last["failed"], 2)
        self.assertEqual(last["metrics"]["raw_mbit_s"]["value"], 0)

    def test_run_raises(self):
        def fail(state, op_dir):
            raise RuntimeError("pipeline failed")

        last = self._assert_failed(*self._report(fail, None))
        self.assertEqual(last["metrics"], {})


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SMOKE_SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class SmokeRunTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in last["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        self.assertIn(f"metric  {name} = ", proc.stdout)
            # The traced run repeated the untraced one's seed: it was compared.
            record = json.loads((run.OUT / f"{workload}-seed{SMOKE_SEED}-trace1-smoke.json").read_text())
            repeat = record["checks"]["by_name"]["outputs repeat for one seed and code version"]
            self.assertGreaterEqual(repeat["attempted"], 1)
            self.assertEqual(repeat["failed"], 0)
            self.assertAlmostEqual(sum(record["layer_self_s"].values()), record["traced_wall_s"])

    def test_refuses_without_package_source(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench(bare, "default-run", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark at tiny sizes.

Run from the root of the repository::

    python3 perfbench/tests/selftest.py

It checks that every workload prints every metric ``BENCHMARK.json``
declares, with its unit; that each output check fails on a corrupted
output (one dropped or remapped link, a wrong answer, a version going
backwards); and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from common import BUILD, prepare_environment  # noqa: E402

WORKLOADS = ("pa", "affiliation")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class EveryMetricTest(unittest.TestCase):
    def test_tiny_runs_emit_every_declared_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(
                        "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(line), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(line["correct"], proc.stderr)
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    emitted = {
                        name: value["unit"]
                        for name, value in line["metrics"].items()
                    }
                    self.assertEqual(emitted, declared)
                    for name, value in line["metrics"].items():
                        self.assertTrue(math.isfinite(value["value"]), name)


class CorruptedOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        env = prepare_environment()
        args = run.parse_args(
            ["--workload", "pa", "--seed", "5", "--seconds", "1",
             "--scale", "tiny"]
        )
        cls.outputs = run.run(args, env)["outputs"]

    def corrupt(self, edit):
        outputs = copy.copy(self.outputs)
        outputs["traffic"] = copy.copy(self.outputs["traffic"])
        edit(outputs)
        return run.output_checks(outputs)

    def test_clean_outputs_pass(self):
        checks = run.output_checks(self.outputs)
        self.assertTrue(all(checks.values()), checks)

    def test_dropped_batch_link_fails(self):
        def drop(out):
            links = dict(out["batch_links"])
            links.pop(next(iter(links)))
            out["batch_links"] = links

        self.assertFalse(self.corrupt(drop)["batch_equals_csr"])

    def test_remapped_batch_link_fails(self):
        def remap(out):
            links = dict(out["batch_links"])
            (a, x), (b, y) = list(links.items())[:2]
            links[a], links[b] = y, x
            out["batch_links"] = links

        self.assertFalse(self.corrupt(remap)["batch_equals_csr"])

    def _drop_served(self, body: bytes) -> bytes:
        doc = json.loads(body)
        doc["links"] = doc["links"][1:]
        doc["count"] -= 1
        return json.dumps(doc).encode()

    def test_dropped_served_link_fails(self):
        def drop(out):
            out["snapshot"] = self._drop_served(out["snapshot"])

        checks = self.corrupt(drop)
        self.assertFalse(checks["served_equals_cold_csr"])
        self.assertFalse(checks["resumed_primary_serves_prekill_links"])

    def test_remapped_served_link_fails(self):
        def remap(out):
            doc = json.loads(out["snapshot"])
            (a, x), (b, y) = doc["links"][:2]
            doc["links"][0], doc["links"][1] = [a, y], [b, x]
            out["snapshot"] = json.dumps(doc).encode()

        self.assertFalse(self.corrupt(remap)["served_equals_cold_csr"])

    def test_resumed_primary_missing_a_link_fails(self):
        def drop(out):
            out["recovered"] = [self._drop_served(out["recovered"][0])]

        checks = self.corrupt(drop)
        self.assertFalse(checks["resumed_primary_serves_prekill_links"])
        self.assertTrue(checks["replica_serves_prekill_links"])

    def test_replica_missing_a_link_fails(self):
        def drop(out):
            out["replicas"] = [self._drop_served(out["replicas"][0])]

        self.assertFalse(self.corrupt(drop)["replica_serves_prekill_links"])

    def test_version_going_back_fails(self):
        def regress(out):
            out["traffic"].read_version_violations = 1

        checks = self.corrupt(regress)
        self.assertFalse(checks["versions_monotone_per_connection"])

    def test_wrong_version_count_fails(self):
        def short(out):
            out["snapshot_version"] -= 1

        checks = self.corrupt(short)
        self.assertFalse(checks["served_version_is_write_count"])

    def test_wrong_read_answer_fails(self):
        def wrong(out):
            out["traffic"].wrong_reads = 1

        self.assertFalse(self.corrupt(wrong)["read_answers_correct"])


class WithoutProgramTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = BUILD / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                BENCH, bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = bench(
                "--workload", "pa", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""Smoke test of the benchmark: A_1 and two kernel inputs, untraced and traced.

    python3 bench/smoke_test.py

Checks that the runs report every metric BENCHMARK.json names, with its
unit, that every answer is right, and that the untraced and traced runs
produce the same report digests. It sets no timing gate.
"""

from __future__ import annotations

import json
import sys
import unittest
from argparse import Namespace

import run
from workloads import CatalogWorkload, KernelWorkload

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())
CONTRACT = json.loads((run.REPO / "bench" / "contract.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))

    def check(self, workload):
        args = Namespace(seed=1, seconds=0)
        metrics, detail, correct = run.end_to_end(args, workload)
        self.assertTrue(correct, detail)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, units("end_to_end"))

        layers, traced, traced_correct = run.per_layer(args, workload)
        self.assertTrue(traced_correct, traced)
        self.assertEqual({k: u for k, (_, u) in layers.items()}, units("per_layer"))
        self.assertEqual(traced["digest_untraced"], traced["digest_traced"])
        self.assertEqual(detail["digest"], traced["digest_traced"])

    def test_catalog_row(self):
        self.check(CatalogWorkload(("A_1",)))

    def test_kernel_inputs(self):
        self.check(KernelWorkload(count=2))

    def test_contract_names_every_metric(self):
        listed = {name for row in CONTRACT["layers"] for name in row["metrics"]}
        self.assertEqual(listed, set(units("per_layer")))
        self.assertEqual(set(CONTRACT["end_to_end"]), set(units("end_to_end")))
        self.assertEqual(set(CONTRACT["workloads"]), {w["name"] for w in BENCHMARK["workloads"]})


if __name__ == "__main__":
    unittest.main()

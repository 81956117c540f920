"""The benchmark prints exactly the metrics BENCHMARK.json declares.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

from run import E2E_UNITS, unit_of
from spans import Tracer
from workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class MetricNameTests(unittest.TestCase):
    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        self.assertEqual(declared, E2E_UNITS)

    def test_per_layer_names_and_units(self):
        # run.py adds the workload's counts and the tracing overhead
        names = set(Tracer({}, ()).metrics()) | {"cli.csv_rows", "trace.overhead_s"}
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        self.assertEqual(set(declared), names)
        for name, unit in declared.items():
            self.assertEqual(unit_of(name), unit, name)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()

"""BENCHMARK.json agrees with the metric lists run.py prints, and stays
within the format's limits."""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from lib import metrics  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Contract(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(SPEC_PATH), 64 * 1024)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(names), metrics.WORKLOADS)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics_match_run_py(self):
        e2e = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(tuple(e2e), metrics.END_TO_END)
        self.assertEqual(tuple(layers), metrics.PER_LAYER)

    def test_limits(self):
        all_names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            all_names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            all_names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(all_names), len(set(all_names)))
        self.assertLessEqual(len(self.spec["per_layer"]), 128)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

"""Self-tests for the workload inputs, the wire framing and the compare
step."""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lib import compare, inputs, serve, serve_client  # noqa: E402


class Inputs(unittest.TestCase):
    def setUp(self):
        self.data = inputs.load_data()

    def test_plan_is_a_function_of_the_seed(self):
        a = serve.Plan(self.data, 7, 5.0)
        b = serve.Plan(self.data, 7, 5.0)
        c = serve.Plan(self.data, 8, 5.0)
        self.assertEqual((a.due, a.slots), (b.due, b.slots))
        self.assertNotEqual(a.slots, c.slots)

    def test_plan_mix(self):
        plan = serve.Plan(self.data, 3, 30.0)
        self.assertEqual(len(plan.slots), int(serve.RATE * 30.0))
        kinds = [k for k, _ in plan.slots]
        self.assertEqual(kinds.count("popular"), round(serve.POPULAR_SHARE * len(kinds)))
        uniques = [p for k, p in plan.slots if k == "unique"]
        self.assertEqual(len(uniques), len(set(uniques)))
        self.assertFalse(set(uniques) & inputs.load_deny_list())
        popular = {p["name"] for p in self.data["popular"]}
        self.assertEqual({p for k, p in plan.slots if k == "popular"}, popular)
        self.assertTrue(all(b > a for a, b in zip(plan.due, plan.due[1:])))

    def test_random_problems_use_every_label(self):
        rng = random.Random(1)
        for _ in range(200):
            node, edge = inputs.random_problem(rng)
            for label in inputs.RANDOM_LABELS:
                self.assertIn(label, node)
                self.assertIn(label, edge)

    def test_localsim_seed_is_pinned(self):
        pinned = self.data["localsim"]["state_checksum"]
        for seed in range(40):
            self.assertIn(str(inputs.localsim_seed(seed, pinned)), pinned)
        self.assertEqual(pinned["1"], "0xdd37d9b870e8612d")


class Framing(unittest.TestCase):
    def test_round_trip(self):
        reader = serve_client.FrameReader()
        frame = serve_client.encode_frame(b'{"a":1}') + serve_client.encode_frame(b"xy")
        reader.feed(frame[:5])
        self.assertIsNone(reader.next())
        reader.feed(frame[5:])
        self.assertEqual(reader.next(), b'{"a":1}')
        self.assertEqual(reader.next(), b"xy")
        self.assertIsNone(reader.next())

    def test_bad_header(self):
        reader = serve_client.FrameReader()
        reader.feed(b"1x\n")
        with self.assertRaises(ValueError):
            reader.next()


class Compare(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    @staticmethod
    def record(value, nproc=4):
        return {"workload": "derive", "trace": 0,
                "stamp": {"nproc": nproc, "lanes": nproc, "build_type": "Release"},
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    def test_bound(self):
        rows = compare.compare([self.record(1.0)], [self.record(1.05)], self.SPEC)
        self.assertFalse(rows[0]["regressed"])
        rows = compare.compare([self.record(1.0)], [self.record(1.2)], self.SPEC)
        self.assertTrue(rows[0]["regressed"])

    def test_refuses_other_core_counts(self):
        with self.assertRaises(compare.Incomparable):
            compare.compare([self.record(1.0, nproc=4)], [self.record(1.0, nproc=1)],
                            self.SPEC)


if __name__ == "__main__":
    unittest.main()

"""Self-tests for the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lib import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)
        self.assertEqual(stats.samples_beyond(1200, 99.0), 12)
        self.assertEqual(stats.samples_beyond(20, 50.0), 10)

    def test_p99_needs_ten_beyond(self):
        p, value, beyond = stats.tail_percentile(list(range(1000)), 99.0)
        self.assertEqual((p, beyond), (99.0, 10))
        self.assertEqual(value, 989)
        # 999 samples leave only 9 beyond p99: fall back to p95.
        p, _, beyond = stats.tail_percentile(list(range(999)), 99.0)
        self.assertEqual(p, 95.0)
        self.assertGreaterEqual(beyond, 10)

    def test_too_few_samples(self):
        p, value, beyond = stats.tail_percentile(list(range(19)), 99.0)
        self.assertIsNone(p)
        self.assertNotEqual(value, value)  # nan
        self.assertEqual(beyond, 0)


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # Due at 1.0 s, sent late at 1.2 s, answered at 1.25 s: the 200 ms
        # stall counts.
        self.assertAlmostEqual(stats.open_loop_latency(1.0, 1.25), 250.0)

    def test_lateness(self):
        self.assertAlmostEqual(stats.lateness(2.0, 2.003), 3.0)
        self.assertEqual(stats.lateness(2.0, 1.999), 0.0)


class LayerSums(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(stats.union_length([(0, 10), (2, 3)]), 10.0)

    def test_self_time_and_unattributed(self):
        # Two layers back to back with a gap; a store child inside the
        # first, and two overlapping children from pool workers inside the
        # second.
        layers = [("re.iterate", 0.0, 10.0), ("core.certify", 12.0, 20.0)]
        children = [("store.write", 2.0, 4.0), ("store.read", 13.0, 16.0),
                    ("store.write", 14.0, 17.0)]
        self_ms, covered, busy, unattributed = stats.layer_breakdown(21.0, layers, children)
        self.assertEqual(self_ms, {"re.iterate": 8.0, "core.certify": 4.0})
        self.assertEqual(covered, 6.0)
        self.assertEqual(busy, {"store.write": 5.0, "store.read": 3.0})
        self.assertEqual(unattributed, 3.0)
        self.assertAlmostEqual(sum(self_ms.values()) + covered + unattributed, 21.0)

    def test_no_children(self):
        self_ms, covered, busy, unattributed = stats.layer_breakdown(
            5.0, [("local.luby", 0.0, 4.5)], [])
        self.assertEqual((self_ms, covered, busy), ({"local.luby": 4.5}, 0.0, {}))
        self.assertAlmostEqual(unattributed, 0.5)


if __name__ == "__main__":
    unittest.main()

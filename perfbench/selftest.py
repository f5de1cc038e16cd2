"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, self time on a nested span tree with
same-thread re-entry, wrapper installation (including entry points the
program no longer has), the host-speed scaling, the metric registry
against ``BENCHMARK.json``, and the seeded vote draws.  Needs no program source.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
import unittest

import metrics
import stats
import tracer as tracer_module
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = {"steady", "burst", "churn", "http", "plan"}


class TailPercentile(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(1_000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertIsNone(stats.tail_percentile(99))

    def test_requested_percentile_caps_the_pick(self):
        self.assertEqual(stats.tail_percentile(10_000, highest=95.0), 95.0)
        self.assertEqual(stats.tail_percentile(150, highest=95.0), 90.0)

    def test_tail_labels_and_values(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values, 99.0), ("p99", stats.percentile(values, 99.0)))
        self.assertEqual(stats.tail([3.0, 1.0, 2.0], 99.0), ("max", 3.0))
        self.assertEqual(stats.tail(values, None), ("max", 1000))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([5], 99), 5)
        self.assertEqual(stats.median([4, 1, 3]), 3)


class SelfTime(unittest.TestCase):
    """outer A [0,10] > B [1,4] > A again [2,3]; then C [5,9]."""

    def setUp(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        self.real_clock = tracer_module._clock
        tracer_module._clock = lambda: next(ticks)

    def tearDown(self):
        tracer_module._clock = self.real_clock

    def test_nested_tree_with_reentry(self):
        t = Tracer()

        def a_inner():
            return None

        def b():
            t.call("A", a_inner)

        def c():
            return None

        def a_outer():
            t.call("B", b)
            t.call("C", c)

        t.call("A", a_outer)
        summary = t.summary()
        self.assertEqual(summary["A"]["calls"], 2)
        # Re-entry is not counted twice: the inner A lies inside the outer.
        self.assertEqual(summary["A"]["inclusive_s"], 10.0)
        # outer A: 10 - B(3) - C(4) = 3, inner A: 1.
        self.assertEqual(summary["A"]["self_s"], 4.0)
        self.assertEqual(summary["B"]["self_s"], 2.0)
        self.assertEqual(summary["B"]["inclusive_s"], 3.0)
        self.assertEqual(summary["C"]["self_s"], 4.0)
        total_self = sum(row["self_s"] for row in summary.values())
        self.assertEqual(total_self, 10.0)

    def test_parent_links_follow_the_thread_stack(self):
        t = Tracer()
        t.call("A", lambda: t.call("B", lambda: t.call("A", lambda: None)))
        spans = {s.sid: s for s in t.spans}
        inner_a, b, outer_a = t.spans  # spans close innermost first
        self.assertEqual(inner_a.parent, b.sid)
        self.assertEqual(b.parent, outer_a.sid)
        self.assertIsNone(outer_a.parent)
        self.assertEqual(len(spans), 3)


class Wrappers(unittest.TestCase):
    def setUp(self):
        module = types.ModuleType("perfbench_fixture")

        class Thing:
            def method(self, x):
                return x + 1

            @classmethod
            def make(cls, x):
                return cls, x

        def function(x):
            return 2 * x

        module.Thing = Thing
        module.function = function
        sys.modules["perfbench_fixture"] = module
        self.module = module

    def tearDown(self):
        del sys.modules["perfbench_fixture"]

    def test_wraps_methods_classmethods_and_functions(self):
        t = Tracer()
        self.assertTrue(t.wrap("perfbench_fixture:Thing", "method", "thing.method"))
        self.assertTrue(t.wrap("perfbench_fixture:Thing", "make", "thing.make"))
        self.assertTrue(t.wrap("perfbench_fixture", "function", "fn", tag=lambda a, k: a[0]))
        self.assertTrue(t.count("perfbench_fixture", "function", "fn.calls"))
        Thing = self.module.Thing
        self.assertEqual(Thing().method(1), 2)
        self.assertEqual(Thing.make(3), (Thing, 3))
        self.assertEqual(self.module.function(4), 8)
        self.assertEqual([s.name for s in t.spans], ["thing.method", "thing.make", "fn"])
        self.assertEqual(t.spans[-1].tag, 4)
        self.assertEqual(t.counts["fn.calls"], 1)
        t.uninstall()
        self.assertFalse(hasattr(vars(Thing)["method"], "__wrapped__"))
        Thing().method(1)
        Thing.make(1)
        self.assertEqual(len(t.spans), 3)

    def test_missing_entry_points_are_reported_absent(self):
        t = Tracer()
        self.assertFalse(t.wrap("perfbench_fixture:Thing", "gone", "x"))
        self.assertFalse(t.wrap("perfbench_fixture:Gone", "method", "x"))
        self.assertFalse(t.wrap("perfbench_no_such_module", "f", "x"))
        self.assertEqual(len(t.absent), 3)


class Votes(unittest.TestCase):
    def test_jurors_of_one_task_vote_independently(self):
        import inputs

        q, n = 0.75, 4000
        agree = sum(
            (inputs.unit_hash(7, f"t{t}", "w001") < q)
            == (inputs.unit_hash(7, f"t{t}", "w002") < q)
            for t in range(n)
        ) / n
        self.assertAlmostEqual(agree, q * q + (1 - q) ** 2, delta=0.03)

    def test_draws_do_not_depend_on_the_process(self):
        import inputs

        self.assertEqual(inputs.unit_hash(1, "t", "w"), inputs.unit_hash(1, "t", "w"))
        self.assertNotEqual(inputs.unit_hash(1, "t", "w"), inputs.unit_hash(2, "t", "w"))


class HostSpeed(unittest.TestCase):
    def test_slowdown_is_mean_loop_time_over_nominal(self):
        import hostspeed

        self.assertEqual(hostspeed.slowdown([]), 1.0)
        nominal = hostspeed.NOMINAL_S
        self.assertAlmostEqual(hostspeed.slowdown([nominal, 1.5 * nominal]), 1.25)

    def test_sampler_times_the_loop_at_most_once_per_interval(self):
        import hostspeed

        sampler = hostspeed.Sampler()
        sampler.tick()
        sampler.tick()
        self.assertEqual(len(sampler.samples), 1)
        sampler.tick(force=True)
        self.assertEqual(len(sampler.samples), 2)
        self.assertTrue(all(s > 0 for s in sampler.samples))


class Registry(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_units_and_directions(self):
        for table in (metrics.END_TO_END, metrics.PER_LAYER):
            for name, row in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(row[0], UNIT)
                self.assertIn(row[1], ("higher", "lower"))

    def test_benchmark_json_matches_registry(self):
        e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        layer = {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]}
        self.assertEqual(layer, {k: v[:2] for k, v in metrics.PER_LAYER.items()})
        self.assertLessEqual({w["name"] for w in self.bench["workloads"]}, WORKLOADS)
        self.assertIn("setup_s", e2e)
        for _, _, bound in e2e.values():
            self.assertLessEqual(bound, 0.25)

    def test_every_layer_metric_names_what_it_should_move(self):
        for name, (_, _, moves) in metrics.PER_LAYER.items():
            if name == "trace.overhead_ratio":
                continue
            self.assertTrue(moves, name)
            for target, workloads in moves:
                self.assertIn(target, metrics.END_TO_END, name)
                self.assertLessEqual(set(workloads.split()), WORKLOADS, name)


if __name__ == "__main__":
    unittest.main()

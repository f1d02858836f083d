"""Tests of the benchmark harness's statistics and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402
import run  # noqa: E402


def serve_run(**changes):
    run_digest = {"issued": 100, "engine_issued": 100, "served": 90,
                  "shed": 7, "abandoned": 3, "misses": 5, "batches": 40,
                  "p99_us": "1234.5678901234567", "energy_j": "0.25",
                  "switches": 12, "hedges_issued": 9, "hedges_won": 6,
                  "hedges_cancelled": 2, "hedges_lost": 1}
    run_digest.update(changes)
    return run_digest


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(harness.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(harness.median(values), 3.75)

    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(harness.spread(values), (q3 - q1) / q2)
        self.assertEqual(harness.spread([2.0, 2.0, 2.0]), 0.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(harness.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(harness.spread([7.0]), 0.0)


class ScalingExponent(unittest.TestCase):
    def test_linear_and_quadratic(self):
        self.assertAlmostEqual(harness.scaling_exp(0.5, 1.0), 1.0)
        self.assertAlmostEqual(harness.scaling_exp(0.36, 1.44), 2.0)

    def test_independent_of_machine_speed(self):
        slow = harness.scaling_exp(3 * 0.36, 3 * 1.45)
        fast = harness.scaling_exp(0.36, 1.45)
        self.assertAlmostEqual(slow, fast)
        self.assertAlmostEqual(fast, math.log2(1.45 / 0.36))

    def test_median_of_repetitions(self):
        reps = [{"wall_s": w, "setup_s": 0.1, "peak_rss_mb": 10.0,
                 "ns_per_req": 800.0, "run_n_s": n, "run_2n_s": n2}
                for w, n, n2 in ((1.0, 0.5, 1.0), (1.2, 0.5, 2.0),
                                 (1.1, 0.5, 1.5))]
        metrics = run.end_to_end(reps)
        self.assertAlmostEqual(metrics["wall_s"], 1.1)
        self.assertAlmostEqual(metrics["scaling_exp"], math.log2(3.0))


class Digests(unittest.TestCase):
    def test_identical_digests_agree(self):
        digest = {"edf_n": serve_run(), "edf_2n": serve_run(issued=200,
                                                            served=190)}
        self.assertEqual(harness.digest_diff(digest, copy.deepcopy(digest)),
                         [])

    def test_perturbed_digest_is_reported(self):
        digest = {"closed_2n": serve_run()}
        perturbed = copy.deepcopy(digest)
        perturbed["closed_2n"]["p99_us"] = "1234.5678901234568"
        diff = harness.digest_diff(digest, perturbed)
        self.assertEqual(len(diff), 1)
        self.assertIn("closed_2n.p99_us", diff[0])

    def test_missing_field_is_reported(self):
        digest = {"cells": 837, "cells_hash": "0123456789abcdef"}
        self.assertIn("cells_hash: expected 0123456789abcdef, "
                      "got <absent>",
                      harness.digest_diff(digest, {"cells": 837}))

    def test_perturbed_digest_fails_the_check(self):
        recorded = {"edf_2n": serve_run()}
        result = {"digest": copy.deepcopy(recorded)}
        self.assertEqual(run.check(result, None, recorded), [])
        result["digest"]["edf_2n"]["batches"] += 1
        errors = run.check(result, None, recorded)
        self.assertEqual(len(errors), 1)
        self.assertIn("recorded digest", errors[0])

    def test_thread_count_disagreement_fails_the_check(self):
        first = {"cells": 837, "cells_hash": "0123456789abcdef"}
        other = {"digest": dict(first, cells_hash="fedcba9876543210")}
        self.assertIn("first repetition", run.check(other, first, None)[0])

    def test_recorded_digests_hold_their_invariants(self):
        digests = json.loads((HERE / "digests.json").read_text())
        self.assertEqual(set(digests), set(run.WORKLOADS))
        for workload, table in digests.items():
            for seed, digest in table.items():
                self.assertEqual(harness.invariant_errors(digest), [],
                                 f"{workload} seed {seed}")
        for workload in run.WORKLOADS[1:]:
            for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
                self.assertIsNotNone(
                    run.recorded_digest(digests, workload, seed))


class MetricNames(unittest.TestCase):
    """run.py reports exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def test_end_to_end(self):
        self.assertEqual(run.END_TO_END_UNITS, self.end_to_end)

    def test_per_layer(self):
        rep = {"wall_s": 1.0, "covered_s": 0.9, "counts": {},
               "layers": {"runner.sweep": {"spans": 1, "total_s": 0.5,
                                           "self_s": 0.1, "wall_s": 0.1}}}
        names = list(run.per_layer(rep, threads=2))
        names += ["trace.wall_s", "trace.overhead"]
        self.assertEqual({n: run.layer_unit(n) for n in names},
                         self.per_layer)


class Invariants(unittest.TestCase):
    def test_balanced_ledgers_pass(self):
        self.assertEqual(harness.invariant_errors({"r": serve_run()}), [])
        self.assertEqual(harness.invariant_errors(
            {"r": serve_run(engine_issued=0)}), [])

    def test_unbalanced_request_ledger_fails(self):
        errors = harness.invariant_errors({"r": serve_run(served=91)})
        self.assertEqual(len(errors), 1)
        self.assertIn("served + shed + abandoned", errors[0])

    def test_unbalanced_hedge_ledger_fails(self):
        errors = harness.invariant_errors({"r": serve_run(hedges_won=7)})
        self.assertEqual(len(errors), 1)
        self.assertIn("won + cancelled + lost", errors[0])

    def test_engine_issued_must_match_offered(self):
        errors = harness.invariant_errors({"r": serve_run(engine_issued=99)})
        self.assertEqual(len(errors), 1)

    def test_empty_sweep_fails(self):
        self.assertEqual(len(harness.invariant_errors({"cells": 0})), 1)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark's aggregation, bounds and comparison logic.

    python3 -m unittest discover -s benchmark

Canned inputs only: nothing here builds or runs the harness.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())


def rep(wall, digest="d0", ok=True, work=100.0, setup=(0.5,), layers=None,
        probe=run.REF_PROBE_S):
    r = {"ok": ok, "wall_s": wall, "work": work, "setup_samples": list(setup),
         "peak_rss_mb": 50.0, "leak_p99_ua": 7.0, "reset_p99_ua": 8.0,
         "digest": digest,
         "probe_s": [probe, probe], "checks": {"completed": ok}}
    if layers is not None:
        r["layers"] = layers
    return r


def doc(samples_by_metric, digests=("d0",), failed=0):
    metrics = {name: {"samples": list(v)}
               for name, v in samples_by_metric.items()}
    return {"workloads": {"mc-c7552": {"metrics": metrics,
                                       "digests": list(digests),
                                       "failed": failed}}}


class Aggregation(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (1.5, 3.0, 4.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_end_to_end_reports_every_metric_with_unit_and_count(self):
        reps = [rep(2.0, setup=(0.1, 0.3)), rep(4.0, setup=(0.2,)),
                rep(3.0, setup=(0.4,))]
        m = run.end_to_end(reps, SPEC)
        self.assertEqual([x["name"] for x in SPEC["end_to_end"]], list(m))
        self.assertEqual(m["wall_s"]["value"], 3.0)
        self.assertEqual(m["wall_s"]["n"], 3)
        self.assertEqual(m["wall_s"]["unit"], "s")
        self.assertEqual(m["setup_s"]["n"], 4)  # every set-up counts
        self.assertEqual(m["setup_s"]["value"], 0.25)
        self.assertAlmostEqual(m["work_per_s"]["value"], 100.0 / 3.0)
        self.assertEqual(m["leak_p99_vs_reset"]["value"], 7.0 / 8.0)

    def test_times_are_rescaled_to_the_reference_host_speed(self):
        # A rep on a host running at half speed takes twice the raw time
        # and twice the probe time: both read as the reference rep.
        fast = run.end_to_end([rep(2.0, setup=(0.5,))], SPEC)
        slow = run.end_to_end([rep(4.0, setup=(1.0,),
                                   probe=2 * run.REF_PROBE_S)], SPEC)
        for name in ("wall_s", "setup_s", "work_per_s"):
            self.assertAlmostEqual(fast[name]["value"], slow[name]["value"])
        self.assertEqual(slow["peak_rss_mb"]["value"], 50.0)
        layers = run.per_layer(
            [rep(4.0, layers={"opt.price_s": 1.0, "opt.iterations": 9.0},
                 probe=2 * run.REF_PROBE_S)], [rep(2.0)], SPEC)
        self.assertAlmostEqual(layers["opt.price_s"]["value"], 0.5)
        self.assertEqual(layers["opt.iterations"]["value"], 9.0)
        self.assertAlmostEqual(layers["trace.overhead_pct"]["value"], 0.0)

    def test_failed_reps_are_left_out_of_the_metrics(self):
        m = run.end_to_end([rep(2.0), rep(99.0, ok=False)], SPEC)
        self.assertEqual(m["wall_s"]["samples"], [2.0])

    def test_per_layer_fills_unused_layers_with_zero_and_overhead(self):
        traced = [rep(5.5, layers={"opt.price_s": 0.25})]
        m = run.per_layer(traced, [rep(5.0)], SPEC)
        self.assertEqual([x["name"] for x in SPEC["per_layer"]], list(m))
        self.assertEqual(m["opt.price_s"]["value"], 0.25)
        self.assertEqual(m["mc.draw_s"]["value"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_pct"]["value"], 10.0)

    def test_verdict_counts_errors_and_digest_drift(self):
        attempted, failed, problems = run.verdict(
            [rep(1.0), rep(1.0, digest="d1"), rep(1.0, ok=False)],
            [rep(1.0)])
        self.assertEqual((attempted, failed), (4, 2))
        self.assertTrue(any("digest" in p for p in problems))
        self.assertEqual(run.verdict([rep(1.0), rep(2.0)], [])[1], 0)


class Bounds(unittest.TestCase):
    def test_within_bound_is_ok_and_beyond_is_a_regression(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(compare.classify(a, [10.5] * 5, "lower", 0.1, False),
                         "ok")
        self.assertEqual(compare.classify(a, [11.5] * 5, "lower", 0.1, False),
                         "REGRESSION")
        # "higher is better" flips the direction.
        self.assertEqual(compare.classify(a, [8.5] * 5, "higher", 0.1, False),
                         "REGRESSION")
        self.assertEqual(compare.classify(a, [11.5] * 5, "higher", 0.1,
                                          False), "ok")

    def test_spread_wider_than_bound_is_unresolved_unless_all_better(self):
        noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
        self.assertEqual(compare.classify(noisy, [10.0] * 5, "lower", 0.1,
                                          False), "unresolved")
        self.assertEqual(compare.classify(noisy, [7.0] * 5, "lower", 0.1,
                                          False), "better")

    def test_claim_needs_nine_tenths_of_pairs_and_a_clear_gap(self):
        a = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        b = [x * 0.8 for x in a]
        self.assertEqual(compare.pair_wins(a, b, "lower"), (10, 10))
        self.assertEqual(compare.classify(a, b, "lower", 0.1, True), "GAIN")
        b_two_losses = list(b)
        b_two_losses[0] = b_two_losses[1] = 11.0
        self.assertEqual(compare.classify(a, b_two_losses, "lower", 0.1, True),
                         "NOT MET")
        # Winning every pair by less than the parent's spread is no gain.
        b_tiny = [x - 0.01 for x in a]
        self.assertEqual(compare.classify(a, b_tiny, "lower", 0.1, True),
                         "NOT MET")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.pair_wins([1.0, 2.0], [1.0, 1.0], "lower"),
                         (1, 2))

    def test_a_failed_parent_rep_drops_only_its_own_pair(self):
        parent = [rep(10.0, ok=False)] + [rep(10.0) for _ in range(9)]
        change = [rep(10.5)] + [rep(9.0) for _ in range(9)]
        pa = run.end_to_end(parent, SPEC)
        pb = run.end_to_end(change, SPEC)
        self.assertIsNone(pa["wall_s"]["per_rep"][0])
        self.assertEqual(len(pa["wall_s"]["samples"]), 9)
        # Rep i meets rep i, so the change's slow rep 0 loses its partner and
        # the change wins 9 of 9. Pairing the parent's nine good samples
        # with the change's first nine reps would make it a loss: 8 of 9,
        # under nine tenths.
        self.assertEqual(compare.pair_wins(pa["wall_s"]["per_rep"],
                                           pb["wall_s"]["per_rep"], "lower"),
                         (9, 9))
        rows, _ = compare.compare(
            {"workloads": {"mc-c7552": {"metrics": pa}}},
            {"workloads": {"mc-c7552": {"metrics": pb}}},
            SPEC, ("mc-c7552", "wall_s"))
        self.assertEqual([r["verdict"] for r in rows if r["claimed"]],
                         ["GAIN"])


class Compare(unittest.TestCase):
    def test_rows_flags_and_claim_on_canned_result_files(self):
        base = {m["name"]: [10.0, 10.0, 10.0] for m in SPEC["end_to_end"]}
        slower = dict(base, wall_s=[14.0, 14.0, 14.0])  # beyond any bound
        rows, flags = compare.compare(doc(base), doc(slower, digests=("d9",),
                                                     failed=1), SPEC, None)
        verdicts = {r["metric"]: r["verdict"] for r in rows}
        self.assertEqual(verdicts["wall_s"], "REGRESSION")
        self.assertEqual(verdicts["setup_s"], "ok")
        self.assertEqual(len(rows), len(SPEC["end_to_end"]))
        self.assertTrue(any("digest changed" in f for f in flags))
        self.assertTrue(any("failed reps" in f for f in flags))

        faster = dict(base, wall_s=[8.0, 8.0, 8.0])
        rows, flags = compare.compare(doc(base), doc(faster), SPEC,
                                      ("mc-c7552", "wall_s"))
        claimed = [r for r in rows if r["claimed"]]
        self.assertEqual([r["verdict"] for r in claimed], ["GAIN"])
        self.assertEqual(flags, [])


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json stays inside the limits its consumers enforce."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

    def test_schema(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], self.NAME)
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_workload_is_known_to_the_harness(self):
        source = (run.BENCH_DIR / "statleak_bench.cpp").read_text()
        for w in SPEC["workloads"]:
            self.assertIn(f'"{w["name"]}"', source)


if __name__ == "__main__":
    unittest.main()

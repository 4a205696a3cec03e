"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_stats.py

run.py runs them before every measurement and refuses to report if any
fails.
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        values = list(range(1, 2001))  # 2000 samples
        value, used, beyond = stats.tail_percentile(values, 99)
        self.assertEqual(used, 99)
        self.assertEqual(value, 1980)
        self.assertEqual(beyond, 20)

    def test_lowered_to_keep_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples: p99 has 1 beyond
        value, used, beyond = stats.tail_percentile(values, 99)
        self.assertEqual(used, 90)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_never_fewer_than_ten_beyond(self):
        for n in range(11, 400):
            _, _, beyond = stats.tail_percentile(list(range(n)), 99)
            self.assertGreaterEqual(beyond, 10, n)

    def test_too_few_samples_fall_back_to_median(self):
        value, used, _ = stats.tail_percentile([5, 1, 3], 99)
        self.assertEqual((value, used), (3, 50.0))


class Ratios(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = stats.Ratio(45, 180)
        self.assertEqual(r.value, 0.25)
        self.assertEqual(str(r), "0.25 (45 / 180)")

    def test_zero_base_is_zero_not_a_crash(self):
        self.assertEqual(stats.Ratio(0, 0).value, 0.0)


class Fingerprints(unittest.TestCase):
    PASS = {"suite": 0, "sql_fp": "00000000000000aa",
            "assignment_fp": "00000000000000bb", "suite_cost": 12.5,
            "optimizer_calls": 40, "violations": 0, "error": ""}

    def test_matching_record_passes(self):
        failures = checks.check_passes([dict(self.PASS)], [dict(self.PASS)])
        self.assertEqual(failures, [])

    def test_wrong_expected_fingerprint_is_a_failed_operation(self):
        wrong = dict(self.PASS, sql_fp="00000000000000ff")
        failures = checks.check_passes([dict(self.PASS)], [wrong])
        self.assertEqual(len(failures), 1)
        self.assertIn("sql_fp", failures[0])

    def test_malformed_expected_record_is_a_failure_not_a_crash(self):
        failures = checks.check_passes([dict(self.PASS)], [{"suite": 0}])
        self.assertEqual(len(failures), 1)

    def test_repeated_suite_must_repeat_its_outputs(self):
        again = dict(self.PASS, suite_cost=13.0)
        failures = checks.check_passes([dict(self.PASS), again], None)
        self.assertEqual(len(failures), 1)

    def test_memory_capped_pass_without_record_is_not_checked(self):
        capped = dict(self.PASS, memory_capped=1, sql_fp="")
        self.assertEqual(checks.check_passes([capped], None), [])
        other_suite = dict(self.PASS, suite=1)
        self.assertEqual(checks.check_passes([capped], [other_suite]), [])

    def test_memory_capped_pass_of_recorded_suite_fails(self):
        capped = dict(self.PASS, memory_capped=1, sql_fp="")
        failures = checks.check_passes([capped], [dict(self.PASS)])
        self.assertEqual(len(failures), 1)
        self.assertIn("memory cap", failures[0])

    def test_violation_and_error_fail(self):
        bad = [dict(self.PASS, violations=1), dict(self.PASS, suite=1,
                                                   error="boom")]
        self.assertEqual(len(checks.check_passes(bad, None)), 2)


if __name__ == "__main__":
    unittest.main()

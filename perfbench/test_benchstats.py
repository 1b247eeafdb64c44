"""Tests of the benchmark's pure statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import benchstats


class TailPercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        self.assertEqual(benchstats.tail_percentile(list(range(1, 101))),
                         (90, 90, 100))
        self.assertEqual(benchstats.tail_percentile(list(range(1, 41))),
                         (75, 30, 40))
        self.assertEqual(benchstats.tail_percentile(list(range(1, 201))),
                         (95, 190, 200))
        self.assertEqual(benchstats.tail_percentile(list(range(1, 301))),
                         (96, 288, 300))

    def test_at_least_ten_beyond_for_every_size(self):
        for n in range(11, 400):
            values = list(range(n))
            random.Random(n).shuffle(values)
            percentile, value, count = benchstats.tail_percentile(values)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10)
            # One percentile higher would leave fewer than ten beyond.
            self.assertLess(n - (percentile + 1) * n / 100, 10)

    def test_rejects_too_few_samples(self):
        with self.assertRaises(ValueError):
            benchstats.tail_percentile(list(range(10)))


class LagRecursionTest(unittest.TestCase):
    def test_no_backlog_when_every_window_fits(self):
        service = [0.2, 0.5, 0.9, 0.1]
        self.assertEqual(benchstats.lag_recursion(service, 1.0), service)

    def test_backlog_carries_and_drains(self):
        # Budget 1: a 2.5 s window delays the next two windows.
        lags = benchstats.lag_recursion([2.5, 0.5, 0.5, 0.5], 1.0)
        self.assertEqual(lags, [2.5, 2.0, 1.5, 1.0])

    def test_replay_error_is_zero_on_own_output(self):
        service = [0.3, 1.4, 0.2, 0.9, 1.1]
        lags = benchstats.lag_recursion(service, 0.8)
        self.assertEqual(benchstats.max_replay_error(service, lags, 0.8), 0.0)

    def test_replay_error_bounded_by_pacer_lateness(self):
        # A pacer that wakes up to `late` seconds past a due time it slept
        # for adds at most `late` to any lag; a window that was already due
        # starts without sleeping.
        rng = random.Random(7)
        service = [rng.uniform(0.0, 2.0) for _ in range(200)]
        budget, late = 1.0, 0.003
        lags, backlog = [], 0.0
        for s in service:
            if backlog > budget:
                backlog = backlog - budget + s
            else:
                backlog = rng.uniform(0.0, late) + s
            lags.append(backlog)
        error = benchstats.max_replay_error(service, lags, budget)
        self.assertLessEqual(error, late + 1e-12)


class CapacityTest(unittest.TestCase):
    def test_constant_service_is_exact(self):
        # Every window takes 0.25 s: the budget can shrink to exactly that.
        speedup = benchstats.capacity_speedup([[0.25] * 40], 180.0)
        self.assertAlmostEqual(speedup, 180.0 / 0.25, places=9)
        speedup = benchstats.capacity_speedup([[0.25] * 40] * 3, 180.0)
        self.assertAlmostEqual(speedup, 180.0 / 0.25, places=9)

    def test_alternating_service_is_exact(self):
        # 0.5/1.5 alternating, 40 windows, p75 tail. Below a budget of 1.0
        # the backlog grows without bound; between 1.0 and 1.5 every 1.5 s
        # window still lags 1.5 s, half the samples, so the p75 lag is 1.5.
        service = [0.5, 1.5] * 20
        speedup = benchstats.capacity_speedup([service], 180.0)
        self.assertAlmostEqual(speedup, 180.0 / 1.5, places=9)

    def test_burst_is_exact(self):
        # 40 windows of 0.1 s with a 3-window burst of 1.0 s. The p75 lag is
        # the 11th largest: with budget b the burst leaves lags 1, 2-b,
        # 3-2b, then a backlog draining by b-0.1 a window. The smallest
        # feasible budget makes exactly ten windows lag more than it.
        service = [0.1] * 10 + [1.0] * 3 + [0.1] * 27
        delta = 180.0
        speedup = benchstats.capacity_speedup([service], delta)
        budget = delta / speedup
        lags = benchstats.lag_recursion(service, budget)
        self.assertLessEqual(sorted(lags)[29], budget + 1e-9)
        tighter = benchstats.lag_recursion(service, budget * (1 - 1e-6))
        self.assertGreater(sorted(tighter)[29], budget * (1 - 1e-6))

    def test_feasibility_is_monotone_in_speedup(self):
        rng = random.Random(3)
        for _ in range(20):
            service = [[rng.lognormvariate(-2.0, 0.6) for _ in range(100)]
                       for _ in range(3)]
            delta = 180.0
            best = benchstats.capacity_speedup(service, delta)
            for factor in (0.25, 0.5, 0.9, 0.999):
                self.assertTrue(benchstats.meets_budget(
                    service, delta / (best * factor)))
            for factor in (1.001, 1.1, 2.0, 4.0):
                self.assertFalse(benchstats.meets_budget(
                    service, delta / (best * factor)))


    def test_backlog_does_not_carry_across_passes(self):
        # Budget 1: a 2.5 s window at the end of one pass would delay the
        # next window of that pass, but the next pass starts on time.
        self.assertEqual(benchstats.pooled_lags([[0.5, 2.5], [0.5, 0.5]], 1.0),
                         [0.5, 2.5, 0.5, 0.5])
        self.assertEqual(benchstats.lag_recursion([0.5, 2.5, 0.5, 0.5], 1.0),
                         [0.5, 2.5, 2.0, 1.5])

    def test_pools_the_tail_over_passes(self):
        # Two 20-window passes; the first starts with 11 windows of 1.5 s.
        # Pooled (p75 of 40), exactly 11 windows take 1.5 s, so the budget
        # cannot drop below 1.5 s.
        passes = [[1.5] * 11 + [0.1] * 9, [0.1] * 20]
        self.assertAlmostEqual(benchstats.capacity_speedup(passes, 180.0),
                               180.0 / 1.5, places=9)


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)


if __name__ == "__main__":
    unittest.main()

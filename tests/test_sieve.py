"""Segmented sieve: correctness against trial division, tiling, invariance."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import primerace
from primerace.sieve import (
    DEFAULT_SEGMENT_ODDS,
    ordered_map,
    prime_powers,
    segment_bounds,
    sieve_segment,
    simple_sieve,
)

import oracles


def sieved(lo, hi, segment_odds=DEFAULT_SEGMENT_ODDS, threads=1):
    """(a, b, primes in [a, b)) for each segment of [lo, hi), in order, as the tally sieves them."""
    base = simple_sieve(math.isqrt(hi - 1))

    def job(a, b):
        return a, b, sieve_segment(a, b, base)

    return list(ordered_map(job, segment_bounds(lo, hi, segment_odds), threads))


def primes_of(segments):
    return [p for _a, _b, seg in segments for p in seg.tolist()]


class TestSimpleSieve:
    def test_small_limits(self):
        assert simple_sieve(1).tolist() == []
        assert simple_sieve(2).tolist() == [2]
        assert simple_sieve(10).tolist() == [2, 3, 5, 7]
        assert simple_sieve(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_trial_division(self):
        assert simple_sieve(2000).tolist() == list(oracles.primes_upto(2000))

    def test_pi_of_ten_thousand(self):
        assert len(simple_sieve(10**4)) == 1229


class TestStreamPrimes:
    """The primes of a range, segment by segment, in the order the tally folds them."""

    def test_window_above_a_million(self):
        primes = primes_of(sieved(10**6, 10**6 + 100))
        assert primes == [
            1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
        ]
        assert [p % 4 for p in primes] == [3, 1, 1, 3, 1, 3]
        # cross-check by trial division
        assert primes == oracles.primes_in(10**6, 10**6 + 100)

    def test_empty_range(self):
        assert sieved(2, 2) == []

    def test_exactly_once_in_order(self):
        seen = primes_of(sieved(2, 5000, segment_odds=64))
        assert seen == sorted(set(seen))
        assert seen == list(oracles.primes_upto(4999))

    def test_sampled_values_pass_primality_check(self):
        primes = primes_of(sieved(2, 3 * 10**5, segment_odds=2048))
        rng = np.random.default_rng(7)
        for p in rng.choice(primes, size=50, replace=False).tolist():
            assert oracles.is_prime(int(p))

    def test_errors(self):
        with pytest.raises(ValueError, match="start at 2"):
            segment_bounds(1, 10, 4)
        with pytest.raises(ValueError, match="inverted"):
            segment_bounds(10, 5, 4)
        with pytest.raises(ValueError, match="segment size"):
            segment_bounds(2, 10, 0)


class TestSegmentation:
    def test_bounds_tile_without_gaps(self):
        bounds = segment_bounds(2, 10**5 + 17, 1 << 12)
        assert bounds[0][0] == 2
        assert bounds[-1][1] == 10**5 + 17
        for (a1, b1), (a2, _b2) in zip(bounds, bounds[1:]):
            assert b1 == a2
            assert a1 < b1

    @pytest.mark.parametrize("segment_odds", [16, 499, 4096, DEFAULT_SEGMENT_ODDS])
    def test_event_multiset_independent_of_segment_size(self, segment_odds):
        primes = primes_of(sieved(2, 30000, segment_odds=segment_odds))
        assert primes == list(oracles.primes_upto(29999))

    def test_threaded_stream_matches_sequential(self):
        seq = primes_of(sieved(2, 10**6, segment_odds=1 << 14))
        par = primes_of(sieved(2, 10**6, segment_odds=1 << 14, threads=4))
        assert seq == par
        assert len(seq) == 78498  # pi(10**6)

    def test_segment_arrays_are_sorted_and_in_bounds(self):
        for a, b, seg in sieved(2, 200000, segment_odds=1 << 10):
            if len(seg):
                assert seg[0] >= a and seg[-1] < b
                assert np.all(np.diff(seg) > 0)


class TestPrimeCounts:
    def test_pi_at_powers_of_ten(self):
        # independent second implementation: the non-segmented simple sieve
        for x, expected in [(10**4, 1229), (10**6, 78498)]:
            streamed = sum(len(s) for _a, _b, s in sieved(2, x + 1))
            assert streamed == len(simple_sieve(x)) == expected


class TestPrimePowers:
    def test_upto_ten(self):
        assert [v for v, _p, _k in prime_powers(10)] == [4, 8, 9]
        assert prime_powers(10) == [(4, 2, 2), (8, 2, 3), (9, 3, 2)]

    def test_below_four_empty(self):
        assert prime_powers(3) == []

    def test_upto_one_hundred(self):
        # frozen via the trial-division oracle: ten proper prime powers
        expected = oracles.prime_powers_upto(100)
        got = prime_powers(100)
        assert got == expected
        assert len(got) == 10
        assert [v for v, _p, _k in got] == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]

    def test_values_ascending_and_complete(self):
        got = prime_powers(5000)
        assert got == oracles.prime_powers_upto(5000)
        vals = [v for v, _p, _k in got]
        assert vals == sorted(vals)


def plain_segment(a, b):
    """Primes in [a, b), crossing off every prime up to sqrt(b - 1) on a mask of all integers."""
    is_prime = np.ones(b - a, dtype=bool)
    is_prime[:max(0, 2 - a)] = False
    for p in simple_sieve(math.isqrt(b - 1)).tolist():
        is_prime[max(p * p, -(-a // p) * p) - a::p] = False
    return a + np.flatnonzero(is_prime)


class TestPreSieve:
    """sieve_segment starts from the 3*5*7*11*13 pattern, whose period is 15015 odds."""

    PRIMES = simple_sieve(39_999)

    @pytest.mark.parametrize("reuse", [True, False], ids=["one-mask", "fresh-masks"])
    @pytest.mark.parametrize("segment_odds", [1, 2, 7, 64, 7507, 15015, 15016, DEFAULT_SEGMENT_ODDS])
    def test_every_segment_matches_the_plain_sieve(self, segment_odds, reuse):
        # narrow segments hold 3..13 one at a time, 7507 starts every other
        # segment mid-period, and 15016 is one odd wider than the period;
        # a reused mask keeps the previous segment's entries past its end
        base = simple_sieve(200)
        mask = np.empty(segment_odds, dtype=bool) if reuse else None
        for a, b in segment_bounds(2, 40_000, segment_odds):
            got = sieve_segment(a, b, base, mask)
            want = self.PRIMES[(self.PRIMES >= a) & (self.PRIMES < b)]
            assert got.dtype == np.int64 and np.array_equal(got, want), (a, b)

    def test_short_mask_is_not_used(self):
        # a mask shorter than the segment is left alone, and one is allocated
        mask = np.ones(5, dtype=bool)
        got = sieve_segment(2, 1000, simple_sieve(40), mask)
        assert np.array_equal(got, self.PRIMES[self.PRIMES < 1000])
        assert mask.all()

    @pytest.mark.parametrize("k", [0, 1, 23, 46, 47])
    def test_segments_near_ten_to_the_eight(self, k):
        # segments of the tally's width, as accumulate cuts [2, 1e8 + 1); the
        # last one is short
        bounds = segment_bounds(2, 10**8 + 1, DEFAULT_SEGMENT_ODDS)
        a, b = bounds[len(bounds) - 1 - k]
        mask = np.empty(DEFAULT_SEGMENT_ODDS, dtype=bool)
        got = sieve_segment(a, b, simple_sieve(10**4), mask)
        assert np.array_equal(got, plain_segment(a, b))
        rng = np.random.default_rng(k)
        for p in rng.choice(got, size=5, replace=False).tolist():
            assert oracles.is_prime(p)


class TestOrderedMapImport:
    def test_cli_import_leaves_the_pool_module_unloaded(self):
        # ordered_map imports concurrent.futures only when it starts a pool;
        # at module level it would add about 10 ms to the start of every run
        src = str(Path(primerace.__file__).resolve().parents[1])
        code = "import sys, primerace.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["False"]

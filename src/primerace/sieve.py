"""Segmented prime enumeration.

The workhorse is an odd-only boolean sieve over fixed-width segments.
segment_bounds tiles a range [lo, hi) with segments anchored at lo, without
gaps or overlaps, and each segment is sieved on its own, given the base
primes up to the square root of its end.

Default segment width is 2**20 odd entries (2**21 integers), which keeps the
working set inside L2-ish cache territory while amortizing setup cost.

sieve_segment starts each segment from a pre-sieve: the pattern of odd
numbers prime to 3, 5, 7, 11 and 13, one period of 15015 odds taken at the
segment's phase and doubled across the mask, with those five primes
restored where the segment holds them.  The pattern is built on first use,
not at import.  The other base primes up to sqrt(b - 1) are crossed off from
offsets computed in one vectorised step, and the primes are made in place
from the mask's indices.  A caller that sieves many segments passes one
mask for all of them, so no segment allocates its own.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_SEGMENT_ODDS",
    "simple_sieve",
    "segment_bounds",
    "sieve_segment",
    "prime_powers",
]

DEFAULT_SEGMENT_ODDS = 1 << 20
_WHEEL = (3, 5, 7, 11, 13)  # the pre-sieve's primes
_PERIOD = 3 * 5 * 7 * 11 * 13  # odd numbers in one period of its pattern


@lru_cache(maxsize=None)
def _wheel() -> np.ndarray:
    """Whether the odd number 2i + 1 is prime to every _WHEEL prime, for i in [0, 2 * _PERIOD).

    Built on first use, so importing the module costs nothing.
    """
    pattern = np.ones(2 * _PERIOD, dtype=bool)
    for p in _WHEEL:
        pattern[p // 2::p] = False
    pattern.flags.writeable = False  # one array, shared by every caller
    return pattern


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit (int64), by a plain odd-wheel sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit < 3:
        return np.array([2], dtype=np.int64)
    n_odd = (limit - 1) // 2  # odd numbers 3, 5, ..., <= limit
    mask = np.ones(n_odd, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[(p - 3) // 2]:
            start = (p * p - 3) // 2
            mask[start::p] = False
    odds = 3 + 2 * np.flatnonzero(mask)
    return np.concatenate(([2], odds)).astype(np.int64)


def segment_bounds(lo: int, hi: int, segment_odds: int) -> list[tuple[int, int]]:
    """Boundaries [a, b) tiling [lo, hi), anchored at lo, span 2*segment_odds."""
    if segment_odds < 1:
        raise ValueError(f"segment size must be positive, got {segment_odds}")
    if lo < 2:
        raise ValueError(f"range must start at 2 or above, got {lo}")
    if hi < lo:
        raise ValueError(f"inverted range [{lo}, {hi})")
    span = 2 * segment_odds
    return [(a, min(a + span, hi)) for a in range(lo, hi, span)]


def sieve_segment(a: int, b: int, base: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Primes in [a, b), given base primes covering sqrt(b - 1).

    mask, a bool array of at least one entry per odd number in [a, b), is
    overwritten as the segment's sieve, so a caller sieving many segments
    allocates it once; without it, one is allocated.
    """
    if b <= a:
        return np.empty(0, dtype=np.int64)
    lo_odd = max(a | 1, 3)
    n_odd = max(0, (b - lo_odd + 1) // 2)
    if mask is None or len(mask) < n_odd:
        mask = np.empty(n_odd, dtype=bool)
    mask = mask[:n_odd]
    # the pre-sieve: one period from lo_odd's phase, then doubled, since
    # every filled length is a whole number of periods
    done = min(n_odd, _PERIOD)
    start = (lo_odd // 2) % _PERIOD
    mask[:done] = _wheel()[start:start + done]
    while done < n_odd:
        step = min(done, n_odd - done)
        mask[done:done + step] = mask[:step]
        done += step
    for p in _WHEEL:
        if lo_odd <= p < b:
            mask[(p - lo_odd) // 2] = True
    # the other base primes up to sqrt(b - 1), each from its first odd
    # multiple in range, at least p*p
    ps = base[np.searchsorted(base, _WHEEL[-1], side="right"):
              np.searchsorted(base, math.isqrt(b - 1), side="right")]
    first = np.maximum(ps * ps, (lo_odd + ps - 1) // ps * ps)
    first += ps * (first % 2 == 0)
    for p, k in zip(ps.tolist(), ((first - lo_odd) // 2).tolist()):
        mask[k::p] = False
    primes = np.flatnonzero(mask)  # int64, turned into the primes in place
    primes *= 2
    primes += lo_odd
    if a <= 2 < b:
        primes = np.concatenate(([2], primes))
    return primes


def prime_powers(x_max: int) -> list[tuple[int, int, int]]:
    """All (p**k, p, k) with k >= 2 and p**k <= x_max, ascending by value."""
    if x_max < 4:
        return []
    out = []
    for p in simple_sieve(math.isqrt(x_max)).tolist():
        v = p * p
        k = 2
        while v <= x_max:
            out.append((v, p, k))
            v *= p
            k += 1
    out.sort()
    return out

"""Segmented prime enumeration with residue annotation.

The workhorse is an odd-only boolean sieve over fixed-width segments.
Segments are anchored at the stream's lower bound, tile the range without
gaps or overlaps, and are independent of one another, so they can be sieved
by a worker pool; the stream always hands segments to the consumer in
ascending order regardless of the worker count.

Default segment width is 2**20 odd entries (2**21 integers), which keeps the
working set inside L2-ish cache territory while amortizing setup cost.
"""
from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SEGMENT_ODDS",
    "PrimeEvent",
    "simple_sieve",
    "segment_bounds",
    "sieve_segment",
    "stream_segments",
    "stream_primes",
    "prime_powers",
    "ordered_map",
]

DEFAULT_SEGMENT_ODDS = 1 << 20


@dataclass(frozen=True)
class PrimeEvent:
    """One prime with its residue class mod q."""

    p: int
    residue: int
    is_unit: bool


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


def segment_bounds(lo: int, hi: int, segment_odds: int) -> Iterator[tuple[int, int]]:
    """Boundaries [a, b) tiling [lo, hi), anchored at lo, span 2*segment_odds."""
    span = 2 * segment_odds
    a = lo
    while a < hi:
        b = min(a + span, hi)
        yield a, b
        a = b


def sieve_segment(a: int, b: int, base: np.ndarray) -> np.ndarray:
    """Primes in [a, b), given base primes covering sqrt(b - 1)."""
    if b <= a:
        return np.empty(0, dtype=np.int64)
    lo_odd = a | 1
    if lo_odd < 3:
        lo_odd = 3
    n_odd = max(0, (b - lo_odd + 1) // 2)
    mask = np.ones(n_odd, dtype=bool)
    if n_odd:
        root = math.isqrt(b - 1)
        for p in base:
            p = int(p)
            if p < 3:
                continue
            if p > root:
                break
            start = max(p * p, ((lo_odd + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < b:
                mask[(start - lo_odd) // 2 :: p] = False
    primes = lo_odd + 2 * np.flatnonzero(mask).astype(np.int64)
    if a <= 2 < b:
        primes = np.concatenate(([2], primes)).astype(np.int64)
    return primes


def _validate_range(lo: int, hi: int, segment_odds: int) -> None:
    if segment_odds < 1:
        raise ValueError(f"segment size must be positive, got {segment_odds}")
    if lo < 2:
        raise ValueError(f"stream must start at 2 or above, got {lo}")
    if hi < lo:
        raise ValueError(f"inverted range [{lo}, {hi})")


def ordered_map(fn, jobs: Sequence[tuple], threads: int) -> Iterator:
    """Map fn over argument tuples on a worker pool, yielding results in job order.

    At most threads + 2 jobs are in flight, so memory stays bounded however
    long the job list is.
    """
    if threads <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield fn(*job)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        it = iter(jobs)
        pending = deque(pool.submit(fn, *job) for job in islice(it, threads + 2))
        while pending:
            fut = pending.popleft()
            pending.extend(pool.submit(fn, *job) for job in islice(it, 1))
            yield fut.result()


def stream_segments(
    lo: int,
    hi: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    threads: int = 1,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (a, b, primes-in-[a,b)) segments in ascending order.

    With threads > 1 segments are sieved concurrently but still delivered
    in order, so downstream folds are independent of the worker count.
    """
    _validate_range(lo, hi, segment_odds)
    if hi == lo:
        return
    base = simple_sieve(math.isqrt(hi - 1))

    def job(a: int, b: int) -> tuple[int, int, np.ndarray]:
        return a, b, sieve_segment(a, b, base)

    yield from ordered_map(job, list(segment_bounds(lo, hi, segment_odds)), threads)


def stream_primes(
    lo: int,
    hi: int,
    q: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    threads: int = 1,
) -> Iterator[PrimeEvent]:
    """Every prime in [lo, hi) exactly once, ascending, tagged with p mod q."""
    if q < 1:
        raise ValueError(f"invalid modulus {q}")
    for _a, _b, primes in stream_segments(
        lo, hi, segment_odds=segment_odds, threads=threads
    ):
        residues = primes % q
        for p, r in zip(primes.tolist(), residues.tolist()):
            yield PrimeEvent(p=p, residue=r, is_unit=math.gcd(r, q) == 1)


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

"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive: trial division, direct enumeration,
extended-precision direct sums.  None of it shares code with the package, so
agreement is meaningful.  The exceptions are the package's earlier code,
kept as bit-identity references: reference_segment_partial, the
loop-per-character segment reduction; race_jump_weights, the stable
argsort merge of per-class jump positions into the race stream; the
stream forms of the race analyses, stream_density_race and
stream_mean_values, with stream_summary, which builds a race summary from
the whole stream by one global cumsum; and format_row, which formats every
cell of a checkpoint CSV row.
"""
from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def primes_upto(limit: int) -> tuple[int, ...]:
    return tuple(n for n in range(2, limit + 1) if is_prime(n))


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by trial division."""
    return [n for n in range(max(lo, 2), hi) if is_prime(n)]


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    """(p**k, p, k) with k >= 2 and p**k <= limit, ascending by value."""
    out = []
    for p in primes_upto(int(math.isqrt(limit)) + 1):
        v = p * p
        k = 2
        while v <= limit:
            out.append((v, p, k))
            v *= p
            k += 1
    out.sort()
    return out


def brute_force_characters(q: int) -> list[dict[int, complex]]:
    """Every completely multiplicative map units -> roots of unity.

    Enumerates all assignments of phi(q)-th roots of unity to the units and
    keeps the multiplicative ones.  Exponential in phi(q); fine for q <= 8.
    """
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    phi = len(units)
    roots = [cmath.exp(2j * cmath.pi * j / phi) for j in range(phi)]
    found = []
    # chi is determined by its exponents on the units; prune via recursion
    def extend(partial: dict[int, complex]):
        if len(partial) == phi:
            found.append(dict(partial))
            return
        a = next(u for u in units if u not in partial)
        for r in roots:
            partial[a] = r
            ok = True
            for x in list(partial):
                for y in list(partial):
                    z = (x * y) % q
                    if z in partial:
                        if abs(partial[x] * partial[y] - partial[z]) > 1e-9:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                extend(partial)
            del partial[a]

    extend({1: 1.0 + 0j})
    return found


class ReferenceTally:
    """Direct extended-precision sums over trial-division primes.

    Builds sorted per-term arrays once, then answers prefix queries at any x
    via longdouble cumulative sums.  Used as the independent oracle for the
    streaming accumulator.
    """

    def __init__(self, x_max: int, q: int, char_values: dict[int, dict[int, complex]] | None = None):
        char_values = char_values or {}
        self.q = q
        self.primes = [p for p in primes_upto(x_max)]
        self.units = [a for a in range(q) if math.gcd(a, q) == 1]
        ps = np.array(self.primes, dtype=np.float64)
        res = np.array([p % q for p in self.primes])
        self.positions = np.array(self.primes, dtype=np.int64)
        self.by_class = {}
        for a in self.units:
            mask = res == a
            pa = ps[mask]
            self.by_class[a] = {
                "positions": self.positions[mask],
                "count": np.arange(1, int(mask.sum()) + 1, dtype=np.int64),
                "invsqrt": np.cumsum((1.0 / np.sqrt(pa)).astype(np.longdouble)),
                "log": np.cumsum(np.log(pa.astype(np.longdouble))),
            }
        # psi terms: primes and higher powers interleaved, sorted by value
        psi_terms: dict[int, list[tuple[int, float]]] = {a: [] for a in self.units}
        for p in self.primes:
            if math.gcd(p % q, q) == 1:
                psi_terms[p % q].append((p, math.log(p)))
        for v, p, _k in prime_powers_upto(x_max):
            if math.gcd(v % q, q) == 1:
                psi_terms[v % q].append((v, math.log(p)))
        self.psi = {}
        for a in self.units:
            psi_terms[a].sort()
            pos = np.array([v for v, _ in psi_terms[a]], dtype=np.int64)
            terms = np.array([t for _, t in psi_terms[a]], dtype=np.longdouble)
            self.psi[a] = {"positions": pos, "sum": np.cumsum(terms)}
        # per-character prefix sums
        self.char = {}
        for idx, table in char_values.items():
            # residues off the unit group (primes dividing q) contribute zero
            chi = np.array([table.get(int(a), 0j) for a in res])
            invsqrt = np.cumsum((chi / np.sqrt(ps)).astype(np.clongdouble))
            mert = np.cumsum(
                np.array(
                    [table.get((p * p) % q, 0j) / p for p in self.primes],
                    dtype=np.clongdouble,
                )
            )
            eul = np.cumsum(
                np.array(
                    [-cmath.log(1.0 - table.get(p % q, 0j) / math.sqrt(p)) for p in self.primes],
                    dtype=np.clongdouble,
                )
            )
            self.char[idx] = {"invsqrt": invsqrt, "mertens": mert, "eulerlog": eul}

    @staticmethod
    def _prefix(positions: np.ndarray, cumulative: np.ndarray, x: float):
        i = int(np.searchsorted(positions, x, side="right"))
        if i == 0:
            return cumulative.dtype.type(0)
        return cumulative[i - 1]

    def class_stats(self, a: int, x: float) -> dict[str, float]:
        d = self.by_class[a]
        return {
            "count": int(self._prefix(d["positions"], d["count"], x)),
            "invsqrt": float(self._prefix(d["positions"], d["invsqrt"], x)),
            "log": float(self._prefix(d["positions"], d["log"], x)),
            "psi": float(self._prefix(self.psi[a]["positions"], self.psi[a]["sum"], x)),
        }

    def char_stats(self, idx: int, x: float) -> dict[str, complex]:
        d = self.char[idx]
        return {
            key: complex(self._prefix(self.positions, d[key], x)) for key in d
        }


def exact_race_density(positions, weights, x_lo: float, x_hi: float) -> float:
    """Linear measure of {x in [x_lo, x_hi] : step function > 0}, brute style.

    Walks the jump list in pure Python.  Normalized by (x_hi - x_lo).
    """
    total = 0.0
    current = 0.0
    prev = x_lo
    for pos, w in zip(positions, weights):
        if pos <= x_lo:
            current += w
            continue
        if pos > x_hi:
            break
        if current > 0:
            total += pos - prev
        prev = pos
        current += w
    if current > 0 and x_hi > prev:
        total += x_hi - prev
    return total / (x_hi - x_lo)


def exact_race_log_density(positions, weights, x_lo: float, x_hi: float) -> float:
    """Same walk as exact_race_density but with du/u measure."""
    total = 0.0
    current = 0.0
    prev = x_lo
    for pos, w in zip(positions, weights):
        if pos <= x_lo:
            current += w
            continue
        if pos > x_hi:
            break
        if current > 0:
            total += math.log(pos / prev)
        prev = pos
        current += w
    if current > 0 and x_hi > prev:
        total += math.log(x_hi / prev)
    return total / math.log(x_hi / x_lo)


def race_jump_weights(jumps_a, jumps_b):
    """Merged (positions, weights) for t = 1_a - 1_b with w_p = t(p)/sqrt(p)."""
    pos = np.concatenate([np.asarray(jumps_a, np.float64), np.asarray(jumps_b, np.float64)])
    w = np.concatenate([1.0 / np.sqrt(np.asarray(jumps_a, np.float64)),
                        -1.0 / np.sqrt(np.asarray(jumps_b, np.float64))])
    order = np.argsort(pos, kind="stable")
    return pos[order], w[order]


def stream_summary(positions, weights, xs=None):
    """The RaceSummary of a race stream, from one cumsum over all of it.

    positions ascend; xs, the points that get sums, default to positions.
    """
    from primerace.tally import RaceSummary

    pos = np.asarray(positions, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    xs = pos if xs is None else np.asarray(xs, dtype=np.float64)
    level = np.cumsum(w)
    edges = np.flatnonzero(np.diff(level > 0.0, prepend=False, append=False))
    runs = np.stack([pos[edges[0::2]], np.append(pos, np.inf)[edges[1::2]]], axis=1)
    idx = np.searchsorted(pos, xs, side="right")
    cw = np.concatenate([[0.0], level])
    cwp = np.concatenate([[0.0], np.cumsum(w * pos)])
    return RaceSummary(runs, xs, cw[idx], cwp[idx])


def stream_density_race(positions, weights, x_lo=2.0, x_hi=None):
    """density_race on the race stream, one sign-change scan over its cumsum."""
    from primerace.analysis import DensityReport

    positions = np.asarray(positions, dtype=np.float64)
    if x_hi is None:
        x_hi = float(positions[-1]) if len(positions) else 2.0
    n = int(np.searchsorted(positions, x_hi, side="right"))
    ahead = np.cumsum(weights[:n]) > 0.0
    edges = np.flatnonzero(np.diff(ahead, prepend=False, append=False))
    start, end = edges[0::2], edges[1::2]
    lo = np.maximum(positions[start], x_lo)
    hi = np.full(len(end), float(x_hi))
    inner = end < n
    hi[inner] = positions[end[inner]]
    live = hi > lo
    lo, hi = lo[live], hi[live]
    nat_measure = float(np.sum(hi - lo))
    log_measure = float(np.sum(np.log(hi / lo)))
    return DensityReport(
        natural_estimate=nat_measure / (x_hi - x_lo),
        logarithmic_estimate=log_measure / math.log(x_hi / x_lo),
        exceedance_measure=(x_hi - x_lo) - nat_measure,
        window=(float(x_lo), float(x_hi)),
    )


def stream_mean_values(positions, weights, xs):
    """mean_values on the race stream, from zero-led cumsums of w and w*p."""
    pos = np.asarray(positions, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cwp = np.concatenate([[0.0], np.cumsum(w * pos)])
    idx = np.searchsorted(pos, xs, side="right")
    return (xs * cw[idx] - cwp[idx]) / xs


def reference_segment_partial(primes, boundaries, layout, race=None):
    """One np.sum per (chunk, class, character): the per-chunk sums of a segment.

    layout is a primerace.tally._Layout.  Returns the _SegmentPartial fields
    (counts, invsqrt, theta, invp, char_eulerlog, race) as a dict; race =
    (a, b), reduced residues, gives the segment's race stream through
    race_jump_weights.
    """
    nb = len(boundaries)
    nch = nb + 1
    ncl, nchar = layout.nclass, layout.nchar
    counts = np.zeros((nch, ncl), dtype=np.int64)
    invsqrt = np.zeros((nch, ncl))
    theta = np.zeros((nch, ncl))
    invp = np.zeros((nch, ncl))
    ch_eul = np.zeros((nch, nchar), dtype=np.complex128)
    jumps = {a: np.empty(0, dtype=np.int64) for a in race or ()}
    if len(primes):
        r = primes % layout.q
        pf = primes.astype(np.float64)
        s_all = 1.0 / np.sqrt(pf)
        for i, a in enumerate(layout.units):
            sel = np.flatnonzero(r == a)
            pa = primes[sel]
            if a in jumps:
                jumps[a] = pa
            if not len(pa):
                continue
            sa = s_all[sel]
            la = np.log(pa.astype(np.float64))
            ia = 1.0 / pa.astype(np.float64)
            edges = np.searchsorted(pa, boundaries, side="right")
            prev = 0
            for c in range(nch):
                e = edges[c] if c < nb else len(pa)
                if e > prev:
                    sl = slice(prev, e)
                    counts[c, i] = e - prev
                    invsqrt[c, i] = np.sum(sa[sl])
                    theta[c, i] = np.sum(la[sl])
                    invp[c, i] = np.sum(ia[sl])
                    for j in range(nchar):
                        z = layout.chi_tab[j, a]
                        if z.imag == 0.0:
                            ch_eul[c, j] += -np.sum(np.log1p(-z.real * sa[sl]))
                        else:
                            ch_eul[c, j] += -np.sum(np.log(1.0 - z * sa[sl]))
                prev = e
    return {
        "counts": counts, "invsqrt": invsqrt, "theta": theta, "invp": invp,
        "char_eulerlog": ch_eul,
        "race": race_jump_weights(jumps[race[0]], jumps[race[1]]) if race else None,
    }


def format_row(ck):
    """One checkpoint CSV data row, every cell formatted, without its newline."""
    parts = [repr(ck.x), repr(ck.y)]
    for n, s, t, p in zip(ck.counts.tolist(), ck.invsqrt.tolist(),
                          ck.theta.tolist(), ck.psi.tolist()):
        parts += [str(n), repr(s), repr(t), repr(p)]
    # per character: invsqrt, mertens, eulerlog, each as (re, im)
    chars = np.stack([ck.char_invsqrt, ck.char_mertens, ck.char_eulerlog], axis=1)
    parts += map(repr, chars.view(np.float64).ravel().tolist())
    return ",".join(parts)

"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive: trial division, direct enumeration,
extended-precision direct sums.  None of it shares code with the package, so
agreement is meaningful.  The exceptions are the package's earlier code,
kept as bit-identity references: reference_segment_partial, the
loop-per-character segment reduction; race_jump_weights, the stable
argsort merge of per-class jump positions into the race stream; the
stream forms of the race analyses, stream_density_race and
stream_mean_values, with stream_summary, which builds a race summary from
the whole stream by one global cumsum; format_row, which formats every
cell of a checkpoint CSV row; and ScalarFold with scalar_tally, the exact
fold one entry at a time: exact() of every chunk sum, rounded() of every
total, and each derived character column summed per character.
"""
from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from functools import lru_cache
from types import SimpleNamespace

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


def format_row(x, y, row):
    """One checkpoint CSV data row at x, y, every cell formatted, without its newline.

    row maps each field (counts, invsqrt, theta, psi, char_invsqrt,
    char_mertens, char_eulerlog) to its values at that grid point.
    """
    parts = [repr(x), repr(y)]
    for n, s, t, p in zip(row["counts"].tolist(), row["invsqrt"].tolist(),
                          row["theta"].tolist(), row["psi"].tolist()):
        parts += [str(n), repr(s), repr(t), repr(p)]
    # per character: invsqrt, mertens, eulerlog, each as (re, im)
    chars = np.stack([row["char_invsqrt"], row["char_mertens"], row["char_eulerlog"]], axis=1)
    parts += map(repr, chars.view(np.float64).ravel().tolist())
    return ",".join(parts)


class ScalarFold:
    """A tally's exact sums folded one entry at a time, as Python ints in units of 2**-1074.

    fold adds chunk c of a segment partial: exact() of each class sum of a
    class that holds a prime, and of every Euler-log part when the chunk
    holds one.  row() rounds every total with rounded() and derives
    char_invsqrt and char_mertens per character, one np.sum over the unit
    classes of chi(a) * invsqrt_a and chi(a^2) * invp_a.  state() is the
    sidecar's "state" of those sums.
    """

    def __init__(self, q: int):
        from primerace.characters import enumerate_characters, unit_residues

        self.units = list(unit_residues(q))
        chars = enumerate_characters(q)[1:]
        self.chi = [chi.values[self.units] for chi in chars]
        self.chi2 = [chi.values[[a * a % q for a in self.units]] for chi in chars]
        n = len(self.units)
        self.counts = [0] * n
        self.sums = {f: [0] * n for f in ("invsqrt", "theta", "psi", "invp")}
        self.sums["char_eulerlog"] = [0] * (2 * len(chars))

    def fold(self, part, c: int) -> None:
        from primerace.exact import exact

        for i, k in enumerate(part.counts[c].tolist()):
            if k:
                self.counts[i] += k
                for f, table in (("invsqrt", part.invsqrt), ("theta", part.theta),
                                 ("psi", part.theta), ("invp", part.invp)):
                    self.sums[f][i] += exact(float(table[c, i]))
        if part.counts[c].any():
            eul = self.sums["char_eulerlog"]
            for j, v in enumerate(part.char_eulerlog[c].view(np.float64).tolist()):
                eul[j] += exact(v)

    def fold_power(self, slot: int, log_p: float) -> None:
        from primerace.exact import exact

        self.sums["psi"][slot] += exact(log_p)

    def row(self) -> dict:
        from primerace.exact import rounded

        vals = {f: np.array([rounded(s) for s in sums]) for f, sums in self.sums.items()}
        row = {"counts": np.array(self.counts, dtype=np.int64),
               **{f: vals[f] for f in ("invsqrt", "theta", "psi")},
               "char_eulerlog": vals["char_eulerlog"].view(np.complex128)}
        row["char_invsqrt"] = np.array([np.sum(chi * vals["invsqrt"]) for chi in self.chi], dtype=np.complex128)
        row["char_mertens"] = np.array([np.sum(chi * vals["invp"]) for chi in self.chi2], dtype=np.complex128)
        return row

    def state(self, expected_lo: int) -> dict:
        from primerace.exact import to_hex

        eul = list(map(to_hex, self.sums["char_eulerlog"]))
        return {"counts": list(self.counts),
                "class": {f: list(map(to_hex, self.sums[f])) for f in ("invsqrt", "theta", "psi", "invp")},
                "char": {"eulerlog": [eul[k:k + 2] for k in range(0, len(eul), 2)]},
                "expected_lo": expected_lo}


def reference_chunks(primes, boundaries, layout):
    """reference_segment_partial's chunk sums, read as ScalarFold.fold reads a segment partial."""
    return SimpleNamespace(**reference_segment_partial(primes, boundaries, layout), nchunks=len(boundaries) + 1)


def scalar_tally(grid, q: int, x_hi: int, segment_odds: int, stop: int | None = None):
    """The scalar fold of a tally to x_hi: (rows, state).

    rows holds ScalarFold.row() at every grid point, in order.  With stop,
    state is the sidecar state the tally persists before segment stop (with
    next_j and pw_ptr); else it is None.  The chunk sums come from
    reference_segment_partial, which builds every character's terms on its
    own; the prime powers from the package's _power_terms.
    """
    from primerace.sieve import segment_bounds, sieve_segment, simple_sieve
    from primerace.tally import _Layout, _power_terms

    layout, fold = _Layout(q), ScalarFold(q)
    powers, pw, rows, state = _power_terms(layout, 2, x_hi), 0, [], None
    base = simple_sieve(math.isqrt(x_hi - 1))
    for k, (a, b) in enumerate(segment_bounds(2, x_hi, segment_odds)):
        if k == stop:
            state = {**fold.state(a), "next_j": len(rows), "pw_ptr": pw}
        inside = grid.x[(grid.x >= a) & (grid.x < b)]
        part = reference_chunks(sieve_segment(a, b, base), inside, layout)
        for c in range(part.nchunks):
            fold.fold(part, c)
            if c < len(inside):
                while pw < len(powers) and powers[pw][0] <= inside[c]:
                    if powers[pw][1] >= 0:
                        fold.fold_power(*powers[pw][1:])
                    pw += 1
                rows.append(fold.row())
    return rows, state

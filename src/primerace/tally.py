"""Streaming tallies of weighted prime sums at the points of a checkpoint grid.

One pass over the primes up to x_max gives, at every grid point
x_j = exp(y_j), per-residue-class sums (counts, 1/sqrt(p), log p, 1/p, and
psi's log p over primes and proper prime powers) and, per nonprincipal
character, the sum of -log(1 - chi(p)/sqrt(p)) for the partial Euler
product on the critical line.  The character sums of chi(p)/sqrt(p) and
chi(p^2)/p are linear in the class sums of 1/sqrt(p) and 1/p, and each
point derives them from those totals.

Conjugate pairs: chi-bar's values are chi's conjugates bit for bit
(characters.py), so each of its sums is the conjugate of chi's.  The tally
sums and derives each pair once, for its representative, the lower-indexed
of chi and chi-bar (a real character is its own), and writes the other's
columns as (Re, 0.0 - Im) of the representative's, which is the direct
sum's value bit for bit, +0.0 included (_unfold).  Mod 105 that is 27 of
the 47 nonprincipal characters.

Reduction contract: segments are cut into chunks at grid points, and every
chunk value is one pairwise np.sum over a slice of one C-contiguous row of
per-prime terms (_segment_partial).  A class builds one Euler-log row per
distinct value of chi(a) among the representatives, and each takes its
value's chunk sums.

Exactness: one TallyPartial adds the chunk values exactly (exact.py) and
rounds each total once, so every summed total is the correctly rounded
exact sum of its chunk values, and each derived column is a fixed
combination of those totals.  The chunks depend only on the segment width:
for a fixed segment_odds, any worker pool and any resumed run give every
total bit for bit, and a merge does so only at a split on a segment boundary.

Batch bound: grid points are snapshotted a batch at a time, at most
_BATCH_CELLS cells of checkpoint rows, which bounds a batch's memory for a
large modulus; each batch costs a fixed number of numpy calls.

A race (a, b) also yields its RaceSummary.  Its terms w = +-1/sqrt(p) are
+0.0 off classes a and b, which leaves every partial sum as it is (none is
-0.0), and np.cumsum adds sequentially, so the per-segment cumsum seeded
with the carried sums equals one cumsum over every race prime, bit for bit.
The sidecar records it, and a resume sieves again only for a race it lacks.

Every output byte equals that of a fold of one chunk and one rounding at a
time (the scalar oracle of the tests).  The checkpoint files' grid,
columns, reader and sidecar are in checkpoint.py.  This module stays below
8192 significant tokens, past which compiling it costs each process about
0.47 MB more peak memory.
"""
from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .characters import enumerate_characters, race_weight, unit_residues
from .checkpoint import (
    LOG2,
    _ROW_FIELDS,
    CheckpointGrid,
    CheckpointSeries,
    _csv_columns,
    _read_sidecar,
    _RowWriter,
    _sidecar_path,
    _truncate_csv,
    _write_sidecar,
    read_series_csv,
)
from .exact import ExactSums, from_hex, to_hex
from .sieve import (
    DEFAULT_SEGMENT_ODDS,
    ordered_map,
    prime_powers,
    segment_bounds,
    sieve_segment,
    simple_sieve,
)

__all__ = [
    "LOG2",
    "CheckpointGrid",
    "CheckpointSeries",
    "TallyResult",
    "RaceSummary",
    "TallyPartial",
    "TallyOrderError",
    "accumulate",
    "range_partial",
    "merge",
    "read_series_csv",
]

_CLASS_FIELDS = ("invsqrt", "theta", "psi", "invp")
_SUMMED = ("counts", "invsqrt", "theta", "invp", "char_eulerlog", "psi")  # the fields a prime changes
_FLUSH_EVERY = 64  # segments between sidecar writes of a persisted run
_BATCH_CELLS = 8192  # cells of the checkpoint rows snapshotted together, at most
_Powers = Sequence[tuple[int, int, float]]  # (p^k, class slot or -1, log p) per proper prime power, ascending


class TallyOrderError(RuntimeError):
    """TallyPartial.fold got a segment that does not start where its range ends."""


# ---------------------------------------------------------------------------
# per-modulus lookup tables


class _Layout:
    """Precomputed residue and character tables for one modulus."""

    def __init__(self, q: int):
        chars = enumerate_characters(q)
        self.q = q
        self.units = unit_residues(q)
        self.nclass = len(self.units)
        self.slot = np.full(q, -1, dtype=np.int64)
        self.slot[list(self.units)] = range(self.nclass)
        nonprincipal = chars[1:]
        self.nchar = len(nonprincipal)
        # chi(p mod q) lookup, zero off the units
        self.chi_tab = np.stack([chi.values for chi in nonprincipal])
        # (nchar, nclass) tables of chi(a) and chi(a)^2 = chi(a^2), C-contiguous
        self.chi_class = np.ascontiguousarray(self.chi_tab[:, self.units])
        chi2 = np.ascontiguousarray(self.chi_tab[:, [a * a % q for a in self.units]])
        # chi^2 is shared among characters: char_mertens takes its product on
        # the bitwise-distinct rows of chi2, the first character of each in
        # chi2_first, and character j reads distinct row chi2_of[j]
        # (a dict: a first np.unique(axis=0) maps about 0.3 MB more of numpy into the process)
        seen = {}  # per distinct row's bytes: its index among them and its first character
        self.chi2_of = np.array([seen.setdefault(row.tobytes(), (len(seen), j))[0] for j, row in enumerate(chi2)], np.intp)
        self.chi2_first = np.array([j for _, j in seen.values()], np.intp)
        # each character column up to conjugation, per character field: (cols, of, flip).  The
        # characters in cols are the representatives: character j holds representative of[j]'s
        # value, as (Re, 0.0 - Im) where flip[j].  char_mertens pairs the distinct chi^2 rows
        self.reps, of, flip = _conjugate_pairs(self.chi_class)
        reps2, of2, flip2 = _conjugate_pairs(chi2[self.chi2_first])
        self.pairs = {"char_invsqrt": (self.reps, of, flip), "char_eulerlog": (self.reps, of, flip),
                      "char_mertens": (self.chi2_first[reps2], of2[self.chi2_of], flip2[self.chi2_of])}
        n = self.nclass
        # the columns of TallyPartial's sums: counts and each class field, then
        # char_eulerlog's real and imaginary part of each representative in turn
        self.columns = {**{f: slice(i * n, i * n + n) for i, f in enumerate(("counts", *_CLASS_FIELDS))},
                        "char_eulerlog": slice(5 * n, None)}
        # per summed class field, the character column derived from it and the chi table of its representatives
        self.derived = {"invsqrt": ("char_invsqrt", self.chi_class[self.reps]),
                        "invp": ("char_mertens", chi2[self.pairs["char_mertens"][0]])}
        # per class slot a, its Euler-log rows: one per bitwise-distinct chi(a)
        # of the representatives, the real ones first, whose terms go through
        # log1p with -Re chi(a), then the complex ones, through log with
        # chi(a); representative r takes row of[r] (a dict, as for chi2_of)
        self.euler_rows = []
        for a in self.units:
            z = self.chi_tab[self.reps, a]
            real = z.imag == 0.0
            key = np.where(real, z.real, z).tobytes()  # 16 bytes a character: a real chi(a) by its real part
            seen = {}  # per distinct key: its row and first character
            order = np.flatnonzero(real).tolist() + np.flatnonzero(~real).tolist()
            of = np.empty(len(z), np.intp)
            of[order] = [seen.setdefault(key[16 * j:16 * j + 16], (len(seen), j))[0] for j in order]
            first = [j for _, j in seen.values()]
            nreal = np.count_nonzero(real[first])
            self.euler_rows.append((-z.real[first[:nreal]], z[first[nreal:]], of))


def _conjugate_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct complex rows up to conjugation: (reps, of, flip).

    reps indexes the representatives, every real row and the first row of
    each conjugate pair; row i is representative of[i]'s row, as
    (Re, 0.0 - Im) where flip[i].
    """
    reps, of, flip, first = [], [], [], {}  # first: per representative's bytes, its index among them
    for i, row in enumerate(rows):
        conj = row.copy()
        np.subtract(0.0, conj.imag, out=conj.imag)
        k = first.get(conj.tobytes())
        flip.append(k is not None)
        if k is None:
            k = first[row.tobytes()] = len(reps)
            reps.append(i)
        of.append(k)
    return np.array(reps, np.intp), np.array(of, np.intp), np.array(flip)


def _unfold(table: np.ndarray, of: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Every character's column of a complex table of representative columns: table[:, of], (Re, 0.0 - Im) where flip.

    0.0 - Im keeps a zero +0.0, as a direct sum gives it; np.conj would
    make it -0.0.
    """
    out = np.take(table, of, axis=1)
    if flip.any():
        np.subtract(0.0, out.imag, out=out.imag, where=flip)
    return out


_layout = lru_cache(maxsize=None)(_Layout)  # _layout(q): modulus q's tables, built once per process


@dataclass(eq=False)
class _SegmentPartial:
    """Per-chunk sums for one sieved segment (chunks split at grid points)."""

    lo: int
    hi: int
    nchunks: int
    counts: np.ndarray  # (nchunks, nclass) int64
    invsqrt: np.ndarray  # (nchunks, nclass) float64
    theta: np.ndarray
    invp: np.ndarray
    char_eulerlog: np.ndarray  # (nchunks, representatives) complex128


class _Scratch(threading.local):
    """One thread's buffers, reused from segment to segment and dropped with the object.

    _segments makes one per pass.  mask takes the sieve and then the
    reduction's class selections; flat, one float64 block, holds every
    per-prime array of _segment_partial: the residues, then one region for
    a class's term rows and, after the class loop, the race terms.  Both
    grow to the largest segment seen.  As a threading.local, it gives each
    worker thread of a pool its own buffers.  spare is None when jobs run
    one at a time, so that the fold consumes a job's race terms before the
    next job and they may live in flat.  Under a pool it is _segments' free list of race-term buffers:
    a job takes one (a fresh one if it is too short), and _segments puts it
    back once its terms are folded.  It starts with one empty buffer per
    job that can be in flight or folding, so it is never found empty.
    """

    def __init__(self, spare: list | None):
        self.spare = spare
        self.mask = np.empty(0, dtype=bool)
        self.flat = np.empty(0)

    def get(self, name: str, n: int, keep: int = 0) -> np.ndarray:
        """The first n entries of buffer name; a grown buffer keeps its first keep."""
        buf = getattr(self, name)
        if len(buf) < n:
            setattr(self, name, np.empty(n, dtype=buf.dtype))
            getattr(self, name)[:keep] = buf[:keep]
        return getattr(self, name)[:n]


def _segment_partial(
    primes: np.ndarray,
    lo: int,
    hi: int,
    boundaries: np.ndarray,
    layout: _Layout,
    scratch: _Scratch,
    race: tuple[int, int] | None = None,
    tally: bool = True,
) -> tuple[_SegmentPartial | None, tuple | None]:
    """Chunked sums over one segment, and its race terms; boundaries are checkpoint x-values.

    The race terms, for race = (a, b) of reduced classes, are (primes,
    terms, cut), else None, over every prime of the segment in sieve order.
    Row 0 of terms holds w = +1/sqrt(p) on a, -1/sqrt(p) on b and +0.0 on
    every other prime, and row 1 holds w*p, each behind a first column that
    _RaceFold fills with the carried sums.  cut[c] counts the primes at or
    below boundaries[c].  tally=False skips the class sums, for a segment
    sieved again only for its race: the sums are then None.

    Every per-prime array is written with out= into scratch's flat block:
    the residues first, then one class's terms at a time and, after the
    reduction, the race terms (into a buffer of scratch.spare instead, when
    that is a list).  A class's rows start from its selected int primes,
    converted in place into its 1/p row, and 1/sqrt(p) is computed from
    those doubles; the race terms take w = sign/sqrt(p) and w*p from the int
    primes, each promoted inside its ufunc.  So the block holds n + max(class
    rows, 2n + 2) doubles for a segment of n primes, and no float copy of the
    primes or of 1/sqrt(p) is kept.
    Reduction contract: every chunk value is one pairwise np.sum over a
    slice of one C-contiguous row of per-prime terms, and a chunk's Euler-log
    value adds the per-class values in class order.  The terms are built per
    class: invsqrt, theta, invp and one Euler-log row per distinct chi(a)
    (_Layout.euler_rows), so a class's work per prime follows its distinct
    values, not its characters, and it has 3 + (distinct real values) +
    2 * (distinct complex values) rows.  Each class-chunk of two or more
    primes is reduced with one axis=1 sum, so a segment costs O(chunks +
    nonempty class-chunks) numpy calls whatever the number of characters,
    and each representative character adds its value's chunk sum, negated,
    as a row of its own would give it (a real row's with imaginary part
    +0.0); char_eulerlog holds the representatives' columns alone.  Every
    nonempty class-chunk first takes its last term
    column, in one gather per class, and a chunk of one prime keeps it: a
    one-element np.sum adds its element to +0.0, which returns the element
    for every double but -0.0, and no term is -0.0, so the contract and
    every bit hold.  Any future vectorisation has
    to keep the contract: np.add.reduceat sums sequentially and a
    Fortran-ordered block sums across rows, and both change the last bits.
    """
    n, q, units = len(primes), layout.q, layout.units
    res = scratch.get("flat", n).view(np.int64)
    # primes % q: numpy's floor_divide by a scalar is faster than its remainder
    np.floor_divide(primes, q, out=res)
    res *= -q
    res += primes
    sizes = np.bincount(res, minlength=q)[list(units)].tolist() if tally else []
    # rows per class: invsqrt, theta, invp, its distinct real and (as two)
    # complex Euler-log rows; then the race terms, unless a pool's free list holds them
    need = max([(3 + len(r) + 2 * len(z)) * k for (r, z, _), k in zip(layout.euler_rows, sizes)]
               + [2 * n + 2 if race and scratch.spare is None else 0])
    flat = scratch.get("flat", n + need, keep=n)
    res, work = flat[:n].view(np.int64), flat[n:]
    part = None
    if tally:
        nch = len(boundaries) + 1
        counts = np.zeros((nch, len(units)), dtype=np.int64)
        invsqrt, theta, invp = np.zeros((3, nch, len(units)))
        ch_eul = np.zeros((nch, len(layout.reps)), dtype=np.complex128)
        on = scratch.get("mask", n)
        for i, a in enumerate(units):
            if not sizes[i]:
                continue
            sel = np.flatnonzero(np.equal(res, a, out=on))
            neg_re, z, of = layout.euler_rows[i]
            # rows: 1/sqrt(p), log p, 1/p, then -log(1 - chi(p)/sqrt(p)) terms, one per distinct chi(p)
            k = (3 + len(neg_re)) * sizes[i]
            terms = work[:k].reshape(3 + len(neg_re), sizes[i])
            cterms = work[k:k + 2 * len(z) * sizes[i]].view(np.complex128).reshape(len(z), sizes[i])
            p = terms[2]
            np.take(primes, sel, out=p.view(np.int64), mode="clip")
            p[:] = p.view(np.int64)  # the class's primes as doubles, converted in place
            np.sqrt(p, out=terms[0])
            np.divide(1.0, terms[0], out=terms[0])
            np.log(p, out=terms[1])
            ends = np.append(np.searchsorted(p, boundaries, side="right"), sizes[i])
            np.divide(1.0, p, out=p)
            np.multiply(neg_re[:, None], terms[0], out=terms[3:])
            np.log1p(terms[3:], out=terms[3:])
            np.multiply(z[:, None], terms[0], out=cterms)
            np.subtract(1.0, cterms, out=cterms)
            np.log(cterms, out=cterms)
            counts[:, i] = chunk = np.diff(ends, prepend=0)
            # each nonempty chunk's sum of every row: its last term column, in
            # one gather, which is the sum of a one-prime chunk, then one
            # axis=1 sum for each chunk of more primes
            full = np.flatnonzero(chunk)
            sums, csums = terms[:, ends[full] - 1].T.copy(), cterms[:, ends[full] - 1].T.copy()
            for r, (e, m) in enumerate(zip(ends[full].tolist(), chunk[full].tolist())):
                if m > 1:
                    np.add.reduce(terms[:, e - m:e], axis=1, out=sums[r])
                    if len(z):
                        np.add.reduce(cterms[:, e - m:e], axis=1, out=csums[r])
            invsqrt[full, i], theta[full, i], invp[full, i] = sums[:, :3].T
            # each character adds its row's sum negated, a real one's as -sum + 0j
            rows = np.empty((len(full), len(neg_re) + len(z)), np.complex128)
            rows[:, :len(neg_re)], rows[:, len(neg_re):] = -sums[:, 3:], -csums
            ch_eul[full] += rows[:, of]
        part = _SegmentPartial(lo, hi, nch, counts, invsqrt, theta, invp, ch_eul)
    if race is None:
        return part, None
    buf = work if scratch.spare is None else scratch.spare.pop()
    if len(buf) < 2 * n + 2:
        buf = np.empty(2 * n + 2)
    terms = buf[:2 * n + 2].reshape(2, -1)
    w, wp = terms[:, 1:]
    sign = np.zeros(q)
    sign[list(race)] = 1.0, -1.0
    # sign/sqrt(p) is (1/sqrt(p)) * sign bit for bit: IEEE rounding is
    # symmetric in sign, and 0/x is +0.0
    np.take(sign, res, out=wp, mode="clip")
    np.sqrt(primes, out=w)
    np.divide(wp, w, out=w)
    np.multiply(w, primes, out=wp)
    # p <= x for an integer p exactly when p <= floor(x); an int key keeps
    # searchsorted from converting the whole segment to doubles
    return part, (primes, terms, np.searchsorted(primes, np.floor(boundaries).astype(np.int64), side="right"))


def _segments(bounds, layout: _Layout, segment_odds: int, threads: int, grid_x: np.ndarray,
              race: tuple[int, int] | None = None, race_fold: _RaceFold | None = None,
              skip: int = 0) -> Iterator[_SegmentPartial]:
    """Each segment of bounds sieved and reduced, chunks split at grid_x, as its _SegmentPartial, in order.

    The sieving primes are found as the pass starts, each worker thread
    keeps one _Scratch and ordered_map runs the jobs.  With a race, each
    segment's race terms are folded into race_fold before it is yielded, and
    dropped then, so that a segment's primes are freed before the next job
    sieves when jobs run one at a time.  The first skip segments are sieved
    only for the race: their class sums are not reduced and nothing is
    yielded for them.
    """
    base = simple_sieve(math.isqrt(bounds[-1][1] - 1)) if bounds else None
    # a pool's race-term buffers: one per job in flight (ordered_map holds
    # threads + 2) and one for the job being folded, allocated at first use
    spare = None if threads <= 1 else [np.empty(0)] * (threads + 3)
    scratch = _Scratch(spare)

    def job(a: int, b: int, tally: bool) -> tuple:
        primes = sieve_segment(a, b, base, scratch.get("mask", segment_odds))
        inside = grid_x[np.searchsorted(grid_x, a):np.searchsorted(grid_x, b)]  # grid points in [a, b)
        return _segment_partial(primes, a, b, inside, layout, scratch, race, tally)

    for part, terms in ordered_map(job, [(a, b, k >= skip) for k, (a, b) in enumerate(bounds)], threads):
        if terms is not None:
            race_fold.fold(terms)
            if spare is not None:
                spare.append(terms[1].base)  # the buffer they were cut from, free again
            del terms
        if part is not None:
            yield part


# ---------------------------------------------------------------------------
# races and results


@dataclass(frozen=True, eq=False)
class RaceSummary:
    """A race (a, b) reduced to what every race analysis reads.

    The race's level is the running sum, over the primes of classes a and b
    in ascending order, of w = +1/sqrt(p) on a and -1/sqrt(p) on b.  runs
    holds one [start, end) row per lead: the prime where the level rises
    above 0 and the prime where it falls back, end inf for a lead still open
    where the tally stops.  sw and swp hold the sums of w and w*p over the
    race primes up to each grid point x, as one np.cumsum over every race
    prime gives them, bit for bit.
    """

    runs: np.ndarray  # (k, 2) float64
    x: np.ndarray
    sw: np.ndarray
    swp: np.ndarray

    def __post_init__(self):
        if self.runs.ndim != 2 or self.runs.shape[1] != 2:
            raise ValueError(f"lead runs must be rows of [start, end), got shape {self.runs.shape}")
        if np.any(np.diff(self.runs.ravel()) < 0):
            raise ValueError("lead run positions must not decrease")
        if self.x.ndim != 1 or not self.x.shape == self.sw.shape == self.swp.shape:
            raise ValueError(
                f"grid points and race sums must be 1-D of equal length, got shapes "
                f"{self.x.shape}, {self.sw.shape} and {self.swp.shape}"
            )


class _RaceFold:
    """The race carried through a tally, one segment's race terms at a time.

    Holds the carried sums of w and w*p over every race prime folded, the
    lead runs as [start, end] prime pairs (end None while open) and the two
    sums at each grid point passed.  to_state and from_state give its form
    in the sidecar.
    """

    def __init__(self, sw: float = 0.0, swp: float = 0.0, runs=(), at=((), ())):
        self.sw, self.swp = sw, swp
        self.runs = [list(run) for run in runs]
        self.at = [np.array(at, dtype=np.float64).reshape(2, -1)]  # (2, points) pieces

    def fold(self, terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Add the next segment's race terms; its cumsum is taken in place."""
        p, cum, cut = terms
        cum[:, 0] = self.sw, self.swp
        np.cumsum(cum, axis=1, out=cum)
        ahead = cum[0, 1:] > 0.0
        for k in np.flatnonzero(np.diff(ahead, prepend=self.sw > 0.0)).tolist():
            if ahead[k]:
                self.runs.append([p[k].item(), None])
            else:
                self.runs[-1][1] = p[k].item()
        self.at.append(cum[:, cut])
        self.sw, self.swp = cum[:, -1].tolist()

    def summary(self, grid_x: np.ndarray) -> RaceSummary:
        at = np.concatenate(self.at, axis=1)
        runs = [[start, math.inf if end is None else end] for start, end in self.runs]
        return RaceSummary(np.array(runs, dtype=np.float64).reshape(-1, 2),
                           grid_x[:at.shape[1]], at[0], at[1])

    def to_state(self) -> dict:
        at = np.concatenate(self.at, axis=1)
        return {"carried": [self.sw, self.swp], "runs": self.runs,
                "sw": at[0].tolist(), "swp": at[1].tolist()}

    @classmethod
    def from_state(cls, state: Mapping) -> "_RaceFold":
        return cls(*state["carried"], state["runs"], (state["sw"], state["swp"]))


@dataclass(eq=False)
class TallyResult:
    """accumulate() output: the series, the race summary, run status.

    series holds every grid point snapshotted so far, from the first, also
    after a resume that stopped early.  race is the RaceSummary of the
    primes below x_hi, with sums at every grid point of series, or None
    when no race was asked for.
    """

    series: CheckpointSeries
    race: RaceSummary | None
    completed: bool
    x_hi: int


# ---------------------------------------------------------------------------
# the exact tally state


@dataclass(eq=False)
class TallyPartial:
    """Exact sums over the primes (and prime powers) in one range [lo, hi).

    The one holder of exact tally state: accumulate, range_partial, merge
    and resume all fold, merge and serialise through it.  sums holds one
    exact sum (exact.ExactSums) per column that _Layout.columns names: one
    per class for counts (exact as doubles below 2**53), invsqrt, theta, psi
    and invp, and for char_eulerlog the real and the imaginary part of each
    representative (_Layout.reps: every real character and the lower-indexed
    of each conjugate pair) in turn, as the float64 view of a complex128
    array lays them out: 5 * nclass + 2 * len(reps) columns, 294 mod 105.
    The two character sums that
    are linear in the class sums are derived, not summed: each point's
    char_invsqrt = sum_a chi(a) invsqrt_a and char_mertens = sum_a chi(a)^2
    invp_a are one np.sum over the class axis of a C-contiguous table of chi
    values times the point's row, so no BLAS call sets their bits.
    char_invsqrt takes it for the representatives, char_mertens for the
    distinct rows of chi^2 up to conjugation (_Layout.derived).  Every
    other character's column of the three is its representative's
    (Re, 0.0 - Im), through _Layout.pairs.

    Chunks and prime powers fold a batch at a time, in one vectorised step
    (ExactSums.add), which rounds each sum it changes once.  totals() and
    snapshots() hand each point's totals on as read-only arrays, the
    previous point's array objects for every field that nothing was folded
    into; _fresh names the fields changed since the last point handed on.
    """

    q: int
    lo: int
    hi: int
    sums: ExactSums
    _fresh: set[str] = field(init=False, repr=False)
    _last: dict = field(init=False, repr=False)  # the last point handed on: its arrays

    def __post_init__(self):
        self._fresh, self._last = set(_SUMMED), {}

    @property
    def units(self) -> tuple[int, ...]:
        return _layout(self.q).units

    @property
    def counts(self) -> list[int]:
        """The primes per class slot, exact in the doubles below 2**53."""
        return self.sums.vals[:len(self.units)].astype(int).tolist()

    @classmethod
    def empty(cls, q: int, at: int = 2) -> "TallyPartial":
        return cls(q, at, at, ExactSums(np.zeros(5 * _layout(q).nclass + 2 * len(_layout(q).reps), object)))

    def _deltas(self, part: _SegmentPartial, a: int, b: int) -> np.ndarray:
        """Chunks a .. b - 1 of a segment in the columns of sums: psi takes theta's chunk sums."""
        return np.hstack([getattr(part, f)[a:b] for f in ("counts", "invsqrt", "theta", "theta", "invp")]
                         + [part.char_eulerlog[a:b].view(np.float64)])

    def _powers(self, slots, logs) -> np.ndarray:
        """One row per prime power in the columns of sums: log p at psi of its class slot."""
        rows = np.zeros((len(slots), len(self.sums.vals)))
        rows[range(len(slots)), np.array(slots, dtype=np.intp) + _layout(self.q).columns["psi"].start] = logs
        return rows

    def fold(self, part: _SegmentPartial, c: int) -> None:
        """Add chunk c of a segment; its chunk 0 must start where this range ends.

        A chunk with no prime in a unit class holds exact zeros (chi vanishes
        off the units), which change no sum.
        """
        if c == 0:
            if part.lo != self.hi:
                raise TallyOrderError(
                    f"segment [{part.lo}, {part.hi}) arrived out of order; expected lo={self.hi}"
                )
            self.hi = part.hi
        if part.counts[c].any():
            self.sums.add(self._deltas(part, c, c + 1), [])
            self._fresh.update(_SUMMED)

    def fold_powers(self, powers: _Powers, start: int, x: float) -> int:
        """Add log p to psi for powers[start:] up to x; return the next index."""
        stop = start
        while stop < len(powers) and powers[stop][0] <= x:
            stop += 1
        terms = [t[1:] for t in powers[start:stop] if t[1] >= 0]
        if terms:
            self.sums.add(self._powers(*zip(*terms)), [])
            self._fresh.add("psi")
        return stop

    def _arrays(self, vals, prime, psi) -> dict:
        """Per field, the read-only array of each point, from its row of vals (points, columns).

        A point is new in a field when it gained a prime (prime), or for psi
        a prime or a prime power (psi), and the first point also when the
        field changed since the last point handed on.  A field's arrays are
        the rows of one read-only table of its new points; a point that is
        not new shares the array of the point before it, and the first the
        array last handed on.
        """
        layout, out = _layout(self.q), {}
        for new, fields in ((prime, _SUMMED[:-1]), (psi, _SUMMED[-1:])):
            new = new.copy()
            new[0] |= fields[0] in self._fresh
            tables = {f: vals[new, layout.columns[f]] for f in fields}  # each its own table: a view would keep the batch's
            for f in layout.derived.keys() & fields:
                # sum_a chi(a) row_a, one pairwise sum over the class axis, in products of about
                # _BATCH_CELLS values: the whole batch for a small chi table, a few rows for a large one
                name, chi = layout.derived[f]
                step = max(1, _BATCH_CELLS // chi.size)
                tables[name] = _unfold(np.vstack([np.add.reduce(chi * tables[f][i:i + step, None, :], axis=2)
                                                  for i in range(0, max(1, len(tables[f])), step)]),
                                       *layout.pairs[name][1:])
            if "counts" in tables:
                tables["counts"] = tables["counts"].astype(np.int64)  # exact: below 2**53
                tables["char_eulerlog"] = _unfold(tables["char_eulerlog"].view(np.complex128),
                                                  *layout.pairs["char_eulerlog"][1:])
            at = np.cumsum(new).tolist()  # each point's entry of arrays
            for f, rows in tables.items():
                rows.flags.writeable = False
                arrays = [self._last.get(f), *rows]
                out[f] = [arrays[i] for i in at]
                self._last[f] = out[f][-1]
        self._fresh = set()
        return out

    def totals(self) -> dict[str, np.ndarray]:
        """The totals of every field, as read-only arrays."""
        nothing = np.zeros(1, bool)
        return {f: a[0] for f, a in self._arrays(self.sums.vals[None], nothing, nothing).items()}

    def snapshots(self, part: _SegmentPartial, c: int, xs: Sequence[float],
                  powers: _Powers, pw: int) -> tuple:
        """Take the points xs, grid points c, c + 1, ... of a segment, and fold chunks c + 1, c + 2, ...

        Chunk c, which ends before point xs[0], is already folded (by fold
        for c = 0, else by the batch before); chunk c + j is folded before
        point xs[j], and chunk c + len(xs) after the last point.  Before each
        point's totals are taken, the prime powers up to it are folded.
        Returns, per field, the arrays of every point (as _arrays); per
        point, the class slots whose sums changed since the point before
        and whether a prime was folded (every slot and True for a first
        point after a fold that took no point); and the next index into
        powers.
        """
        k = len(xs)
        points, slots, logs = [], [], []  # the prime powers up to each point
        for j, x in enumerate(xs):
            while pw < len(powers) and powers[pw][0] <= x:
                if powers[pw][1] >= 0:
                    points.append(j)
                    slots.append(powers[pw][1])
                    logs.append(powers[pw][2])
                pw += 1
        # chunk c + j + 1 comes after point j, and a power just before its point
        counts = part.counts[c + 1:c + k + 1]
        at = np.arange(k) + np.searchsorted(points, np.arange(k), "right")
        deltas = self._deltas(part, c + 1, c + k + 1)
        vals = self.sums.add(np.insert(deltas, points, self._powers(slots, logs), axis=0) if points else deltas, at)
        del deltas  # freed before the batch's arrays are made, which outlive it
        moved = np.insert(counts[:-1] > 0, 0, bool(self._fresh), axis=0)  # per point: the class slots that gain a term
        moved[points, slots] = True
        prime = np.append("counts" in self._fresh, counts[:-1].any(axis=1))
        arrays = self._arrays(vals, prime, moved.any(axis=1))
        self._fresh = set(_SUMMED) if counts[-1].any() else set()
        slots = range(moved.shape[1])
        return arrays, list(zip([list(compress(slots, m)) for m in moved.tolist()], prime.tolist())), pw

    def copy(self) -> "TallyPartial":
        return TallyPartial(self.q, self.lo, self.hi, ExactSums(self.sums.ints, self.sums.e))

    def to_state(self) -> dict:
        """The exact sums as the sidecar's JSON "state" (format 3), in units of 2**-1074.

        It holds char_eulerlog for every character: a representative's
        conjugate's imaginary part is the exact negation of its own.
        """
        units, layout = self.sums.units(), _layout(self.q)
        eul = units[layout.columns["char_eulerlog"]]
        _, of, flip = layout.pairs["char_eulerlog"]
        return {
            "counts": self.counts,
            "class": {f: list(map(to_hex, units[layout.columns[f]])) for f in _CLASS_FIELDS},
            "char": {"eulerlog": [[to_hex(eul[2 * r]), to_hex(-eul[2 * r + 1] if f else eul[2 * r + 1])]
                                  for r, f in zip(of.tolist(), flip.tolist())]},
            "expected_lo": self.hi,
        }

    @classmethod
    def from_state(cls, state: Mapping, q: int) -> "TallyPartial":
        """Inverse of to_state, for a range that starts at 2.

        It reads char_eulerlog of the representatives alone.  Formats 1 and
        2 also hold exact char invsqrt and mertens sums, which totals()
        derives and this does not read.
        """
        units = [int(c) << 1074 for c in state["counts"]] + [from_hex(h) for f in _CLASS_FIELDS for h in state["class"][f]]
        units += [from_hex(h) for j in _layout(q).reps.tolist() for h in state["char"]["eulerlog"][j]]
        return cls(q, 2, state["expected_lo"], ExactSums.from_units(units))


def _power_terms(layout: _Layout, lo: int, hi: int) -> _Powers:
    """(p^k, class slot or -1, log p) for the proper prime powers in [lo, hi), ascending."""
    return [(v, int(layout.slot[v % layout.q]), math.log(p))
            for v, p, _k in prime_powers(hi - 1) if v >= lo]


# ---------------------------------------------------------------------------
# drivers


def accumulate(
    grid: CheckpointGrid,
    q: int,
    *,
    x_hi: int | None = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    threads: int = 1,
    race: tuple[int, int] | None = None,
    persist: str | Path | None = None,
    resume: bool = False,
    max_segments: int | None = None,
) -> TallyResult:
    """Single pass over the primes, snapshotting the tally at every grid point.

    The segments come from _segments, on a worker pool whose size never
    changes the output.  Each segment's chunks (split at grid points) fold
    into one TallyPartial, and the series takes its totals at every grid
    point, a batch of points at a time (TallyPartial.snapshots): read-only
    arrays, shared by consecutive points that nothing was folded into.
    race = (a, b), two distinct unit classes mod q, adds the race's
    RaceSummary over the primes below x_hi, equal bit for bit to the one a
    single cumsum over every race prime gives, for any segment_odds, thread
    count or resume point.  persist writes the checkpoint CSV, a batch of
    rows at a time, plus a JSON sidecar as the run goes, with the summary of
    the race, keyed by its reduced classes: format 3 while the run is
    partial, and format 2 once it is complete, since a complete sidecar
    holds no state.  The sidecar, written every _FLUSH_EVERY segments and at
    the end, counts the rows written so far, and a resume drops any row past
    that count.  resume=True continues an interrupted persisted run from the
    sidecar's state, after the rows read back from the CSV, or reads a
    finished one, whose series then holds the tables the CSV parses into;
    it reads formats 1 and 2 too.  A race the sidecar recorded is read back
    with it, and any other race is folded again from a re-sieve of the
    segments tallied so far, which reduces their race terms alone, in the
    same pass as the segments still to tally, and, on a finished run,
    recorded.  An interrupted run carries
    only the race it is resumed with.  The sieving primes and the prime
    powers are found only when a segment is sieved, so reading back a
    finished run with its race recorded finds no primes at all.
    max_segments stops early after that many segments (the persisted state
    stays resumable).
    """
    layout = _layout(q)
    if x_hi is None:
        x_hi = math.floor(grid.x_max) + 1
    if grid.x_max >= x_hi:
        raise ValueError(
            f"grid reaches x={grid.x_max:.3f}; the sieved range must extend strictly past it, got {x_hi}"
        )
    if race is not None:
        race_weight(*race, q)  # two distinct unit classes, or ValueError
        race = (race[0] % q, race[1] % q)
        race_key = f"{race[0]},{race[1]}"  # its key in the sidecar's races
    grid_x, grid_y = grid.x, grid.y
    bounds = segment_bounds(2, x_hi, segment_odds)
    csv_path = Path(persist) if persist is not None else None
    meta_path = csv_path and _sidecar_path(csv_path)
    state = TallyPartial.empty(q)
    race_fold = _RaceFold() if race is not None else None
    next_j = pw_ptr = 0  # next grid point to snapshot; prime powers folded
    first = start_idx = 0  # first segment to sieve, first to tally: an unrecorded race re-sieves those between
    # every grid point snapshotted, flushed ones too
    series = CheckpointSeries(q, grid, [], [], {f: [] for f in _ROW_FIELDS})

    # the run's identity in its sidecar; race is deliberately absent: any
    # race may be requested on resume, and one the sidecar did not record
    # is folded again
    ident = {"q": q, "h": grid.h, "n": grid.n, "segment_odds": segment_odds, "x_hi": x_hi}

    if resume:
        if csv_path is None:
            raise ValueError("resume requires a persist path")
        meta = _read_sidecar(meta_path)
        got = {k: meta.get(k) for k in ident}
        if got != ident:
            raise ValueError(
                f"persisted run does not match the requested configuration: {got} != {ident}"
            )
        first = start_idx = len(bounds) if meta["complete"] else int(meta["next_segment_index"])
        recorded = race is not None and race_key in meta["races"]
        if recorded:
            race_fold = _RaceFold.from_state(meta["races"][race_key])
        elif race is not None:
            first = 0  # an unrecorded race is folded again from the first segment
        if not meta["complete"]:
            _truncate_csv(csv_path, int(meta["rows_written"]))
        stored = read_series_csv(csv_path)  # a partial run's snapshots append to its rows
        series.x, series.y, series.fields = stored.x, stored.y, stored.fields
        if meta["complete"]:
            if not len(stored) == meta["rows_written"] == grid.n:
                raise ValueError(
                    f"{csv_path} holds {len(stored)} rows, but its sidecar records "
                    f"{meta['rows_written']} for a grid of {grid.n} points"
                )
            if first < start_idx:
                for _ in _segments(bounds, layout, segment_odds, threads, grid_x, race, race_fold, start_idx):
                    pass
                meta["format"] = 2
                meta["races"][race_key] = race_fold.to_state()
                _write_sidecar(meta_path, meta)
            return TallyResult(series, race_fold and race_fold.summary(grid_x), True, x_hi)
        state = TallyPartial.from_state(meta["state"], q)
        next_j, pw_ptr = int(meta["state"]["next_j"]), int(meta["state"]["pw_ptr"])
        series.fields = {f: list(table) for f, table in stored.fields.items()}
    elif csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(",".join(_csv_columns(q)) + "\n")
    powers = _power_terms(layout, 2, x_hi)

    rows = _RowWriter(layout)  # the first point changes every class: nothing was handed on yet
    batch = max(1, _BATCH_CELLS // (4 * layout.nclass + 6 * layout.nchar))

    def flush(done_idx: int, complete: bool) -> None:
        csv.flush()  # every row the sidecar counts is in the file first
        next_lo = bounds[done_idx][0] if done_idx < len(bounds) else x_hi
        payload = {
            # format 3 changed only the state, which a complete sidecar omits
            "format": 2 if complete else 3, **ident,
            "complete": complete, "next_segment_index": done_idx,
            "rows_written": len(series), "last_completed_prime": next_lo - 1,
        }
        if race_fold is not None:
            payload["races"] = {race_key: race_fold.to_state()}
        if not complete:
            payload["state"] = {**state.to_state(), "next_j": next_j, "pw_ptr": pw_ptr}
        _write_sidecar(meta_path, payload)

    stop = len(bounds) if max_segments is None else start_idx + max(0, max_segments)
    done_idx = start_idx
    with open(csv_path, "a") if csv_path is not None else nullcontext() as csv:
        # the segments tallied before are sieved again only for the race
        for part in _segments(bounds[first:stop], layout, segment_odds, threads, grid_x, race, race_fold,
                              start_idx - first):
            # the segment's grid points, which end all chunks but the last,
            # are snapshotted and written a batch of rows at a time
            ends, heights = (g[next_j:next_j + part.nchunks - 1].tolist() for g in (grid_x, grid_y))
            state.fold(part, 0)  # the segment's first chunk, which must start where the tally ends
            for c in range(0, len(ends), batch):
                xs, ys = ends[c:c + batch], heights[c:c + batch]
                arrays, changed, pw_ptr = state.snapshots(part, c, xs, powers, pw_ptr)
                series.x += xs
                series.y += ys
                for f, entries in series.fields.items():
                    entries += arrays[f]
                if csv is not None:
                    csv.write(rows.lines(xs, ys, arrays, changed))
                next_j += len(xs)
            done_idx += 1
            if csv is not None and (done_idx - start_idx) % _FLUSH_EVERY == 0:
                flush(done_idx, complete=False)

        # the segments tile [2, x_hi), which holds every grid point, so a
        # completed run has snapshotted them all
        completed = done_idx == len(bounds)
        if csv is not None:
            flush(done_idx, complete=completed)
    return TallyResult(series, race_fold and race_fold.summary(grid_x), completed, x_hi)


# ---------------------------------------------------------------------------
# partial tallies and merge


def range_partial(
    lo: int,
    hi: int,
    q: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    threads: int = 1,
) -> TallyPartial:
    """Tally sums over primes in [lo, hi), folded per segment in order."""
    bounds = segment_bounds(lo, hi, segment_odds)
    layout = _layout(q)
    out = TallyPartial.empty(q, lo)
    powers = _power_terms(layout, lo, hi)
    pw_ptr = 0
    for part in _segments(bounds, layout, segment_odds, threads, np.empty(0)):
        out.fold(part, 0)
        pw_ptr = out.fold_powers(powers, pw_ptr, part.hi - 1)
    return out


def merge(left: TallyPartial, right: TallyPartial) -> TallyPartial:
    """Combine partials over adjacent ranges; left must sit just below right.

    Componentwise exact addition of the per-segment sums, so a merged pair
    over a split that falls on a segment boundary of the single pass
    reproduces its totals bit for bit.
    """
    if left.q != right.q:
        raise ValueError(f"modulus mismatch: {left.q} vs {right.q}")
    if left.lo == left.hi:
        return right.copy()
    if right.lo == right.hi:
        return left.copy()
    if right.lo < left.hi:
        raise ValueError(
            f"overlapping ranges: [{left.lo}, {left.hi}) and [{right.lo}, {right.hi})"
        )
    if right.lo > left.hi:
        raise ValueError(
            f"ranges are not adjacent: [{left.lo}, {left.hi}) then [{right.lo}, {right.hi})"
        )
    out = left.copy()  # every field fresh
    out.hi = right.hi
    out.sums += right.sums
    return out

"""Streaming tallies of weighted prime sums on a log-spaced checkpoint grid.

One pass over the primes up to x_max populates, for every grid point
x_j = exp(y_j), per-residue-class sums (counts, 1/sqrt(p), log p, 1/p, and
the psi-style sums that also see proper prime powers) and per-character
sums of -log(1 - chi(p)/sqrt(p)) for the partial Euler product on the
critical line.  The per-character sums of chi(p)/sqrt(p) and chi(p^2)/p
are linear in the class sums of 1/sqrt(p) and 1/p, and each snapshot
derives them from those.

Segments are cut into chunks at grid points, each chunk is reduced with
np.sum, and one TallyPartial adds the per-chunk values exactly, as Python
ints (see exact.py): every summed total is the correctly rounded exact sum
of those per-chunk values, and the derived columns are a fixed combination
of those totals.  Chunks depend on the segment width, so for a fixed
segment_odds any worker pool and any resumed run reproduce the totals bit
for bit; a merge does so only at a split on a segment boundary.

Each chunk value is one pairwise np.sum over a slice of one C-contiguous
row of per-prime terms (see _segment_partial).  The Euler-log terms of all
characters sit in one block per class, reduced with a single axis=1 sum,
so a segment costs O(chunks + nonempty class-chunks) numpy calls whatever
the number of characters; the class-chunks that hold one prime take no sum
at all, only one gather per class.  The exact fold then costs one
Python-level add per class and per character for each chunk that holds a
prime.

Each grid point is snapshotted, and persisted as one CSV row, at a cost
set by what changed since the one before.  TallyPartial.totals() rebuilds
only the fields folded into and hands on the previous read-only arrays
for the rest, and the row writer formats again only the class blocks
folded into and, when any prime was, the character section; a grid point
that gained no prime and no prime power reuses the whole previous row but
for x and y.  The series keeps, per field, the arrays totals() returned,
so no table of every grid point is built.

A race (a, b) also yields its RaceSummary: the runs of primes where the
race leads, and the sums of w = +-1/sqrt(p) and w*p at every grid point.
Each worker returns its segment's terms w and w*p, and the in-order fold
puts the carried totals in front of them and takes one np.cumsum per
segment.  np.cumsum adds sequentially, so the per-segment cumsum seeded
with the carried totals equals the cumsum over every race prime at once,
bit for bit, whatever the segment width or the thread count, and no stream
of race primes is ever held.  The summary is persisted in the sidecar, so a
resumed run never sieves again for a race it recorded.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from copy import deepcopy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .characters import (
    Character,
    ClassFunction,
    enumerate_characters,
    race_weight,
    unit_residues,
)
from .exact import exact, from_hex, rounded, to_hex
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
    "write_series_csv",
    "read_series_csv",
]

LOG2 = math.log(2.0)

_CHAR_FIELDS = ("invsqrt", "mertens", "eulerlog")
# a checkpoint row's fields, as CheckpointSeries.fields names them
_ROW_FIELDS = ("counts", "invsqrt", "theta", "psi", *(f"char_{f}" for f in _CHAR_FIELDS))
_CLASS_FIELDS = ("invsqrt", "theta", "psi", "invp")


class TallyOrderError(RuntimeError):
    """TallyPartial.fold got a segment that does not start where its range ends."""


# ---------------------------------------------------------------------------
# checkpoint grid


@dataclass(frozen=True)
class CheckpointGrid:
    """Uniform y-grid y_j = log 2 + j*h, j = 0..n-1; checkpoints at x = e^y."""

    h: float
    n: int

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.n < 1:
            raise ValueError(f"grid needs at least one point, got n={self.n}")

    @classmethod
    def from_xmax(cls, x_max: float, h: float = 0.01) -> "CheckpointGrid":
        if x_max < 2:
            raise ValueError(f"x_max must be at least 2, got {x_max}")
        n = int(math.floor((math.log(x_max) - LOG2) / h + 1e-12)) + 1
        return cls(h=h, n=n)

    @property
    def y(self) -> np.ndarray:
        return LOG2 + self.h * np.arange(self.n)

    @property
    def x(self) -> np.ndarray:
        return np.exp(self.y)

    @property
    def y_max(self) -> float:
        return LOG2 + self.h * (self.n - 1)

    @property
    def x_max(self) -> float:
        return math.exp(self.y_max)


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
        for i, a in enumerate(self.units):
            self.slot[a] = i
        nonprincipal = chars[1:]
        self.nchar = len(nonprincipal)
        self.char_labels = tuple(chi.label for chi in nonprincipal)
        # chi(p mod q) lookup, zero off the units
        self.chi_tab = np.stack([chi.values for chi in nonprincipal]) if self.nchar else np.zeros((0, q), np.complex128)
        # (nchar, nclass) tables of chi(a) and chi(a)^2 = chi(a^2), C-contiguous
        self.chi_class = np.ascontiguousarray(self.chi_tab[:, self.units])
        self.chi2_class = np.ascontiguousarray(self.chi_tab[:, [a * a % q for a in self.units]])
        # per class slot a: the characters with real chi(a), whose Euler-log
        # terms go through log1p, with -Re chi(a); the rest, with chi(a)
        self.euler_rows = []
        for a in self.units:
            z = self.chi_tab[:, a]
            real = z.imag == 0.0
            self.euler_rows.append(
                (np.flatnonzero(real), -z.real[real], np.flatnonzero(~real), z[~real]))


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
    char_eulerlog: np.ndarray  # (nchunks, nchar) complex128


def _race_terms(primes: np.ndarray, residues: np.ndarray, race: tuple[int, int],
                boundaries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One segment's race terms (race primes, terms, cut).

    residues is primes % q.  The race primes are the primes in classes
    race = (a, b), reduced mod q, in sieve order.  Row 0 of terms holds
    w = +1/sqrt(p) on a and -1/sqrt(p) on b and row 1 holds w*p, each behind
    a first column that _RaceFold fills with the carried sums.  cut[c]
    counts the race primes at or below boundaries[c].
    """
    a, b = race
    on_b = residues == b
    mask = (residues == a) | on_b
    p = primes[mask]
    terms = np.empty((2, len(p) + 1))
    w = terms[0, 1:]
    np.sqrt(p, out=w)
    # -1/sqrt(p) is exactly -(1/sqrt(p)): IEEE rounding is symmetric in sign
    np.divide(1.0 - 2.0 * on_b[mask], w, out=w)
    np.multiply(w, p, out=terms[1, 1:])
    return p, terms, np.searchsorted(p, boundaries, side="right")


def _segment_partial(
    primes: np.ndarray,
    lo: int,
    hi: int,
    boundaries: np.ndarray,
    layout: _Layout,
    residues: np.ndarray | None = None,
) -> _SegmentPartial:
    """Chunked sums over one segment; boundaries are checkpoint x-values.

    residues is primes % q, computed here when the caller has not.
    Reduction contract: every chunk value is one pairwise np.sum over a
    slice of one C-contiguous row of per-prime terms, and a chunk's Euler-log
    value adds the per-class values in class order.  The terms are built per
    class (invsqrt, theta, invp and the Euler-log rows) and each class-chunk
    of two or more primes is reduced with one axis=1 sum, so a segment costs
    O(chunks + nonempty class-chunks) numpy calls whatever the number of
    characters.  The class-chunks of one prime take their term columns with
    one gather per class: a one-element np.sum adds its element to +0.0,
    which returns the element for every double but -0.0, and no term is
    -0.0, so the contract and every bit hold.  Any future vectorisation has
    to keep the contract: np.add.reduceat sums sequentially and a
    Fortran-ordered block sums across rows, and both change the last bits.
    """
    nch = len(boundaries) + 1
    ncl, nchar = layout.nclass, layout.nchar
    counts = np.zeros((nch, ncl), dtype=np.int64)
    invsqrt = np.zeros((nch, ncl))
    theta = np.zeros((nch, ncl))
    invp = np.zeros((nch, ncl))
    ch_eul = np.zeros((nch, nchar), dtype=np.complex128)
    r = primes % layout.q if residues is None else residues
    pf = primes.astype(np.float64)
    s_all = 1.0 / np.sqrt(pf)
    for i, a in enumerate(layout.units):
        sel = np.flatnonzero(r == a)
        if not len(sel):
            continue
        pa = primes[sel]
        real, neg_re, cplx, z = layout.euler_rows[i]
        sa, pfa = s_all[sel], pf[sel]
        # rows: 1/sqrt(p), log p, 1/p, then -log(1 - chi(p)/sqrt(p)) terms
        terms = np.empty((3 + len(real), len(pa)))
        terms[0] = sa
        np.log(pfa, out=terms[1])
        np.divide(1.0, pfa, out=terms[2])
        np.log1p(neg_re[:, None] * sa, out=terms[3:])
        cterms = np.log(1.0 - z[:, None] * sa)
        ends = np.append(np.searchsorted(pa, boundaries, side="right"), len(pa))
        counts[:, i] = sizes = np.diff(ends, prepend=0)
        # the one-prime chunks take their term columns in one gather
        one = np.flatnonzero(sizes == 1)
        at = ends[one] - 1
        invsqrt[one, i], theta[one, i], invp[one, i] = terms[:3, at]
        ch_eul[np.ix_(one, real)] += -terms[3:, at].T
        ch_eul[np.ix_(one, cplx)] += -cterms[:, at].T
        prev = 0
        for c, e in enumerate(ends.tolist()):
            if e > prev + 1:
                sums = np.sum(terms[:, prev:e], axis=1)
                invsqrt[c, i], theta[c, i], invp[c, i] = sums[:3]
                ch_eul[c, real] += -sums[3:]
                ch_eul[c, cplx] += -np.sum(cterms[:, prev:e], axis=1)
            prev = e
    return _SegmentPartial(lo=lo, hi=hi, nchunks=nch, counts=counts, invsqrt=invsqrt,
                           theta=theta, invp=invp, char_eulerlog=ch_eul)


# ---------------------------------------------------------------------------
# checkpoints


def _weight_values(t, q: int) -> np.ndarray:
    if isinstance(t, (ClassFunction, Character)):
        if t.modulus != q:
            raise ValueError(f"modulus mismatch: tally mod {q}, weight mod {t.modulus}")
        return t.values
    raise TypeError(f"expected ClassFunction or Character, got {type(t).__name__}")


class CheckpointSeries:
    """A tally's snapshots, one entry per grid point snapshotted, in grid order.

    x and y are lists of the points' coordinates.  fields maps each row
    field to its entries: per class counts, invsqrt, theta and psi, and per
    nonprincipal character char_invsqrt, char_mertens and char_eulerlog.
    Grid point j is row j of every matrix below.  In a series from
    accumulate the entries are the read-only arrays TallyPartial.totals()
    returned, one object for consecutive points that nothing was folded
    into; in one from read_series_csv each field is the 2-D table parsed
    from the file.  A series may hold fewer points than its grid, as an
    interrupted run's does.
    """

    def __init__(self, q: int, grid: CheckpointGrid, units, char_labels, x, y, fields):
        self.q = q
        self.grid = grid
        self.units = tuple(units)
        self.char_labels = tuple(char_labels)
        self.x, self.y = x, y
        self.fields: dict[str, Sequence[np.ndarray]] = fields

    def __len__(self) -> int:
        return len(self.x)

    def _table(self, field: str) -> np.ndarray:
        """A field's entries as a matrix, row j for point j; with no point, a header-only CSV's (0, width) table."""
        entries = self.fields[field]
        if len(entries):
            return np.asarray(entries)
        chars = field.startswith("char_")
        dtype = np.complex128 if chars else np.int64 if field == "counts" else np.float64
        return np.empty((0, len(self.char_labels if chars else self.units)), dtype=dtype)

    @property
    def counts(self) -> np.ndarray:
        return self._table("counts")

    @property
    def invsqrt(self) -> np.ndarray:
        return self._table("invsqrt")

    @property
    def theta(self) -> np.ndarray:
        return self._table("theta")

    @property
    def psi(self) -> np.ndarray:
        return self._table("psi")

    def char_matrix(self, kind: str) -> np.ndarray:
        """Per-character sums of kind invsqrt, mertens or eulerlog, one row per point."""
        return self._table(f"char_{kind}")

    def weighted(self, t, table: str = "invsqrt") -> np.ndarray:
        """Per-checkpoint weighted class sums of one field, as a complex vector.

        Entry j of weighted(t, "invsqrt") is the sum over p <= x_j of
        t(p)/sqrt(p); "counts" and "theta" weigh t(p) and t(p) log p, and
        "psi" sums t(p^k mod q) log p over prime powers p^k <= x_j, so
        9 = 3*3 counts in the class of 9, not of 3.
        """
        vals = _weight_values(t, self.q)
        w = np.array([vals[a] for a in self.units])
        return self._table(table).astype(np.complex128) @ w


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
    """The race carried through a tally, one segment's _race_terms at a time.

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
    and resume all fold, merge and serialise through it.  sums maps each
    summed field to its exact sums as ints in units of 2**-1074 (exact.py):
    one per class for invsqrt, theta, psi and invp, and for char_eulerlog
    the real and the imaginary part of each character in turn, as the
    float64 view of a complex128 array lays them out.  The two character
    sums that are linear in the class sums are derived, not summed:
    totals() gives char_invsqrt = sum_a chi(a) invsqrt_a and char_mertens =
    sum_a chi(a)^2 invp_a, each as one axis=1 np.sum over the layout's
    C-contiguous (nchar, nclass) table, so no BLAS call sets their bits.
    totals() keeps its last arrays and recomputes only the stale entries,
    those folded since the previous call: an int that did not change
    rounds to the same double.
    """

    q: int
    lo: int
    hi: int
    layout: _Layout
    counts: list[int]
    sums: dict[str, list]
    _totals: dict[str, np.ndarray] = field(init=False, repr=False)
    _stale: dict[str, set[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self._totals = {}
        self._stale = {n: set(range(len(e))) for n, e in self.sums.items()}

    @property
    def units(self) -> tuple[int, ...]:
        return self.layout.units

    @classmethod
    def empty(cls, q: int, at: int = 2, *, layout: _Layout | None = None) -> "TallyPartial":
        layout = layout or _Layout(q)
        sums = {n: [0] * layout.nclass for n in _CLASS_FIELDS}
        sums["char_eulerlog"] = [0] * (2 * layout.nchar)
        return cls(q, at, at, layout, [0] * layout.nclass, sums)

    def fold(self, part: _SegmentPartial, c: int) -> None:
        """Add chunk c of a segment; its chunk 0 must start where this range ends.

        A chunk with no prime in a unit class holds exact zeros (chi vanishes
        off the units), which change no sum, so nothing is folded for it.
        """
        if c == 0:
            if part.lo != self.hi:
                raise TallyOrderError(
                    f"segment [{part.lo}, {part.hi}) arrived out of order; expected lo={self.hi}"
                )
            self.hi = part.hi
        row = part.counts[c].tolist()
        if not any(row):
            return
        sums, stale = self.sums, self._stale
        for i, n in enumerate(row):
            if n:
                self.counts[i] += n
                sums["invsqrt"][i] += exact(part.invsqrt[c, i])
                theta = exact(part.theta[c, i])
                sums["theta"][i] += theta
                sums["psi"][i] += theta
                sums["invp"][i] += exact(part.invp[c, i])
                for name in _CLASS_FIELDS:
                    stale[name].add(i)
        col = part.char_eulerlog[c].view(np.float64).tolist()  # re, im per character
        sums["char_eulerlog"] = [s + exact(v) for s, v in zip(sums["char_eulerlog"], col)]
        stale["char_eulerlog"].update(range(len(col)))

    def fold_powers(self, powers: Sequence[tuple[int, int, float]], start: int, x: float) -> int:
        """Add log p to psi for powers[start:] up to x; return the next index."""
        psi = self.sums["psi"]
        while start < len(powers) and powers[start][0] <= x:
            _v, slot, lg = powers[start]
            if slot >= 0:
                psi[slot] += exact(lg)
                self._stale["psi"].add(slot)
            start += 1
        return start

    def merge(self, other: "TallyPartial") -> "TallyPartial":
        """Add the sums of the adjacent range just above this one, in place."""
        self.hi = other.hi
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        for name, theirs in other.sums.items():
            self.sums[name] = [a + b for a, b in zip(self.sums[name], theirs)]
            self._stale[name].update(range(len(theirs)))
        return self

    def stale_classes(self) -> set[int]:
        """The class slots folded since the previous totals()."""
        return set().union(*(self._stale[n] for n in _CLASS_FIELDS))

    def totals(self) -> dict[str, np.ndarray]:
        """The totals of every field, as read-only arrays.

        A field with nothing folded since the previous call keeps the array
        that call returned, so consecutive snapshots share it.  counts and
        char_invsqrt are built again only when an invsqrt sum changed, and
        char_mertens only when an invp sum changed.
        """
        out = self._totals
        for name, sums in self.sums.items():
            stale = self._stale[name]
            if name in out and not stale:
                continue
            dtype = np.complex128 if name.startswith("char_") else np.float64
            arr = out[name].copy() if name in out else np.zeros(len(sums)).view(dtype)
            flat = arr.view(np.float64)  # a character's sums are its re, im pair
            for k in stale:
                flat[k] = rounded(sums[k])
            stale.clear()
            out[name] = arr
            if name == "invsqrt":  # fold and merge add to counts with invsqrt
                out["counts"] = np.array(self.counts, dtype=np.int64)
                out["char_invsqrt"] = np.sum(self.layout.chi_class * arr, axis=1)
            elif name == "invp":
                out["char_mertens"] = np.sum(self.layout.chi2_class * arr, axis=1)
        for arr in out.values():
            arr.flags.writeable = False
        return dict(out)

    def copy(self) -> "TallyPartial":
        return deepcopy(self, {id(self.layout): self.layout})

    def to_state(self) -> dict:
        """The exact sums as the sidecar's JSON "state" (format 3)."""
        eul = list(map(to_hex, self.sums["char_eulerlog"]))
        return {
            "counts": list(self.counts),
            "class": {n: list(map(to_hex, self.sums[n])) for n in _CLASS_FIELDS},
            "char": {"eulerlog": [eul[k:k + 2] for k in range(0, len(eul), 2)]},
            "expected_lo": self.hi,
        }

    @classmethod
    def from_state(cls, state: Mapping, q: int, *, layout: _Layout | None = None) -> "TallyPartial":
        """Inverse of to_state, for a range that starts at 2.

        Formats 1 and 2 also hold exact char invsqrt and mertens sums, which
        totals() derives and this does not read.  Older sidecars store
        expected_lo None when no segment was folded yet.
        """
        layout = layout or _Layout(q)
        sums = {n: list(map(from_hex, state["class"][n])) for n in _CLASS_FIELDS}
        sums["char_eulerlog"] = [from_hex(h) for pair in state["char"]["eulerlog"] for h in pair]
        return cls(q, 2, state["expected_lo"] or 2, layout, [int(c) for c in state["counts"]], sums)


def _power_terms(layout: _Layout, lo: int, hi: int) -> list[tuple[int, int, float]]:
    """(p^k, class slot or -1, log p) for the proper prime powers in [lo, hi), ascending."""
    return [(v, int(layout.slot[v % layout.q]), math.log(p))
            for v, p, _k in prime_powers(hi - 1) if v >= lo]


# ---------------------------------------------------------------------------
# persistence


def _csv_columns(units, char_labels) -> list[str]:
    cols = ["x", "y"]
    for a in units:
        cols += [f"n_{a}", f"invsqrt_{a}", f"theta_{a}", f"psi_{a}"]
    for label in char_labels:
        for name in _CHAR_FIELDS:
            cols += [f"chi_{label}_{name}_re", f"chi_{label}_{name}_im"]
    return cols


class _RowWriter:
    """The checkpoint CSV's data rows, one line per checkpoint in grid order.

    Keeps the previous row's text of each class block (n, invsqrt, theta
    and psi of one class) and of the character section (per character:
    invsqrt, mertens, eulerlog, each as re, im), and formats again only
    what changed: the class blocks of the slots in changed, and the
    character section when any of its three arrays is not the previous
    row's.  TallyPartial.totals() hands every snapshot the same arrays for
    a field that nothing was folded into, so no values are compared.
    """

    def __init__(self):
        self.chars: tuple = ()  # the previous row's character arrays
        self.blocks: list[str] = []
        self.text = ""

    def line(self, x: float, y: float, row: Mapping[str, np.ndarray], changed: Collection[int]) -> str:
        """The row at x, y of row's fields; changed holds the class slots that may differ from the last."""
        first = not self.chars
        if first:
            self.blocks = [""] * len(row["counts"])
            changed = range(len(self.blocks))
        if changed:
            n, s, t, p = (row[f].tolist() for f in ("counts", "invsqrt", "theta", "psi"))
            for i in changed:
                self.blocks[i] = f"{n[i]},{s[i]!r},{t[i]!r},{p[i]!r}"
        chars = tuple(row[f"char_{f}"] for f in _CHAR_FIELDS)
        if first or any(a is not b for a, b in zip(chars, self.chars)):
            cells = np.stack(chars, axis=1).view(np.float64).ravel().tolist()
            self.text = ",".join(["", *map(repr, cells)])
        self.chars = chars
        return f"{x!r},{y!r},{','.join(self.blocks)}{self.text}\n"


def write_series_csv(series: CheckpointSeries, path: str | Path) -> None:
    path = Path(path)
    rows = _RowWriter()
    with open(path, "w") as fh:
        fh.write(",".join(_csv_columns(series.units, series.char_labels)) + "\n")
        for j, (x, y) in enumerate(zip(series.x, series.y)):
            row = {f: entries[j] for f, entries in series.fields.items()}
            fh.write(rows.line(x, y, row, range(len(series.units))))


def read_series_csv(path: str | Path) -> CheckpointSeries:
    """The series of a checkpoint CSV, each field one read-only 2-D table.

    Every row must hold one cell per header column.  A header with no rows
    reads as an empty series on a one-point grid: a series may hold fewer
    points than its grid, as an interrupted run's does.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_rows = any(map(str.strip, fh))
    units = [int(c[2:]) for c in header if c.startswith("n_")]
    char_labels = [c[len("chi_"):-len("_invsqrt_re")] for c in header
                   if c.startswith("chi_") and c.endswith("_invsqrt_re")]
    if not units:
        raise ValueError(f"{path}: no per-class columns found")
    q = int(char_labels[0].split(".")[0]) if char_labels else max(units) + 1
    # numpy parses each cell to the double float() gives, -0.0 included, and
    # warns on a file with no rows
    data = (np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if has_rows
            else np.empty((0, len(header))))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows hold {data.shape[1]} cells, but the header has {len(header)} columns")
    col = {name: k for k, name in enumerate(header)}

    def columns(names) -> np.ndarray:
        return np.ascontiguousarray(data[:, [col[n] for n in names]])

    # per field, its column for every class, or its (re, im) pair for every character
    fields = {f: columns(f"{f}_{a}" for a in units) for f in ("invsqrt", "theta", "psi")}
    fields["counts"] = columns(f"n_{a}" for a in units).astype(np.int64)  # exact below 2^53
    for f in _CHAR_FIELDS:
        fields[f"char_{f}"] = columns(f"chi_{label}_{f}_{part}" for label in char_labels
                                      for part in ("re", "im")).view(np.complex128)
    for table in fields.values():
        table.flags.writeable = False
    ys = data[:, 1]
    if len(ys) > 1:
        h = float((ys[-1] - ys[0]) / (len(ys) - 1))
    else:
        h = 0.01
    grid = CheckpointGrid(h=h, n=max(len(ys), 1))
    return CheckpointSeries(q, grid, units, char_labels, data[:, 0].tolist(), ys.tolist(), fields)


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _write_sidecar(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


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
    flush_every: int = 64,
    max_segments: int | None = None,
) -> TallyResult:
    """Single pass over the primes, snapshotting the tally at every grid point.

    The segmented sieve drives the pass, optionally with a worker pool whose
    size never changes the output.  Each segment's chunks (split at grid
    points) fold into one TallyPartial, and the series takes its totals at
    every grid point: the read-only arrays totals() returned, shared by
    consecutive points that nothing was folded into.  race = (a, b), two
    distinct unit classes mod q, adds the race's RaceSummary over the primes
    below x_hi.  Each worker returns its segment's race terms and the fold
    takes one np.cumsum per segment, seeded with the totals carried from the
    segments before: np.cumsum adds sequentially, so the summary equals, bit
    for bit, the one that a single cumsum over every race prime in ascending
    order gives, for any segment_odds, thread count or resume point.
    persist writes the checkpoint CSV plus a JSON sidecar as the run goes,
    with the summary of the race, keyed by its reduced classes: format 3
    while the run is partial, and format 2 once it is complete, since a
    complete sidecar holds no state.  Each snapshot writes its CSV row at
    once; the sidecar, written every flush_every segments and at the end,
    counts the rows written so far, and a resume drops any row past that
    count.  resume=True continues a previously interrupted persisted run
    from the sidecar's state, after the rows read back from the CSV, or
    reads a finished one, whose series then holds the tables the CSV parses
    into; it reads formats 1 and 2 too.  A race the sidecar recorded is read
    back with it, and any other race is folded again from a re-sieve of the
    segments tallied so far and, on a finished run, recorded.  An
    interrupted run carries only the race it is resumed with.  The sieving
    primes and the prime powers are found only when a segment is sieved, so
    reading back a finished run with its race recorded finds no primes at
    all.  max_segments stops early after that many segments (the persisted
    state stays resumable).
    """
    layout = _Layout(q)
    if x_hi is None:
        x_hi = int(math.floor(grid.x_max)) + 1
    if grid.x_max >= x_hi:
        raise ValueError(
            f"grid reaches x={grid.x_max:.3f}; the sieved range must extend strictly past it, got {x_hi}"
        )
    if race is not None:
        race_weight(*race, q)  # two distinct unit classes, or ValueError
        race = (race[0] % q, race[1] % q)
        race_key = f"{race[0]},{race[1]}"  # its key in the sidecar's races
    grid_x = grid.x
    bounds = segment_bounds(2, x_hi, segment_odds)
    csv_path = Path(persist) if persist is not None else None
    meta_path = _sidecar_path(csv_path) if csv_path is not None else None
    state = TallyPartial.empty(q, layout=layout)
    race_fold = _RaceFold() if race is not None else None
    next_j = pw_ptr = 0  # next grid point to snapshot; prime powers folded
    start_idx = 0  # first segment to sieve
    # every grid point snapshotted, flushed ones too
    series = CheckpointSeries(q, grid, layout.units, layout.char_labels, [], [], {f: [] for f in _ROW_FIELDS})
    base = None  # the sieving primes, found only once a segment must be sieved

    def boundaries(a: int, b: int) -> np.ndarray:
        """The grid points in [a, b)."""
        return grid_x[np.searchsorted(grid_x, a, side="left"):np.searchsorted(grid_x, b, side="left")]

    def race_job(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        primes = sieve_segment(a, b, base)
        return _race_terms(primes, primes % q, race, boundaries(a, b))

    def race_summary() -> RaceSummary | None:
        return race_fold.summary(grid_x) if race_fold is not None else None

    if resume:
        if csv_path is None:
            raise ValueError("resume requires a persist path")
        if not meta_path.exists():
            raise ValueError(f"no sidecar at {meta_path} to resume from")
        with open(meta_path) as fh:
            meta = json.load(fh)
        # race is deliberately absent here: any race may be requested on
        # resume, and one the sidecar did not record is folded again
        expect = {"q": q, "h": grid.h, "n": grid.n, "segment_odds": segment_odds,
                  "x_hi": x_hi}
        got = {k: meta.get(k) for k in expect}
        if got != expect:
            raise ValueError(
                f"persisted run does not match the requested configuration: {got} != {expect}"
            )
        start_idx = len(bounds) if meta["complete"] else int(meta["next_segment_index"])
        recorded = race is not None and race_key in meta.get("races", {})
        if recorded:
            race_fold = _RaceFold.from_state(meta["races"][race_key])
        elif race is not None:
            base = simple_sieve(math.isqrt(x_hi - 1))
            for terms in ordered_map(race_job, bounds[:start_idx], threads):
                race_fold.fold(terms)
        if meta["complete"]:
            stored = read_series_csv(csv_path)
            if not len(stored) == meta["rows_written"] == grid.n:
                raise ValueError(
                    f"{csv_path} holds {len(stored)} rows, but its sidecar records "
                    f"{meta['rows_written']} for a grid of {grid.n} points"
                )
            if race is not None and not recorded:
                meta["format"] = 2
                meta.setdefault("races", {})[race_key] = race_fold.to_state()
                _write_sidecar(meta_path, meta)
            series.x, series.y, series.fields = stored.x, stored.y, stored.fields
            return TallyResult(series=series, race=race_summary(), completed=True, x_hi=x_hi)
        state = TallyPartial.from_state(meta["state"], q, layout=layout)
        next_j, pw_ptr = int(meta["state"]["next_j"]), int(meta["state"]["pw_ptr"])
        _truncate_csv(csv_path, int(meta["rows_written"]))
        stored = read_series_csv(csv_path)  # the rows flushed before; snapshots append to them
        series.x, series.y = stored.x, stored.y
        series.fields = {f: list(table) for f, table in stored.fields.items()}
    elif csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(",".join(_csv_columns(layout.units, layout.char_labels)) + "\n")
    if base is None:
        base = simple_sieve(math.isqrt(x_hi - 1))
    powers = _power_terms(layout, 2, x_hi)

    def job(a: int, b: int) -> tuple[_SegmentPartial, tuple | None]:
        primes = sieve_segment(a, b, base)
        residues = primes % q
        cuts = boundaries(a, b)
        # the race terms are built once the reduction's temporaries are freed
        part = _segment_partial(primes, a, b, cuts, layout, residues)
        return part, _race_terms(primes, residues, race, cuts) if race is not None else None

    rows = _RowWriter()

    def snapshot() -> None:
        """Snapshot the next grid point and, when persisting, write its row."""
        nonlocal next_j, pw_ptr
        x = float(grid_x[next_j])
        pw_ptr = state.fold_powers(powers, pw_ptr, x)
        y = float(LOG2 + grid.h * next_j)
        changed = state.stale_classes()
        row = state.totals()
        series.x.append(x)
        series.y.append(y)
        for f, entries in series.fields.items():
            entries.append(row[f])
        if csv is not None:
            csv.write(rows.line(x, y, row, changed))
        next_j += 1

    def flush(done_idx: int, complete: bool) -> None:
        csv.flush()  # every row the sidecar counts is in the file first
        next_lo = bounds[done_idx][0] if done_idx < len(bounds) else x_hi
        payload = {
            # format 3 changed only the state, which a complete sidecar omits
            "format": 2 if complete else 3, "q": q, "h": grid.h, "n": grid.n,
            "segment_odds": segment_odds, "x_hi": x_hi,
            "complete": complete, "next_segment_index": done_idx,
            "rows_written": len(series), "last_completed_prime": next_lo - 1,
        }
        if race_fold is not None:
            payload["races"] = {race_key: race_fold.to_state()}
        if not complete:
            payload["state"] = {**state.to_state(), "next_j": next_j, "pw_ptr": pw_ptr}
        _write_sidecar(meta_path, payload)

    todo = bounds[start_idx:]
    if max_segments is not None:
        todo = todo[: max(0, max_segments)]
    done_idx = start_idx
    since_flush = 0
    with open(csv_path, "a") if csv_path is not None else nullcontext() as csv:
        for part, terms in ordered_map(job, todo, threads):
            if race_fold is not None:
                race_fold.fold(terms)
                terms = None  # freed before the next segment is sieved
            for c in range(part.nchunks):
                state.fold(part, c)
                if c < part.nchunks - 1:
                    snapshot()
            done_idx += 1
            since_flush += 1
            if csv is not None and since_flush >= flush_every:
                flush(done_idx, complete=False)
                since_flush = 0

        # the segments tile [2, x_hi), which holds every grid point, so a
        # completed run has snapshotted them all
        completed = done_idx == len(bounds)
        if csv is not None:
            flush(done_idx, complete=completed)
    return TallyResult(series=series, race=race_summary(), completed=completed, x_hi=x_hi)


def _truncate_csv(csv_path: Path, rows: int) -> None:
    """Keep the header and the first rows data lines (crash cleanup)."""
    with open(csv_path) as fh:
        lines = fh.readlines()
    want = 1 + rows
    if len(lines) < want:
        raise ValueError(f"{csv_path} holds fewer rows than the sidecar claims")
    if len(lines) > want:
        with open(csv_path, "w") as fh:
            fh.writelines(lines[:want])


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
    layout = _Layout(q)
    out = TallyPartial.empty(q, lo, layout=layout)
    base = simple_sieve(math.isqrt(hi - 1))
    powers = _power_terms(layout, lo, hi)
    pw_ptr = 0
    none = np.empty(0, dtype=np.float64)

    def job(a: int, b: int) -> _SegmentPartial:
        return _segment_partial(sieve_segment(a, b, base), a, b, none, layout)

    for part in ordered_map(job, bounds, threads):
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
    return left.copy().merge(right)

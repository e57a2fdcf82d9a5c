"""Streaming tallies of weighted prime sums on a log-spaced checkpoint grid.

One pass over the primes up to x_max populates, for every grid point
x_j = exp(y_j), per-residue-class sums (counts, 1/sqrt(p), log p, and the
psi-style sums that also see proper prime powers) and per-character sums
(chi(p)/sqrt(p), chi(p^2)/p, and -log(1 - chi(p)/sqrt(p)) for the partial
Euler product on the critical line).

Segments are cut into chunks at grid points, each chunk is reduced with
np.sum, and one TallyPartial folds the per-chunk values by error-free
summation (Shewchuk partials): every total is the correctly rounded exact
sum of those per-chunk values.  Chunks depend on the segment width, so for
a fixed segment_odds any worker pool and any resumed run reproduce the
totals bit for bit; a merge does so only at a split on a segment boundary.

Each chunk value is one pairwise np.sum over a slice of one C-contiguous
row of per-prime terms (see _segment_partial).  The terms of all characters
sit in one block per class or per chunk, reduced with a single axis=1 sum,
so a segment costs O(chunks + nonempty class-chunks) numpy calls whatever
the number of characters; the exact fold then costs one Python-level add
per class and per character for each chunk that holds a prime.

A race (a, b) also yields the race stream: the primes of classes a and b in
sieve order, hence ascending, weighted +-1/sqrt(p), so no analysis sorts it.
"""
from __future__ import annotations

import json
import math
import os
from copy import deepcopy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .characters import (
    Character,
    ClassFunction,
    enumerate_characters,
    race_weight,
    unit_residues,
)
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
    "TallyCheckpoint",
    "CheckpointSeries",
    "TallyResult",
    "TallyPartial",
    "TallyOrderError",
    "ExactSum",
    "accumulate",
    "range_partial",
    "merge",
    "pi_half",
    "pi_weighted",
    "theta_of",
    "psi_of",
    "psi_char",
    "char_sum",
    "euler_product_partial",
    "mertens_chi_square",
    "write_series_csv",
    "read_series_csv",
]

LOG2 = math.log(2.0)

_CHAR_FIELDS = ("invsqrt", "mertens", "eulerlog")
_CLASS_FIELDS = ("invsqrt", "theta", "psi", "invp")


class TallyOrderError(RuntimeError):
    """An input stream violated the ascending-order contract."""


# ---------------------------------------------------------------------------
# exact summation


class ExactSum:
    """Error-free streaming sum of doubles.

    Keeps a list of non-overlapping partials (Shewchuk's algorithm, as in
    math.fsum); value() is the correctly rounded total.  The represented sum
    is exact, so folding order cannot change the outcome.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Iterable[float] = ()):  # noqa: D107
        self.partials = list(partials)

    def add(self, x: float) -> None:
        partials = self.partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in list(other.partials):
            self.add(p)

    def value(self) -> float:
        return math.fsum(self.partials) if self.partials else 0.0

    def copy(self) -> "ExactSum":
        return ExactSum(self.partials)

    def to_hex(self) -> list[str]:
        return [p.hex() for p in self.partials]

    @classmethod
    def from_hex(cls, hexes: Iterable[str]) -> "ExactSum":
        return cls(float.fromhex(h) for h in hexes)


class ExactComplexSum:
    """A pair of ExactSums for the real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: ExactSum | None = None, im: ExactSum | None = None):
        self.re = re or ExactSum()
        self.im = im or ExactSum()

    def add(self, z: complex) -> None:
        self.re.add(z.real)
        if z.imag:
            # zeros change no sum; a real character's imaginary part stays empty
            self.im.add(z.imag)

    def merge(self, other: "ExactComplexSum") -> None:
        self.re.merge(other.re)
        self.im.merge(other.im)

    def value(self) -> complex:
        return complex(self.re.value(), self.im.value())

    def to_hex(self) -> list[list[str]]:
        return [self.re.to_hex(), self.im.to_hex()]

    @classmethod
    def from_hex(cls, pair) -> "ExactComplexSum":
        return cls(ExactSum.from_hex(pair[0]), ExactSum.from_hex(pair[1]))


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
        # chi(p mod q) and chi(p^2 mod q) lookups, zero off the units
        self.chi_tab = np.stack([chi.values for chi in nonprincipal]) if self.nchar else np.zeros((0, q), np.complex128)
        chi2 = np.zeros((self.nchar, q), dtype=np.complex128)
        for j, chi in enumerate(nonprincipal):
            for a in self.units:
                chi2[j, a] = chi.values[(a * a) % q]
        self.chi2_tab = chi2
        # per class slot a: the characters with real chi(a), whose Euler-log
        # terms go through log1p, with -Re chi(a); the rest, with chi(a)
        self.euler_rows = []
        for a in self.units:
            z = self.chi_tab[:, a]
            real = z.imag == 0.0
            self.euler_rows.append(
                (np.flatnonzero(real), -z.real[real], np.flatnonzero(~real), z[~real]))


# Most terms in one char_invsqrt or char_mertens block (see _segment_partial)
_BLOCK_TERMS = 1 << 20


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
    char_invsqrt: np.ndarray  # (nchunks, nchar) complex128
    char_mertens: np.ndarray
    char_eulerlog: np.ndarray
    race: tuple[np.ndarray, np.ndarray] | None  # this segment's slice of the race stream


def _race_slice(primes: np.ndarray, r: np.ndarray, race: tuple[int, int],
                s: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One segment's slice of the race stream, from its primes and residues r.

    The primes in classes race = (a, b) as float64, weighted +1/sqrt(p) on a
    and -1/sqrt(p) on b; s, 1/sqrt(p) for every prime, spares the roots.
    """
    a, b = race
    sel = np.flatnonzero((r == a) | (r == b))
    pos = primes[sel].astype(np.float64)
    w = s[sel] if s is not None else 1.0 / np.sqrt(pos)
    np.negative(w, out=w, where=r[sel] == b)
    return pos, w


def _segment_partial(
    primes: np.ndarray,
    lo: int,
    hi: int,
    boundaries: np.ndarray,
    layout: _Layout,
    race: tuple[int, int] | None = None,
) -> _SegmentPartial:
    """Chunked sums over one segment; boundaries are checkpoint x-values.

    Reduction contract: every chunk value is one pairwise np.sum over a
    slice of one C-contiguous row of per-prime terms, and a chunk's Euler-log
    value adds the per-class values in class order.  The terms are built per
    class (invsqrt, theta, invp and the Euler-log rows) or per chunk (the
    char_invsqrt and char_mertens blocks) and each chunk is reduced with one
    axis=1 sum per block, so a segment costs O(chunks + nonempty
    class-chunks) numpy calls whatever the number of characters.  Any future
    vectorisation has to keep the contract: np.add.reduceat sums
    sequentially and a Fortran-ordered block sums across rows, and both
    change the last bits.  A chunk spans a whole segment where a grid step
    is wider than the segment, so per-chunk blocks take the characters in
    row groups of at most _BLOCK_TERMS terms (or one row), which changes no
    row's sum.  race = (a, b), reduced residues, adds the race stream slice.
    """
    nch = len(boundaries) + 1
    ncl, nchar = layout.nclass, layout.nchar
    counts = np.zeros((nch, ncl), dtype=np.int64)
    invsqrt = np.zeros((nch, ncl))
    theta = np.zeros((nch, ncl))
    invp = np.zeros((nch, ncl))
    ch_inv = np.zeros((nch, nchar), dtype=np.complex128)
    ch_mer = np.zeros((nch, nchar), dtype=np.complex128)
    ch_eul = np.zeros((nch, nchar), dtype=np.complex128)
    r = primes % layout.q
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
        counts[:, i] = np.diff(ends, prepend=0)
        prev = 0
        for c, e in enumerate(ends.tolist()):
            if e > prev:
                sums = np.sum(terms[:, prev:e], axis=1)
                invsqrt[c, i], theta[c, i], invp[c, i] = sums[:3]
                ch_eul[c, real] += -sums[3:]
                ch_eul[c, cplx] += -np.sum(cterms[:, prev:e], axis=1)
            prev = e
    if nchar and len(primes):
        ends = np.append(np.searchsorted(primes, boundaries, side="right"), len(primes))
        prev = 0
        for c, e in enumerate(ends.tolist()):
            if e > prev:
                rc, sc, pc = r[prev:e], s_all[prev:e], pf[prev:e]
                step = max(1, _BLOCK_TERMS // (e - prev))
                for j in range(0, nchar, step):
                    rows = slice(j, j + step)
                    ch_inv[c, rows] = np.sum(np.take(layout.chi_tab[rows], rc, axis=1) * sc, axis=1)
                    ch_mer[c, rows] = np.sum(np.take(layout.chi2_tab[rows], rc, axis=1) / pc, axis=1)
            prev = e
    return _SegmentPartial(
        lo=lo, hi=hi, nchunks=nch,
        counts=counts, invsqrt=invsqrt, theta=theta, invp=invp,
        char_invsqrt=ch_inv, char_mertens=ch_mer, char_eulerlog=ch_eul,
        race=_race_slice(primes, r, race, s_all) if race is not None else None,
    )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True, eq=False)
class TallyCheckpoint:
    """Accumulated sums over primes (and prime powers, for psi) up to x."""

    q: int
    x: float
    y: float
    units: tuple[int, ...]
    char_labels: tuple[str, ...]
    counts: np.ndarray
    invsqrt: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    char_invsqrt: np.ndarray
    char_mertens: np.ndarray
    char_eulerlog: np.ndarray
    invp: np.ndarray | None = None  # per-class sum 1/p; not persisted to CSV

    def class_index(self, a: int) -> int:
        try:
            return self.units.index(a % self.q)
        except ValueError:
            raise ValueError(f"residue {a} is not a unit mod {self.q}") from None

    def char_column(self, chi: Character) -> int:
        if chi.modulus != self.q:
            raise ValueError(f"modulus mismatch: checkpoint mod {self.q}, character mod {chi.modulus}")
        if chi.is_principal:
            raise ValueError("principal character has no stored column")
        return self.char_labels.index(chi.label)


def _weight_values(t, q: int) -> np.ndarray:
    if isinstance(t, (ClassFunction, Character)):
        if t.modulus != q:
            raise ValueError(f"modulus mismatch: tally mod {q}, weight mod {t.modulus}")
        return t.values
    raise TypeError(f"expected ClassFunction or Character, got {type(t).__name__}")


def _class_combination(ckpt: TallyCheckpoint, table: np.ndarray, t) -> complex:
    vals = _weight_values(t, ckpt.q)
    total = 0j
    for i, a in enumerate(ckpt.units):
        total += vals[a] * table[i]
    return total


def pi_half(ckpt: TallyCheckpoint, t) -> complex:
    """Weighted count sum_{p <= x} t(p) / sqrt(p)."""
    return _class_combination(ckpt, ckpt.invsqrt, t)


def pi_weighted(ckpt: TallyCheckpoint, t) -> complex:
    """Plain weighted count sum_{p <= x} t(p)."""
    return _class_combination(ckpt, ckpt.counts.astype(np.float64), t)


def theta_of(ckpt: TallyCheckpoint, t) -> complex:
    """sum_{p <= x} t(p) log p."""
    return _class_combination(ckpt, ckpt.theta, t)


def psi_of(ckpt: TallyCheckpoint, t) -> complex:
    """sum over prime powers p^k <= x of t(p^k mod q) log p.

    The weight sees the residue of the prime power itself, so 9 = 3*3
    contributes t(9 mod q), not t(3 mod q).
    """
    return _class_combination(ckpt, ckpt.psi, t)


def psi_char(ckpt: TallyCheckpoint, chi: Character) -> complex:
    """psi twisted by a character, via the per-class sums."""
    return _class_combination(ckpt, ckpt.psi, chi)


def char_sum(ckpt: TallyCheckpoint, chi: Character, kind: str) -> complex:
    """Stored per-character sum: kind is invsqrt, mertens, or eulerlog."""
    col = ckpt.char_column(chi)
    table = {
        "invsqrt": ckpt.char_invsqrt,
        "mertens": ckpt.char_mertens,
        "eulerlog": ckpt.char_eulerlog,
    }[kind]
    return complex(table[col])


def euler_product_partial(ckpt: TallyCheckpoint, chi: Character, vanishing_order: int = 0) -> complex:
    """(log x)^m * prod_{p <= x} (1 - chi(p)/sqrt(p))^(-1), evaluated in log space."""
    if chi.is_principal:
        raise ValueError("Euler product on the critical line needs a nonprincipal character")
    if vanishing_order < 0:
        raise ValueError("vanishing order must be nonnegative")
    col = ckpt.char_column(chi)
    log_f = complex(ckpt.char_eulerlog[col])
    scale = math.log(ckpt.x) ** vanishing_order
    return scale * complex(np.exp(log_f))


def mertens_chi_square(ckpt: TallyCheckpoint, chi: Character) -> complex:
    """sum_{p <= x} chi(p^2) / p."""
    col = ckpt.char_column(chi)
    return complex(ckpt.char_mertens[col])


class CheckpointSeries:
    """Checkpoints for every grid point, with matrix views for analysis."""

    def __init__(self, q: int, grid: CheckpointGrid, units, char_labels, checkpoints):
        self.q = q
        self.grid = grid
        self.units = tuple(units)
        self.char_labels = tuple(char_labels)
        self.checkpoints = list(checkpoints)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def __iter__(self):
        return iter(self.checkpoints)

    def __getitem__(self, i) -> TallyCheckpoint:
        return self.checkpoints[i]

    def _stack(self, attr: str) -> np.ndarray:
        return np.stack([getattr(c, attr) for c in self.checkpoints])

    @property
    def counts(self) -> np.ndarray:
        return self._stack("counts")

    @property
    def invsqrt(self) -> np.ndarray:
        return self._stack("invsqrt")

    @property
    def theta(self) -> np.ndarray:
        return self._stack("theta")

    @property
    def psi(self) -> np.ndarray:
        return self._stack("psi")

    def char_matrix(self, kind: str) -> np.ndarray:
        return self._stack(f"char_{kind}")

    def weighted(self, t, table: str = "invsqrt") -> np.ndarray:
        """Per-checkpoint weighted class sums, as a complex vector."""
        vals = _weight_values(t, self.q)
        w = np.array([vals[a] for a in self.units])
        mat = getattr(self, table)
        return mat.astype(np.complex128) @ w


@dataclass(eq=False)
class TallyResult:
    """accumulate() output: the series, the race stream, run status.

    race is (positions, weights) over the primes below x_hi, as accumulate
    describes, or None when no race was asked for.
    """

    series: CheckpointSeries
    race: tuple[np.ndarray, np.ndarray] | None
    completed: bool
    x_hi: int


# ---------------------------------------------------------------------------
# the exact tally state


@dataclass(eq=False)
class TallyPartial:
    """Exact sums over the primes (and prime powers) in one range [lo, hi).

    The one holder of exact tally state: accumulate, range_partial, merge
    and resume all fold, merge and serialise through it.  sums maps each
    summed TallyCheckpoint field to one ExactSum per class (invsqrt, theta,
    psi, invp) or one ExactComplexSum per character (char_*).  totals()
    keeps the last value() of every sum and recomputes only the stale ones,
    those folded since the previous call: value() depends only on the
    partials, so a cached value is the value.
    """

    q: int
    lo: int
    hi: int
    units: tuple[int, ...]
    char_labels: tuple[str, ...]
    counts: list[int]
    sums: dict[str, list]
    _values: dict[str, list] = field(init=False, repr=False)
    _stale: dict[str, set[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self._values = {n: [None] * len(e) for n, e in self.sums.items()}
        self._stale = {n: set(range(len(e))) for n, e in self.sums.items()}

    @classmethod
    def empty(cls, q: int, at: int = 2, *, layout: _Layout | None = None) -> "TallyPartial":
        layout = layout or _Layout(q)
        sums = {n: [ExactSum() for _ in layout.units] for n in _CLASS_FIELDS}
        sums.update({"char_" + n: [ExactComplexSum() for _ in layout.char_labels] for n in _CHAR_FIELDS})
        return cls(q, at, at, layout.units, layout.char_labels, [0] * layout.nclass, sums)

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
                sums["invsqrt"][i].add(part.invsqrt[c, i])
                sums["theta"][i].add(part.theta[c, i])
                sums["psi"][i].add(part.theta[c, i])
                sums["invp"][i].add(part.invp[c, i])
                for name in _CLASS_FIELDS:
                    stale[name].add(i)
        for name in _CHAR_FIELDS:
            col = getattr(part, "char_" + name)[c].tolist()
            for e, z in zip(sums["char_" + name], col):
                e.add(z)
            stale["char_" + name].update(range(len(col)))

    def fold_powers(self, powers: Sequence[tuple[int, int, float]], start: int, x: float) -> int:
        """Add log p to psi for powers[start:] up to x; return the next index."""
        psi = self.sums["psi"]
        while start < len(powers) and powers[start][0] <= x:
            _v, slot, lg = powers[start]
            if slot >= 0:
                psi[slot].add(lg)
                self._stale["psi"].add(slot)
            start += 1
        return start

    def merge(self, other: "TallyPartial") -> "TallyPartial":
        """Add the sums of the adjacent range just above this one, in place."""
        self.hi = other.hi
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        for name, sums in self.sums.items():
            for e, f in zip(sums, other.sums[name]):
                e.merge(f)
            self._stale[name].update(range(len(sums)))
        return self

    def totals(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"counts": np.array(self.counts, dtype=np.int64)}
        for name, sums in self.sums.items():
            values, stale = self._values[name], self._stale[name]
            for k in stale:
                values[k] = sums[k].value()
            stale.clear()
            dtype = np.complex128 if name.startswith("char_") else np.float64
            out[name] = np.array(values, dtype=dtype)
        return out

    def copy(self) -> "TallyPartial":
        return deepcopy(self)

    def to_state(self) -> dict:
        """The exact sums as the sidecar's JSON "state" (format 1)."""
        return {
            "counts": list(self.counts),
            "class": {n: [e.to_hex() for e in self.sums[n]] for n in _CLASS_FIELDS},
            "char": {n: [e.to_hex() for e in self.sums["char_" + n]] for n in _CHAR_FIELDS},
            "expected_lo": self.hi,
        }

    @classmethod
    def from_state(cls, state: Mapping, q: int, *, layout: _Layout | None = None) -> "TallyPartial":
        """Inverse of to_state, for a range that starts at 2.

        Older sidecars store expected_lo None when no segment was folded yet.
        """
        layout = layout or _Layout(q)
        sums = {n: [ExactSum.from_hex(h) for h in state["class"][n]] for n in _CLASS_FIELDS}
        sums.update({"char_" + n: [ExactComplexSum.from_hex(h) for h in state["char"][n]]
                     for n in _CHAR_FIELDS})
        return cls(q, 2, state["expected_lo"] or 2, layout.units, layout.char_labels,
                   [int(c) for c in state["counts"]], sums)


def _power_terms(layout: _Layout, lo: int, hi: int) -> list[tuple[int, int, float]]:
    """(p^k, class slot or -1, log p) for the proper prime powers in [lo, hi), ascending."""
    return [(v, int(layout.slot[v % layout.q]), math.log(p))
            for v, p, _k in prime_powers(hi - 1) if v >= lo]


def _base_primes(hi: int) -> np.ndarray:
    """Sieving primes for every segment below hi."""
    return simple_sieve(math.isqrt(hi - 1)) if hi > 4 else np.array([2], dtype=np.int64)


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


def _format_row(ck: TallyCheckpoint) -> str:
    parts = [repr(ck.x), repr(ck.y)]
    for n, s, t, p in zip(ck.counts.tolist(), ck.invsqrt.tolist(),
                          ck.theta.tolist(), ck.psi.tolist()):
        parts += [str(n), repr(s), repr(t), repr(p)]
    # per character: invsqrt, mertens, eulerlog, each as (re, im)
    chars = np.stack([ck.char_invsqrt, ck.char_mertens, ck.char_eulerlog], axis=1)
    parts += map(repr, chars.view(np.float64).ravel().tolist())
    return ",".join(parts)


def write_series_csv(series: CheckpointSeries, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(_csv_columns(series.units, series.char_labels)) + "\n")
        for ck in series.checkpoints:
            fh.write(_format_row(ck) + "\n")


def read_series_csv(path: str | Path) -> CheckpointSeries:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    units = [int(c[2:]) for c in header if c.startswith("n_")]
    char_labels = []
    for c in header:
        if c.startswith("chi_") and c.endswith("_invsqrt_re"):
            char_labels.append(c[len("chi_"):-len("_invsqrt_re")])
    if not units:
        raise ValueError(f"{path}: no per-class columns found")
    q = int(char_labels[0].split(".")[0]) if char_labels else max(units) + 1
    ncl, nchar = len(units), len(char_labels)
    checkpoints = []
    for row in rows:
        vals = row
        x, y = float(vals[0]), float(vals[1])
        counts = np.array([int(vals[2 + 4 * i]) for i in range(ncl)], dtype=np.int64)
        invsqrt = np.array([float(vals[3 + 4 * i]) for i in range(ncl)])
        theta = np.array([float(vals[4 + 4 * i]) for i in range(ncl)])
        psi = np.array([float(vals[5 + 4 * i]) for i in range(ncl)])
        base = 2 + 4 * ncl
        cvals = []
        for j in range(nchar):
            trip = []
            for k in range(3):
                re = float(vals[base + 6 * j + 2 * k])
                im = float(vals[base + 6 * j + 2 * k + 1])
                trip.append(complex(re, im))
            cvals.append(trip)
        checkpoints.append(
            TallyCheckpoint(
                q=q, x=x, y=y, units=tuple(units), char_labels=tuple(char_labels),
                counts=counts, invsqrt=invsqrt, theta=theta, psi=psi,
                char_invsqrt=np.array([c[0] for c in cvals], dtype=np.complex128),
                char_mertens=np.array([c[1] for c in cvals], dtype=np.complex128),
                char_eulerlog=np.array([c[2] for c in cvals], dtype=np.complex128),
            )
        )
    ys = np.array([c.y for c in checkpoints])
    if len(ys) > 1:
        h = float((ys[-1] - ys[0]) / (len(ys) - 1))
    else:
        h = 0.01
    grid = CheckpointGrid(h=h, n=len(ys))
    return CheckpointSeries(q, grid, units, char_labels, checkpoints)


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
    """Single pass over the primes, emitting one checkpoint per grid point.

    The segmented sieve drives the pass, optionally with a worker pool whose
    size never changes the output.  Each segment's chunks (split at grid
    points) fold into one TallyPartial, whose totals are snapshotted at
    every grid point.  race = (a, b), two distinct unit classes mod q,
    returns the race stream (for exact step-function work): the primes of
    both classes in sieve order as float64 positions, weighted +1/sqrt(p)
    on a and -1/sqrt(p) on b.  persist writes the checkpoint CSV plus a
    JSON sidecar as the run goes, and resume=True continues a previously
    interrupted persisted run from the sidecar's state, re-sieving the
    tallied segments only to rebuild a race stream; max_segments stops
    early after that many segments (the persisted state stays resumable).
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
    grid_x = grid.x
    powers = _power_terms(layout, 2, x_hi)
    bounds = list(segment_bounds(2, x_hi, segment_odds))
    csv_path = Path(persist) if persist is not None else None
    meta_path = _sidecar_path(csv_path) if csv_path is not None else None
    state = TallyPartial.empty(q, layout=layout)
    next_j = pw_ptr = 0  # next grid point to snapshot; prime powers folded
    start_idx = rows_written = 0  # first segment to sieve; data rows in the CSV
    base = _base_primes(x_hi)
    race_parts = [(np.empty(0), np.empty(0))]  # the race stream's slices, in order

    def race_job(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        primes = sieve_segment(a, b, base)
        return _race_slice(primes, primes % q, race)

    def race_stream() -> tuple[np.ndarray, np.ndarray] | None:
        return tuple(map(np.concatenate, zip(*race_parts))) if race is not None else None

    if resume:
        if csv_path is None:
            raise ValueError("resume requires a persist path")
        if not meta_path.exists():
            raise ValueError(f"no sidecar at {meta_path} to resume from")
        with open(meta_path) as fh:
            meta = json.load(fh)
        # race is deliberately absent here: the stream is never persisted,
        # so any race may be requested on resume
        expect = {"q": q, "h": grid.h, "n": grid.n, "segment_odds": segment_odds,
                  "x_hi": x_hi}
        got = {k: meta.get(k) for k in expect}
        if got != expect:
            raise ValueError(
                f"persisted run does not match the requested configuration: {got} != {expect}"
            )
        start_idx = len(bounds) if meta["complete"] else int(meta["next_segment_index"])
        if race is not None:
            race_parts += ordered_map(race_job, bounds[:start_idx], threads)
        if meta["complete"]:
            stored = read_series_csv(csv_path)
            series = CheckpointSeries(q, grid, layout.units, layout.char_labels, stored.checkpoints)
            return TallyResult(series=series, race=race_stream(), completed=True, x_hi=x_hi)
        rows_written = int(meta["rows_written"])
        state = TallyPartial.from_state(meta["state"], q, layout=layout)
        next_j, pw_ptr = int(meta["state"]["next_j"]), int(meta["state"]["pw_ptr"])
        _truncate_csv(csv_path, rows_written)
    elif csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(",".join(_csv_columns(layout.units, layout.char_labels)) + "\n")

    row_offset = rows_written  # rows an earlier process flushed
    checkpoints: list[TallyCheckpoint] = []  # rows from this process only

    def job(a: int, b: int) -> _SegmentPartial:
        primes = sieve_segment(a, b, base)
        j_lo = int(np.searchsorted(grid_x, a, side="left"))
        j_hi = int(np.searchsorted(grid_x, b, side="left"))
        return _segment_partial(primes, a, b, grid_x[j_lo:j_hi], layout, race)

    def snapshot() -> None:
        nonlocal next_j, pw_ptr
        pw_ptr = state.fold_powers(powers, pw_ptr, float(grid_x[next_j]))
        checkpoints.append(TallyCheckpoint(
            q=q, x=float(grid_x[next_j]), y=float(LOG2 + grid.h * next_j),
            units=layout.units, char_labels=layout.char_labels, **state.totals(),
        ))
        next_j += 1

    def flush(done_idx: int, complete: bool) -> None:
        nonlocal rows_written
        new_rows = checkpoints[rows_written - row_offset:]
        if new_rows:
            with open(csv_path, "a") as fh:
                for ck in new_rows:
                    fh.write(_format_row(ck) + "\n")
            rows_written += len(new_rows)
        next_lo = bounds[done_idx][0] if done_idx < len(bounds) else x_hi
        payload = {
            "format": 1, "q": q, "h": grid.h, "n": grid.n,
            "segment_odds": segment_odds, "x_hi": x_hi,
            "complete": complete, "next_segment_index": done_idx,
            "rows_written": rows_written, "last_completed_prime": next_lo - 1,
        }
        if not complete:
            payload["state"] = {**state.to_state(), "next_j": next_j, "pw_ptr": pw_ptr}
        _write_sidecar(meta_path, payload)

    todo = bounds[start_idx:]
    if max_segments is not None:
        todo = todo[: max(0, max_segments)]
    done_idx = start_idx
    since_flush = 0
    for part in ordered_map(job, todo, threads):
        for c in range(part.nchunks):
            state.fold(part, c)
            if c < part.nchunks - 1:
                snapshot()
        if race is not None:
            race_parts.append(part.race)
        done_idx += 1
        since_flush += 1
        if csv_path is not None and since_flush >= flush_every:
            flush(done_idx, complete=False)
            since_flush = 0

    completed = done_idx == len(bounds)
    if completed:
        while next_j < grid.n:
            # grid points at or beyond the final segment boundary
            snapshot()
    if csv_path is not None:
        flush(done_idx, complete=completed)
        if row_offset and completed:
            # a resumed run holds only the new rows in memory; the CSV has them all
            checkpoints = read_series_csv(csv_path).checkpoints
    series = CheckpointSeries(q, grid, layout.units, layout.char_labels, checkpoints)
    return TallyResult(series=series, race=race_stream(), completed=completed, x_hi=x_hi)


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
    if lo < 2:
        raise ValueError(f"range must start at 2 or above, got {lo}")
    if hi < lo:
        raise ValueError(f"inverted range [{lo}, {hi})")
    layout = _Layout(q)
    out = TallyPartial.empty(q, lo, layout=layout)
    if hi == lo:
        return out
    base = _base_primes(hi)
    powers = _power_terms(layout, lo, hi)
    pw_ptr = 0
    none = np.empty(0, dtype=np.float64)

    def job(a: int, b: int) -> _SegmentPartial:
        return _segment_partial(sieve_segment(a, b, base), a, b, none, layout)

    for part in ordered_map(job, list(segment_bounds(lo, hi, segment_odds)), threads):
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

"""Exact sums of doubles, held as integers.

Every finite double is an integer multiple of 2**-1074, so exact(x) ints
add exactly in any order and rounded(n) is their correctly rounded double.
ExactSums keeps a table of such sums and folds a batch of rows at once.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["exact", "rounded", "to_hex", "from_hex", "ExactSums"]

_UNIT = 1 << 1074  # 1.0 in units of 2**-1074


def exact(x: float) -> int:
    """x as an integer multiple of 2**-1074; exact for every finite double."""
    n, d = x.as_integer_ratio()  # d = 2**e with e <= 1074
    return n << (1075 - d.bit_length())


def rounded(n: int) -> float:
    """The double nearest n * 2**-1074, ties to even."""
    return n / _UNIT


def to_hex(n: int) -> list[str]:
    """float.hex strings of doubles whose exact sum is n * 2**-1074; none for 0."""
    hexes = []
    while n:
        x = rounded(n)
        hexes.append(x.hex())
        n -= exact(x)
    return hexes


def from_hex(hexes: Iterable[str]) -> int:
    """The exact sum of a list of float.hex strings, in units of 2**-1074."""
    return sum(exact(float.fromhex(h)) for h in hexes)


class ExactSums:
    """Exact sums of doubles, one per column, at one binary exponent e, and vals, their rounded doubles.

    While every sum n * 2**e fits, |n| < 2**105, it is held as int64 limbs,
    n = hi * 2**52 + lo with 0 <= lo < 2**52 (limbs: the (2, w) array of hi
    and lo).  A batch's running sums are then int64 cumsums and one carry,
    and hi * 2**(52 + e) and lo * 2**e are exact doubles whose IEEE sum is
    n * 2**e correctly rounded.  Otherwise the sums are Python ints, added
    with one np.cumsum down an object table and rounded one at a time.
    ints reads the limbs out as Python ints when asked; neither form
    changes in place, so objects may share them.
    """

    def __init__(self, ints: np.ndarray, e: int = 0):
        self._ints, self.limbs, self.e = ints, None, e
        self.vals = self._rounded(ints)

    def _rounded(self, ints: np.ndarray) -> np.ndarray:
        """The doubles nearest each n * 2**e of an object array of ints; +0.0 for 0, as rounded(0) is."""
        shift = self.e + 1074
        return np.array([rounded(n << shift) if n else 0.0 for n in ints.ravel().tolist()], np.float64).reshape(ints.shape)

    @property
    def ints(self) -> np.ndarray:
        """The sums as an object array of Python ints n, each standing for n * 2**e."""
        if self._ints is None:
            self._ints = (self.limbs[0].astype(object) << 52) + self.limbs[1].astype(object)
        return self._ints

    def add(self, deltas: np.ndarray, at: Sequence[int]) -> np.ndarray:
        """Add the rows of deltas, a (k, w) array of finite doubles, in turn.

        Returns the rounded sums after the first at[j] rows, for each j, as
        a (len(at), w) table; each sum is rounded once per row.  A zero
        delta, -0.0 included, adds 0.  The exponent drops to the last bit of
        any delta (its ulp: 2**-1074 for a subnormal).  The limbs take the
        batch when they and the deltas fit and it has fewer than 1000 rows,
        so that no int64 sum overflows; any other batch takes Python ints.
        """
        # the limb path calls few distinct numpy loops: the first call of each
        # maps more of numpy's library, which counts in a pass's peak memory.
        # 2**(exps - 1) <= |x| < 2**exps, and x's last bit is 2**(exps - 53), or 2**-1074 if that is less
        exps, nz = np.frexp(deltas)[1], deltas != 0
        e = min(self.e, max(int(exps.min(initial=53, where=nz)) - 53, -1074))
        if e < self.e:
            self._ints, self.limbs, self.e = self.ints << (self.e - e), None, e
        ints = [] if self.limbs is not None else self.ints.tolist()
        if ints and max(map(abs, ints)) < 1 << 104:
            self.limbs = np.array([[n >> 52 for n in ints], [n & (1 << 52) - 1 for n in ints]], dtype=np.int64)
        if self.limbs is not None and len(deltas) < 1000 and exps.max(initial=-1074, where=nz) <= 104 + e:
            # the kept rows are copied and the temporaries made in place, so
            # that no batch leaves a block of its own alive in the heap
            sums = np.empty((2, len(deltas) + 1, len(self.vals)), dtype=np.int64)
            sums[:, 0] = self.limbs
            v = np.ldexp(deltas, -e)  # each delta as an integer below 2**104, exactly
            sums[0, 1:] = np.ldexp(v, -52)  # truncated toward 0
            sums[1, 1:] = v - np.ldexp(sums[0, 1:].astype(np.float64), 52)  # |lo| < 2**52, until the carry
            np.cumsum(sums, axis=1, out=sums)
            carry = sums[1] >> 52
            sums[0] += carry
            sums[1] -= carry << 52
            if -2**53 < sums[0].min(initial=0) and sums[0].max(initial=0) < 2**53:
                self.limbs, self._ints = sums[:, -1].copy(), None
                near = sums[0].astype(np.float64)
                np.ldexp(near, 52 + e, out=near)
                near += np.ldexp(sums[1].astype(np.float64), e)
                self.vals = near[-1].copy()
                return near[at]
        k = np.maximum(exps - 53, -1074)
        ints = np.ldexp(deltas, -k).astype(np.int64).astype(object) << np.where(nz, k - e, 0)  # exact: below 2**53
        sums = np.cumsum(np.concatenate([self.ints[None], ints]), axis=0)
        self._ints, self.limbs = sums[-1], None
        near = self._rounded(sums[[*at, -1]])  # only the rows asked for, and the last
        self.vals = near[-1]
        return near[:-1]

    def __iadd__(self, other: "ExactSums") -> "ExactSums":
        e = min(self.e, other.e)
        self.__init__((self.ints << (self.e - e)) + (other.ints << (other.e - e)), e)
        return self

    def units(self) -> list[int]:
        """The sums in units of 2**-1074."""
        return [n << (self.e + 1074) for n in self.ints.tolist()]

    @classmethod
    def from_units(cls, units: Sequence[int]) -> "ExactSums":
        """Sums given in units of 2**-1074, at the largest exponent up to 0 that keeps them whole."""
        shift = min([(n & -n).bit_length() - 1 for n in units if n] + [1074])
        return cls(np.array([n >> shift for n in units], dtype=object), shift - 1074)

"""Error-free streaming sums of doubles, for the exact tally fold."""
from __future__ import annotations

import math
from typing import Iterable


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

"""Exact sums of doubles, held as Python ints in units of 2**-1074.

Every finite double is an integer multiple of 2**-1074, the smallest
subnormal, so a sum of exact(x) ints is exact in any order, and rounded(n)
is its correctly rounded double, as CPython's int / int is.  The sidecar
holds a sum as a list of float.hex strings (to_hex, from_hex).
"""
from __future__ import annotations

from typing import Iterable

__all__ = ["exact", "rounded", "to_hex", "from_hex"]

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

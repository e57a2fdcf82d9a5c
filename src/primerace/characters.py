"""Dirichlet characters and class functions on the units mod q.

A character is stored as a table of exact root-of-unity exponents over the
exponent n of the unit group: chi(a) = zeta_n ** exp[a].  Multiplication and
conjugation are integer arithmetic on exponents, so multiplicativity holds
exactly; the cached complex value table is derived from the exponents once,
from a table of roots of unity whose entry n - k is (Re, 0.0 - Im) of entry
k, so a conjugate character's values are its conjugate's, bit for bit.

Characters are labeled "q.k".  The index k is a mixed-radix encoding of the
discrete-log exponent vector of the character on a fixed generator set of
(Z/qZ)*: generators are ordered 2-part first (the pair -1, 5 when q has a
factor 2^e with e >= 3, the residue 3 when the factor is 4), then one
primitive root per odd prime power, primes ascending.  Index 0 is always the
principal character, and the labeling is stable across runs and processes.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Character",
    "ClassFunction",
    "SquareRootCount",
    "BiasConstant",
    "enumerate_characters",
    "character_by_label",
    "parse_label",
    "unit_residues",
    "euler_phi",
    "inner_product",
    "square_root_count",
    "bias_constant",
    "race_weight",
]


# ---------------------------------------------------------------------------
# unit group structure


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, smallest prime first."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _order_mod(a: int, m: int, group_order: int) -> int:
    """Multiplicative order of a mod m, given the group order to factor."""
    order = group_order
    for p, _ in _factorize(group_order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _primitive_root_odd_prime_power(p: int, e: int) -> int:
    """Smallest primitive root mod p, lifted to p**e when necessary."""
    phi_p = p - 1
    g = 2
    while _order_mod(g, p, phi_p) != phi_p:
        g += 1
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(r: int, m: int, q: int) -> int:
    """The residue mod q that is r mod m and 1 mod q//m (m, q//m coprime)."""
    cof = q // m
    if cof == 1:
        return r % q
    t = ((r - 1) * pow(cof, -1, m)) % m
    return (1 + cof * t) % q


@lru_cache(maxsize=None)
def _unit_group(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators of (Z/qZ)* lifted mod q, with their orders.

    The decomposition is canonical: the 2-part contributes (-1, 5) for
    2^e with e >= 3 and (3,) for 4, then each odd prime power contributes
    its smallest primitive root, primes ascending.
    """
    gens: list[int] = []
    orders: list[int] = []
    for p, e in _factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue  # trivial component
            if e == 2:
                gens.append(_crt_lift(3, 4, q))
                orders.append(2)
            else:
                gens.append(_crt_lift(pe - 1, pe, q))
                orders.append(2)
                gens.append(_crt_lift(5, pe, q))
                orders.append(2 ** (e - 2))
        else:
            g = _primitive_root_odd_prime_power(p, e)
            gens.append(_crt_lift(g, pe, q))
            orders.append(pe // p * (p - 1))
    return tuple(gens), tuple(orders)


@lru_cache(maxsize=None)
def unit_residues(q: int) -> tuple[int, ...]:
    """Residues in [0, q) coprime to q, ascending."""
    if q < 1:
        raise ValueError(f"invalid modulus {q}")
    return tuple(a for a in range(q) if math.gcd(a, q) == 1)


def euler_phi(q: int) -> int:
    """Number of units mod q."""
    return len(unit_residues(q))


@lru_cache(maxsize=None)
def _discrete_logs(q: int) -> dict[int, tuple[int, ...]]:
    """Exponent vector of every unit on the canonical generator set."""
    gens, orders = _unit_group(q)
    table: dict[int, tuple[int, ...]] = {}
    for vec in itertools.product(*(range(s) for s in orders)):
        a = 1
        for g, k in zip(gens, vec):
            a = (a * pow(g, k, q)) % q
        table[a] = vec
    if len(table) != euler_phi(q):
        raise AssertionError(f"generator set does not span the units mod {q}")
    return table


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True, eq=False)
class Character:
    """One Dirichlet character mod q, with exact exponent storage.

    values[a] is chi(a) for 0 <= a < q (zero off the units);
    exponents[a] is the integer m with chi(a) = exp(2*pi*i*m/root_order),
    or -1 off the units.
    """

    modulus: int
    index: int
    root_order: int
    exponents: np.ndarray
    values: np.ndarray
    is_principal: bool
    conjugate_index: int
    order: int

    @property
    def label(self) -> str:
        return f"{self.modulus}.{self.index}"

    @property
    def is_real(self) -> bool:
        return self.index == self.conjugate_index

    def __call__(self, a: int) -> complex:
        return complex(self.values[a % self.modulus])

    def exponent_at(self, a: int) -> int:
        """Exact zeta-power at a; -1 when a is not a unit."""
        return int(self.exponents[a % self.modulus])

    def __repr__(self) -> str:  # keep reprs short: the table is derivable
        kind = "principal" if self.is_principal else f"order {self.order}"
        return f"Character({self.label}, {kind})"


def _index_to_vector(index: int, orders: Sequence[int]) -> tuple[int, ...]:
    vec = []
    for s in orders:
        vec.append(index % s)
        index //= s
    return tuple(vec)


def _vector_to_index(vec: Sequence[int], orders: Sequence[int]) -> int:
    index = 0
    for k, s in zip(reversed(vec), reversed(orders)):
        index = index * s + k
    return index


@lru_cache(maxsize=None)
def enumerate_characters(q: int) -> tuple[Character, ...]:
    """All phi(q) Dirichlet characters mod q, index 0 the principal one."""
    if q < 3:
        raise ValueError(f"invalid modulus {q}: need q >= 3")
    gens, orders = _unit_group(q)
    dlog = _discrete_logs(q)
    phi = euler_phi(q)
    n = math.lcm(*orders) if orders else 1
    half = n // 2 + 1
    roots = np.empty(n, dtype=np.complex128)
    head = roots[:half]  # roots[k] for k <= n/2
    head[:] = np.exp(2j * math.pi * np.arange(half) / n)
    # snap the axis values so real characters are exactly +-1 and +-1j
    head.real[np.abs(head.real) < 1e-14] = 0.0
    head.imag[np.abs(head.imag) < 1e-14] = 0.0
    # roots[n - k] is (Re, 0.0 - Im) of roots[k], so that a conjugate
    # character's values are its conjugate's, bit for bit
    roots[half:] = roots[n - half:0:-1]
    np.subtract(0.0, roots.imag[half:], out=roots.imag[half:])
    chars = []
    for index in range(phi):
        kvec = _index_to_vector(index, orders)
        exponents = np.full(q, -1, dtype=np.int64)
        for a, xvec in dlog.items():
            m = 0
            for k, x, s in zip(kvec, xvec, orders):
                m += k * x * (n // s)
            exponents[a] = m % n
        values = np.zeros(q, dtype=np.complex128)
        unit_mask = exponents >= 0
        values[unit_mask] = roots[exponents[unit_mask]]
        conj_vec = tuple((-k) % s for k, s in zip(kvec, orders))
        order = 1
        for k, s in zip(kvec, orders):
            order = math.lcm(order, s // math.gcd(s, k))
        chars.append(
            Character(
                modulus=q,
                index=index,
                root_order=n,
                exponents=exponents,
                values=values,
                is_principal=(index == 0),
                conjugate_index=_vector_to_index(conj_vec, orders),
                order=order,
            )
        )
    return tuple(chars)


def parse_label(label: str) -> tuple[int, int]:
    """Split a "q.k" character label into (q, k)."""
    try:
        qs, ks = label.split(".")
        q, k = int(qs), int(ks)
    except ValueError as exc:
        raise ValueError(f"malformed character label {label!r}") from exc
    if q < 3 or k < 0:
        raise ValueError(f"malformed character label {label!r}")
    return q, k


def character_by_label(label: str) -> Character:
    q, k = parse_label(label)
    chars = enumerate_characters(q)
    if k >= len(chars):
        raise ValueError(f"no character {label}: only {len(chars)} characters mod {q}")
    return chars[k]


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """A function on residues mod q supported on the units.

    values has length q; entries off the units must be zero.
    """

    modulus: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.modulus,):
            raise ValueError("class function table must have length q")
        for a in range(self.modulus):
            if math.gcd(a, self.modulus) != 1 and vals[a] != 0:
                raise ValueError(f"class function nonzero off the units at {a}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_pairs(cls, q: int, pairs: Mapping[int, complex]) -> "ClassFunction":
        vals = np.zeros(q, dtype=np.complex128)
        for a, v in pairs.items():
            vals[a % q] = v
        return cls(q, vals)

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.values.imag)) < 1e-14) if self.modulus else True

    def __call__(self, a: int) -> complex:
        return complex(self.values[a % self.modulus])


WeightTable = Union[ClassFunction, Character]


def _values_of(f: WeightTable) -> tuple[int, np.ndarray]:
    if isinstance(f, (ClassFunction, Character)):
        return f.modulus, f.values
    raise TypeError(f"expected ClassFunction or Character, got {type(f).__name__}")


def race_weight(a: int, b: int, q: int) -> ClassFunction:
    """The indicator difference 1_a - 1_b on the units mod q."""
    if q < 3:
        raise ValueError(f"invalid modulus {q}: need q >= 3")
    a %= q
    b %= q
    if math.gcd(a, q) != 1:
        raise ValueError(f"residue {a} is not a unit mod {q}")
    if math.gcd(b, q) != 1:
        raise ValueError(f"residue {b} is not a unit mod {q}")
    if a == b:
        raise ValueError("race residues must differ")
    return ClassFunction.from_pairs(q, {a: 1.0, b: -1.0})


def inner_product(f: WeightTable, g: WeightTable) -> complex:
    """Normalized inner product (1/phi(q)) * sum_a f(a) * conj(g(a)) over units."""
    qf, fv = _values_of(f)
    qg, gv = _values_of(g)
    if qf != qg:
        raise ValueError(f"modulus mismatch: {qf} vs {qg}")
    units = np.array(unit_residues(qf), dtype=np.intp)
    return complex(np.sum(fv[units] * np.conj(gv[units])) / len(units))


# ---------------------------------------------------------------------------
# square roots and the bias constant


@dataclass(frozen=True, eq=False)
class SquareRootCount:
    """counts[a] = number of units x mod q with x*x = a."""

    modulus: int
    counts: np.ndarray

    def as_class_function(self) -> ClassFunction:
        return ClassFunction(self.modulus, self.counts.astype(np.complex128))

    def __call__(self, a: int) -> int:
        return int(self.counts[a % self.modulus])


def square_root_count(q: int) -> SquareRootCount:
    if q < 3:
        raise ValueError(f"invalid modulus {q}: need q >= 3")
    counts = np.zeros(q, dtype=np.int64)
    for x in unit_residues(q):
        counts[(x * x) % q] += 1
    return SquareRootCount(q, counts)


@dataclass(frozen=True, eq=False)
class BiasConstant:
    """The bias constant of a class function, plus the inputs that shaped it."""

    value: complex
    modulus: int
    vanishing_orders: dict[int, int]

    @property
    def real(self) -> float:
        return self.value.real


def _normalize_orders(q: int, vanishing_orders) -> dict[int, int]:
    """Accept {index: m} or {"q.k": m}; default everything to zero."""
    out: dict[int, int] = {}
    if not vanishing_orders:
        return out
    nchars = euler_phi(q)
    for key, m in vanishing_orders.items():
        if isinstance(key, str):
            qk, idx = parse_label(key)
            if qk != q:
                raise ValueError(f"vanishing order for modulus {qk}, expected {q}")
        else:
            idx = int(key)
        if not 0 <= idx < nchars:
            raise ValueError(f"no character index {idx} mod {q}")
        if m < 0:
            raise ValueError("vanishing orders must be nonnegative")
        out[idx] = int(m)
    return out


def bias_constant(t: WeightTable, vanishing_orders: Mapping | None = None) -> BiasConstant:
    """Bias constant of a class function orthogonal to the principal character.

    Computes (<t, r> + 2 * sum over nonprincipal chi of <t, chi> * m_chi) / 2
    where r counts square roots and m_chi is the supplied central vanishing
    order of the character's L-function (never computed here; absent means 0).
    """
    q, _ = _values_of(t)
    chars = enumerate_characters(q)
    if abs(inner_product(t, chars[0])) > 1e-12:
        raise ValueError("class function must be orthogonal to the principal character")
    orders = _normalize_orders(q, vanishing_orders)
    r = square_root_count(q).as_class_function()
    total = inner_product(t, r)
    for chi in chars[1:]:
        coeff = inner_product(t, chi)
        if abs(coeff) < 1e-15:
            continue
        total += 2.0 * coeff * orders.get(chi.index, 0)
    return BiasConstant(value=complex(total) / 2.0, modulus=q, vanishing_orders=orders)

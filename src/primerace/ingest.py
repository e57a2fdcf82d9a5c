"""Zero-ordinate data files for Dirichlet L-functions.

The file format is plain text, whitespace-separated, one zero per line:

    # comments and blank lines are skipped
    modulus 4            (optional header; must match the requested modulus)
    mchi 4.1 0           (optional: order of vanishing at the central point)
    4.1 6.020949 1       (label, positive ordinate, multiplicity)
    4.1 10.243770 1

Ordinates are the positive imaginary parts of zeros on the critical line;
they are trusted as given and never recomputed here.  The negative-ordinate
companions are implied: gamma is a zero ordinate for chi exactly when -gamma
is one for the conjugate character, which is how symmetric_expand builds the
two-sided multiset that explicit-formula sums run over.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .characters import Character, ClassFunction, enumerate_characters, inner_product

__all__ = [
    "ZeroDataset",
    "ExpandedZero",
    "ZeroFileError",
    "load_zeros",
    "parse_zeros",
    "serialize",
    "symmetric_expand",
    "CoverageWarning",
]


class ZeroFileError(ValueError):
    """A zero data file failed validation; the message carries the line number."""


class CoverageWarning(UserWarning):
    """A character the weight needs has no zeros in the dataset."""


@dataclass(frozen=True)
class ZeroDataset:
    """Positive zero ordinates per character, plus central vanishing orders."""

    modulus: int
    entries: tuple[tuple[str, float, int], ...]  # (label, gamma, multiplicity)
    central_orders: dict[str, int] = field(default_factory=dict)
    source: str = ""

    def labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for label, _g, _m in self.entries:
            if label not in seen:
                seen.append(label)
        return tuple(seen)

    def ordinates(self, label: str) -> np.ndarray:
        return np.array([g for lab, g, _m in self.entries if lab == label])

    def height(self, label: str | None = None) -> float:
        gs = [g for lab, g, _m in self.entries if label is None or lab == label]
        return max(gs) if gs else 0.0

    def central_order(self, label: str) -> int:
        return self.central_orders.get(label, 0)

    def __len__(self) -> int:
        return len(self.entries)


def _fail(path: str, lineno: int, message: str) -> ZeroFileError:
    return ZeroFileError(f"{path}:{lineno}: {message}")


def parse_zeros(text: str, q: int, *, source: str = "<string>") -> ZeroDataset:
    """Parse zero data from a string; see load_zeros for the file variant."""
    chars = enumerate_characters(q)
    known = {chi.label: chi for chi in chars}
    principal_label = chars[0].label
    entries: list[tuple[str, float, int]] = []
    central: dict[str, int] = {}
    last_gamma: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "modulus":
            if len(fields) != 2:
                raise _fail(source, lineno, "modulus header needs exactly one value")
            try:
                declared = int(fields[1])
            except ValueError:
                raise _fail(source, lineno, f"bad modulus {fields[1]!r}") from None
            if declared != q:
                raise _fail(source, lineno, f"file declares modulus {declared}, expected {q}")
            continue
        if fields[0] == "mchi":
            if len(fields) != 3:
                raise _fail(source, lineno, "mchi line needs a label and an order")
            label = fields[1]
            if label not in known:
                raise _fail(source, lineno, f"unknown character label {label!r} for modulus {q}")
            try:
                order = int(fields[2])
            except ValueError:
                raise _fail(source, lineno, f"bad vanishing order {fields[2]!r}") from None
            if order < 0:
                raise _fail(source, lineno, f"vanishing order must be nonnegative, got {order}")
            central[label] = order
            continue
        if len(fields) != 3:
            raise _fail(source, lineno,
                        f"expected 'label ordinate multiplicity', got {len(fields)} fields")
        label = fields[0]
        if label not in known:
            raise _fail(source, lineno, f"unknown character label {label!r} for modulus {q}")
        if known[label].is_principal:
            raise _fail(source, lineno, f"{label} is the principal character; it has no zeros here")
        try:
            gamma = float(fields[1])
        except ValueError:
            raise _fail(source, lineno, f"bad ordinate {fields[1]!r}") from None
        if not gamma > 0:
            raise _fail(source, lineno, f"ordinate must be positive, got {gamma}")
        try:
            mult = int(fields[2])
        except ValueError:
            raise _fail(source, lineno, f"bad multiplicity {fields[2]!r}") from None
        if mult < 1:
            raise _fail(source, lineno, f"multiplicity must be positive, got {mult}")
        if label in last_gamma and gamma < last_gamma[label]:
            raise _fail(source, lineno,
                        f"ordinates for {label} must be nondecreasing "
                        f"({gamma} after {last_gamma[label]})")
        last_gamma[label] = gamma
        entries.append((label, gamma, mult))

    return ZeroDataset(modulus=q, entries=tuple(entries),
                       central_orders=central, source=source)


def load_zeros(path: str | Path, q: int) -> ZeroDataset:
    """Load and validate a zero data file for modulus q."""
    path = Path(path)
    text = path.read_text()
    return parse_zeros(text, q, source=str(path))


def serialize(zd: ZeroDataset) -> str:
    """Canonical text form; reparsing reproduces the dataset exactly."""
    lines = [f"modulus {zd.modulus}"]
    for label in sorted(zd.central_orders):
        lines.append(f"mchi {label} {zd.central_orders[label]}")
    for label, gamma, mult in zd.entries:
        lines.append(f"{label} {repr(gamma)} {mult}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExpandedZero:
    """One term of the two-sided zero sum: coefficient, signed ordinate, rho."""

    coefficient: complex
    gamma: float
    label: str

    @property
    def rho(self) -> complex:
        return complex(0.5, self.gamma)


def symmetric_expand(zd: ZeroDataset, t: ClassFunction | Character) -> list[ExpandedZero]:
    """Two-sided, coefficient-weighted zero multiset for explicit formulas.

    Each stored (chi, gamma, m) yields m copies of (<t,chi>, +gamma) and m
    copies of (<t,chibar>, -gamma); the output is sorted by |gamma|, ties
    broken by character label then sign (a convention, nothing depends on it).
    Characters carrying nonzero weight but absent from the dataset trigger
    CoverageWarning.
    """
    q = zd.modulus
    if t.modulus != q:
        raise ValueError(f"modulus mismatch: dataset mod {q}, weight mod {t.modulus}")
    chars = enumerate_characters(q)
    by_label = {chi.label: chi for chi in chars}
    coeff = {chi.label: inner_product(t, chi) for chi in chars}

    # a complex character's positive ordinates are NOT derivable from its
    # conjugate's (only the negative ones are), so each label must be listed
    present = set(zd.labels())
    for chi in chars[1:]:
        if abs(coeff[chi.label]) > 1e-15 and chi.label not in present:
            warnings.warn(f"weight has nonzero component on {chi.label} "
                          f"but the dataset holds no zeros for it",
                          CoverageWarning, stacklevel=2)

    out: list[ExpandedZero] = []
    for label, gamma, mult in zd.entries:
        chi = by_label[label]
        conj_label = chars[chi.conjugate_index].label
        for _ in range(mult):
            out.append(ExpandedZero(coeff[label], +gamma, label))
            out.append(ExpandedZero(coeff[conj_label], -gamma, conj_label))
    out.sort(key=lambda z: (abs(z.gamma), z.label, -z.gamma))
    return out

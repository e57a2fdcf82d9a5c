"""The checkpoint files: the grid, the CSV's columns, rows and reader, and the JSON sidecar.

A tally of modulus q is snapshotted at the points of a CheckpointGrid and
persisted as a CSV, one row per point in grid order under the header
_csv_columns(q), with a JSON sidecar beside it.  tally.accumulate writes
both through this module and reads them back on a resume, the CSV through
tally.read_series_csv, the name perfbench wraps.  read_series_csv cuts each
field from the rows at the position _csv_columns gives it.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .characters import _values_of, enumerate_characters, unit_residues

if TYPE_CHECKING:
    from .tally import _Layout

__all__ = ["LOG2", "CheckpointGrid", "CheckpointSeries", "read_series_csv"]

LOG2 = math.log(2.0)

_CHAR_FIELDS = ("invsqrt", "mertens", "eulerlog")
# a checkpoint row's fields, as CheckpointSeries.fields names them, in column order
_ROW_FIELDS = ("counts", "invsqrt", "theta", "psi", *(f"char_{f}" for f in _CHAR_FIELDS))


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
        n = math.floor((math.log(x_max) - LOG2) / h + 1e-12) + 1
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


def _names(q: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Modulus q's class residues and nonprincipal character labels, in column order."""
    return unit_residues(q), tuple(chi.label for chi in enumerate_characters(q)[1:])


def _csv_columns(q: int) -> list[str]:
    """The checkpoint CSV's header: x, y, a block of 4 columns per class, then 6 per nonprincipal character."""
    units, labels = _names(q)
    cols = ["x", "y"]
    for a in units:
        cols += [f"n_{a}", f"invsqrt_{a}", f"theta_{a}", f"psi_{a}"]
    for label in labels:
        for name in _CHAR_FIELDS:
            cols += [f"chi_{label}_{name}_re", f"chi_{label}_{name}_im"]
    return cols


class CheckpointSeries:
    """A tally's snapshots, one entry per grid point snapshotted, in grid order.

    x and y are lists of the points' coordinates.  fields maps each row
    field to its entries: per class (units) counts, invsqrt, theta and psi,
    and per nonprincipal character (char_labels) char_invsqrt, char_mertens
    and char_eulerlog.  Grid point j is row j of every matrix below.  In a
    series from accumulate the entries are the read-only arrays
    TallyPartial.totals() returned, one object for consecutive points that
    nothing was folded into; in one from read_series_csv each field is the
    2-D table cut from the file.  A series may hold fewer points than its
    grid, as an interrupted run's does.
    """

    def __init__(self, q: int, grid: CheckpointGrid, x, y, fields):
        self.q = q
        self.grid = grid
        self.units, self.char_labels = _names(q)
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
        q, vals = _values_of(t)
        if q != self.q:
            raise ValueError(f"modulus mismatch: tally mod {self.q}, weight mod {q}")
        w = np.array([vals[a] for a in self.units])
        return self._table(table).astype(np.complex128) @ w


def read_series_csv(path: str | Path) -> CheckpointSeries:
    """The series of a checkpoint CSV, each field one read-only 2-D table.

    The header must be _csv_columns(q) of the modulus q that its first chi_
    column names, and every row must hold one cell per column; each field is
    then cut from the rows by position, and ValueError names the file when
    either fails.  A header with no rows reads as an empty series on a
    one-point grid: a series may hold fewer points than its grid, as an
    interrupted run's does.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_rows = any(map(str.strip, fh))
    modulus = next((c[len("chi_"):].split(".")[0] for c in header if c.startswith("chi_")), "")
    q = int(modulus) if modulus.isdecimal() else 0
    # phi(q) >= sqrt(q/2), so _csv_columns(q) of a q above len(header)**2 is longer than the header
    if not 3 <= q <= len(header) ** 2 or header != _csv_columns(q):
        raise ValueError(f"{path}: the header is not the checkpoint columns of the modulus "
                         f"its first chi_ column names ({modulus or 'none'})")
    # numpy parses each cell to the double float() gives, -0.0 included, and
    # warns on a file with no rows
    data = (np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if has_rows
            else np.empty((0, len(header))))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows hold {data.shape[1]} cells, but the header has {len(header)} columns")
    units, labels = _names(q)
    n, m = len(units), len(labels)
    # per class a block of 4 columns, n to psi; per character a (re, im) pair of each of _CHAR_FIELDS
    classes = data[:, 2:2 + 4 * n].reshape(-1, n, 4)
    chars = data[:, 2 + 4 * n:].view(np.complex128).reshape(-1, m, 3)
    tables = [classes[:, :, k] for k in range(4)] + [chars[:, :, k] for k in range(3)]
    fields = {f: np.ascontiguousarray(table) for f, table in zip(_ROW_FIELDS, tables)}
    fields["counts"] = fields["counts"].astype(np.int64)  # exact below 2^53
    for table in fields.values():
        table.flags.writeable = False
    ys = data[:, 1]
    h = float((ys[-1] - ys[0]) / (len(ys) - 1)) if len(ys) > 1 else 0.01
    grid = CheckpointGrid(h=h, n=max(len(ys), 1))
    return CheckpointSeries(q, grid, data[:, 0].tolist(), ys.tolist(), fields)


class _RowWriter:
    """The checkpoint CSV's data rows, one line per checkpoint in grid order.

    Keeps the previous row's text of each class block (n, invsqrt, theta
    and psi of one class) and of the character section (per character:
    invsqrt, mertens, eulerlog, each as re, im), and formats again only
    what TallyPartial.snapshots says changed: the class blocks of the slots
    whose sums moved, and the character section when a prime was folded,
    the only fold that moves a character column; it compares no rows.  A
    character section calls repr only on the columns of _Layout.pairs'
    representatives: per field, each character that is its own
    representative or the first of a conjugate pair, and for char_mertens
    one character per distinct chi^2 up to conjugation.  It places that
    text at every character that shares it, and a conjugate's imaginary
    cell is its representative's text negated: "0.0" for a zero, else the
    sign flipped, which is repr(0.0 - v) for every finite double v.
    """

    _FIELDS = tuple(f"char_{f}" for f in _CHAR_FIELDS)

    def __init__(self, layout: "_Layout"):
        self.blocks = [""] * layout.nclass
        self.classes = self.text = ""
        self.cols = [layout.pairs[f][0] for f in self._FIELDS]
        # the formatted cells are (re, im) pairs, each field's representatives in turn, then
        # the negated texts of the imaginary cells in flipped, one per conjugate cell
        start = np.cumsum([0, *map(len, self.cols)]).tolist()
        cells, self.flipped = [], []
        for j in range(layout.nchar):
            for f, first in zip(self._FIELDS, start):
                _, of, flip = layout.pairs[f]
                k = 2 * (first + int(of[j]))
                cells += [k, 2 * start[-1] + len(self.flipped) if flip[j] else k + 1]
                if flip[j]:
                    self.flipped.append(k + 1)
        self.pick = itemgetter(*cells)

    def lines(self, xs, ys, arrays, changed) -> str:
        """The rows at xs, ys.

        arrays maps each field to its array at every point, and changed[j]
        holds snapshots' class slots and prime flag for point j.  xs is not
        empty.
        """
        out = []
        for j, (x, y, (slots, folded)) in enumerate(zip(xs, ys, changed)):
            if slots:
                n, s, t, p = (arrays[f][j].tolist() for f in ("counts", "invsqrt", "theta", "psi"))
                for i in slots:
                    self.blocks[i] = f"{n[i]},{s[i]!r},{t[i]!r},{p[i]!r}"
                self.classes = ",".join(self.blocks)
            if folded:
                cells = [arrays[f][j][cols] for f, cols in zip(self._FIELDS, self.cols)]
                texts = list(map(repr, np.concatenate(cells).view(np.float64).tolist()))
                texts += [t[1:] if t[0] == "-" else t if t == "0.0" else "-" + t
                          for t in map(texts.__getitem__, self.flipped)]
                self.text = ",".join(["", *self.pick(texts)])
            out.append(f"{x!r},{y!r},{self.classes}{self.text}\n")
        return "".join(out)


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _read_sidecar(path: Path) -> dict:
    """A checkpoint's sidecar, or a ValueError that names path.

    The sidecar is refused when it is missing, when it is not a JSON
    object and when its format is not the int 1, 2 or 3.  JSON true and 1.0
    equal 1 in Python, and are refused all the same.  A format-1 sidecar
    records no races, and its state stores expected_lo None when no segment
    was folded yet: both read as later formats write them.
    """
    if not path.exists():
        raise ValueError(f"no sidecar at {path} to resume from")
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:  # undecodable text or JSON
        raise ValueError(f"{path}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: sidecar holds a {type(meta).__name__}, not a JSON object")
    if type(meta.get("format")) is not int or meta["format"] not in (1, 2, 3):
        raise ValueError(f"{path}: sidecar format {meta.get('format')!r} is not 1, 2 or 3")
    meta.setdefault("races", {})
    if "state" in meta:
        meta["state"]["expected_lo"] = meta["state"]["expected_lo"] or 2
    return meta


def _write_sidecar(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def _truncate_csv(csv_path: Path, rows: int) -> None:
    """Keep the header and the first rows data lines (crash cleanup).

    Reads the file only up to the end of those lines and cuts it there; a
    file with nothing past them is not written.
    """
    with open(csv_path, "rb+") as fh:
        for _ in range(1 + rows):
            if not fh.readline():
                raise ValueError(f"{csv_path} holds fewer rows than the sidecar claims")
        if fh.read(1):
            fh.truncate(fh.tell() - 1)

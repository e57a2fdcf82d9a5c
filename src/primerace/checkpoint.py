"""The checkpoint files' text: the CSV's header and rows, and the JSON sidecar.

tally.accumulate writes a checkpoint through these and reads its sidecar
back on a resume; read_series_csv in tally.py parses the CSV.
"""
from __future__ import annotations

import json
import os
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tally import _Layout

_CHAR_FIELDS = ("invsqrt", "mertens", "eulerlog")


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
    what TallyPartial.snapshots says changed: the class blocks of the slots
    whose sums moved, and the character section when a prime was folded,
    the only fold that moves a character column; it compares no rows.  A
    character section formats each distinct char_mertens value once (one
    per distinct chi^2) and places its text at every character that shares
    it.
    """

    def __init__(self, layout: "_Layout"):
        self.blocks = [""] * layout.nclass
        self.classes = self.text = ""
        self.first = layout.chi2_first
        # a section's cells, picked in (re, im) pairs from its formatted invsqrt, eulerlog and distinct mertens cells
        pairs = np.arange(4 * layout.nchar + 2 * len(self.first)).reshape(-1, 2)
        inv, eul, mertens = np.split(pairs, [layout.nchar, 2 * layout.nchar])
        self.pick = itemgetter(*np.hstack([inv, mertens[layout.chi2_of], eul]).ravel().tolist())

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
                cells = [arrays["char_invsqrt"][j], arrays["char_eulerlog"][j], arrays["char_mertens"][j][self.first]]
                texts = list(map(repr, np.concatenate(cells).view(np.float64).tolist()))
                self.text = ",".join(["", *self.pick(texts)])
            out.append(f"{x!r},{y!r},{self.classes}{self.text}\n")
        return "".join(out)


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _read_sidecar(path: Path) -> dict:
    """A checkpoint's sidecar; ValueError when it is missing or its format is not the int 1, 2 or 3.

    A format-1 sidecar records no races, and its state stores expected_lo
    None when no segment was folded yet: both read as later formats write
    them.  JSON true and 1.0 equal 1 in Python, and are refused all the same.
    """
    if not path.exists():
        raise ValueError(f"no sidecar at {path} to resume from")
    meta = json.loads(path.read_text())
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

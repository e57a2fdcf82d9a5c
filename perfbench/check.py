"""Output checks behind the benchmark's `correct`, `attempted` and `failed`.

Three independent checks, none of which trusts the program under test:

- every report a subcommand plans to write exists and parses (JSON loads,
  every CSV cell is a number);
- the key values of those reports (C estimates and their spread, lead
  densities, ell_hat, RMS rows, moment and mean fits) agree with the values
  recorded in `refs.json` at the seed commit, within the tolerance the
  acceptance suite pins for tally sums (rtol 1e-10, atol 1e-12).  Byte
  identity is deliberately not required: an exact-summation change may move
  the last bits;
- the per-class prime counts in the final checkpoint row equal a count from
  this module's own sieve.

This module imports numpy only, never primerace.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-10
ATOL = 1e-12

# report file -> dotted paths of the values compared with the references;
# "*" walks every key of a dict or every item of a list
KEY_VALUES = {
    "bias": {
        "bias_fit.json": ["fits.*.C_hat", "spread"],
        "bias_race.json": ["windows.*.natural_estimate", "windows.*.logarithmic_estimate"],
    },
    "euler": {"euler_fit.json": ["ell_hat.re", "ell_hat.im"]},
    "delta": {"delta_rms.json": ["rms.*.T", "rms.*.rms"]},
    "moments": {"moments_fit.json": ["C_fit", "rows.*.moment"]},
    "mean": {"mean_fit.json": ["fit.C_hat", "fit_raw.C_hat", "mean_at_end"]},
}


def ref_key(argv: list[str]) -> str:
    """Reference lookup key: the subcommand and the flags that fix its values.

    --out, --resume and --threads are dropped because none of them may
    change a value; everything else (q, classes, character, x_max, zero
    file, heights, moment orders) is kept in order.
    """
    drop_with_value = {"--out", "--threads"}
    kept, skip = [], False
    for item in argv:
        if skip:
            skip = False
        elif item in drop_with_value:
            skip = True
        elif item != "--resume":
            kept.append(item)
    return " ".join(kept)


def _walk(node, parts: list[str], prefix: str, out: dict) -> None:
    if not parts:
        out[prefix] = float(node)
        return
    head, rest = parts[0], parts[1:]
    if head == "*":
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            _walk(child, rest, f"{prefix}.{key}", out)
    else:
        _walk(node[head], rest, f"{prefix}.{head}", out)


def key_values(command: str, out_dir: Path) -> dict[str, float]:
    """Flatten the compared values of one subcommand's reports."""
    out: dict[str, float] = {}
    for name, paths in KEY_VALUES.get(command, {}).items():
        doc = json.loads((out_dir / name).read_text())
        for path in paths:
            _walk(doc, path.split("."), name, out)
    return out


def _parse_report(path: Path) -> None:
    if path.suffix == ".json":
        json.loads(path.read_text())
        return
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        n = 0
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row {n + 1} has {len(row)} cells, header has {len(header)}")
            for cell in row:
                float(cell)
            n += 1
    if n == 0:
        raise ValueError("no data rows")


def check_op(command: str, out_dir: Path, planned: list[str], rc: int,
             reference: dict[str, float] | None) -> list[str]:
    """Problems with one subcommand's outputs; empty when they are correct.

    reference None skips the value comparison (existence and parsing are
    still checked); callers that have references must always pass them.
    """
    if rc != 0:
        return [f"{command}: exit code {rc}"]
    problems = []
    for name in planned:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{command}: {name} missing")
            continue
        try:
            _parse_report(path)
        except (ValueError, StopIteration, json.JSONDecodeError) as exc:
            problems.append(f"{command}: {name} does not parse: {exc}")
    if problems or reference is None:
        return problems
    try:
        got = key_values(command, out_dir)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{command}: key values unreadable: {exc!r}"]
    if set(got) != set(reference):
        return [f"{command}: key values {sorted(got)} != reference {sorted(reference)}"]
    for key, want in reference.items():
        if not abs(got[key] - want) <= ATOL + RTOL * abs(want):
            problems.append(f"{command}: {key} = {got[key]!r}, reference {want!r}")
    return problems


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n by a plain odd-only sieve (independent of primerace)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] <-> 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd).astype(np.int64) + 1))


def check_checkpoint(csv_path: Path, q: int) -> list[str]:
    """Compare the last row's per-class counts with an independent sieve."""
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        last = None
        for line in fh:
            if line.strip():
                last = line
    if last is None:
        return [f"{csv_path.name}: no checkpoint rows"]
    row = dict(zip(header, last.rstrip("\n").split(",")))
    x = float(row["x"])
    counts = np.bincount(primes_upto(int(math.floor(x))) % q, minlength=q)
    problems = []
    for col, value in row.items():
        if col.startswith("n_"):
            a = int(col[2:])
            if int(value) != int(counts[a]):
                problems.append(f"{csv_path.name}: {col} = {value} at x={x!r}, "
                                f"independent count {int(counts[a])}")
    if not any(col.startswith("n_") for col in header):
        problems.append(f"{csv_path.name}: no per-class count columns")
    return problems

"""Command-line front end: sieve -> tally -> analysis pipelines.

Every subcommand reads one effective configuration assembled from (in
rising precedence) built-in defaults, an optional key=value config file,
and command-line flags.  Reports are CSV/JSON only and deterministic:
identical configuration and inputs give byte-identical files regardless
of the thread count, so no timestamps, hostnames, or paths are embedded.

Exit codes: 0 success, 1 computation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (
    calibrate_K,
    delta_exact,
    delta_zero_sum,
    density_race,
    envelope_check,
    estimate_C,
    estimate_C_all,
    estimate_ell,
    euler_density_check,
    euler_series,
    fit_moment_constant,
    mean_integral,
    mean_values,
    moment,
    race_series,
    rms_window,
    weighted_second_moment,
)
from .characters import bias_constant, character_by_label, race_weight
from .ingest import load_zeros, symmetric_expand
from .sieve import DEFAULT_SEGMENT_ODDS
from .tally import CheckpointGrid, _sidecar_path, accumulate

__all__ = ["RunConfig", "UsageError", "main",
           "cmd_bias", "cmd_euler", "cmd_delta", "cmd_moments", "cmd_mean",
           "cmd_zeros_validate"]


class UsageError(ValueError):
    """Bad flags, bad config values, impossible requests: exit code 2."""


@dataclass
class RunConfig:
    """One pipeline invocation's worth of settings."""

    q: int = 4
    a: int = 3
    b: int = 1
    x_max: float = 1_000_000.0
    h: float = 0.01
    zeros: str | None = None
    chi: str | None = None
    mchi: dict[str, int] = field(default_factory=dict)
    eps: float = 0.5
    K: float | None = None
    tail_fraction: float = 0.25
    T_values: tuple[float, ...] = ()
    k_values: tuple[int, ...] = (1, 2, 3)
    threads: int = 1
    segment_odds: int = DEFAULT_SEGMENT_ODDS
    out: str = "."
    resume: bool = False
    finite_size: bool = True

    def validate(self, command: str) -> None:
        """Reject impossible values of the settings command reads.

        Each check states the condition that must hold, so NaN, which
        satisfies no comparison, fails it; float bounds also exclude infinity.
        """
        reads = _READS[command]

        def need(key: str, holds: bool, message: str) -> None:
            if key in reads and not holds:
                raise UsageError(message)

        need("q", self.q >= 3, f"modulus must be at least 3, got {self.q}")
        if command in _RACES:
            if math.gcd(self.a, self.q) != 1 or math.gcd(self.b, self.q) != 1:
                raise UsageError(
                    f"race classes must be units mod {self.q}, got a={self.a} b={self.b}")
            if self.a % self.q == self.b % self.q:
                raise UsageError(f"race needs two distinct classes, got a=b={self.a}")
        need("x_max", 100 <= self.x_max < math.inf,
             f"xmax must be finite and at least 100, got {self.x_max}")
        need("h", 0 < self.h <= 0.1, f"grid spacing must lie in (0, 0.1], got {self.h}")
        need("tail_fraction", 0 < self.tail_fraction <= 0.5,
             f"tail fraction must lie in (0, 0.5], got {self.tail_fraction}")
        need("eps", 0 < self.eps < math.inf, f"eps must be positive and finite, got {self.eps}")
        need("K", self.K is None or 1 < self.K < math.inf,
             f"K must be finite and exceed 1, got {self.K}")
        for k in self.k_values:
            need("k", 1 <= k <= 6, f"moment orders must lie in 1..6, got k={k}")
        for T in self.T_values:
            need("T", 0 < T < math.inf, f"truncation heights must be positive and finite, got T={T}")
        need("segment_odds", self.segment_odds >= 16,
             f"segment size too small: {self.segment_odds}")
        if command in _NEEDS_CHECKPOINTS and self.threads < 1:
            raise UsageError(f"thread count must be positive, got {self.threads}")

    def public_dict(self, command: str) -> dict:
        """The settings command reads that determine the mathematics.

        They are echoed into the command's reports.  Thread count, output
        directory, and resume mode are excluded on purpose: none of them may
        change a single output byte.  Settings the command never reads are
        left out too, so they cannot change its reports either.
        """
        settings = {
            "q": self.q, "a": self.a, "b": self.b,
            "x_max": self.x_max, "h": self.h,
            "zeros": self.zeros, "chi": self.chi,
            "mchi": dict(sorted(self.mchi.items())),
            "eps": self.eps, "K": self.K,
            "tail_fraction": self.tail_fraction,
            "T": list(self.T_values), "k": list(self.k_values),
            "segment_odds": self.segment_odds,
            "finite_size": self.finite_size,
        }
        return {key: settings[key] for key in _READS[command]}


# ---------------------------------------------------------------------------
# configuration assembly


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} wants a boolean, got {raw!r}")


def _parse_items(raw: str, convert, kind: str) -> tuple:
    """Comma-separated values; the error names the item that does not convert."""
    items = []
    for part in filter(str.strip, raw.split(",")):
        try:
            items.append(convert(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part.strip()!r} is not {kind}") from None
    return tuple(items)


def _parse_floats(raw: str) -> tuple[float, ...]:
    return _parse_items(raw, float, "a number")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return _parse_items(raw, int, "an integer")


def _parse_mchi_item(raw: str) -> tuple[str, int]:
    label, eq, value = raw.partition("=")
    if not eq:
        raise UsageError(f"mchi wants LABEL=ORDER, got {raw!r}")
    try:
        order = int(value)
    except ValueError:
        raise UsageError(f"mchi order must be an integer, got {raw!r}") from None
    if order < 0:
        raise UsageError(f"mchi order must be nonnegative, got {raw!r}")
    return label.strip(), order


# every valued setting: (flag and config-file key, RunConfig field, type, help)
_OPTIONS = [
    ("q", "q", int, "modulus (default 4)"),
    ("a", "a", int, "leading race class (default 3)"),
    ("b", "b", int, "trailing race class (default 1)"),
    ("xmax", "x_max", float, "upper end of the x range"),
    ("grid-h", "h", float, "checkpoint spacing in y = log x (default 0.01)"),
    ("zeros", "zeros", str, "zero dataset file"),
    ("chi", "chi", str, "character label q.k (euler)"),
    ("eps", "eps", float, "envelope exponent offset (default 0.5)"),
    ("K", "K", float, "log-envelope constant (default: calibrated)"),
    ("tail-fraction", "tail_fraction", float,
     "fraction of the range used for tail fits (default 0.25)"),
    ("T", "T_values", _parse_floats, "comma-separated truncation heights (delta)"),
    ("k", "k_values", _parse_ints, "comma-separated moment orders (moments)"),
    ("threads", "threads", int, "sieve worker threads (default: PRL_THREADS or 1)"),
    ("segment-odds", "segment_odds", int, "odd numbers per sieve segment"),
    ("out", "out", str, "output directory (default .)"),
]


def read_config_file(path: str) -> dict:
    """key=value lines; '#' comments; unknown keys rejected."""
    known = {key for key, *_ in _OPTIONS} | {"mchi", "resume", "raw"}
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "mchi":
            values.setdefault("mchi", {})
            for item in value.split(","):
                label, order = _parse_mchi_item(item)
                values["mchi"][label] = order
        else:
            values[key] = value
    return values


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = read_config_file(args.config) if args.config else {}
    for key, name, convert, _ in _OPTIONS:
        value = getattr(args, name)
        if value is None and key in file_values:
            try:
                value = convert(file_values[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
        if value is not None:
            setattr(cfg, name, value)
    if args.resume:
        cfg.resume = True
    elif "resume" in file_values:
        cfg.resume = _parse_bool(file_values["resume"], "resume")
    if args.raw:
        cfg.finite_size = False
    elif "raw" in file_values:
        cfg.finite_size = not _parse_bool(file_values["raw"], "raw")

    mchi: dict[str, int] = dict(file_values.get("mchi", {}))
    for item in args.mchi or ():
        label, order = _parse_mchi_item(item)
        mchi[label] = order
    cfg.mchi = mchi

    env = os.environ.get("PRL_THREADS", "").strip()
    if args.threads is None and "threads" not in file_values and env:
        try:
            cfg.threads = int(env)
        except ValueError:
            raise UsageError(f"PRL_THREADS must be an integer, got {env!r}") from None
    cfg.validate(args.command)
    return cfg


# ---------------------------------------------------------------------------
# deterministic emission


def _plain(obj):
    """Recursively strip numpy/complex/dataclass types for json.dumps."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    return obj


def _column_text(column) -> map:
    """The CSV text of each entry: str of an integer, repr of anything else as a double."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(repr, column.astype(np.float64).tolist())


_CSV_BLOCK = 512  # report rows formatted at once


class _Emitter:
    """Writes report files under the output directory and remembers them.

    Checkpoint CSVs are written by the tally layer, not through here, so a
    failure cleanup never deletes resumable state.
    """

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.written: list[Path] = []

    def _target(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        self.written.append(path)
        return path

    def csv(self, name: str, header: list[str], columns: list[np.ndarray]) -> Path:
        """One line per row, as many rows as the shortest column has.

        Rows are formatted a block at a time, each column of a block by one
        conversion, so no file's whole text is held at once.
        """
        path = self._target(name)
        n = min(map(len, columns), default=0)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, n, _CSV_BLOCK):
                cells = [_column_text(c[lo:lo + _CSV_BLOCK]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self._target(name)
        with open(path, "w") as fh:
            json.dump(_plain(payload), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path

    def cleanup(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# shared pipeline pieces


def checkpoint_name(cfg: RunConfig) -> str:
    return f"checkpoints_q{cfg.q}_h{cfg.h!r}_x{int(math.floor(cfg.x_max))}.csv"


def _checkpoint_path(cfg: RunConfig) -> Path:
    """The run's checkpoint CSV; with --resume its sidecar must exist."""
    path = Path(cfg.out) / checkpoint_name(cfg)
    meta = _sidecar_path(path)
    if cfg.resume and not meta.exists():
        raise UsageError(f"no sidecar at {meta} to resume from")
    return path


def _run_tally(cfg: RunConfig, race=None):
    grid = CheckpointGrid.from_xmax(cfg.x_max, cfg.h)
    persist = str(_checkpoint_path(cfg))
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return accumulate(
        grid, cfg.q,
        segment_odds=cfg.segment_odds,
        threads=cfg.threads,
        race=race,
        persist=persist,
        resume=cfg.resume,
    )


def _fit_payload(fit) -> dict:
    resid = np.asarray(fit.residual.values)
    tail = resid[-max(1, len(resid) // 4):]
    payload = {
        "C_hat": fit.C_hat,
        "method": fit.method,
        "window_y": list(fit.window),
        "residual_tail_max": float(np.max(np.abs(tail))),
        "details": fit.details,
    }
    if fit.L_hat is not None:
        payload["L_hat"] = complex(fit.L_hat)
    return payload


def _load_expanded(cfg: RunConfig, t):
    """Zero dataset -> merged vanishing orders, expanded list, warnings."""
    dataset = load_zeros(cfg.zeros, cfg.q)
    orders = {label: order for label, order in dataset.central_orders.items()}
    orders.update(cfg.mchi)
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expanded = symmetric_expand(dataset, t)
    notes.extend(str(w.message) for w in caught)
    return dataset, orders, expanded, notes


# ---------------------------------------------------------------------------
# subcommands


def cmd_bias(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Full race pipeline: D series, C fits, envelope report, race density."""
    emit = emit or _Emitter(cfg.out)
    result = _run_tally(cfg, race=(cfg.a, cfg.b))
    series = result.series
    t = race_weight(cfg.a, cfg.b, cfg.q)
    M = bias_constant(t, vanishing_orders=cfg.mchi or None)
    D = race_series(series, t)
    delta = delta_exact(series, t, M)
    race = result.race

    fit_notes: list[str] = []
    if float(series.grid.y[-1]) >= 10.0:
        fits = estimate_C_all(D, M, delta, race,
                              tail_fraction=cfg.tail_fraction,
                              finite_size=cfg.finite_size)
    else:
        # The via-L route needs the oscillation series to settle; on a short
        # grid fall back to the two estimates that remain well defined.
        fits = {
            "pointwise-tail": estimate_C(D, M, "pointwise-tail",
                                         tail_fraction=cfg.tail_fraction,
                                         finite_size=cfg.finite_size),
            "mean": estimate_C(D, M, "mean", race=race,
                               finite_size=cfg.finite_size),
        }
        fits["spread"] = abs(fits["pointwise-tail"].C_hat - fits["mean"].C_hat)
        fit_notes.append("via-L fit skipped: grid ends below y=10")
    C = fits["pointwise-tail"].C_hat
    env_main = envelope_check(D, M, C, eps=cfg.eps)
    K_used = cfg.K if cfg.K is not None else calibrate_K(D, M, C)
    env_log = envelope_check(D, M, C, eps=cfg.eps, envelope="log-envelope", K=K_used)
    races = {"from_2": density_race(race, 2.0, float(series.grid.x[-1]))}
    if cfg.x_max >= 1e4:
        races["from_1000"] = density_race(race, 1000.0, float(series.grid.x[-1]))

    config = cfg.public_dict("bias")
    emit.csv("bias_series.csv",
             ["x", "y", "D", "delta"],
             [series.grid.x, series.grid.y, np.asarray(D.values),
              np.asarray(delta.values).real])
    emit.json("bias_fit.json", {
        "config": config,
        "M": complex(M.value),
        "fits": {name: _fit_payload(fit) for name, fit in fits.items()
                 if name != "spread"},
        "spread": fits["spread"],
        "notes": fit_notes,
    })
    emit.json("bias_envelope.json", {
        "config": config,
        "C": C,
        "M": complex(M.value),
        "K": K_used,
        "theorem_main": env_main,
        "log_envelope": env_log,
    })
    emit.json("bias_race.json", {"config": config, "windows": races})
    return {
        "result": result, "series": series, "t": t, "M": M, "D": D,
        "delta": delta, "race": race, "fits": fits,
        "envelope_main": env_main, "envelope_log": env_log, "races": races,
        "files": list(emit.written),
    }


def cmd_euler(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Partial Euler product series and its stabilization report."""
    emit = emit or _Emitter(cfg.out)
    label = cfg.chi if cfg.chi is not None else f"{cfg.q}.1"
    try:
        chi = character_by_label(label)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if chi.modulus != cfg.q:
        raise UsageError(f"character {label} does not live mod {cfg.q}")
    if chi.is_principal:
        raise UsageError("the principal character has no central Euler product here")
    m_chi = cfg.mchi.get(label, 0)

    result = _run_tally(cfg)
    F = euler_series(result.series, chi, m_chi)
    ell = estimate_ell(F, cfg.tail_fraction)
    report = euler_density_check(F, ell, eps=cfg.eps)

    config = cfg.public_dict("euler")
    vals = np.asarray(F.values)
    emit.csv("euler_series.csv",
             ["x", "y", "F_re", "F_im"],
             [F.grid.x, F.grid.y, vals.real, vals.imag])
    emit.json("euler_fit.json", {
        "config": config,
        "character": label,
        "m_chi": m_chi,
        "ell_hat": ell,
        "density": report,
    })
    return {"result": result, "F": F, "ell": ell, "report": report,
            "chi": chi, "files": list(emit.written)}


def _T_tag(T: float) -> str:
    return str(int(T)) if float(T).is_integer() else repr(float(T))


def cmd_delta(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Exact fluctuation vs zero-sum reconstructions at each height T."""
    if not cfg.zeros:
        raise UsageError("delta needs a zero dataset (--zeros)")
    emit = emit or _Emitter(cfg.out)
    result = _run_tally(cfg)
    series = result.series
    t = race_weight(cfg.a, cfg.b, cfg.q)
    dataset, orders, expanded, notes = _load_expanded(cfg, t)
    M = bias_constant(t, vanishing_orders=orders or None)
    exact = delta_exact(series, t, M)
    if not expanded:
        notes.append("zero dataset is empty; every reconstruction is identically zero")

    heights = cfg.T_values or ((dataset.height(),) if len(dataset) else (0.0,))
    heights = tuple(sorted(set(heights)))
    grid = series.grid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recon = dict(zip(heights, delta_zero_sum(grid, expanded, T=heights)))
    notes.extend(str(w.message) for w in caught)

    y_hi = min(15.0, grid.y_max)
    rms_rows = []
    if grid.y_max >= 5.0:
        for T in heights:
            rms_rows.append({"T": T, "rms": rms_window(exact, recon[T], 5.0, y_hi)})
    monotone = all(
        rms_rows[i + 1]["rms"] <= rms_rows[i]["rms"] * 1.05
        for i in range(len(rms_rows) - 1)
    ) if len(rms_rows) > 1 else None

    config = cfg.public_dict("delta")
    emit.csv("delta_exact.csv",
             ["x", "y", "delta"],
             [grid.x, grid.y, np.asarray(exact.values).real])
    header = ["x", "y"]
    columns = [grid.x, grid.y]
    for T in heights:
        vals = np.asarray(recon[T].values)
        header += [f"delta_T{_T_tag(T)}_re", f"delta_T{_T_tag(T)}_im"]
        columns += [vals.real, vals.imag]
    emit.csv("delta_zero_sum.csv", header, columns)
    emit.json("delta_rms.json", {
        "config": config,
        "M": complex(M.value),
        "zero_count": len(dataset),
        "dataset_height": dataset.height() if len(dataset) else 0.0,
        "rms_window_y": [5.0, y_hi] if grid.y_max >= 5.0 else None,
        "rms": rms_rows,
        "rms_nonincreasing": monotone,
        "warnings": notes,
    })
    return {"result": result, "exact": exact, "recon": recon, "rms": rms_rows,
            "notes": notes, "M": M, "files": list(emit.written)}


def cmd_moments(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Even moments of the fluctuation and the growth-constant fit."""
    emit = emit or _Emitter(cfg.out)
    result = _run_tally(cfg)
    series = result.series
    t = race_weight(cfg.a, cfg.b, cfg.q)
    M = bias_constant(t, vanishing_orders=cfg.mchi or None)
    delta = delta_exact(series, t, M)
    c_fit, rows = fit_moment_constant(delta, ks=cfg.k_values)

    extras: dict = {}
    if series.grid.y_max >= 18.0:
        extras["m2_at_14"] = moment(delta, 1, 14.0)
        extras["m2_at_18"] = moment(delta, 1, 18.0)
    if series.grid.y_max >= 4.0:
        w_value, _ = weighted_second_moment(delta)
        extras["weighted_m2_at_end"] = w_value

    config = cfg.public_dict("moments")
    emit.csv("moments.csv",
             ["k", "Y", "moment", "moment_root"],
             [np.array([r["k"] for r in rows]),
              np.array([r["Y"] for r in rows]),
              np.array([r["moment"] for r in rows]),
              np.array([r["moment_root"] for r in rows])])
    emit.json("moments_fit.json", {
        "config": config,
        "M": complex(M.value),
        "C_fit": c_fit,
        "rows": rows,
        **extras,
    })
    return {"result": result, "delta": delta, "C_fit": c_fit, "rows": rows,
            "extras": extras, "files": list(emit.written)}


def cmd_mean(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Exact mean integral of the race and the mean-route C estimate."""
    emit = emit or _Emitter(cfg.out)
    result = _run_tally(cfg, race=(cfg.a, cfg.b))
    series = result.series
    t = race_weight(cfg.a, cfg.b, cfg.q)
    M = bias_constant(t, vanishing_orders=cfg.mchi or None)
    D = race_series(series, t)
    race = result.race
    trace = mean_values(race)
    fit = estimate_C(D, M, "mean", race=race,
                     tail_fraction=cfg.tail_fraction,
                     finite_size=cfg.finite_size)
    raw = estimate_C(D, M, "mean", race=race,
                     tail_fraction=cfg.tail_fraction, finite_size=False)

    config = cfg.public_dict("mean")
    emit.csv("mean_trace.csv",
             ["x", "y", "mean"],
             [series.grid.x, series.grid.y, trace])
    emit.json("mean_fit.json", {
        "config": config,
        "M": complex(M.value),
        "mean_at_end": mean_integral(race, float(series.grid.x[-1])),
        "fit": _fit_payload(fit),
        "fit_raw": _fit_payload(raw),
    })
    return {"result": result, "trace": trace, "fit": fit, "fit_raw": raw,
            "M": M, "files": list(emit.written)}


def cmd_zeros_validate(cfg: RunConfig, emit: _Emitter | None = None) -> dict:
    """Parse and summarize a zero dataset without running any pipeline."""
    if not cfg.zeros:
        raise UsageError("zeros-validate needs a zero dataset (--zeros)")
    emit = emit or _Emitter(cfg.out)
    dataset = load_zeros(cfg.zeros, cfg.q)
    per_label: dict[str, dict] = {}
    for label in dataset.labels():
        ordinates = dataset.ordinates(label)
        per_label[label] = {
            "count": len(ordinates),
            "height": float(ordinates[-1]) if len(ordinates) else 0.0,
            "central_order": dataset.central_order(label),
        }
    payload = {
        "modulus": dataset.modulus,
        "entries": len(dataset),
        "height": dataset.height() if len(dataset) else 0.0,
        "labels": per_label,
    }
    emit.json("zeros_summary.json", payload)
    return {"dataset": dataset, "summary": payload, "files": list(emit.written)}


# each subcommand: its handler and its help line
_HANDLERS = {
    "bias": (cmd_bias, "race pipeline: D series, C estimates, envelope and race densities"),
    "euler": (cmd_euler, "partial Euler product series and stabilization check"),
    "delta": (cmd_delta, "exact fluctuation vs zero-sum reconstruction"),
    "moments": (cmd_moments, "even moments of the fluctuation and growth-constant fit"),
    "mean": (cmd_mean, "exact mean integral and mean-route C estimate"),
    "zeros-validate": (cmd_zeros_validate, "parse a zero dataset and summarize it"),
}

_PLANNED = {
    "bias": ["bias_series.csv", "bias_fit.json", "bias_envelope.json", "bias_race.json"],
    "euler": ["euler_series.csv", "euler_fit.json"],
    "delta": ["delta_exact.csv", "delta_zero_sum.csv", "delta_rms.json"],
    "moments": ["moments.csv", "moments_fit.json"],
    "mean": ["mean_trace.csv", "mean_fit.json"],
    "zeros-validate": ["zeros_summary.json"],
}

# the public_dict settings each subcommand reads
_TALLY_KEYS = ("q", "x_max", "h", "segment_odds")
_READS = {
    "bias": _TALLY_KEYS + ("a", "b", "mchi", "eps", "K", "tail_fraction", "finite_size"),
    "euler": _TALLY_KEYS + ("chi", "mchi", "eps", "tail_fraction"),
    "delta": _TALLY_KEYS + ("a", "b", "zeros", "mchi", "T"),
    "moments": _TALLY_KEYS + ("a", "b", "mchi", "k"),
    "mean": _TALLY_KEYS + ("a", "b", "mchi", "tail_fraction", "finite_size"),
    "zeros-validate": ("q", "zeros"),
}
_RACES = {command for command, keys in _READS.items() if "a" in keys}
_NEEDS_CHECKPOINTS = {command for command, keys in _READS.items() if "x_max" in keys}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primerace",
        description="Weighted prime races: tallies, bias constants, envelopes, "
                    "Euler products, and zero-sum reconstructions.",
    )
    # every subcommand takes the same options, built once and shared
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value config file; flags override it")
    for key, name, convert, help_text in _OPTIONS:
        shared.add_argument(f"--{key}", dest=name, type=convert,
                            metavar=key.upper().replace("-", "_"), help=help_text)
    shared.add_argument("--mchi", action="append", metavar="LABEL=ORDER",
                        help="central vanishing order override; repeatable")
    shared.add_argument("--resume", action="store_true",
                        help="continue from the persisted checkpoint file")
    shared.add_argument("--raw", action="store_true",
                        help="disable finite-size corrections in C estimates")
    shared.add_argument("--dry-run", dest="dry_run", action="store_true",
                        help="print the plan and write nothing")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _HANDLERS.items():
        sub.add_parser(command, help=summary, parents=[shared])
    return parser


def _print_plan(command: str, cfg: RunConfig) -> None:
    ck = _checkpoint_path(cfg) if command in _NEEDS_CHECKPOINTS else None
    print(f"plan: {command}")
    for key, value in sorted(cfg.public_dict(command).items()):
        print(f"  {key} = {value}")
    out = Path(cfg.out)
    if ck is not None:
        print(f"  checkpoints -> {ck} ({'resume' if cfg.resume else 'fresh'})")
    for name in _PLANNED[command]:
        print(f"  write -> {out / name}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _config_from(args)
        if args.dry_run:
            _print_plan(args.command, cfg)
            return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit = _Emitter(cfg.out)
    try:
        bundle = _HANDLERS[args.command][0](cfg, emit)
    except UsageError as exc:
        emit.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        emit.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in bundle.get("files", ()):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fluctuation series, constants, envelopes, densities, and moments.

Everything here consumes either checkpoint series from the tally pass or
the RaceSummary that accumulate(..., race=(a, b)) returns: the runs where
the race leads, and the sums of w = +-1/sqrt(p) and w*p at every grid
point.  The tally builds those sums with a cumsum per segment seeded by the
carried totals, which equals one cumsum over every race prime bit for bit,
so each race analysis here costs O(runs + grid points) and no stream of
race primes is held.  Integrals over the uniform y-grid use the trapezoid
rule; the race-density and mean-integral computations instead use the exact
step structure of the underlying sums, because those quantities are
piecewise linear/constant between primes and deserve exact measure.

Conventions (documented once here):
  - log log x is written as log y throughout, since x = e^y on the grid.
  - Window-normalized densities: a set filling the whole window [x_lo, X]
    reports density exactly 1 (the normalizer is the window measure, not X).
  - A quantity "at Y" snaps Y down to the nearest grid point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .characters import BiasConstant, Character, ClassFunction
from .ingest import ExpandedZero
from .tally import CheckpointGrid, CheckpointSeries, LOG2, RaceSummary

__all__ = [
    "SampleSeries",
    "DensityReport",
    "FitResult",
    "TruncationWarning",
    "race_series",
    "delta_exact",
    "delta_zero_sum",
    "g_of",
    "estimate_L",
    "estimate_C",
    "estimate_C_all",
    "envelope_check",
    "calibrate_K",
    "density_race",
    "moment",
    "weighted_second_moment",
    "mean_integral",
    "mean_values",
    "euler_series",
    "estimate_ell",
    "euler_density_check",
    "fit_moment_constant",
    "rms_window",
    "LI_TWO",
]

# li(2), the offset logarithmic integral at 2
LI_TWO = 1.0451637801174927


class TruncationWarning(UserWarning):
    """A zero-sum was asked for more height than the dataset provides."""


@dataclass(frozen=True)
class SampleSeries:
    """Values sampled on the checkpoint grid, tagged by what they are."""

    grid: CheckpointGrid
    values: np.ndarray
    kind: str = ""

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ValueError(
                f"series holds {len(self.values)} values for a grid of {self.grid.n} points"
            )

    @property
    def y(self) -> np.ndarray:
        return self.grid.y

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def max_abs_imag(self) -> float:
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            return float(np.max(np.abs(v.imag))) if len(v) else 0.0
        return 0.0

    def as_real(self, tol: float = 1e-9) -> np.ndarray:
        leak = self.max_abs_imag()
        if leak > tol:
            raise ValueError(
                f"{self.kind or 'series'} has imaginary residue {leak:.3e} above {tol:.1e}"
            )
        return np.real(np.asarray(self.values)).astype(np.float64)


@dataclass(frozen=True)
class DensityReport:
    """Window-restricted density estimates for a pointwise predicate."""

    natural_estimate: float
    logarithmic_estimate: float
    exceedance_measure: float
    window: tuple[float, float]  # (y_lo, y_hi) or (x_lo, x_hi); see producer
    blocks: tuple[dict, ...] = ()
    satisfied_fraction: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not (-1e-12 <= self.natural_estimate <= 1 + 1e-12):
            raise ValueError(f"natural density {self.natural_estimate} outside [0, 1]")
        if not (-1e-12 <= self.logarithmic_estimate <= 1 + 1e-12):
            raise ValueError(f"logarithmic density {self.logarithmic_estimate} outside [0, 1]")
        if self.exceedance_measure < 0:
            raise ValueError(f"negative exceedance measure {self.exceedance_measure}")


@dataclass(frozen=True)
class FitResult:
    """A constant estimated from a series, with its residual diagnostics."""

    C_hat: float
    method: str
    window: tuple[float, float]
    residual: SampleSeries
    L_hat: complex | None = None
    details: dict = field(default_factory=dict)


def _m_value(M) -> float:
    v = complex(M.value) if isinstance(M, BiasConstant) else complex(M)
    if abs(v.imag) > 1e-9:
        raise ValueError(f"bias constant {v} is not real; this analysis needs a real weight")
    return v.real


# ---------------------------------------------------------------------------
# fluctuation series


def race_series(ckpts: CheckpointSeries, t: ClassFunction | Character) -> SampleSeries:
    """The weighted race D(x) = sum of t(p)/sqrt(p) on the grid, checked real."""
    raw = SampleSeries(ckpts.grid, ckpts.weighted(t, "invsqrt"), kind="D")
    return SampleSeries(ckpts.grid, raw.as_real(), kind="D")


def delta_exact(ckpts: CheckpointSeries, t: ClassFunction | Character, M) -> SampleSeries:
    """y * pi(e^y; t) / e^(y/2) + 2M, per grid point, from exact counts."""
    m = _m_value(M)
    counts = ckpts.weighted(t, "counts")
    y = ckpts.grid.y
    vals = y * counts / np.exp(y / 2.0) + 2.0 * m
    return SampleSeries(ckpts.grid, vals, kind="delta-exact")


def delta_zero_sum(
    grid: CheckpointGrid,
    zeros: Sequence[ExpandedZero],
    T: float | Sequence[float] | None = None,
    *,
    strict: bool = False,
) -> SampleSeries | list[SampleSeries]:
    """-sum over |gamma| <= T of a_n e^(iy gamma_n) / (1/2 + i gamma_n).

    T defaults to the dataset's height; a T above it warns (TruncationWarning)
    or, with strict, raises.  T may also be a sequence of heights: the result
    is then a list of one series per height, in the order given, and the
    warnings come in that order.  Each height's sum is one matrix product per
    chunk of at most 1024 of its zeros, in dataset order, over a C-contiguous
    table of e^(iy gamma), so each series equals, bit for bit, the one a call
    with that height alone gives.  The heights are summed from the largest
    down, and the table of the last chunk computed is kept: a chunk whose
    zeros all lie in it takes a copy of their columns instead of computing
    e^(iy gamma) again.  With at most 1024 zeros below the largest height,
    each e^(iy gamma) is thus computed once for all heights, and no more
    than one chunk's table and one such copy are held at a time.
    """
    height = max((abs(z.gamma) for z in zeros), default=0.0)
    single = T is None or np.ndim(T) == 0
    heights = [height if T is None else T] if single else list(T)
    for T in heights:
        if T > height and zeros:
            message = (f"requested height {T} exceeds the dataset's {height}; "
                       f"the sum is truncated at what is available")
            if strict:
                raise ValueError(message)
            warnings.warn(message, TruncationWarning, stacklevel=2)
    y = grid.y
    gam = np.array([z.gamma for z in zeros], dtype=np.float64)
    coef = np.array([z.coefficient / z.rho for z in zeros], dtype=np.complex128)
    kept, table = np.empty(0, dtype=np.intp), None  # the last chunk's zeros and table
    out: list[SampleSeries] = [None] * len(heights)
    for i in sorted(range(len(heights)), key=heights.__getitem__, reverse=True):
        selected = np.flatnonzero(np.abs(gam) <= heights[i])
        total = np.zeros(grid.n, dtype=np.complex128)
        for start in range(0, len(selected), 1024):
            chunk = selected[start:start + 1024]
            if not np.isin(chunk, kept).all():
                table = None  # freed before the next one is built
                kept, table = chunk, np.exp(1j * np.outer(y, gam[chunk]))
            if len(chunk) == len(kept):
                total += table @ coef[chunk]
            else:
                total += np.take(table, np.searchsorted(kept, chunk), axis=1) @ coef[chunk]
        out[i] = SampleSeries(grid, -total, kind="delta-zerosum")
    return out[0] if single else out


def g_of(delta: SampleSeries) -> SampleSeries:
    """Cumulative trapezoid of the fluctuation, zero at the grid start."""
    v = np.asarray(delta.values)
    h = delta.grid.h
    steps = h * (v[1:] + v[:-1]) / 2.0
    vals = np.concatenate([[0.0 * v.flat[0]], np.cumsum(steps)])
    return SampleSeries(delta.grid, vals, kind="G")


def rms_window(a: SampleSeries, b: SampleSeries, y_lo: float, y_hi: float) -> float:
    """RMS of (a - b) over grid points with y in [y_lo, y_hi]."""
    if a.grid.n != b.grid.n or a.grid.h != b.grid.h:
        raise ValueError("series live on different grids")
    y = a.grid.y
    mask = (y >= y_lo) & (y <= y_hi)
    if not mask.any():
        raise ValueError(f"no grid points in [{y_lo}, {y_hi}]")
    d = np.asarray(a.values)[mask] - np.asarray(b.values)[mask]
    return float(np.sqrt(np.mean(np.abs(d) ** 2)))


# ---------------------------------------------------------------------------
# the constants L and C


def _tail_window(grid: CheckpointGrid, tail_fraction: float) -> np.ndarray:
    j0 = int(math.floor(grid.n * (1.0 - tail_fraction)))
    return np.arange(max(0, j0), grid.n)


def estimate_L(delta: SampleSeries, tail_fraction: float = 0.25):
    """Tail-stabilized value of integral(delta(u)/u du) plus its trace.

    Returns (L_hat, trace) where trace is the cumulative trapezoid of
    delta(u)/u from the grid start and L_hat is the median of the trace over
    the top tail_fraction of the range (the median damps the oscillation the
    trace carries at any finite height).
    """
    grid = delta.grid
    if grid.y_max < 10.0:
        raise ValueError(
            f"insufficient range: the grid ends at y={grid.y_max:.2f}, need 10"
        )
    v = np.asarray(delta.values) / grid.y
    steps = grid.h * (v[1:] + v[:-1]) / 2.0
    vals = np.concatenate([[0.0 * v.flat[0]], np.cumsum(steps)])
    trace = SampleSeries(grid, vals, kind="L-trace")
    window = _tail_window(grid, tail_fraction)
    tail = vals[window]
    if np.iscomplexobj(tail):
        L_hat = complex(np.median(tail.real), np.median(tail.imag))
    else:
        L_hat = complex(float(np.median(tail)), 0.0)
    return L_hat, trace


def _li_over_x(y: float) -> float:
    """li(x)/x = e^(-y) Ei(y) for y = log x, by the asymptotic series.

    Terms k!/y^(k+1) are summed while they shrink (they eventually diverge;
    truncating at the smallest term leaves an error below that term, which
    is ~4e-7 at y=18 and ~3e-5 at y=10 — far below the corrections' scale).
    """
    term = 1.0 / y
    total = term
    for k in range(1, 16):
        nxt = term * k / y
        if nxt >= term:
            break
        total += nxt
        term = nxt
    return total


def estimate_C(
    D: SampleSeries,
    M,
    method: str = "pointwise-tail",
    *,
    delta: SampleSeries | None = None,
    race: RaceSummary | None = None,
    tail_fraction: float = 0.25,
    finite_size: bool = True,
) -> FitResult:
    """The limiting constant in D(e^y) + M log y -> C, three ways.

    pointwise-tail: median of D + M log y over the tail window.  At finite y
    this quantity sits at C + (Delta(y) - 2M)/y + o(1/y) exactly, and Delta
    oscillates around zero, so the deterministic -2M/y offset is removed
    first (finite_size=False reverts to the uncorrected median).

    via-L: C = M log log 2 + L/2 with L from estimate_L on the supplied
    fluctuation series — an independent route through the integral identity.

    mean: C = (1/X) integral of D + M log log X at the series endpoint,
    computed exactly from the race summary race (see mean_integral).  Two
    deterministic finite-size terms survive in the raw estimate: averaging log log t costs
    +M (li(X) - li(2)) / X, while the -2M/y pointwise drift integrates to
    -2M (li(X) - li(2)) / X, so the raw value sits at C - M li(X)/X + O(1/X)
    and the deficit is added back by default.
    """
    m = _m_value(M)
    grid = D.grid
    window = _tail_window(grid, tail_fraction)
    if len(window) < 100:
        raise ValueError(
            f"fit window holds {len(window)} points; need at least 100"
        )
    y = grid.y
    d = D.as_real() if np.iscomplexobj(np.asarray(D.values)) else np.asarray(D.values, dtype=np.float64)
    y_window = (float(y[window[0]]), float(y[window[-1]]))
    details: dict = {"points": int(len(window)), "finite_size": bool(finite_size)}

    if method == "pointwise-tail":
        samples = d[window] + m * np.log(y[window])
        if finite_size:
            samples = samples + 2.0 * m / y[window]
            details["correction"] = "2M/y per sample"
        c_hat = float(np.median(samples))
        L_hat = None
    elif method == "via-L":
        if delta is None:
            raise ValueError("via-L estimation needs the fluctuation series (delta=...)")
        L_hat, trace = estimate_L(delta, tail_fraction)
        c_hat = m * math.log(LOG2) + L_hat.real / 2.0
        details["L_imag"] = L_hat.imag
    elif method == "mean":
        if race is None:
            raise ValueError("mean estimation needs the race summary (race=...)")
        Y = float(y[-1])
        X = float(grid.x[-1])
        mean_val = mean_integral(race, X)
        c_hat = mean_val + m * math.log(Y)
        details["mean_value"] = mean_val
        if finite_size:
            corr = m * _li_over_x(Y) - m * (LI_TWO + 2.0 * math.log(LOG2)) / X
            c_hat += corr
            details["correction"] = corr
        L_hat = None
    else:
        raise ValueError(f"unknown method {method!r}; "
                         f"use pointwise-tail, via-L, or mean")

    residual = SampleSeries(grid, d + m * np.log(y) - c_hat, kind="C-residual")
    return FitResult(C_hat=c_hat, method=method, window=y_window,
                     residual=residual, L_hat=L_hat, details=details)


def estimate_C_all(
    D: SampleSeries,
    M,
    delta: SampleSeries,
    race: RaceSummary,
    *,
    tail_fraction: float = 0.25,
    finite_size: bool = True,
) -> dict:
    """All three estimates plus their maximum pairwise spread."""
    fits = {
        name: estimate_C(D, M, name, delta=delta, race=race,
                         tail_fraction=tail_fraction, finite_size=finite_size)
        for name in ("pointwise-tail", "via-L", "mean")
    }
    values = [f.C_hat for f in fits.values()]
    fits["spread"] = max(abs(a - b) for a in values for b in values)
    return fits


# ---------------------------------------------------------------------------
# envelopes and densities


def _grid_densities(y: np.ndarray, x: np.ndarray, ok: np.ndarray):
    """Window-normalized natural (x) and logarithmic (y) densities.

    The indicator is piecewise constant from the left grid point; the last
    point closes the window and carries no interval of its own.
    """
    dx = np.diff(x)
    dy = np.diff(y)
    left = ok[:-1]
    nat = float(np.sum(dx[left])) / float(x[-1] - x[0])
    logd = float(np.sum(dy[left])) / float(y[-1] - y[0])
    return nat, logd


def _dyadic_blocks(y: np.ndarray, bad: np.ndarray, h: float, Y0: float):
    """y-measure of violations per block 2^(k-1) Y0 <= y < 2^k Y0."""
    y_lo, y_hi = float(y[0]), float(y[-1])
    k_lo = int(math.floor(math.log2(y_lo / Y0))) + 1
    k_hi = int(math.floor(math.log2(y_hi / Y0))) + 1
    blocks = []
    for k in range(k_lo, k_hi + 1):
        lo, hi = (2.0 ** (k - 1)) * Y0, (2.0 ** k) * Y0
        mask = (y >= lo) & (y < hi)
        if not mask.any():
            continue
        blocks.append({
            "k": k,
            "y_lo": lo,
            "y_hi": hi,
            "points": int(mask.sum()),
            "exceedance": float(h * np.sum(bad & mask)),
        })
    return tuple(blocks)


def _predicate_report(
    y: np.ndarray,
    x: np.ndarray,
    ok: np.ndarray,
    h: float,
    Y0: float,
    fraction_floor: float,
    flags: tuple[str, ...] = (),
) -> DensityReport:
    bad = ~ok
    nat, logd = _grid_densities(y, x, ok)
    tail = y >= fraction_floor
    fraction = float(np.mean(ok[tail])) if tail.any() else None
    return DensityReport(
        natural_estimate=nat,
        logarithmic_estimate=logd,
        exceedance_measure=float(h * np.sum(bad)),
        window=(float(y[0]), float(y[-1])),
        blocks=_dyadic_blocks(y, bad, h, Y0),
        satisfied_fraction=fraction,
        flags=flags,
    )


def calibrate_K(D: SampleSeries, M, C: float) -> float:
    """1.1x the max of |D + M log y - C| * y / log y over the first half.

    Points below y = e are excluded: log y vanishes at y = 1 and the ratio
    blows up there without saying anything about the envelope.  The result
    is floored at 1.1 so the multiplier is always a valid envelope constant,
    even when the residuals happen to sit well inside log y / y.
    """
    m = _m_value(M)
    y = D.grid.y
    d = np.asarray(D.values).real
    half = (y <= (y[0] + y[-1]) / 2.0) & (y >= math.e)
    if not half.any():
        raise ValueError("calibration window is empty; the grid is too short")
    resid = np.abs(d[half] + m * np.log(y[half]) - C)
    return max(float(1.1 * np.max(resid * y[half] / np.log(y[half]))), 1.1)


def envelope_check(
    D: SampleSeries,
    M,
    C: float,
    eps: float = 0.5,
    envelope: str = "theorem-main",
    *,
    K: float | None = None,
    Y0: float = 10.0,
    fraction_floor: float = 10.0,
) -> DensityReport:
    """How much of the range satisfies |D + M log y - C| <= envelope(y).

    envelope "theorem-main" uses (log y)^(3+eps)/y; "log-envelope" uses
    K log y / y, with K calibrated from the first half of the range when
    not supplied.  Densities are window-normalized (see module docstring);
    exceedance is reported in y-measure, overall and per dyadic block
    [2^(k-1) Y0, 2^k Y0).
    """
    m = _m_value(M)
    y = D.grid.y
    x = D.grid.x
    d = np.asarray(D.values).real
    resid = np.abs(d + m * np.log(y) - C)
    logy = np.log(y)
    if envelope == "theorem-main":
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        # |log y|: the grid starts at y = log 2 < 1 where log y dips negative
        bound = np.abs(logy) ** (3.0 + eps) / y
    elif envelope == "log-envelope":
        if K is None:
            K = calibrate_K(D, M, C)
        if not K > 1:
            raise ValueError(f"K must exceed 1, got {K}")
        bound = K * np.abs(logy) / y
    else:
        raise ValueError(f"unknown envelope {envelope!r}")
    ok = resid <= bound
    return _predicate_report(y, x, ok, D.grid.h, Y0, fraction_floor)


def density_race(
    race: RaceSummary,
    x_lo: float = 2.0,
    x_hi: float | None = None,
) -> DensityReport:
    """Exact measure of {x in [x_lo, x_hi] : sum 1/sqrt(p) race is ahead}.

    race is the race summary, whose runs are the stretches where the race
    leads; x_hi defaults to its last grid point.  The running sum starts at
    2 regardless of x_lo; the window only restricts where the measure is
    taken.  Strict inequality: the zero stretch before the first jump never
    counts.  natural_estimate is x-measure over the window length;
    logarithmic_estimate weights by 1/u; exceedance_measure is the
    (x-)measure of the complement within the window.  Each run is clipped
    to the window and costs one length and one log (the q=4 race (3, 1) to
    1e8 has a single run).
    """
    if x_lo < 2.0:
        raise ValueError(f"window must start at 2 or above, got {x_lo}")
    if x_hi is None:
        x_hi = float(race.x[-1]) if len(race.x) else 2.0
    if x_hi <= x_lo:
        raise ValueError(f"empty window [{x_lo}, {x_hi}]")
    lo = np.maximum(race.runs[:, 0], x_lo)
    hi = np.minimum(race.runs[:, 1], x_hi)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    nat_measure = float(np.sum(hi - lo))
    log_measure = float(np.sum(np.log(hi / lo)))
    return DensityReport(
        natural_estimate=nat_measure / (x_hi - x_lo),
        logarithmic_estimate=log_measure / math.log(x_hi / x_lo),
        exceedance_measure=(x_hi - x_lo) - nat_measure,
        window=(float(x_lo), float(x_hi)),
    )


# ---------------------------------------------------------------------------
# moments


def _snap_index(grid: CheckpointGrid, Y: float) -> int:
    # one step of slack: a grid "to Y" ends within h below the nominal Y
    if Y > grid.y_max + grid.h:
        raise ValueError(f"Y={Y} is beyond the grid, which ends at {grid.y_max:.4f}")
    j = int(np.searchsorted(grid.y, Y + 1e-12, side="right")) - 1
    if j < 1:
        raise ValueError(f"Y={Y} leaves no integration range on this grid")
    return j


def moment(delta: SampleSeries, k: int, Y: float) -> float:
    """(1/Y) integral from log 2 to Y of |delta|^(2k), trapezoid."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"moment order k must be a positive integer, got {k}")
    if k > 6:
        raise ValueError(f"k={k} exceeds 6; |delta|^(2k) overflows double precision usefully")
    j = _snap_index(delta.grid, Y)
    y = delta.grid.y[: j + 1]
    f = np.abs(np.asarray(delta.values)[: j + 1]) ** (2 * k)
    return float(np.trapezoid(f, y) / y[-1])


def weighted_second_moment(delta: SampleSeries, Y: float | None = None):
    """(1/Y) integral from y=2 of |delta|^2 / log y, plus its full trace.

    Returns (value_at_Y, trace) where the trace series holds the running
    value at every grid point (NaN before the integral's lower limit y=2).
    """
    grid = delta.grid
    y = grid.y
    j2 = int(np.searchsorted(y, 2.0, side="left"))
    if j2 >= grid.n - 1:
        raise ValueError(f"grid ends at y={grid.y_max:.3f}, before the lower limit 2")
    f = np.abs(np.asarray(delta.values)) ** 2 / np.log(y)
    steps = grid.h * (f[1:] + f[:-1]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(steps[j2:])])
    trace_vals = np.full(grid.n, np.nan)
    trace_vals[j2:] = cum / y[j2:]
    trace = SampleSeries(grid, trace_vals, kind="weighted-m2-trace")
    j = grid.n - 1 if Y is None else _snap_index(grid, Y)
    if j < j2:
        raise ValueError(f"Y={Y} is below the lower limit y=2")
    return float(trace_vals[j]), trace


def fit_moment_constant(delta: SampleSeries, ks: Sequence[int] = (1, 2, 3),
                        Y: float | None = None):
    """Fit the moment-growth constant: smallest C with m_2k <= (Ck)^(4k).

    Returns (C_fit, rows) with one row (k, Y, m_2k, m_2k^(1/2k)) per order.
    By construction m_2k^(1/2k) <= (C_fit * k)^2 for every fitted k.
    """
    if not ks:
        raise ValueError("need at least one moment order")
    Y_val = delta.grid.y_max if Y is None else Y
    rows = []
    c_fit = 0.0
    for k in ks:
        m2k = moment(delta, int(k), Y_val)
        rows.append({
            "k": int(k),
            "Y": float(delta.grid.y[_snap_index(delta.grid, Y_val)]),
            "moment": m2k,
            "moment_root": m2k ** (1.0 / (2 * k)),
        })
        c_fit = max(c_fit, m2k ** (1.0 / (4 * k)) / k)
    return c_fit, rows


# ---------------------------------------------------------------------------
# the mean integral (exact step arithmetic)


def mean_integral(race: RaceSummary, x: float) -> float:
    """(1/x) integral from 2 to x of the race sum, exactly, at a grid point x.

    The integrand jumps by w_p at each prime p of the race, so the integral
    is sum over p <= x of w_p (x - p); streaming form (x Sw - Swp)/x, from
    the race summary's sums at x.
    """
    if x < 2:
        raise ValueError(f"x must be at least 2, got {x}")
    j = int(np.searchsorted(race.x, x))
    if j == len(race.x) or race.x[j] != x:
        raise ValueError(f"x={x} is not a grid point of the race summary")
    return float((x * race.sw[j] - race.swp[j]) / x)


def mean_values(race: RaceSummary) -> np.ndarray:
    """mean_integral at every grid point of the race summary."""
    return (race.x * race.sw - race.swp) / race.x


# ---------------------------------------------------------------------------
# Euler products on the critical line


def euler_series(ckpts: CheckpointSeries, chi: Character, vanishing_order: int = 0) -> SampleSeries:
    """(log x)^m * inverted partial Euler product at s=1/2, per grid point."""
    if chi.is_principal:
        raise ValueError("Euler product on the critical line needs a nonprincipal character")
    if vanishing_order < 0:
        raise ValueError("vanishing order must be nonnegative")
    col = ckpts.char_labels.index(chi.label) if chi.label in ckpts.char_labels else None
    if col is None:
        raise ValueError(f"checkpoints carry no column for character {chi.label}")
    logs = ckpts.char_matrix("eulerlog")[:, col]
    scale = ckpts.grid.y ** vanishing_order
    return SampleSeries(ckpts.grid, scale * np.exp(logs), kind="euler-F")


def estimate_ell(F: SampleSeries, tail_fraction: float = 0.25) -> complex:
    """Tail median of the partial-product series (componentwise for complex)."""
    window = _tail_window(F.grid, tail_fraction)
    tail = np.asarray(F.values)[window]
    if np.iscomplexobj(tail):
        return complex(float(np.median(tail.real)), float(np.median(tail.imag)))
    return complex(float(np.median(tail)), 0.0)


def euler_density_check(
    F: SampleSeries,
    ell_hat: complex,
    eps: float = 0.5,
    *,
    Y0: float = 10.0,
    fraction_floor: float = 10.0,
) -> DensityReport:
    """Density of {x : |F(x) - ell_hat| <= (log y)^(3+eps)/y}."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    y = F.grid.y
    resid = np.abs(np.asarray(F.values) - ell_hat)
    bound = np.abs(np.log(y)) ** (3.0 + eps) / y
    ok = resid <= bound
    flags = ("ell-near-zero",) if abs(ell_hat) < 1e-6 else ()
    return _predicate_report(y, F.grid.x, ok, F.grid.h, Y0, fraction_floor, flags)

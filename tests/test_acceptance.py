"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test measures its quantities, records a scoreboard entry (printed as one
line per criterion in the terminal summary), then asserts.  The heavy runs
(q=4 race to 10^8) are shared module-scoped fixtures; later criteria reuse
the persisted checkpoint file instead of re-sieving.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from primerace.analysis import (
    LI_TWO,
    SampleSeries,
    delta_zero_sum,
    fit_moment_constant,
    g_of,
    moment,
    rms_window,
    weighted_second_moment,
)
from primerace.characters import (
    enumerate_characters,
    euler_phi,
    inner_product,
    race_weight,
    square_root_count,
    unit_residues,
)
from primerace.cli import RunConfig, cmd_bias, cmd_delta, cmd_euler
from primerace.ingest import symmetric_expand, load_zeros
from primerace.sieve import simple_sieve
from primerace.tally import CheckpointGrid, accumulate, merge, range_partial

from oracles import ReferenceTally

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
ZEROS_PATH = DATA_DIR / "zeros_q4_T200.txt"
X_BIG = 1.0e8
LOG2 = math.log(2.0)


def big_config(out: Path, **overrides) -> RunConfig:
    base = dict(q=4, a=3, b=1, x_max=X_BIG, h=0.01, out=str(out))
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """Criterion-3 run: q=4 race to 10^8, single-threaded, with reports."""
    out = tmp_path_factory.mktemp("acceptance_main")
    t0 = time.perf_counter()
    bundle = cmd_bias(big_config(out, threads=1))
    elapsed = time.perf_counter() - t0
    return {"out": out, "bundle": bundle, "seconds": elapsed}


@pytest.fixture(scope="module")
def big_rerun(tmp_path_factory, big_run):
    """The same run at 8 threads, in a separate directory."""
    out = tmp_path_factory.mktemp("acceptance_threads8")
    cmd_bias(big_config(out, threads=8))
    return {"out": out}


@pytest.fixture(scope="module")
def euler_run(big_run):
    """Central Euler product for 4.1, reusing the persisted checkpoints."""
    return cmd_euler(big_config(big_run["out"], chi="4.1", resume=True))


@pytest.fixture(scope="module")
def delta_run(big_run):
    """Zero-sum reconstructions at four heights from the real dataset."""
    cfg = big_config(big_run["out"], zeros=str(ZEROS_PATH),
                     T_values=(25.0, 50.0, 100.0, 200.0), resume=True)
    return cmd_delta(cfg)


class TestCriterion01:
    def test_exact_algebra(self, acceptance):
        t0 = time.perf_counter()
        worst = 0.0

        # character orthogonality: the value matrix over units is unitary
        # (up to sqrt(phi)) in both directions
        for q in (3, 4, 5, 8, 12, 16, 21, 40):
            units = unit_residues(q)
            phi = euler_phi(q)
            U = np.array([[chi(a) for a in units]
                          for chi in enumerate_characters(q)])
            eye = np.eye(phi)
            worst = max(worst, float(np.max(np.abs(U @ U.conj().T - phi * eye))))
            worst = max(worst, float(np.max(np.abs(U.conj().T @ U - phi * eye))))

        # Fourier inversion of race weights
        for q, a, b in ((4, 3, 1), (5, 2, 3), (8, 3, 1), (12, 5, 7), (21, 2, 5)):
            t = race_weight(a, b, q)
            chars = enumerate_characters(q)
            coeffs = [inner_product(t, chi) for chi in chars]
            for x in unit_residues(q):
                recon = sum(c * chi(x) for c, chi in zip(coeffs, chars))
                worst = max(worst, abs(recon - t(x)))

        # the square-root counts resum to the unit group order, exactly
        sq_ok = all(int(square_root_count(q).counts.sum()) == euler_phi(q)
                    for q in range(3, 501))

        # race weight validation
        with pytest.raises(ValueError):
            race_weight(2, 1, 4)  # 2 is not a unit mod 4
        with pytest.raises(ValueError):
            race_weight(3, 3, 4)
        with pytest.raises(ValueError):
            race_weight(7, 3, 4)  # classes coincide mod 4

        # partial-tally merge: identity, bit-exact aligned split, bad inputs
        from primerace.tally import TallyPartial
        right = range_partial(2, 2000, 4, segment_odds=499)
        ident = merge(TallyPartial.empty(4), right)
        ti, tr = ident.totals(), right.totals()
        merge_ok = all(np.array_equal(ti[k], tr[k]) for k in tr)
        split = merge(range_partial(2, 1000, 4, segment_odds=499),
                      range_partial(1000, 2000, 4, segment_odds=499))
        ts = split.totals()
        merge_ok = merge_ok and all(np.array_equal(ts[k], tr[k]) for k in tr)
        with pytest.raises(ValueError, match="overlap"):
            merge(range_partial(2, 1000, 4), range_partial(900, 1500, 4))
        with pytest.raises(ValueError, match="adjacent"):
            merge(range_partial(2, 1000, 4), range_partial(1100, 1500, 4))

        elapsed = time.perf_counter() - t0
        ok = worst < 1e-12 and sq_ok and merge_ok and elapsed < 10.0
        acceptance(1, "exact algebra (orthogonality, inversion, merge)", ok,
                   f"max err {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-12
        assert sq_ok
        assert merge_ok
        assert elapsed < 10.0


def prefix_at(positions: np.ndarray, cumulative: np.ndarray, xs: np.ndarray):
    """Prefix-sum values of a jump sequence at each query point."""
    idx = np.searchsorted(positions, xs, side="right")
    padded = np.concatenate([[0], cumulative])
    return padded[idx]


class TestCriterion02:
    def test_streaming_tally_matches_brute_force(self, acceptance):
        t0 = time.perf_counter()
        worst = 0.0
        for q in (3, 4, 5, 8):
            grid = CheckpointGrid.from_xmax(10_000, h=0.01)
            series = accumulate(grid, q).series
            tables = {
                chi.index: {a: complex(chi(a)) for a in unit_residues(q)}
                for chi in enumerate_characters(q)
            }
            ref = ReferenceTally(10_000, q, tables)
            xs = grid.x

            def check(ours, theirs):
                nonlocal worst
                err = np.max(np.abs(ours - theirs) /
                             np.maximum(np.abs(theirs), 1e-12))
                worst = max(worst, float(err))
                assert np.allclose(ours, theirs, rtol=1e-10, atol=1e-12)

            for i, a in enumerate(series.units):
                d = ref.by_class[a]
                counts = prefix_at(d["positions"], d["count"], xs)
                assert np.array_equal(series.counts[:, i], counts)
                check(series.invsqrt[:, i],
                      prefix_at(d["positions"], d["invsqrt"], xs).astype(float))
                check(series.theta[:, i],
                      prefix_at(d["positions"], d["log"], xs).astype(float))
                check(series.psi[:, i],
                      prefix_at(ref.psi[a]["positions"], ref.psi[a]["sum"],
                                xs).astype(float))
            for chi in enumerate_characters(q)[1:]:
                col = series.char_labels.index(chi.label)
                d = ref.char[chi.index]
                for kind in ("invsqrt", "mertens", "eulerlog"):
                    check(series.char_matrix(kind)[:, col],
                          prefix_at(ref.positions, d[kind], xs).astype(complex))
        elapsed = time.perf_counter() - t0
        ok = elapsed < 30.0
        acceptance(2, "tally equals trial-division oracle (q=3,4,5,8 to 1e4)",
                   ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert elapsed < 30.0


class TestCriterion03:
    def test_envelope_density(self, acceptance, big_run):
        env = big_run["bundle"]["envelope_main"]
        frac = env.satisfied_fraction
        blocks = list(env.blocks)
        tail = [b["exceedance"] for b in blocks[-3:]]
        monotone = all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
        elapsed = big_run["seconds"]
        ok = frac >= 0.90 and monotone and elapsed < 300.0
        acceptance(3, "envelope holds on >=90% of y>=10 at X=1e8", ok,
                   f"fraction {frac:.4f}, tail blocks {tail}, {elapsed:.0f}s")
        assert frac >= 0.90
        assert monotone, f"tail-block exceedances not nonincreasing: {tail}"
        assert elapsed < 300.0


class TestCriterion04:
    def test_natural_density_of_lead(self, acceptance, big_run):
        races = big_run["bundle"]["races"]
        nat = races["from_1000"].natural_estimate
        ok = nat >= 0.99
        acceptance(4, "race leads on >=99% of [1e3, 1e8] by natural measure",
                   ok, f"measured {nat:.6f}")
        assert nat >= 0.99


class TestCriterion05:
    def test_three_estimates_agree(self, acceptance, big_run):
        fits = big_run["bundle"]["fits"]
        pw = fits["pointwise-tail"].C_hat
        d_mean = abs(pw - fits["mean"].C_hat)
        d_vial = abs(pw - fits["via-L"].C_hat)
        ok = d_mean <= 0.02 and d_vial <= 0.02
        acceptance(5, "constant estimates cross-validate within 0.02", ok,
                   f"pw-mean {d_mean:.4f}, pw-viaL {d_vial:.4f}")
        assert d_mean <= 0.02
        assert d_vial <= 0.02


class TestCriterion06:
    def test_euler_product_stabilizes(self, acceptance, euler_run):
        F = euler_run["F"]
        x = F.grid.x
        vals = np.asarray(F.values).real
        med_lo = float(np.median(vals[(x >= 1e5) & (x <= 1e6)]))
        med_hi = float(np.median(vals[(x >= 1e7) & (x <= 1e8)]))
        drift = abs(med_hi - med_lo)
        ell = euler_run["ell"]
        frac = euler_run["report"].natural_estimate
        ok = drift <= 0.01 and abs(ell) > 0.1 and frac >= 0.9
        acceptance(6, "central Euler product stabilizes (4.1, order 0)", ok,
                   f"median drift {drift:.2e}, ell {ell.real:.4f}, "
                   f"in-band {frac:.4f}")
        assert drift <= 0.01
        assert abs(ell) > 0.1
        assert frac >= 0.9


class TestCriterion07:
    """Zero-sum reconstruction error versus truncation height.

    The reconstruction carries an irreducible deterministic part of size
    O(1/y) (the square-of-primes drift y*pi(e^(y/2))/(2 e^(y/2)) - 1, which
    no truncation height can remove), so the raw RMS over y in [5, 15]
    saturates near 0.24 instead of falling by the naive tail factor.  The
    asserted bounds: strictly improving RMS across heights with 5% slack,
    a pipeline-confirmed raw ratio, and the tail-driven ratio after removing
    the independently computed drift.
    """

    def test_reconstruction_improves_with_height(self, acceptance, delta_run):
        rows = {row["T"]: row["rms"] for row in delta_run["rms"]}
        heights = sorted(rows)
        seq = [rows[T] for T in heights]
        monotone = all(seq[i + 1] <= seq[i] * 1.05 for i in range(len(seq) - 1))
        raw_ratio = rows[200.0] / rows[50.0]

        exact = delta_run["exact"]
        y = exact.grid.y
        win = (y >= 5.0) & (y <= 15.0)
        yw = y[win]
        lim = int(math.exp(15.0 / 2.0)) + 2
        ps = simple_sieve(lim - 1)
        pcount = np.searchsorted(ps, np.exp(yw / 2.0), side="right")
        drift = yw * (pcount - 1) / 2.0 / np.exp(yw / 2.0) - 1.0

        def corrected_rms(T):
            resid = (np.asarray(exact.values).real[win]
                     - np.asarray(delta_run["recon"][T].values).real[win]
                     - drift)
            return float(np.sqrt(np.mean(resid ** 2)))

        cor_ratio = corrected_rms(200.0) / corrected_rms(50.0)

        # synthetic reconstruction identity: build the target directly from
        # an expanded list and require delta_zero_sum to reproduce it
        grid = CheckpointGrid(0.01, 1500)
        dataset = load_zeros(ZEROS_PATH, 4)
        expanded = symmetric_expand(dataset, race_weight(3, 1, 4))
        target = np.zeros(grid.n, dtype=complex)
        for z in expanded:
            target -= z.coefficient * np.exp(1j * grid.y * z.gamma) / z.rho
        recon = delta_zero_sum(grid, expanded, T=dataset.height())
        synth_rms = float(np.sqrt(np.mean(
            np.abs(np.asarray(recon.values) - target) ** 2)))

        ok = (monotone and raw_ratio <= 0.9 and cor_ratio <= 0.8
              and synth_rms < 1e-9)
        acceptance(7, "zero-sum reconstruction converges with height", ok,
                   f"RMS {seq[0]:.3f}->{seq[-1]:.3f}, raw ratio {raw_ratio:.3f}, "
                   f"drift-corrected {cor_ratio:.3f}, synth {synth_rms:.1e}")
        assert monotone, f"RMS not nonincreasing across heights: {rows}"
        assert raw_ratio <= 0.9
        assert cor_ratio <= 0.8
        assert synth_rms < 1e-9


def grid_to(y_max: float, h: float = 0.01) -> CheckpointGrid:
    return CheckpointGrid(h, int(math.floor((y_max - LOG2) / h)) + 1)


class TestCriterion08:
    def test_moment_suite(self, acceptance, big_run):
        # synthetic sine closed forms on a Y=200 grid.  The integral starts
        # at y = log 2 (the grid's origin), so the truncated antiderivatives
        # are the exact targets; against the asymptotic constants the fixed
        # -c*log2/Y deficit plus boundary ripple costs up to ~1.4e-3 at k=2,
        # which no choice of phase can evade (deficit alone is 1.3e-3).
        grid = grid_to(200.0)
        y = grid.y
        Y = float(y[-1])
        sine = SampleSeries(grid, np.sin(y))
        m1 = moment(sine, 1, Y)
        m2 = moment(sine, 2, Y)

        def F1(u):  # integral of sin^2
            return u / 2.0 - math.sin(2 * u) / 4.0

        def F2(u):  # integral of sin^4
            return 3.0 * u / 8.0 - math.sin(2 * u) / 4.0 + math.sin(4 * u) / 32.0

        exact1 = (F1(Y) - F1(LOG2)) / Y
        exact2 = (F2(Y) - F2(LOG2)) / Y
        closed_ok = abs(m1 - exact1) < 1e-5 and abs(m2 - exact2) < 1e-5
        const_dev1 = abs(m1 - 0.5)
        const_dev2 = abs(m2 - 0.375)
        const_ok = const_dev1 < 1e-3 and const_dev2 < 2.5e-3

        # real-data moment stability and growth-constant domination
        delta = big_run["bundle"]["delta"]
        m2_14 = moment(delta, 2, 14.0)
        m2_18 = moment(delta, 2, 18.0)
        swing = abs(m2_18 - m2_14) / m2_14
        c_fit, rows = fit_moment_constant(delta, ks=(1, 2, 3))
        dominated = all(row["moment_root"] <= (c_fit * row["k"]) ** 2 + 1e-12
                        for row in rows)

        ok = closed_ok and const_ok and swing < 0.20 and dominated
        acceptance(8, "moments: closed forms, stability, growth constant", ok,
                   f"sin devs {const_dev1:.1e}/{const_dev2:.1e}, "
                   f"m2 swing {swing:.1%}, C {c_fit:.3f}")
        assert closed_ok
        assert const_ok
        assert swing < 0.20
        assert dominated


class TestCriterion09:
    def test_integral_growth_bounds(self, acceptance, big_run):
        delta = big_run["bundle"]["delta"]
        G = g_of(delta)
        y = G.grid.y
        g = np.abs(np.asarray(G.values).real)
        lo, hi = math.e ** 2, float(y[-1])
        first = (y >= lo) & (y <= (lo + hi) / 2.0)
        second = (y > (lo + hi) / 2.0)
        ratio_first = float(np.max(g[first] / np.log(y[first])))
        ratio_second = float(np.max(g[second] / np.log(y[second])))
        g_ok = ratio_second <= 2.0 * ratio_first

        end_val, trace = weighted_second_moment(delta)
        j_half = int(np.searchsorted(y, float(y[-1]) / 2.0))
        half_val = float(np.asarray(trace.values)[j_half])
        w_ok = end_val < half_val

        ok = g_ok and w_ok
        acceptance(9, "integral growth stays logarithmic; weighted m2 decays",
                   ok, f"G/log y {ratio_first:.3f}->{ratio_second:.3f}, "
                   f"weighted m2 {half_val:.4f}->{end_val:.4f}")
        assert g_ok
        assert w_ok


class TestCriterion10:
    FILES = (
        "bias_series.csv",
        "bias_fit.json",
        "bias_envelope.json",
        "bias_race.json",
        "checkpoints_q4_h0.01_x100000000.csv",
        "checkpoints_q4_h0.01_x100000000.meta.json",
    )

    def test_thread_counts_byte_identical(self, acceptance, big_run, big_rerun):
        differing = []
        for name in self.FILES:
            a = (big_run["out"] / name).read_bytes()
            b = (big_rerun["out"] / name).read_bytes()
            if a != b:
                differing.append(name)
        ok = not differing
        acceptance(10, "1-thread and 8-thread runs byte-identical", ok,
                   f"{len(self.FILES)} files compared"
                   + (f", differing: {differing}" if differing else ""))
        assert not differing

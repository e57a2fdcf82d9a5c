"""Closed-form and brute-force checks for the analysis layer."""
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primerace.analysis import (
    LI_TWO,
    DensityReport,
    FitResult,
    SampleSeries,
    TruncationWarning,
    calibrate_K,
    delta_exact,
    delta_zero_sum,
    density_race,
    envelope_check,
    estimate_C,
    estimate_C_all,
    estimate_L,
    estimate_ell,
    euler_density_check,
    euler_series,
    fit_moment_constant,
    g_of,
    mean_integral,
    mean_values,
    moment,
    rms_window,
    weighted_second_moment,
)
from primerace.characters import bias_constant, character_by_label, race_weight
from primerace.cli import RunConfig, cmd_bias, cmd_mean
from primerace.ingest import ExpandedZero, load_zeros, symmetric_expand
from primerace.sieve import simple_sieve
from primerace.tally import CheckpointGrid, RaceSummary, accumulate

from oracles import (
    ReferenceTally,
    exact_race_density,
    exact_race_log_density,
    race_jump_weights,
    stream_density_race,
    stream_mean_values,
    stream_summary,
)

LOG2 = math.log(2.0)
ZEROS_PATH = Path(__file__).resolve().parent.parent / "data" / "zeros_q4_T200.txt"
M_RACE = -0.5  # mod-4 race constant, one square root of unity


@pytest.fixture(scope="module")
def q4_run():
    grid = CheckpointGrid.from_xmax(10_000)
    return accumulate(grid, 4, segment_odds=1 << 13)


@pytest.fixture(scope="module")
def q4_delta(q4_run):
    t = race_weight(3, 1, 4)
    return delta_exact(q4_run.series, t, M_RACE)


def grid_to(y_max: float, h: float = 0.01) -> CheckpointGrid:
    n = int(math.floor((y_max - LOG2) / h)) + 1
    return CheckpointGrid(h=h, n=n)


class TestSampleSeries:
    def test_length_guard(self):
        grid = grid_to(5.0)
        with pytest.raises(ValueError, match="values for a grid"):
            SampleSeries(grid, np.zeros(grid.n + 3))

    def test_as_real_passes_clean_data(self):
        grid = grid_to(3.0)
        s = SampleSeries(grid, np.ones(grid.n) + 0j)
        assert s.max_abs_imag() == 0.0
        assert np.all(s.as_real() == 1.0)

    def test_as_real_rejects_leakage(self):
        grid = grid_to(3.0)
        vals = np.ones(grid.n) + 1e-6j
        with pytest.raises(ValueError, match="imaginary residue"):
            SampleSeries(grid, vals, kind="demo").as_real()


class TestDeltaExact:
    def test_value_at_two_is_minus_one(self, q4_delta):
        # no unit-residue prime has been seen at x=2, so only 2M survives
        assert q4_delta.values[0] == pytest.approx(-1.0, abs=0)

    def test_value_just_past_three(self, q4_run):
        t = race_weight(3, 1, 4)
        d = delta_exact(q4_run.series, t, M_RACE)
        y = d.grid.y
        j = int(np.searchsorted(d.grid.x, 3.0, side="left"))
        # between 3 and 5 the race count is exactly one prime (p=3)
        expected = y[j] * math.exp(-y[j] / 2.0) - 1.0
        assert d.values[j].real == pytest.approx(expected, rel=1e-14)
        assert d.values[j].real == pytest.approx(-0.3657, abs=2e-3)

    def test_matches_reference_counts(self, q4_run):
        ref = ReferenceTally(10_000, 4)
        t = race_weight(3, 1, 4)
        d = delta_exact(q4_run.series, t, M_RACE)
        y, x = d.grid.y, d.grid.x
        for j in range(0, d.grid.n, 97):
            c3 = ref.class_stats(3, x[j])["count"]
            c1 = ref.class_stats(1, x[j])["count"]
            expected = y[j] * (c3 - c1) / math.sqrt(x[j]) - 1.0
            assert d.values[j].real == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_accepts_bias_constant_object(self, q4_run):
        t = race_weight(3, 1, 4)
        M = bias_constant(t)
        d = delta_exact(q4_run.series, t, M)
        d_float = delta_exact(q4_run.series, t, -0.5)
        assert np.array_equal(d.values, d_float.values)

    def test_real_weight_has_no_imaginary_part(self, q4_delta):
        assert q4_delta.max_abs_imag() < 1e-15


class TestDeltaZeroSum:
    def pair(self, gamma=1.0, coeff=-1.0):
        return [
            ExpandedZero(coefficient=complex(coeff), gamma=gamma, label="4.1"),
            ExpandedZero(coefficient=complex(coeff), gamma=-gamma, label="4.1"),
        ]

    def test_conjugate_pair_closed_form(self):
        grid = grid_to(12.0)
        s = delta_zero_sum(grid, self.pair())
        y = grid.y
        expected = 2.0 * np.real(np.exp(1j * y) * (0.5 - 1j) / 1.25)
        assert np.allclose(s.values.real, expected, atol=1e-13)
        assert np.max(np.abs(s.values.imag)) < 1e-13

    def test_amplitude_at_origin(self):
        # the closed form gives 0.8 at y=0; check by direct evaluation
        val = -sum(z.coefficient * np.exp(0) / z.rho for z in self.pair())
        assert val.real == pytest.approx(0.8)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_truncation_height_filters(self):
        grid = grid_to(6.0)
        zeros = self.pair(1.0) + self.pair(9.0)
        full = delta_zero_sum(grid, zeros)
        low = delta_zero_sum(grid, zeros, T=5.0)
        only_low = delta_zero_sum(grid, self.pair(1.0))
        assert np.array_equal(low.values, only_low.values)
        assert not np.array_equal(full.values, low.values)

    def test_asking_beyond_the_dataset_warns(self):
        grid = grid_to(6.0)
        with pytest.warns(TruncationWarning, match="exceeds the dataset"):
            s = delta_zero_sum(grid, self.pair(1.0), T=50.0)
        assert np.allclose(s.values, delta_zero_sum(grid, self.pair(1.0)).values)

    def test_strict_mode_raises_instead(self):
        grid = grid_to(6.0)
        with pytest.raises(ValueError, match="exceeds the dataset"):
            delta_zero_sum(grid, self.pair(1.0), T=50.0, strict=True)

    def test_empty_list_gives_zero(self):
        grid = grid_to(6.0)
        s = delta_zero_sum(grid, [])
        assert np.all(s.values == 0)


def zero_sum_loop(grid, zeros, T):
    """The zero sum at one height as a loop of chunks, each with its own table."""
    selected = [z for z in zeros if abs(z.gamma) <= T]
    total = np.zeros(grid.n, dtype=np.complex128)
    for start in range(0, len(selected), 1024):
        chunk = selected[start:start + 1024]
        gam = np.array([z.gamma for z in chunk])
        coef = np.array([z.coefficient / z.rho for z in chunk], dtype=np.complex128)
        total += np.exp(1j * np.outer(grid.y, gam)) @ coef
    return -total


class TestDeltaZeroSumHeights:
    """Several heights in one call: each series as a call with that height alone."""

    def assert_as_single_calls(self, grid, zeros, heights):
        """The warnings of the one call, after checking its series bit for bit."""
        with warnings.catch_warnings(record=True) as together:
            warnings.simplefilter("always")
            got = delta_zero_sum(grid, zeros, T=heights)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            want = [delta_zero_sum(grid, zeros, T=T) for T in heights]
        assert len(got) == len(heights)
        for T, g, w in zip(heights, got, want):
            assert g.kind == w.kind == "delta-zerosum"
            assert np.array_equal(g.values.view(np.float64), w.values.view(np.float64)), T
            assert np.array_equal(g.values.view(np.float64),
                                  zero_sum_loop(grid, zeros, T).view(np.float64)), T
        assert [str(w.message) for w in together] == [str(w.message) for w in alone]
        assert all(w.category is TruncationWarning for w in together)
        return [str(w.message) for w in together]

    def test_committed_q4_dataset(self):
        zeros = symmetric_expand(load_zeros(str(ZEROS_PATH), 4), race_weight(3, 1, 4))
        grid = CheckpointGrid.from_xmax(1e8)
        assert self.assert_as_single_calls(grid, zeros, (25.0, 50.0, 100.0, 200.0)) == [
            "requested height 200.0 exceeds the dataset's 198.80647573614692; "
            "the sum is truncated at what is available"]

    def test_heights_above_the_dataset_warn_in_the_order_given(self):
        zeros = symmetric_expand(load_zeros(str(ZEROS_PATH), 4), race_weight(3, 1, 4))
        messages = self.assert_as_single_calls(grid_to(10.0), zeros, (300.0, 25.0, 250.0, 300.0))
        assert [m.split()[2] for m in messages] == ["300.0", "250.0", "300.0"]

    def test_lower_selections_that_are_not_prefixes(self):
        # more than one chunk of 1024 zeros, ordinates in no order, so the
        # zeros below a lower height are scattered through the list
        rng = np.random.default_rng(14)
        zeros = [ExpandedZero(coefficient=complex(*rng.normal(size=2)), gamma=float(g), label="x")
                 for g in rng.uniform(-300.0, 300.0, 2600)]
        self.assert_as_single_calls(grid_to(8.0), zeros, (40.0, 150.0, 299.0, 300.0, 5.0, 150.0))

    def test_empty_list(self):
        got = delta_zero_sum(grid_to(6.0), [], T=(10.0, 5.0))
        assert [np.all(s.values == 0) for s in got] == [True, True]
        self.assert_as_single_calls(grid_to(6.0), [], (10.0, 5.0))
        assert delta_zero_sum(grid_to(6.0), [], T=()) == []


class TestCumulative:
    def test_constant_integrates_linearly(self):
        grid = grid_to(10.0)
        g = g_of(SampleSeries(grid, np.ones(grid.n)))
        assert np.allclose(g.values, grid.y - grid.y[0], atol=1e-12)

    def test_linear_integrand_is_exact(self):
        # the trapezoid rule is exact on polynomials of degree one
        grid = grid_to(10.0)
        g = g_of(SampleSeries(grid, grid.y.copy()))
        expected = (grid.y**2 - grid.y[0] ** 2) / 2.0
        assert np.allclose(g.values, expected, rtol=1e-13, atol=1e-10)

    def test_starts_at_zero(self, q4_delta):
        g = g_of(q4_delta)
        assert g.values[0] == 0.0


class TestEstimateL:
    def test_inverse_y_trace_value(self):
        grid = grid_to(20.0)
        delta = SampleSeries(grid, 1.0 / grid.y)
        L_hat, trace = estimate_L(delta)
        y_end = grid.y[-1]
        # trapezoid error for this convex integrand is h^2/12 * |f'(a)| ~ 5e-5
        assert trace.values[-1] == pytest.approx(1.0 / LOG2 - 1.0 / y_end, abs=1e-4)
        assert L_hat.imag == 0.0
        assert L_hat.real == pytest.approx(1.0 / LOG2, abs=0.06)

    def test_short_grid_is_refused(self):
        grid = grid_to(8.0)
        with pytest.raises(ValueError, match="insufficient range"):
            estimate_L(SampleSeries(grid, np.ones(grid.n)))


class TestEstimateC:
    def test_pointwise_corrected_recovers_exactly(self):
        # a series built with the identity's own 1/y structure and no
        # oscillation: D = C - M log y - 2M/y
        grid = grid_to(18.0)
        C, m = 7.0, -0.5
        D = SampleSeries(grid, C - m * np.log(grid.y) - 2.0 * m / grid.y)
        fit = estimate_C(D, m, "pointwise-tail")
        assert fit.C_hat == pytest.approx(C, abs=1e-12)
        assert fit.method == "pointwise-tail"
        assert fit.L_hat is None

    def test_pointwise_uncorrected_on_plain_affine(self):
        grid = grid_to(18.0)
        C, m = 7.0, -0.5
        D = SampleSeries(grid, C - m * np.log(grid.y))
        fit = estimate_C(D, m, "pointwise-tail", finite_size=False)
        assert fit.C_hat == pytest.approx(C, abs=1e-12)
        raw = estimate_C(D, m, "pointwise-tail", finite_size=True)
        # correction shifts by 2M/y at tail scale
        assert raw.C_hat != pytest.approx(C, abs=1e-3)

    def test_residual_series_definition(self):
        grid = grid_to(18.0)
        m = -0.5
        D = SampleSeries(grid, 3.0 - m * np.log(grid.y))
        fit = estimate_C(D, m, "pointwise-tail", finite_size=False)
        manual = np.asarray(D.values) + m * np.log(grid.y) - fit.C_hat
        assert np.allclose(fit.residual.values, manual, atol=1e-14)

    def test_via_L_route(self):
        grid = grid_to(20.0)
        c = 2.0
        delta = SampleSeries(grid, c / grid.y)
        D = SampleSeries(grid, np.zeros(grid.n))
        fit = estimate_C(D, -0.5, "via-L", delta=delta)
        target = -0.5 * math.log(LOG2) + c / (2.0 * LOG2)
        assert fit.C_hat == pytest.approx(target, abs=0.08)
        assert fit.L_hat is not None
        assert fit.L_hat.real == pytest.approx(c / LOG2, abs=0.16)

    def test_via_L_needs_delta(self):
        grid = grid_to(18.0)
        D = SampleSeries(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="needs the fluctuation series"):
            estimate_C(D, -0.5, "via-L")

    def test_mean_route_mechanics(self):
        grid = grid_to(12.0)
        m = -0.5
        D = SampleSeries(grid, np.zeros(grid.n))
        pos = np.array([3.0, 5.0, 7.0])
        w = np.array([1 / math.sqrt(3), -1 / math.sqrt(5), 1 / math.sqrt(7)])
        race = stream_summary(pos, w, grid.x)
        fit = estimate_C(D, m, "mean", race=race, finite_size=False)
        X = float(grid.x[-1])
        Y = float(grid.y[-1])
        assert fit.C_hat == pytest.approx(mean_integral(race, X) + m * math.log(Y), abs=1e-12)
        corrected = estimate_C(D, m, "mean", race=race, finite_size=True)
        assert "correction" in corrected.details
        # the raw mean sits at C - M li(X)/X + O(1/X); the deficit added back
        # is M li(X)/X ~ M/Y, negative for M=-1/2
        assert corrected.C_hat < fit.C_hat
        assert corrected.C_hat - fit.C_hat == pytest.approx(m * (1 / Y + 1 / Y**2), abs=0.2 / Y)

    def test_mean_needs_jumps(self):
        grid = grid_to(12.0)
        D = SampleSeries(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="needs the race summary"):
            estimate_C(D, -0.5, "mean")

    def test_unknown_method(self):
        grid = grid_to(12.0)
        D = SampleSeries(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="unknown method"):
            estimate_C(D, -0.5, "least-squares")

    def test_window_must_hold_enough_points(self):
        grid = CheckpointGrid(h=0.05, n=300)
        D = SampleSeries(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="need at least 100"):
            estimate_C(D, -0.5, "pointwise-tail")

    def test_all_three_bundle(self):
        grid = grid_to(20.0)
        m = -0.5
        delta = SampleSeries(grid, 1.0 / grid.y**2)
        D = SampleSeries(grid, 3.0 - m * np.log(grid.y) - 2.0 * m / grid.y)
        pos = np.array([3.0, 7.0])
        w = np.array([1 / math.sqrt(3), -1 / math.sqrt(7)])
        fits = estimate_C_all(D, m, delta, stream_summary(pos, w, grid.x))
        assert set(fits) == {"pointwise-tail", "via-L", "mean", "spread"}
        assert fits["spread"] >= 0.0


class TestMeanIntegral:
    def test_worked_values(self):
        pos = np.array([3.0, 5.0, 7.0])
        w = np.array([1 / math.sqrt(3), -1 / math.sqrt(5), 1 / math.sqrt(7)])
        race = stream_summary(pos, w, [3.0, 5.0, 8.0])
        assert mean_integral(race, 3.0) == pytest.approx(0.0, abs=0)
        assert mean_integral(race, 5.0) == pytest.approx(2.0 / (5.0 * math.sqrt(3)), rel=1e-15)
        by_hand = (5 / math.sqrt(3) - 3 / math.sqrt(5) + 1 / math.sqrt(7)) / 8.0
        assert mean_integral(race, 8.0) == pytest.approx(by_hand, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        pos = np.sort(rng.uniform(2.0, 500.0, size=60))
        w = rng.normal(size=60)
        xs = np.linspace(2.0, 600.0, 41)
        race = stream_summary(pos, w, xs)
        vec = mean_values(race)
        assert len(vec) == len(xs)
        for x, v in zip(xs, vec):
            assert v == mean_integral(race, x)

    def test_prefix_sums_match_the_concatenated_form(self):
        # the tally's per-segment cumsums, seeded with the carried sums, give
        # the zero-led cumsums over the whole stream bit for bit
        grid = CheckpointGrid.from_xmax(300_000, h=0.01)
        run = accumulate(grid, 4, race=(1, 3), segment_odds=777)
        pos, w = race_jump_weights(*_class_primes(run.x_hi, 4, 1, 3))
        want = stream_mean_values(pos, w, grid.x)
        got = mean_values(run.race)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_x_below_two_rejected(self):
        race = stream_summary([3.0], [1.0], [2.0, 5.0])
        with pytest.raises(ValueError, match="at least 2"):
            mean_integral(race, 1.5)
        with pytest.raises(ValueError, match="not a grid point"):
            mean_integral(race, 4.0)


def _class_primes(x_hi, q, a, b):
    """The primes below x_hi in classes a and b mod q."""
    primes = simple_sieve(x_hi - 1)
    return primes[primes % q == a], primes[primes % q == b]


class TestEnvelope:
    def make_D(self, grid, C, m, resid):
        return SampleSeries(grid, C - m * np.log(grid.y) + resid)

    def test_everywhere_inside(self):
        grid = grid_to(18.0)
        m, C = -0.5, 2.0
        bound = np.abs(np.log(grid.y)) ** 3.5 / grid.y
        D = self.make_D(grid, C, m, 0.9 * bound)
        report = envelope_check(D, m, C)
        assert report.natural_estimate == pytest.approx(1.0, abs=1e-12)
        assert report.logarithmic_estimate == pytest.approx(1.0, abs=1e-12)
        assert report.exceedance_measure == 0.0
        assert report.satisfied_fraction == 1.0
        assert all(b["exceedance"] == 0.0 for b in report.blocks)

    def test_violation_band_lands_in_one_block(self):
        grid = grid_to(18.0)
        m, C = -0.5, 2.0
        y = grid.y
        bound = np.abs(np.log(y)) ** 3.5 / y
        resid = np.where((y >= 10.0) & (y < 11.0), 1.5 * bound, 0.5 * bound)
        report = envelope_check(self.make_D(grid, C, m, resid), m, C)
        assert report.natural_estimate < 1.0
        assert report.exceedance_measure == pytest.approx(1.0, abs=2 * grid.h)
        table = {b["k"]: b["exceedance"] for b in report.blocks}
        assert table[1] == pytest.approx(1.0, abs=2 * grid.h)
        assert all(v == 0.0 for k, v in table.items() if k != 1)
        # tail fraction counts only points past the floor
        n_tail = int(np.sum(y >= 10.0))
        n_bad = int(np.sum((y >= 10.0) & (y < 11.0)))
        assert report.satisfied_fraction == pytest.approx(1.0 - n_bad / n_tail, abs=1e-12)

    def test_log_envelope_with_explicit_K(self):
        grid = grid_to(18.0)
        m, C = -0.5, 0.0
        resid = 2.0 * np.abs(np.log(grid.y)) / grid.y
        D = self.make_D(grid, C, m, resid)
        wide = envelope_check(D, m, C, envelope="log-envelope", K=3.0)
        assert wide.satisfied_fraction == 1.0
        narrow = envelope_check(D, m, C, envelope="log-envelope", K=1.5)
        assert narrow.satisfied_fraction < 0.1

    def test_log_envelope_self_calibrates(self):
        grid = grid_to(18.0)
        m, C = -0.5, 0.0
        resid = 2.0 * np.abs(np.log(grid.y)) / grid.y
        D = self.make_D(grid, C, m, resid)
        K = calibrate_K(D, m, C)
        assert K == pytest.approx(2.2, rel=1e-9)
        report = envelope_check(D, m, C, envelope="log-envelope")
        assert report.satisfied_fraction == 1.0

    def test_parameter_validation(self):
        grid = grid_to(12.0)
        D = self.make_D(grid, 0.0, -0.5, np.zeros(grid.n))
        with pytest.raises(ValueError, match="eps must be positive"):
            envelope_check(D, -0.5, 0.0, eps=0.0)
        with pytest.raises(ValueError, match="unknown envelope"):
            envelope_check(D, -0.5, 0.0, envelope="box")
        with pytest.raises(ValueError, match="K must exceed 1"):
            envelope_check(D, -0.5, 0.0, envelope="log-envelope", K=0.5)


def _density(pos, w, *window):
    """density_race on the summary of a stream, checked against the stream form."""
    report = density_race(stream_summary(pos, w), *window)
    assert report == stream_density_race(pos, w, *window)
    return report


class TestDensityRace:
    def mod4_stream(self, limit):
        ref = ReferenceTally(limit, 4)
        return race_jump_weights(ref.by_class[3]["positions"], ref.by_class[1]["positions"])

    def test_matches_pure_python_walk(self):
        pos, w = self.mod4_stream(100)
        report = _density(pos, w, 2.0, 100.0)
        assert report.natural_estimate == pytest.approx(
            exact_race_density(pos, w, 2.0, 100.0), rel=1e-13)
        assert report.logarithmic_estimate == pytest.approx(
            exact_race_log_density(pos, w, 2.0, 100.0), rel=1e-13)
        assert report.exceedance_measure == pytest.approx(
            98.0 * (1 - report.natural_estimate), rel=1e-12)

    def test_windows_inside_the_run(self):
        pos, w = self.mod4_stream(500)
        for lo, hi in [(2.0, 450.0), (10.0, 300.0), (26.0, 27.0)]:
            report = _density(pos, w, lo, hi)
            assert report.natural_estimate == pytest.approx(
                exact_race_density(pos, w, lo, hi), rel=1e-12, abs=1e-12)

    def test_unopposed_leader_fills_window(self):
        pos = np.array([3.0, 5.0])
        report = _density(pos, 1 / np.sqrt(pos), 3.0, 50.0)
        assert report.natural_estimate == 1.0
        assert report.logarithmic_estimate == 1.0
        assert report.exceedance_measure == 0.0

    def test_never_ahead(self):
        report = _density(np.array([3.0]), np.array([-1 / math.sqrt(3)]), 2.0, 50.0)
        assert report.natural_estimate == 0.0
        assert report.exceedance_measure == pytest.approx(48.0)

    def test_window_validation(self):
        one = stream_summary([3.0], [1 / math.sqrt(3)])
        with pytest.raises(ValueError, match="start at 2"):
            density_race(one, 1.0, 10.0)
        with pytest.raises(ValueError, match="empty window"):
            density_race(one, 10.0, 10.0)

    def test_window_defaults_to_the_last_jump(self):
        # the summary's last grid point, here the stream's last position
        pos, w = self.mod4_stream(100)
        assert density_race(stream_summary(pos, w)).window == (2.0, 97.0)

    # weights on a 1/4 lattice sum exactly, so the level often sits at an
    # exact zero, which never counts as ahead
    @settings(max_examples=300, deadline=None)
    @given(jumps=st.lists(st.integers(2, 60), max_size=25, unique=True),
           data=st.data())
    def test_runs_match_the_pure_python_walk(self, jumps, data):
        pos = np.array(sorted(jumps), dtype=np.float64)
        w = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=len(pos),
                                         max_size=len(pos)), label="quarters")) / 4.0
        # window ends on, between and beyond positions
        ends = sorted({2.0, 2.5, 70.0, *pos.tolist(), *(pos + 0.5).tolist()})
        x_lo = data.draw(st.sampled_from(ends[:-1]), label="x_lo")
        x_hi = data.draw(st.sampled_from([e for e in ends if e > x_lo]), label="x_hi")
        report = _density(pos, w, x_lo, x_hi)
        assert report.natural_estimate == pytest.approx(
            exact_race_density(pos, w, x_lo, x_hi), rel=1e-12, abs=0)
        assert report.logarithmic_estimate == pytest.approx(
            exact_race_log_density(pos, w, x_lo, x_hi), rel=1e-12, abs=0)
        assert report.exceedance_measure == pytest.approx(
            (x_hi - x_lo) * (1 - report.natural_estimate), rel=1e-12, abs=1e-12)

    def test_streams_of_zero_and_one_jumps(self):
        empty = _density(np.empty(0), np.empty(0), 2.0, 10.0)
        assert empty.natural_estimate == empty.logarithmic_estimate == 0.0
        assert empty.exceedance_measure == 8.0
        with pytest.raises(ValueError, match="empty window"):
            density_race(stream_summary(np.empty(0), np.empty(0)))
        one = _density(np.array([5.0]), np.array([0.25]), 3.0, 9.0)
        assert one.natural_estimate == pytest.approx(4.0 / 6.0, rel=1e-15)
        assert one.logarithmic_estimate == pytest.approx(
            math.log(9.0 / 5.0) / math.log(3.0), rel=1e-15)
        inside = _density(np.array([5.0]), np.array([0.25]), 6.0, 9.0)
        assert inside.natural_estimate == inside.logarithmic_estimate == 1.0


@pytest.fixture(scope="module")
def q4_race_1e7(tmp_path_factory):
    """The q=4 race (3, 1) to 1e7 (664k race primes), persisted by bias."""
    out = tmp_path_factory.mktemp("q4_1e7")
    cfg = RunConfig(q=4, a=3, b=1, x_max=1e7, out=str(out))
    return cfg, cmd_bias(cfg)["race"]


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that fn(*args, **kwargs) allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestRaceStreamAt1e7:
    """The q=4 race (3, 1) to 1e7, whose stream would take 10.6 MB."""

    def test_lead_from_1000_is_at_most_one(self, q4_race_1e7):
        _cfg, race = q4_race_1e7
        assert len(race.runs) == 1
        report = density_race(race, 1000.0, float(race.x[-1]))
        assert report.natural_estimate == 1.0
        assert report.logarithmic_estimate <= 1.0

    def test_density_race_memory(self, q4_race_1e7):
        _cfg, race = q4_race_1e7
        peak = traced_peak(density_race, race, 2.0, float(race.x[-1]))
        assert peak <= 16 * 1024, peak

    def test_mean_values_memory(self, q4_race_1e7):
        # one temporary and the result, each the size of the grid
        _cfg, race = q4_race_1e7
        peak = traced_peak(mean_values, race)
        assert peak <= 2 * race.x.nbytes + 1024, peak / race.x.nbytes

    def test_tally_race_costs_no_stream(self):
        # per-segment race terms only: the q=4 race (3, 1) stream below 1e7
        # would take 10.6 MB
        grid = CheckpointGrid.from_xmax(1e7)
        bare = traced_peak(accumulate, grid, 4)
        raced = traced_peak(accumulate, grid, 4, race=(3, 1))
        assert raced - bare <= 2 * 2**20, (raced - bare) / 2**20

    def test_mean_resume_memory(self, q4_race_1e7):
        # the recorded race comes back from the sidecar, with no sieve and no
        # stream
        cfg, _race = q4_race_1e7
        peak = traced_peak(cmd_mean, dataclasses.replace(cfg, resume=True))
        assert peak <= 5 * 2**20, peak / 2**20


def _race_at(race, fn):
    """Call one race-summary consumer with its other arguments fixed."""
    if fn is density_race:
        return fn(race, 2.0, 50.0)
    if fn is mean_values:
        return fn(race)
    return fn(race, 50.0)


def _summary(runs, xs, sw, swp=None):
    return RaceSummary(np.array(runs, dtype=np.float64).reshape(-1, 2), np.asarray(xs),
                       np.asarray(sw), np.asarray(sw if swp is None else swp))


class TestRaceStreamChecks:
    """A malformed race summary cannot be built, so no consumer reads one."""

    CONSUMERS = [density_race, mean_integral, mean_values]

    @pytest.mark.parametrize("fn", CONSUMERS)
    def test_decreasing_positions_rejected(self, fn):
        with pytest.raises(ValueError, match="must not decrease"):
            _race_at(_summary([[5.0, 7.0], [3.0, 4.0]], [10.0, 50.0], [0.1, 0.2]), fn)
        with pytest.raises(ValueError, match="must not decrease"):
            _race_at(_summary([[5.0, 3.0]], [10.0, 50.0], [0.1, 0.2]), fn)

    @pytest.mark.parametrize("fn", CONSUMERS)
    def test_unequal_lengths_rejected(self, fn):
        with pytest.raises(ValueError, match="equal length"):
            _race_at(_summary([[3.0, 7.0]], [10.0, 50.0], [0.5]), fn)

    @pytest.mark.parametrize("fn", CONSUMERS)
    def test_two_dimensional_stream_rejected(self, fn):
        with pytest.raises(ValueError, match="1-D"):
            _race_at(_summary([[3.0, 7.0]], [[10.0, 50.0]], [[0.5, -0.4]]), fn)
        with pytest.raises(ValueError, match="rows of"):
            _race_at(RaceSummary(np.array([3.0, 7.0]), np.array([50.0]),
                                 np.array([0.5]), np.array([0.5])), fn)

    @pytest.mark.parametrize("fn", CONSUMERS)
    def test_repeated_positions_accepted(self, fn):
        # positions that do not decrease need not be distinct; the runs of
        # such a stream can be empty or meet
        pos, w = np.array([3.0, 3.0, 7.0, 7.0]), np.array([0.5, -0.6, 0.3, 0.1])
        race = stream_summary(pos, w, [10.0, 50.0])
        assert race.runs.tolist() == [[3.0, 3.0], [7.0, np.inf]]
        means = stream_mean_values(pos, w, [10.0, 50.0])
        want = {density_race: stream_density_race(pos, w, 2.0, 50.0),
                mean_integral: means[-1], mean_values: means}[fn]
        assert np.all(_race_at(race, fn) == want)

    def test_mean_fit_checks_the_stream(self):
        # a summary from another grid has no sums at this series' end
        grid = grid_to(12.0)
        D = SampleSeries(grid, np.zeros(grid.n))
        other = stream_summary([3.0], [1.0], grid_to(11.0).x)
        with pytest.raises(ValueError, match="not a grid point"):
            estimate_C(D, -0.5, "mean", race=other)


class TestMoments:
    def test_constant_series_exact(self):
        grid = grid_to(50.0)
        c = 1.7
        delta = SampleSeries(grid, np.full(grid.n, c))
        for k in (1, 2, 3):
            Y = grid.y[-1]
            expected = c ** (2 * k) * (Y - grid.y[0]) / Y
            assert moment(delta, k, 50.0) == pytest.approx(expected, rel=1e-13)

    def test_sine_closed_forms(self):
        grid = grid_to(200.0)
        delta = SampleSeries(grid, np.sin(grid.y))
        Y = float(grid.y[-1])
        a = float(grid.y[0])

        def F1(u):
            return u / 2.0 - math.sin(2 * u) / 4.0

        def F2(u):
            return 3.0 * u / 8.0 - math.sin(2 * u) / 4.0 + math.sin(4 * u) / 32.0

        m1 = moment(delta, 1, 200.0)
        m2 = moment(delta, 2, 200.0)
        assert m1 == pytest.approx((F1(Y) - F1(a)) / Y, abs=1e-5)
        assert m2 == pytest.approx((F2(Y) - F2(a)) / Y, abs=1e-5)
        # the asymptotic means carry an O(1/Y) boundary deficit; at Y=200
        # the second moment sits ~1.1e-3 from 3/8, so the bound is looser
        assert m1 == pytest.approx(0.5, abs=1e-3)
        assert m2 == pytest.approx(3.0 / 8.0, abs=2.5e-3)

    def test_order_validation(self):
        grid = grid_to(15.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="positive integer"):
            moment(delta, 0, 10.0)
        with pytest.raises(ValueError, match="positive integer"):
            moment(delta, 1.5, 10.0)
        with pytest.raises(ValueError, match="exceeds 6"):
            moment(delta, 7, 10.0)

    def test_range_validation(self):
        grid = grid_to(15.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="beyond the grid"):
            moment(delta, 1, 30.0)
        with pytest.raises(ValueError, match="no integration range"):
            moment(delta, 1, 0.5)

    def test_upper_limit_snaps_down(self):
        grid = grid_to(15.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        j = int(np.searchsorted(grid.y, 12.0, side="right")) - 1
        Y = float(grid.y[j])
        assert moment(delta, 1, 12.0) == pytest.approx((Y - grid.y[0]) / Y, rel=1e-13)


class TestWeightedSecondMoment:
    def simpson(self, f, a, b, n=4000):
        xs = np.linspace(a, b, 2 * n + 1)
        w = np.ones(2 * n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return float(np.sum(w * f(xs)) * (b - a) / (6 * n))

    def test_constant_series_against_li(self):
        grid = grid_to(9.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        value, trace = weighted_second_moment(delta)
        y = grid.y
        j2 = int(np.searchsorted(y, 2.0, side="left"))
        expected = self.simpson(lambda u: 1.0 / np.log(u), float(y[j2]), float(y[-1])) / y[-1]
        assert value == pytest.approx(expected, abs=5e-5)
        assert np.all(np.isnan(trace.values[:j2]))
        assert trace.values[j2] == 0.0

    def test_decay_for_bounded_series(self):
        grid = grid_to(16.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        v_full, trace = weighted_second_moment(delta)
        v_half, _ = weighted_second_moment(delta, Y=8.0)
        assert v_full < v_half

    def test_grid_must_reach_two(self):
        grid = grid_to(1.5)
        delta = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="before the lower limit"):
            weighted_second_moment(delta)

    def test_Y_below_lower_limit(self):
        grid = grid_to(9.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="below the lower limit"):
            weighted_second_moment(delta, Y=1.0)


class TestMomentConstant:
    def test_inequality_holds_by_construction(self):
        grid = grid_to(200.0)
        delta = SampleSeries(grid, np.sin(grid.y))
        c_fit, rows = fit_moment_constant(delta, ks=(1, 2, 3))
        assert len(rows) == 3
        for row in rows:
            k = row["k"]
            assert row["moment_root"] <= (c_fit * k) ** 2 + 1e-12
        # the max is attained at some k
        assert any(
            abs(row["moment"] ** (1 / (4 * row["k"])) / row["k"] - c_fit) < 1e-12
            for row in rows
        )

    def test_needs_orders(self):
        grid = grid_to(15.0)
        delta = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="at least one"):
            fit_moment_constant(delta, ks=())


class TestEulerSeries:
    def test_small_run_series(self, q4_run):
        chi = character_by_label("4.1")
        F = euler_series(q4_run.series, chi, 0)
        # for a real character the inverted partial product stabilizes at
        # sqrt(2) times the central L-value (the second-moment factor):
        # sqrt(2) * 0.66769... = 0.94425
        ell = estimate_ell(F)
        assert abs(ell.imag) < 1e-12
        assert ell.real == pytest.approx(0.9443, abs=0.05)

    def test_vanishing_order_scales_by_log(self, q4_run):
        chi = character_by_label("4.1")
        F0 = euler_series(q4_run.series, chi, 0)
        F1 = euler_series(q4_run.series, chi, 1)
        assert np.allclose(F1.values, F0.values * q4_run.series.grid.y, rtol=1e-13)

    def test_principal_character_rejected(self, q4_run):
        with pytest.raises(ValueError, match="nonprincipal"):
            euler_series(q4_run.series, character_by_label("4.0"), 0)

    def test_negative_order_rejected(self, q4_run):
        with pytest.raises(ValueError, match="nonnegative"):
            euler_series(q4_run.series, character_by_label("4.1"), -1)

    def test_foreign_character_rejected(self, q4_run):
        with pytest.raises(ValueError, match="no column"):
            euler_series(q4_run.series, character_by_label("8.1"), 0)

    def test_density_of_exact_match_is_one(self, q4_run):
        chi = character_by_label("4.1")
        F = euler_series(q4_run.series, chi, 0)
        ell = estimate_ell(F)
        exact = SampleSeries(F.grid, np.full(F.grid.n, complex(ell)), kind="flat")
        report = euler_density_check(exact, ell)
        assert report.natural_estimate == 1.0
        assert report.exceedance_measure == 0.0
        assert report.flags == ()

    def test_near_zero_flag(self):
        grid = grid_to(12.0)
        F = SampleSeries(grid, np.zeros(grid.n, dtype=complex))
        report = euler_density_check(F, 0j)
        assert "ell-near-zero" in report.flags


class TestRmsWindow:
    def test_constant_shift(self):
        grid = grid_to(15.0)
        a = SampleSeries(grid, np.ones(grid.n))
        b = SampleSeries(grid, np.ones(grid.n) * 4.0)
        assert rms_window(a, b, 5.0, 15.0) == pytest.approx(3.0, rel=1e-13)

    def test_empty_window_rejected(self):
        grid = grid_to(15.0)
        a = SampleSeries(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="no grid points"):
            rms_window(a, a, 20.0, 30.0)

    def test_grid_mismatch_rejected(self):
        a = SampleSeries(grid_to(15.0), np.ones(grid_to(15.0).n))
        b = SampleSeries(grid_to(12.0), np.ones(grid_to(12.0).n))
        with pytest.raises(ValueError, match="different grids"):
            rms_window(a, b, 5.0, 10.0)


class TestDensityReportValidation:
    def test_rejects_out_of_range_densities(self):
        with pytest.raises(ValueError, match="outside"):
            DensityReport(1.5, 0.5, 0.0, (2.0, 10.0))
        with pytest.raises(ValueError, match="outside"):
            DensityReport(0.5, -0.2, 0.0, (2.0, 10.0))
        with pytest.raises(ValueError, match="negative exceedance"):
            DensityReport(0.5, 0.5, -1.0, (2.0, 10.0))

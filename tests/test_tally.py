"""Streaming tally vs. brute-force reference sums and hand-checked values."""
import functools
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import tokenize
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from primerace import tally
from primerace.analysis import density_race, euler_series, mean_values
from primerace.characters import (
    ClassFunction,
    enumerate_characters,
    race_weight,
)
from primerace.exact import from_hex
from primerace.sieve import segment_bounds, simple_sieve, sieve_segment
from primerace.tally import (
    LOG2,
    CheckpointGrid,
    TallyOrderError,
    TallyPartial,
    accumulate,
    merge,
    range_partial,
    read_series_csv,
    _Layout,
    _RaceFold,
    _Scratch,
    _SegmentPartial,
    _power_terms,
    _segment_partial,
    _truncate_csv,
    _unfold,
)

from oracles import (
    ReferenceTally,
    ScalarFold,
    format_row,
    race_jump_weights,
    reference_chunks,
    reference_segment_partial,
    scalar_tally,
    stream_density_race,
    stream_mean_values,
    stream_summary,
)

DATA = Path(__file__).resolve().parent / "data"

ALL_ARRAYS = ("counts", "invsqrt", "theta", "psi",
              "char_invsqrt", "char_mertens", "char_eulerlog")
# the character columns that totals() derives from the class sums
DERIVED = ("char_invsqrt", "char_mertens")


def point_at(series, x):
    """Index of the last grid point <= x."""
    return int(np.searchsorted(series.grid.x, x, side="right")) - 1


def matrix(series, name):
    """The series' matrix of one field of ALL_ARRAYS, a grid point per row."""
    return series.char_matrix(name[len("char_"):]) if name.startswith("char_") else getattr(series, name)


def rows(series):
    """(x, y, {field: values}) for each grid point of series, in order."""
    for j, (x, y) in enumerate(zip(series.x, series.y)):
        yield x, y, {f: entries[j] for f, entries in series.fields.items()}


def assert_same_summary(got, want):
    """Race summaries equal bit for bit: runs, grid points and both sums."""
    for name in ("runs", "x", "sw", "swp"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def char_tables(q):
    """{index: {unit residue: value}} for the oracle constructor."""
    out = {}
    for chi in enumerate_characters(q):
        out[chi.index] = {a: complex(chi.values[a]) for a in range(q)
                          if math.gcd(a, q) == 1}
    return out


@pytest.fixture(scope="module")
def small_run():
    grid = CheckpointGrid.from_xmax(10_000, h=0.01)
    return accumulate(grid, 4, race=(3, 1), segment_odds=499)


class TestWorkedValues:
    """Values checked by hand against the primes 2, 3, 5, 7 and 9 = 3*3."""

    def test_class_counts_at_ten(self, small_run):
        series = small_run.series
        j = point_at(series, 10.0)
        assert series.counts[j, series.units.index(1)] == 1  # 5
        assert series.counts[j, series.units.index(3)] == 2  # 3, 7

    def test_pi_half_class_three(self, small_run):
        series = small_run.series
        j = point_at(series, 10.0)
        want = 1 / math.sqrt(3) + 1 / math.sqrt(7)
        assert series.invsqrt[j, series.units.index(3)] == pytest.approx(want, rel=1e-14)

    def test_pi_half_race_weight(self, small_run):
        series = small_run.series
        t = race_weight(3, 1, 4)
        want = 1 / math.sqrt(3) + 1 / math.sqrt(7) - 1 / math.sqrt(5)
        got = series.weighted(t, "invsqrt")[point_at(series, 10.0)]
        assert abs(got.imag) < 1e-15
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_psi_sees_the_residue_of_the_power(self, small_run):
        # 9 = 3*3 lands in class 1 with weight log 3, so the class-3 loss of
        # log 3 from the prime 3 cancels against it and log5 - log7 remains
        series = small_run.series
        t = race_weight(1, 3, 4)
        got = series.weighted(t, "psi")[point_at(series, 10.0)]
        assert got.real == pytest.approx(math.log(5) - math.log(7), rel=1e-12)

    def test_theta_splits_by_class(self, small_run):
        series = small_run.series
        j = point_at(series, 10.0)
        ind1 = ClassFunction.from_pairs(4, {1: 1.0})
        ind3 = ClassFunction.from_pairs(4, {3: 1.0})
        assert series.weighted(ind1, "theta")[j].real == pytest.approx(math.log(5), rel=1e-14)
        assert series.weighted(ind3, "theta")[j].real == pytest.approx(math.log(3) + math.log(7), rel=1e-14)

    def test_euler_product_at_three(self, small_run):
        # product over p <= 3.01..: the 2-factor is 1, the 3-factor is
        # (1 + 1/sqrt3)^(-1)
        series = small_run.series
        j = int(np.searchsorted(series.grid.x, 3.0, side="left"))
        chi = enumerate_characters(4)[1]
        want = 1 / (1 + 1 / math.sqrt(3))
        got = complex(euler_series(series, chi).values[j])
        assert abs(got.imag) < 1e-15
        assert got.real == pytest.approx(want, rel=1e-12)
        lifted = complex(euler_series(series, chi, vanishing_order=1).values[j])
        assert lifted.real == pytest.approx(math.log(series.x[j]) * want, rel=1e-12)

    def test_mertens_square_sum(self, small_run):
        series = small_run.series
        chi = enumerate_characters(4)[1]
        want = 1 / 3 + 1 / 5 + 1 / 7  # chi(p^2) = 1 for odd p, 0 for p = 2
        got = series.char_matrix("mertens")[point_at(series, 10.0), series.char_labels.index(chi.label)]
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_pi_weighted_counts(self, small_run):
        series = small_run.series
        t = race_weight(3, 1, 4)
        assert series.weighted(t, "counts")[point_at(series, 10.0)].real == pytest.approx(1.0)

    def test_jump_positions(self, small_run):
        # the jumps 3, 5, 7 below x=10: the race leads from 3 on
        race = small_run.race
        assert race.runs[0, 0] == 3.0
        j = int(np.searchsorted(race.x, 10.0, side="right")) - 1
        assert 7.0 <= race.x[j] <= 10.0
        assert race.sw[j] == 1 / math.sqrt(3) - 1 / math.sqrt(5) + 1 / math.sqrt(7)
        assert race.swp[j] == pytest.approx(math.sqrt(3) - math.sqrt(5) + math.sqrt(7), rel=1e-15)
        k = int(np.searchsorted(race.x, 3.0)) - 1
        assert race.x[k] < 3.0 and race.sw[k] == race.swp[k] == 0.0


class TestAgainstReference:
    """Every stored column vs. extended-precision brute-force sums."""

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_all_columns(self, q):
        x_max = 10_000
        grid = CheckpointGrid.from_xmax(x_max, h=0.05)
        res = accumulate(grid, q, segment_odds=499)
        ref = ReferenceTally(x_max, q, char_tables(q))
        chars = enumerate_characters(q)
        sample = list(range(0, grid.n, max(1, grid.n // 24))) + [grid.n - 1]
        series = res.series
        counts, invsqrt, theta, psi = series.counts, series.invsqrt, series.theta, series.psi
        for j in sorted(set(sample)):
            x = series.x[j]
            for i, a in enumerate(series.units):
                stats = ref.class_stats(a, x)
                assert int(counts[j, i]) == stats["count"]
                assert invsqrt[j, i] == pytest.approx(stats["invsqrt"], rel=1e-12, abs=1e-15)
                assert theta[j, i] == pytest.approx(stats["log"], rel=1e-12, abs=1e-15)
                assert psi[j, i] == pytest.approx(stats["psi"], rel=1e-12, abs=1e-15)
            for chi in chars[1:]:
                stats = ref.char_stats(chi.index, x)
                for kind in ("invsqrt", "mertens", "eulerlog"):
                    got = complex(series.char_matrix(kind)[j, series.char_labels.index(chi.label)])
                    assert got == pytest.approx(stats[kind], rel=1e-11, abs=1e-12)


class TestLinearity:
    """Class-route and character-route sums agree through Fourier inversion."""

    @pytest.mark.parametrize("q", [4, 5, 8, 12])
    def test_pi_half_decomposes(self, q):
        grid = CheckpointGrid.from_xmax(50_000, h=0.2)
        res = accumulate(grid, q)
        chars = enumerate_characters(q)
        phi = len(chars)
        rng = np.random.default_rng(q)
        vals = np.zeros(q, dtype=np.complex128)
        for a in range(q):
            if math.gcd(a, q) == 1:
                vals[a] = complex(rng.standard_normal(), rng.standard_normal())
        t = ClassFunction(q, vals)

        def coeff(chi):
            return sum(vals[a] * np.conj(chi.values[a]) for a in range(q)
                       if math.gcd(a, q) == 1) / phi

        series = res.series
        for j in (grid.n // 3, grid.n - 1):
            direct = series.weighted(t, "invsqrt")[j]
            total_units = float(np.sum(series.invsqrt[j]))
            via_chars = coeff(chars[0]) * total_units
            for chi in chars[1:]:
                via_chars += coeff(chi) * series.char_matrix("invsqrt")[j, series.char_labels.index(chi.label)]
            assert abs(direct - via_chars) <= 1e-9 * max(1.0, abs(direct))


class TestGrid:
    def test_from_xmax_covers_range(self):
        grid = CheckpointGrid.from_xmax(10_000, h=0.01)
        assert grid.x_max <= 10_000
        assert math.exp(grid.y_max + grid.h) > 10_000
        assert grid.y[0] == LOG2

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CheckpointGrid(h=0.0, n=5)
        with pytest.raises(ValueError, match="at least one"):
            CheckpointGrid(h=0.1, n=0)
        with pytest.raises(ValueError, match="at least 2"):
            CheckpointGrid.from_xmax(1.5)

    def test_refining_the_grid_keeps_shared_points(self):
        coarse = CheckpointGrid.from_xmax(5_000, h=0.04)
        fine = CheckpointGrid(h=0.02, n=2 * coarse.n - 1)
        rc = accumulate(coarse, 4, x_hi=5_001)
        rf = accumulate(fine, 4, x_hi=5_001)
        assert np.array_equal(coarse.x, fine.x[::2])
        a, b = rc.series, rf.series
        assert len(a) == coarse.n and len(b) == fine.n
        assert np.array_equal(a.counts, b.counts[::2])
        assert np.allclose(a.invsqrt, b.invsqrt[::2], rtol=1e-10)
        assert np.allclose(a.psi, b.psi[::2], rtol=1e-10)
        assert np.allclose(a.char_matrix("eulerlog"), b.char_matrix("eulerlog")[::2],
                           rtol=1e-10, atol=1e-12)

    def test_grid_beyond_sieved_range_rejected(self):
        grid = CheckpointGrid.from_xmax(1000, h=0.1)
        with pytest.raises(ValueError, match="strictly past"):
            accumulate(grid, 4, x_hi=500)


class TestThreadInvariance:
    def test_bit_exact_across_pool_sizes(self):
        grid = CheckpointGrid.from_xmax(100_000, h=0.02)
        r1 = accumulate(grid, 4, segment_odds=1 << 12, threads=1)
        r4 = accumulate(grid, 4, segment_odds=1 << 12, threads=4)
        assert len(r1.series) == len(r4.series) == grid.n
        for attr in ALL_ARRAYS:
            assert np.array_equal(matrix(r1.series, attr), matrix(r4.series, attr)), attr

    def test_jumps_identical(self):
        grid = CheckpointGrid.from_xmax(30_000, h=0.1)
        r1 = accumulate(grid, 4, threads=1, segment_odds=777, race=(1, 3))
        r3 = accumulate(grid, 4, threads=3, segment_odds=777, race=(1, 3))
        assert_same_summary(r1.race, r3.race)


def oracle_stream(x_hi, q, a, b):
    """The race stream of classes a and b below x_hi, by the argsort merge."""
    primes = simple_sieve(x_hi - 1)
    r = primes % q
    return race_jump_weights(primes[r == a % q], primes[r == b % q])


def oracle_summary(x_hi, q, a, b, xs):
    """The race summary of the stream below x_hi, by one global cumsum."""
    return stream_summary(*oracle_stream(x_hi, q, a, b), xs)


def assert_matches_the_stream_forms(race, x_hi, q, a, b, xs):
    """The summary, its lead densities and mean trace against the stream's, bit for bit."""
    pos, w = oracle_stream(x_hi, q, a, b)
    assert_same_summary(race, stream_summary(pos, w, xs))
    for x_lo in (2.0, 100.0, float(xs[len(xs) // 2])):
        if x_lo < xs[-1]:
            assert density_race(race, x_lo, float(xs[-1])) == stream_density_race(pos, w, x_lo, float(xs[-1]))
    got, want = mean_values(race), stream_mean_values(pos, w, xs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# (q, a, b) with a > b and a < b, classes given by representatives that are
# not all reduced mod q
RACES = [(4, 3, 1), (4, 1 + 4, 3 + 8), (12, 11, 5 + 12), (12, 1, 7),
         (24, 5 + 48, 1), (24, 13, 19 + 24), (105, 2 + 105, 1), (105, 4, 104 + 210)]


class TestRaceStream:
    """accumulate(race=...) against one cumsum over the argsort-merged stream.

    The tally folds the race per segment; seeding each segment's cumsum with
    the carried sums must give the summary of the whole stream bit for bit,
    fresh, resumed and at any thread count.
    """

    @pytest.mark.parametrize("q, a, b", RACES)
    # no shrinking: each example is a whole run, and shrinking a failure
    # takes minutes; the failing draws are reported as drawn
    @settings(max_examples=3, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(segment_odds=st.integers(64, 4096), x_hi=st.integers(1_000, 30_000))
    def test_matches_the_merged_oracle(self, q, a, b, segment_odds, x_hi):
        grid = CheckpointGrid.from_xmax(x_hi - 1, h=0.05)
        for race in ((a, b), (b, a)):
            runs = [accumulate(grid, q, x_hi=x_hi, segment_odds=segment_odds,
                               threads=threads, race=race) for threads in (1, 2)]
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "stop.csv"
                accumulate(grid, q, x_hi=x_hi, segment_odds=segment_odds, persist=path,
                           max_segments=2, race=race)
                runs.append(accumulate(grid, q, x_hi=x_hi, segment_odds=segment_odds,
                                       persist=path, resume=True, race=race))
            for run in runs:
                assert run.completed
                assert_matches_the_stream_forms(run.race, x_hi, q, *race, grid.x)

    @pytest.mark.parametrize("q, a, b", RACES[1::2])
    @pytest.mark.parametrize("stop", [3, None])
    def test_resumed_stream_matches_the_oracle(self, tmp_path, q, a, b, stop):
        # stop=3 leaves a partial sidecar, None a complete one; neither
        # recorded the race, which is folded again from the sieve
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "race.csv"
        accumulate(grid, q, segment_odds=512, persist=path, max_segments=stop)
        res = accumulate(grid, q, segment_odds=512, persist=path, resume=True,
                         threads=3, race=(a, b))
        assert res.completed
        assert_same_summary(res.race, oracle_summary(res.x_hi, q, a, b, grid.x))

    @settings(max_examples=50, deadline=None)
    @given(steps=st.lists(st.integers(-3, 3), max_size=40), data=st.data())
    def test_fold_in_pieces_matches_one_cumsum(self, steps, data):
        # weights on a 1/4 lattice put the level on exact zeros and flip its
        # sign often; the pieces cut the stream anywhere, run edges included
        pos = np.arange(3, 3 + 2 * len(steps), 2)
        w = np.array(steps, dtype=np.float64) / 4.0
        xs = np.arange(2.5, 3.0 + 2 * len(steps), 1.5)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(pos)), max_size=6), label="cuts"))
        # piece k holds the stream's [idx[k], idx[k+1]) and the x in [edge[k], edge[k+1])
        idx = [0, *cuts, len(pos)]
        edge = [-np.inf, *(pos[c] if c < len(pos) else np.inf for c in cuts), np.inf]
        fold = _RaceFold()
        for k, (lo, hi) in enumerate(zip(idx, idx[1:])):
            inside = xs[(xs >= edge[k]) & (xs < edge[k + 1])]
            terms = np.empty((2, hi - lo + 1))
            terms[0, 1:], terms[1, 1:] = w[lo:hi], w[lo:hi] * pos[lo:hi]
            fold.fold((pos[lo:hi], terms, np.searchsorted(pos[lo:hi], inside, side="right")))
        assert_same_summary(fold.summary(xs), stream_summary(pos, w, xs))

    def test_stream_at_every_small_x_hi(self):
        # one run per x_hi below 256, each q taking its races in turn; the
        # single grid point sits at 2 and the lead runs cover every race prime
        grid = CheckpointGrid(h=1.0, n=1)
        for q in (3, 4, 5, 12):
            races = itertools.cycle(itertools.permutations(_Layout(q).units, 2))
            for x_hi, (a, b) in zip(range(3, 256), races):
                run = accumulate(grid, q, x_hi=x_hi, segment_odds=64, race=(a, b))
                assert_same_summary(run.race, oracle_summary(x_hi, q, a, b, grid.x))

    @settings(max_examples=20, deadline=None)
    @given(q=st.sampled_from([3, 4, 5, 12]), x_hi=st.integers(3, 20_000), data=st.data())
    def test_stream_at_any_x_hi(self, q, x_hi, data):
        a, b = data.draw(st.sampled_from(list(itertools.permutations(_Layout(q).units, 2))))
        grid = CheckpointGrid(h=1.0, n=1)
        run = accumulate(grid, q, x_hi=x_hi, segment_odds=256, race=(a, b))
        assert_same_summary(run.race, oracle_summary(x_hi, q, a, b, grid.x))

    def test_no_race_no_stream(self):
        grid = CheckpointGrid.from_xmax(1000, h=0.1)
        assert accumulate(grid, 4).race is None
        empty = accumulate(grid, 4, race=(3, 1), max_segments=0).race
        assert [len(v) for v in (empty.runs, empty.x, empty.sw, empty.swp)] == [0, 0, 0, 0]


class TestRaceResume:
    """A resumed race sieves again only where the sidecar did not record it."""

    def sieve_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[:2])
            return sieve_segment(*args)

        monkeypatch.setattr(tally, "sieve_segment", counted)
        return calls

    @pytest.mark.parametrize("stop", [3, None])
    def test_recorded_race_never_sieves_again(self, tmp_path, monkeypatch, stop):
        # 7 = 3 and 5 = 1 mod 4: the race (3, 1) the run recorded
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "r.csv"
        first = accumulate(grid, 4, segment_odds=512, persist=path, race=(3, 1), max_segments=stop)
        calls = self.sieve_calls(monkeypatch)
        res = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=(7, 5))
        # only the segments an interrupted run had not tallied yet
        bounds = tally.segment_bounds(2, res.x_hi, 512)
        assert calls == ([] if stop is None else bounds[stop:])
        assert_same_summary(res.race, accumulate(grid, 4, segment_odds=512, race=(3, 1)).race)
        if stop is None:
            assert_same_summary(res.race, first.race)

    @pytest.mark.parametrize("recorded", [None, (3, 1)])
    def test_unrecorded_race_sieves_once_per_tallied_segment(self, tmp_path, monkeypatch, recorded):
        # a checkpoint written without a race (as delta writes one), or with
        # the other orientation; once sieved, the race is recorded too
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "u.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, race=recorded)
        calls = self.sieve_calls(monkeypatch)
        res = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=(1, 3))
        assert calls == tally.segment_bounds(2, res.x_hi, 512)
        again = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=(1, 3))
        assert len(calls) == len(tally.segment_bounds(2, res.x_hi, 512))
        direct = accumulate(grid, 4, segment_odds=512, race=(1, 3)).race
        assert_same_summary(res.race, direct)
        assert_same_summary(again.race, direct)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("stop", [3, None])
    def test_unrecorded_race_resieve_reduces_no_class_sums(self, tmp_path, monkeypatch, threads, stop):
        # the segments tallied before are sieved again for the race alone:
        # a _SegmentPartial is made only for each segment still to tally
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "q105.csv"
        first = accumulate(grid, 105, segment_odds=512, persist=path, max_segments=stop)
        made, make = [], tally._SegmentPartial

        def counted(*args):
            made.append(args[:2])
            return make(*args)

        monkeypatch.setattr(tally, "_SegmentPartial", counted)
        res = accumulate(grid, 105, segment_odds=512, persist=path, resume=True, threads=threads, race=(2, 1))
        bounds = tally.segment_bounds(2, res.x_hi, 512)
        assert res.completed and len(bounds) > 4
        assert sorted(made) == ([] if stop is None else bounds[stop:])  # a pool makes them in any order
        monkeypatch.undo()
        fresh = accumulate(grid, 105, segment_odds=512, race=(2, 1))
        assert_same_summary(res.race, fresh.race)
        assert oracle_csv(res.series) == path.read_bytes() == oracle_csv(fresh.series)
        if stop is None:
            assert np.array_equal(res.series.invsqrt, first.series.invsqrt)

    def refuse_primes(self, monkeypatch):
        """Make finding the prime powers fail; count the base-prime sieves."""
        calls = []

        def refuse(*args):
            raise AssertionError("a finished run needs no prime powers")

        def counted(limit):
            calls.append(limit)
            return simple_sieve(limit)

        monkeypatch.setattr(tally, "prime_powers", refuse)
        monkeypatch.setattr(tally, "simple_sieve", counted)
        return calls

    def test_finished_run_with_its_race_recorded_finds_no_primes(self, tmp_path, monkeypatch):
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "f.csv"
        first = accumulate(grid, 4, segment_odds=512, persist=path, race=(3, 1))
        calls = self.refuse_primes(monkeypatch)
        for race in [(3, 1), (7, 5), None]:
            res = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=race)
            assert res.completed
            assert len(res.series) == grid.n
            assert np.array_equal(res.series.invsqrt, first.series.invsqrt)
            if race is not None:
                assert_same_summary(res.race, first.race)
        assert calls == []

    def test_unrecorded_race_finds_the_base_primes_once(self, tmp_path, monkeypatch):
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "g.csv"
        accumulate(grid, 4, segment_odds=512, persist=path)
        calls = self.refuse_primes(monkeypatch)
        res = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=(1, 3))
        assert calls == [math.isqrt(res.x_hi - 1)]
        assert "1,3" in json.loads(tally._sidecar_path(path).read_text())["races"]
        again = accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=(1, 3))
        assert len(calls) == 1
        assert_same_summary(again.race, res.race)


class TestMergePartials:
    def test_identity(self):
        left = TallyPartial.empty(4)
        right = range_partial(2, 1000, 4)
        merged = merge(left, right)
        t0, t1 = right.totals(), merged.totals()
        for k in t0:
            assert np.array_equal(t0[k], t1[k])

    def test_aligned_split_is_bit_exact(self):
        # segment span 2*499 = 998, so [2, 1000) ends exactly on a boundary
        left = range_partial(2, 1000, 4, segment_odds=499)
        right = range_partial(1000, 10**6, 4, segment_odds=499)
        single = range_partial(2, 10**6, 4, segment_odds=499)
        merged = merge(left, right)
        ts, tm = single.totals(), merged.totals()
        for k in ts:
            assert np.array_equal(ts[k], tm[k]), k

    def test_totals_match_reference(self):
        part = range_partial(2, 10_000, 5)
        ref = ReferenceTally(9_999, 5, char_tables(5))
        tot = part.totals()
        for i, a in enumerate(part.units):
            stats = ref.class_stats(a, 9_999)
            assert int(tot["counts"][i]) == stats["count"]
            assert tot["invsqrt"][i] == pytest.approx(stats["invsqrt"], rel=1e-12)
            assert tot["psi"][i] == pytest.approx(stats["psi"], rel=1e-12)
        for j, chi in enumerate(enumerate_characters(5)[1:]):
            stats = ref.char_stats(chi.index, 9_999)
            assert tot["char_invsqrt"][j] == pytest.approx(stats["invsqrt"], rel=1e-11)
            assert tot["char_eulerlog"][j] == pytest.approx(stats["eulerlog"], rel=1e-11)

    def test_overlap_rejected(self):
        a = range_partial(2, 1000, 4)
        b = range_partial(900, 2000, 4)
        with pytest.raises(ValueError, match="overlap"):
            merge(a, b)

    def test_gap_rejected(self):
        a = range_partial(2, 1000, 4)
        b = range_partial(1100, 2000, 4)
        with pytest.raises(ValueError, match="adjacent"):
            merge(a, b)

    def test_modulus_mismatch_rejected(self):
        a = range_partial(2, 1000, 4)
        b = range_partial(1000, 2000, 5)
        with pytest.raises(ValueError, match="modulus"):
            merge(a, b)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="start at 2"):
            range_partial(1, 100, 4)
        with pytest.raises(ValueError, match="inverted"):
            range_partial(100, 50, 4)

    @pytest.mark.parametrize("segment_odds", [0, -1])
    @pytest.mark.parametrize("run", [
        lambda odds: segment_bounds(2, 100, odds),
        lambda odds: range_partial(2, 100, 4, segment_odds=odds),
        lambda odds: accumulate(CheckpointGrid.from_xmax(1e3), 4, segment_odds=odds),
    ], ids=["segment_bounds", "range_partial", "accumulate"])
    def test_bad_segment_width_rejected(self, run, segment_odds):
        # a width below 1 would tile the range with empty segments forever
        with pytest.raises(ValueError, match="segment size"):
            run(segment_odds)


def assert_same_totals(a, b):
    ta, tb = a.totals(), b.totals()
    assert ta.keys() == tb.keys()
    for k in ta:
        assert np.array_equal(ta[k], tb[k]), k


SEGMENT_FIELDS = ("counts", "invsqrt", "theta", "invp", "char_eulerlog")


def assert_segment_matches_reference(primes, lo, hi, boundaries, q, scratch=None):
    """Bit for bit, -0.0 included, against the loop-per-character reduction."""
    layout = _Layout(q)
    race = (layout.units[1], layout.units[0])
    got, (p, terms, cut) = _segment_partial(primes, lo, hi, boundaries, layout,
                                            scratch or _Scratch(None), race)
    want = reference_segment_partial(primes, boundaries, layout, race)
    for name in SEGMENT_FIELDS:
        a, b = getattr(got, name), want[name]
        if name == "char_eulerlog":
            # the representatives' columns: each other character's is its
            # representative's (Re, 0.0 - Im), bit for bit
            assert a.shape == (len(b), len(layout.reps)), name
            a = _unfold(a, *layout.pairs[name][1:])
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    # the race terms: every prime of the segment, w and w*p behind the carry
    # slot, each +0.0 off the race classes
    pos, w = want["race"]
    on = np.isin(primes, pos)
    assert np.array_equal(p, primes)
    assert terms.shape == (2, len(primes) + 1)
    assert np.array_equal(terms[0, 1:][on].view(np.uint64), w.view(np.uint64))
    assert np.array_equal(terms[1, 1:][on].view(np.uint64), (w * pos).view(np.uint64))
    assert not np.any(terms[:, 1:][:, ~on].view(np.uint64))
    assert np.array_equal(cut, np.searchsorted(primes, boundaries, side="right"))
    return got


class TestSegmentReduction:
    """The vectorised segment reduction against the per-character loop."""

    LO, HI = 1_000_001, 1_400_001
    # chunk sizes in primes; the per-class and per-chunk rows they give
    # straddle numpy's pairwise-sum block edges (8-wide blocks, recursion
    # above 128), which the test asserts on the per-class counts
    CHUNKS = (1, 2, 7, 8, 9, 60, 127, 128, 129, 300, 1000, 9000)

    @pytest.mark.parametrize("q", [4, 12, 13, 24, 105])
    def test_matches_the_loop_per_character(self, q):
        primes = sieve_segment(self.LO, self.HI, simple_sieve(1200))
        ends = np.cumsum(self.CHUNKS)
        assert ends[-1] < len(primes)
        boundaries = primes[ends - 1].astype(np.float64)
        part = assert_segment_matches_reference(primes, self.LO, self.HI, boundaries, q)
        sizes = part.counts[part.counts > 0]
        assert sizes.min() < 8 and sizes.max() > 128
        assert np.any((sizes >= 8) & (sizes <= 128))

    def test_whole_segment_chunk_memory_is_bounded(self):
        # a grid step wider than the segment: the chunk is the whole segment
        # (101k primes), and q=420 has 95 nonprincipal characters
        lo = 10**9
        hi = lo + 2 * tally.DEFAULT_SEGMENT_ODDS
        primes = sieve_segment(lo, hi, simple_sieve(math.isqrt(hi) + 1))
        layout = _Layout(420)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            part, _ = _segment_partial(primes, lo, hi, np.empty(0), layout, _Scratch(None))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert part.counts.sum() == len(primes) > 100_000
        assert peak <= 100 * 2**20, peak / 2**20

    @pytest.mark.parametrize("q", [4, 12, 24, 105])
    @pytest.mark.parametrize("sizes", [
        [1] * 150,
        [1, 1, 2, 1, 3, 1, 1, 4, 5, 1, 6, 7, 1] * 12,
    ], ids=["one-prime", "mixed"])
    def test_one_prime_chunks(self, q, sizes):
        # chunks of one prime each, so every nonempty class-chunk holds one
        # prime; then such chunks mixed with chunks of 2-7 primes.  The
        # segment ends at the last chunk's last prime.
        ends = np.cumsum(sizes)
        hi = int(sieve_segment(self.LO, self.HI, simple_sieve(1200))[ends[-1] - 1]) + 1
        primes = sieve_segment(self.LO, hi, simple_sieve(1200))
        boundaries = primes[ends[:-1] - 1].astype(np.float64)
        part = assert_segment_matches_reference(primes, self.LO, hi, boundaries, q)
        assert part.counts.sum(axis=1).tolist() == sizes
        if max(sizes) == 1:
            assert part.counts.max() == 1

    @settings(max_examples=8, deadline=None)
    @given(q=st.sampled_from([4, 12, 24, 105]),
           lo=st.integers(2, 300_000),
           width=st.integers(1, 40_000),
           data=st.data())
    def test_random_segments_and_boundaries(self, q, lo, width, data):
        hi = lo + width
        cuts = data.draw(st.lists(st.integers(lo, hi - 1), max_size=12), label="cuts")
        boundaries = np.array(sorted(cuts), dtype=np.float64)
        primes = sieve_segment(lo, hi, simple_sieve(math.isqrt(hi) + 1))
        assert_segment_matches_reference(primes, lo, hi, boundaries, q)


def growing_bounds(lo, hi, segment_odds):
    """Segments of [lo, hi) 2, 4, 8, ... integers wide: each holds more primes than the one before."""
    out, width = [], 2
    while lo < hi:
        out.append((lo, min(lo + width, hi)))
        lo, width = lo + width, 2 * width
    return out


def halving_bounds(lo, hi, segment_odds):
    """Segments of [lo, hi), each half as wide as the one before, the last 2 integers wide.

    hi - lo must be 2^k - 2.  Each segment holds fewer primes than the one before, or none.
    """
    out, width = [], (hi - lo + 2) // 2
    while lo < hi:
        out.append((lo, lo + width))
        lo, width = lo + width, width // 2
    return out


class TestScratchReuse:
    """Every worker reuses one scratch from segment to segment, growing it as needed.

    No entry a segment leaves in it may reach the next segment's sums, its
    race terms or another modulus's, and a job's race terms must outlive the
    jobs a pool runs ahead of the fold.
    """

    @pytest.mark.parametrize("q, a, b", [(4, 3, 1), (24, 5, 1), (105, 2, 1), (105, 4, 104)])
    def test_race_tally_over_growing_segments(self, tmp_path, monkeypatch, q, a, b):
        monkeypatch.setattr(tally, "segment_bounds", growing_bounds)
        x_hi = 60_000
        grid = CheckpointGrid.from_xmax(x_hi - 1, h=0.02)
        assert len(growing_bounds(2, x_hi, 0)) == 15
        runs = [accumulate(grid, q, x_hi=x_hi, threads=threads, race=(a, b), persist=tmp_path / f"{threads}.csv")
                for threads in (1, 2, 3)]
        # snapshots taken one to three grid points at a time give the same arrays
        monkeypatch.setattr(tally, "_BATCH_CELLS", 50)
        runs.append(accumulate(grid, q, x_hi=x_hi, race=(a, b), persist=tmp_path / "batch.csv"))
        want = oracle_summary(x_hi, q, a, b, grid.x)
        for run in runs:
            assert run.completed
            assert_same_summary(run.race, want)
            for name in ALL_ARRAYS:
                got, first = matrix(run.series, name), matrix(runs[0].series, name)
                assert np.array_equal(got.view(np.uint64), first.view(np.uint64)), name
        text = oracle_csv(runs[0].series)
        for name in ("1", "2", "3", "batch"):
            assert (tmp_path / f"{name}.csv").read_bytes() == text

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pool_allocates_race_terms_once_per_job_in_flight(self, tmp_path, monkeypatch, threads):
        # each segment holds fewer primes than the one before, so a buffer
        # the fold hands back always fits the next job: the pool allocates
        # at most one for each of its first threads + 3 jobs and no more,
        # where a fresh array per job makes one per segment; the same holds
        # for the re-sieve of a race a finished checkpoint did not record
        monkeypatch.setattr(tally, "segment_bounds", halving_bounds)
        buffers = []
        fold = _RaceFold.fold

        def recording(self, terms):
            owner = terms[1] if terms[1].base is None else terms[1].base  # the array holding the terms
            if not any(b is owner for b in buffers):
                buffers.append(owner)
            fold(self, terms)

        monkeypatch.setattr(_RaceFold, "fold", recording)
        x_hi = 2**16
        grid = CheckpointGrid.from_xmax(x_hi - 1, h=0.02)
        bounds = halving_bounds(2, x_hi, 0)
        counts = [len(simple_sieve(b - 1)) - len(simple_sieve(a - 1)) for a, b in bounds]
        assert bounds[-1] == (x_hi - 2, x_hi) and len(bounds) > 2 * (threads + 3)
        assert counts == sorted(counts, reverse=True)
        got = accumulate(grid, 4, x_hi=x_hi, threads=threads, race=(3, 1))
        assert 1 <= len(buffers) <= threads + 3
        want = oracle_summary(x_hi, 4, 3, 1, grid.x)
        assert_same_summary(got.race, want)
        path = tmp_path / "done.csv"
        accumulate(grid, 4, x_hi=x_hi, threads=threads, persist=path)
        assert buffers and not json.loads(tally._sidecar_path(path).read_text()).get("races")
        buffers.clear()
        again = accumulate(grid, 4, x_hi=x_hi, threads=threads, race=(3, 1), persist=path, resume=True)
        assert 1 <= len(buffers) <= threads + 3
        assert_same_summary(again.race, want)

    def test_one_scratch_across_moduli_and_sizes(self):
        # segments of growing and falling prime count, mod 4, 105, 4 and 12
        # in turn, all through one scratch, each against the oracle
        scratch = _Scratch(None)
        base = simple_sieve(1200)
        for q, lo, hi in [(4, 1_000_001, 1_001_001), (105, 1_000_001, 1_200_001), (4, 2, 3000),
                          (12, 1_100_001, 1_400_001), (105, 5, 400), (4, 1_000_001, 1_000_101)]:
            primes = sieve_segment(lo, hi, base, scratch.get("mask", (hi - lo) // 2 + 1))
            boundaries = primes[::97].astype(np.float64) + 0.5
            assert_segment_matches_reference(primes, lo, hi, boundaries, q, scratch)

    def test_moduli_in_turn_in_one_process(self):
        grid = CheckpointGrid.from_xmax(30_000, h=0.02)
        first = accumulate(grid, 4, segment_odds=2048, race=(3, 1))
        other = accumulate(grid, 105, segment_odds=2048, race=(2, 1))
        again = accumulate(grid, 4, segment_odds=2048, race=(3, 1))
        assert_same_summary(other.race, oracle_summary(other.x_hi, 105, 2, 1, grid.x))
        assert_same_summary(again.race, first.race)
        assert oracle_csv(again.series) == oracle_csv(first.series)
        for name in ALL_ARRAYS:
            assert np.array_equal(matrix(again.series, name).view(np.uint64),
                                  matrix(first.series, name).view(np.uint64)), name

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_range_partials_and_merge_match_the_oracle(self, threads):
        # each segment reduced by the loop-per-character oracle and folded
        # exactly; the split sits on a segment boundary
        q, hi, odds = 105, 150_000, 4096
        layout = _Layout(q)
        want = TallyPartial.empty(q)
        base = simple_sieve(math.isqrt(hi))
        for lo, b in segment_bounds(2, hi, odds):
            ref = reference_segment_partial(sieve_segment(lo, b, base), np.empty(0), layout)
            ref["char_eulerlog"] = ref["char_eulerlog"][:, layout.reps]  # a tally sums the representatives'
            want.fold(_SegmentPartial(lo, b, 1, *(ref[f] for f in SEGMENT_FIELDS)), 0)
        want.fold_powers(_power_terms(layout, 2, hi), 0, hi)
        m = 2 + 7 * 2 * odds
        for got in (range_partial(2, hi, q, segment_odds=odds, threads=threads),
                    merge(range_partial(2, m, q, segment_odds=odds, threads=threads),
                          range_partial(m, hi, q, segment_odds=odds, threads=threads))):
            assert (got.lo, got.hi) == (2, hi)
            assert got.counts == want.counts
            for name, arr in want.totals().items():
                assert np.array_equal(got.totals()[name].view(np.uint64), arr.view(np.uint64)), name


class TestWorkingSet:
    """What a pass keeps per segment: the scratch block's size, and no segment held past its fold."""

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resieve"])
    def test_previous_primes_are_dead_when_the_next_segment_sieves(self, tmp_path, monkeypatch, resume):
        # one thread: a segment's primes, which its race terms hold, are
        # freed once folded, before the next segment is sieved; so in the
        # re-sieve of a race a finished checkpoint did not record
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "w.csv"
        if resume:
            accumulate(grid, 4, segment_odds=512, persist=path)
        refs, alive = [], []

        def recording(*args):
            alive.extend(k for k, ref in enumerate(refs) if ref() is not None)
            primes = sieve_segment(*args)
            refs.append(weakref.ref(primes))
            return primes

        monkeypatch.setattr(tally, "sieve_segment", recording)
        res = accumulate(grid, 4, segment_odds=512, race=(3, 1), persist=path, resume=resume)
        assert len(refs) == len(tally.segment_bounds(2, res.x_hi, 512)) > 4
        assert alive == []

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_pool_holds_only_the_jobs_in_flight(self, monkeypatch, threads):
        # while a segment is folded, the primes alive are those of the jobs
        # ordered_map keeps in flight, at most threads + 2: the folded
        # segment's own are dropped with its race terms, and no future of a
        # yielded result is kept
        refs, alive = [], []

        def recording(*args):
            primes = sieve_segment(*args)
            refs.append(weakref.ref(primes))
            return primes

        fold = TallyPartial.fold

        def counting(self, part, c):
            if c == 0:
                alive.append(sum(ref() is not None for ref in refs))
            fold(self, part, c)

        monkeypatch.setattr(tally, "sieve_segment", recording)
        monkeypatch.setattr(TallyPartial, "fold", counting)
        grid = CheckpointGrid.from_xmax(40_000, h=0.05)
        res = accumulate(grid, 4, segment_odds=512, race=(3, 1), threads=threads)
        assert len(alive) == len(tally.segment_bounds(2, res.x_hi, 512)) > 2 * (threads + 3)
        assert 1 <= max(alive) <= threads + 2

    @pytest.mark.parametrize("q, race", [(4, (3, 1)), (105, (2, 1)), (105, None)])
    def test_scratch_holds_the_residues_and_one_region(self, monkeypatch, q, race):
        # n_max residues, then one region for a class's term rows or the
        # race terms: no float copy of the primes or of 1/sqrt(p), and one
        # Euler-log row per distinct chi(a), a complex one as two
        made = []

        class Recorded(_Scratch):
            def __init__(self, spare):
                super().__init__(spare)
                made.append(self)

        monkeypatch.setattr(tally, "_Scratch", Recorded)
        x_hi, odds = 400_000, 16_384
        grid = CheckpointGrid.from_xmax(x_hi - 1, h=0.02)
        accumulate(grid, q, x_hi=x_hi, segment_odds=odds, race=race)
        layout, base = _Layout(q), simple_sieve(math.isqrt(x_hi))
        distinct = []
        for a in layout.units:
            z = layout.chi_tab[layout.reps, a]  # the representatives' values
            real = z.imag == 0.0
            distinct.append(len({v.tobytes() for v in z.real[real]}) + 2 * len({v.tobytes() for v in z[~real]}))
        n_max = rows = 0
        for a, b in segment_bounds(2, x_hi, odds):
            primes = sieve_segment(a, b, base)
            sizes = np.bincount(primes % q, minlength=q)[list(layout.units)].tolist()
            n_max = max(n_max, len(primes))
            rows = max(rows, *((3 + d) * k for d, k in zip(distinct, sizes)))
        assert len(made) == 1 and n_max > 1000
        assert len(made[0].flat) <= n_max + max(rows, 2 * n_max + 2 if race else 0)


class TestTallyState:
    """The one exact state behind accumulate, range_partial, merge and resume."""

    @settings(max_examples=8, deadline=None)
    @given(q=st.sampled_from([4, 5, 12]),
           segment_odds=st.integers(64, 4096),
           hi=st.integers(1_000, 200_000),
           data=st.data())
    def test_merge_at_a_segment_boundary_is_bit_exact(self, q, segment_odds, hi, data):
        span = 2 * segment_odds
        k = data.draw(st.integers(0, (hi - 2) // span), label="k")
        m = 2 + k * span
        single = range_partial(2, hi, q, segment_odds=segment_odds)
        left = range_partial(2, m, q, segment_odds=segment_odds)
        right = range_partial(m, hi, q, segment_odds=segment_odds)
        merged = merge(left, right)
        assert (merged.lo, merged.hi) == (2, hi)
        assert_same_totals(merged, single)
        # a mid-run state survives its JSON form and keeps folding
        state = json.loads(json.dumps(left.to_state()))
        back = TallyPartial.from_state(state, q)
        assert back.hi == m
        assert back.to_state() == left.to_state()
        assert_same_totals(back, left)
        assert_same_totals(merge(back, right), single)

    @pytest.mark.parametrize("q", [4, 13])
    def test_cached_totals_match_a_fresh_state(self, q):
        # totals() recomputes only the sums folded since its last call
        grid = CheckpointGrid.from_xmax(10_000, h=0.02)
        layout = _Layout(q)
        state = TallyPartial.empty(q)
        powers, pw = _power_terms(layout, 2, 10_001), 0
        for lo, hi in ((2, 2050), (2050, 10_001)):
            primes = sieve_segment(lo, hi, simple_sieve(200))
            x = grid.x[(grid.x >= lo) & (grid.x < hi)]
            part, _ = _segment_partial(primes, lo, hi, x, layout, _Scratch(None))
            for c, end in enumerate([*x, hi - 1]):
                state.fold(part, c)
                pw = state.fold_powers(powers, pw, end)
                fresh = TallyPartial.from_state(state.to_state(), q)
                assert_same_totals(state, fresh)

    def test_totals_with_nothing_folded_are_the_same_read_only_arrays(self):
        q = 12
        layout = _Layout(q)
        part = range_partial(2, 5_000, q, segment_odds=512)
        first = part.totals()
        again = part.totals()
        assert again.keys() == first.keys() == set(ALL_ARRAYS) | {"invp"}
        for name, arr in first.items():
            assert again[name] is arr and not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            first["invsqrt"][0] = 0.0
        # a copy's are read-only too; a prime power changes psi alone
        assert not any(a.flags.writeable for a in part.copy().totals().values())
        slot = int(layout.slot[25 % q])
        part.fold_powers([(25, slot, math.log(5.0))], 0, 25.0)
        psi_only = part.totals()
        for name, arr in psi_only.items():
            assert (arr is first[name]) == (name != "psi"), name
            assert not arr.flags.writeable, name
        changed = np.flatnonzero(psi_only["psi"] != first["psi"]).tolist()
        assert changed == [slot] and psi_only["psi"][slot] > first["psi"][slot]
        assert all(arr is psi_only[name] for name, arr in part.totals().items())

    @pytest.mark.parametrize("q", [4, 12, 24, 105, 420])
    def test_linear_character_columns_derive_from_the_class_sums(self, q):
        # char_invsqrt = sum_a chi(a) invsqrt_a and char_mertens =
        # sum_a chi(a^2) invp_a, one pairwise np.sum per character over the
        # units in order, bit for bit; a real character's parts stay +0.0
        part = range_partial(2, 40_000, q, segment_odds=512)
        tot = part.totals()
        units = np.array(part.units)
        for j, chi in enumerate(enumerate_characters(q)[1:]):
            for name, table, residues in (("char_invsqrt", tot["invsqrt"], units),
                                          ("char_mertens", tot["invp"], units * units % q)):
                want = np.sum(chi.values[residues] * table)
                got = tot[name][j:j + 1]
                assert np.array_equal(got.view(np.uint64), np.array([want]).view(np.uint64)), (name, j)
                if chi.is_real:
                    assert got.imag.view(np.uint64)[0] == 0, (name, j)

    @pytest.mark.parametrize("q, distinct", [(4, 1), (12, 1), (105, 6), (420, 6)])
    def test_chi_squared_rows_are_taken_once_each(self, q, distinct):
        # character j's chi^2 row is distinct row chi2_of[j], first met at
        # character chi2_first[k], bit for bit; the distinct rows differ
        layout = tally._layout(q)
        chi2 = np.ascontiguousarray(layout.chi_tab[:, [a * a % q for a in layout.units]]).view(np.uint64)
        rows = chi2[layout.chi2_first]
        assert len(rows) == distinct and len({r.tobytes() for r in rows}) == distinct
        assert np.array_equal(rows[layout.chi2_of], chi2)
        assert all(layout.chi2_of[j] == k for k, j in enumerate(layout.chi2_first))

    @pytest.mark.parametrize("q, distinct, pairs", [(5, 9, 12), (13, 73, 132), (24, 15, 56),
                                                    (105, 329, 2256), (420, 665, 9120)])
    def test_euler_rows_take_each_distinct_value_once(self, q, distinct, pairs):
        # per class a, one row per bitwise-distinct chi(a) of the
        # representatives: the real values first, as -Re chi(a), then the
        # complex ones; representative r's chi(a) is its row's value, bit for
        # bit.  The rows and their conjugates (Re, 0.0 - Im) are every
        # character's values, which distinct and pairs count
        layout = tally._layout(q)
        total = rows = 0
        for a, (neg_re, z, of) in zip(layout.units, layout.euler_rows):
            chi = layout.chi_tab[layout.reps, a]
            assert z.dtype == np.complex128 and np.all(z.imag != 0.0)
            values = np.concatenate([-neg_re + 0j, z])
            assert len({v.tobytes() for v in values}) == len(values) == max(of, default=-1) + 1
            real = of < len(neg_re)
            assert np.array_equal(real, chi.imag == 0.0)
            assert np.array_equal(values[of].real.view(np.uint64), chi.real.view(np.uint64))
            assert np.array_equal(values[of][~real].view(np.uint64), chi[~real].view(np.uint64))
            conj = values.copy()
            conj.imag = 0.0 - conj.imag
            every = {v.tobytes() for v in np.concatenate([values, conj])}
            assert every == {v.tobytes() for v in layout.chi_tab[:, a]}
            total, rows = total + len(every), rows + len(values)
        assert (total, layout.nchar * layout.nclass) == (distinct, pairs)
        assert rows <= total

    def test_state_that_does_not_meet_the_next_segment_rejected(self, tmp_path):
        grid = CheckpointGrid.from_xmax(20_000, h=0.02)
        path = tmp_path / "bad.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, max_segments=3)
        meta_path = tmp_path / "bad.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["state"]["expected_lo"] += 2
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(TallyOrderError, match="out of order"):
            accumulate(grid, 4, segment_odds=512, persist=path, resume=True)


class TestPersistence:
    def grid(self):
        return CheckpointGrid.from_xmax(20_000, h=0.02)

    def test_csv_round_trip(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "series.csv"
        res = accumulate(grid, 5, segment_odds=1024, persist=path)
        back = read_series_csv(path)
        assert back.q == 5
        assert back.units == res.series.units
        assert back.char_labels == res.series.char_labels
        assert len(back) == len(res.series)
        assert back.x == res.series.x and back.y == res.series.y
        for attr in ALL_ARRAYS:
            assert np.array_equal(matrix(res.series, attr), matrix(back, attr)), attr

    def test_interrupted_run_resumes_byte_identically(self, tmp_path, monkeypatch):
        grid = self.grid()
        full = tmp_path / "full.csv"
        split = tmp_path / "split.csv"
        monkeypatch.setattr(tally, "_FLUSH_EVERY", 3)
        accumulate(grid, 4, segment_odds=512, persist=full)
        monkeypatch.setattr(tally, "_FLUSH_EVERY", 2)
        first = accumulate(grid, 4, segment_odds=512, persist=split, max_segments=7)
        assert not first.completed
        second = accumulate(grid, 4, segment_odds=512, persist=split, resume=True)
        assert second.completed
        assert full.read_bytes() == split.read_bytes()

    def test_resume_restores_the_full_series(self, tmp_path):
        grid = self.grid()
        split = tmp_path / "split.csv"
        accumulate(grid, 4, segment_odds=512, persist=split, max_segments=4)
        res = accumulate(grid, 4, segment_odds=512, persist=split, resume=True)
        direct = accumulate(grid, 4, segment_odds=512)
        assert len(res.series) == grid.n
        for attr in ALL_ARRAYS:
            assert np.array_equal(matrix(res.series, attr), matrix(direct.series, attr)), attr

    def test_interrupted_resume_returns_the_series_from_the_start(self, tmp_path):
        grid = self.grid()
        split = tmp_path / "split.csv"
        first = accumulate(grid, 4, segment_odds=512, persist=split, max_segments=4)
        res = accumulate(grid, 4, segment_odds=512, persist=split, resume=True,
                         max_segments=4)
        assert not res.completed and len(first.series) < len(res.series) < grid.n
        direct = accumulate(grid, 4, segment_odds=512)
        n = len(res.series)
        assert res.series.x == direct.series.x[:n] and res.series.y == direct.series.y[:n]
        for attr in ALL_ARRAYS:
            u, v = matrix(res.series, attr), matrix(direct.series, attr)[:n]
            assert u.shape == v.shape, attr
            assert np.array_equal(u.view(np.uint64), v.view(np.uint64)), attr

    def test_resume_of_finished_run_is_a_read(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "done.csv"
        accumulate(grid, 4, segment_odds=512, persist=path)
        res = accumulate(grid, 4, segment_odds=512, persist=path,
                         resume=True, race=(3, 1))
        assert res.completed and len(res.series) == grid.n
        direct = accumulate(grid, 4, segment_odds=512, race=(3, 1))
        assert_same_summary(res.race, direct.race)

    @pytest.mark.parametrize("stop", [4, None])
    def test_fresh_and_resumed_series_agree(self, tmp_path, stop):
        # a fresh series and the same run read back through the CSV hold the
        # same fields and points: matrices equal bit for bit, x and y floats
        grid = self.grid()
        path = tmp_path / "same.csv"
        fresh = accumulate(grid, 12, segment_odds=512, persist=tmp_path / "fresh.csv").series
        accumulate(grid, 12, segment_odds=512, persist=path, max_segments=stop)
        back = accumulate(grid, 12, segment_odds=512, persist=path, resume=True).series
        assert len(fresh) == len(back) == grid.n
        for name in ("q", "grid", "units", "char_labels", "x", "y"):
            assert getattr(fresh, name) == getattr(back, name), name
        assert {type(v) for v in fresh.x + fresh.y + back.x + back.y} == {float}
        assert fresh.fields.keys() == back.fields.keys() == set(ALL_ARRAYS)
        for attr in ALL_ARRAYS:
            u, v = matrix(fresh, attr), matrix(back, attr)
            assert u.dtype == v.dtype and u.shape == v.shape, attr
            assert np.array_equal(u.view(np.uint64), v.view(np.uint64)), attr

    def test_points_that_gain_nothing_share_the_previous_arrays(self, tmp_path):
        # the series keeps no dense table: a grid point that gained no prime
        # holds the previous point's read-only arrays (psi aside, when it
        # gained a prime power), and the CSV reads back as equal matrices
        grid = self.grid()
        path = tmp_path / "share.csv"
        series = accumulate(grid, 12, segment_odds=512, persist=path).series
        counts, psi = series.counts, series.psi
        quiet = powers_only = 0
        for j in range(1, len(series)):
            if not np.array_equal(counts[j], counts[j - 1]):
                continue
            same_psi = np.array_equal(psi[j], psi[j - 1])
            quiet += same_psi
            powers_only += not same_psi
            for f, entries in series.fields.items():
                assert (entries[j] is entries[j - 1]) == (same_psi or f != "psi"), (j, f)
        assert quiet > 100 and powers_only > 0
        assert not any(e.flags.writeable for entries in series.fields.values() for e in entries)
        back = read_series_csv(path)
        assert back.x == series.x and back.y == series.y
        for attr in ALL_ARRAYS:
            u, v = matrix(back, attr), matrix(series, attr)
            assert u.dtype == v.dtype and u.shape == v.shape, attr
            assert np.array_equal(u.view(np.uint64), v.view(np.uint64)), attr

    def test_resume_jumps_cover_presieved_segments(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "j.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, max_segments=5)
        res = accumulate(grid, 4, segment_odds=512, persist=path,
                         resume=True, race=(1, 3))
        direct = accumulate(grid, 4, segment_odds=512, race=(1, 3))
        assert_same_summary(res.race, direct.race)

    def test_configuration_mismatch_rejected(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "cfg.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, max_segments=2)
        other = CheckpointGrid(h=grid.h, n=grid.n - 1)
        with pytest.raises(ValueError, match="configuration"):
            accumulate(other, 4, segment_odds=512, persist=path, resume=True)
        with pytest.raises(ValueError, match="configuration"):
            accumulate(grid, 4, segment_odds=256, persist=path, resume=True)

    def test_resume_without_sidecar_rejected(self, tmp_path):
        grid = self.grid()
        with pytest.raises(ValueError, match="resume"):
            accumulate(grid, 4, persist=tmp_path / "none.csv", resume=True)

    @pytest.mark.parametrize("stop", [2, None])
    # JSON true and 1.0 both equal 1 in Python; only the int 1, 2 or 3 reads
    @pytest.mark.parametrize("edit, shown", [(lambda meta: meta.update(format=99), "99"),
                                             (lambda meta: meta.pop("format"), "None"),
                                             (lambda meta: meta.update(format=True), "True"),
                                             (lambda meta: meta.update(format=1.0), "1.0")])
    def test_unknown_sidecar_format_rejected(self, tmp_path, stop, edit, shown):
        # a partial and a finished run, each with its race recorded; the
        # files are left as they were
        grid = self.grid()
        path = tmp_path / "fmt.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, race=(3, 1), max_segments=stop)
        meta_path = tally._sidecar_path(path)
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        files = path.read_bytes(), meta_path.read_bytes()
        for race in [(3, 1), (1, 3), None]:
            with pytest.raises(ValueError, match=rf"fmt\.meta\.json: sidecar format {shown} is not 1, 2 or 3"):
                accumulate(grid, 4, segment_odds=512, persist=path, resume=True, race=race)
        assert (path.read_bytes(), meta_path.read_bytes()) == files

    def test_real_characters_persist_no_imaginary_partials(self, tmp_path):
        grid = CheckpointGrid.from_xmax(20_000, h=0.1)
        path = tmp_path / "q12.csv"
        accumulate(grid, 12, segment_odds=512, persist=path, max_segments=5)
        meta = json.loads((tmp_path / "q12.meta.json").read_text())
        state = meta["state"]
        assert meta["format"] == 3 and list(state["char"]) == ["eulerlog"]
        for name, sums in state["char"].items():
            for re, im in sums:
                assert re and im == [], name
        res = accumulate(grid, 12, segment_odds=512, persist=path, resume=True)
        assert res.completed
        fresh = tmp_path / "fresh.csv"
        accumulate(grid, 12, segment_odds=512, persist=fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_partial_row_from_a_crash_is_discarded(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "crash.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, max_segments=6)
        with open(path, "a") as fh:
            fh.write("1.5,0.4,garbage\n")
        res = accumulate(grid, 4, segment_odds=512, persist=path, resume=True)
        assert res.completed
        direct = accumulate(grid, 4, segment_odds=512)
        assert np.array_equal(res.series.invsqrt, direct.series.invsqrt)


def oracle_csv(series) -> bytes:
    """A checkpoint CSV with every cell formatted by the oracle."""
    header = ",".join(tally._csv_columns(series.q))
    return "".join(f"{line}\n" for line in [header, *(format_row(*r) for r in rows(series))]).encode()


class TestTruncateCsv:
    """A partial resume keeps the header and the rows its sidecar counts, cutting the file after them."""

    ROWS = [b"x,y,n_1\n", b"2.0,0.69,1\n", b"2.01,0.70,1\n", b"2.03,0.71,2\n"]

    def write(self, tmp_path, lines):
        path = tmp_path / "c.csv"
        path.write_bytes(b"".join(lines))
        return path

    def test_extra_rows_are_cut_to_the_exact_bytes(self, tmp_path):
        # the rows past the count, the last one torn mid-write
        path = self.write(tmp_path, self.ROWS + [b"2.04,0.72,3\n", b"2.05,0.7"])
        _truncate_csv(path, 3)
        assert path.read_bytes() == b"".join(self.ROWS)
        _truncate_csv(path, 1)
        assert path.read_bytes() == b"".join(self.ROWS[:2])
        _truncate_csv(path, 0)
        assert path.read_bytes() == self.ROWS[0]

    def test_an_exact_count_leaves_the_file_alone(self, tmp_path):
        path = self.write(tmp_path, self.ROWS)
        os.utime(path, ns=(10**18, 10**18))
        _truncate_csv(path, 3)
        assert path.read_bytes() == b"".join(self.ROWS)
        assert path.stat().st_mtime_ns == 10**18

    @pytest.mark.parametrize("rows", [4, 9])
    def test_too_few_rows_raise(self, tmp_path, rows):
        path = self.write(tmp_path, self.ROWS)
        with pytest.raises(ValueError, match=r"c\.csv holds fewer rows than the sidecar claims"):
            _truncate_csv(path, rows)
        assert path.read_bytes() == b"".join(self.ROWS)


class TestConjugatePairs:
    """Each conjugate pair of characters summed, derived and formatted once.

    The tally sums char_eulerlog for its representatives (_Layout.reps):
    every real character and the lower-indexed of each pair.  Every other
    character's column is its representative's (Re, 0.0 - Im), as the
    per-character sums give it, bit for bit.
    """

    @pytest.mark.parametrize("q, reps, columns", [(4, 1, 12), (5, 2, 24), (13, 6, 72), (24, 7, 54),
                                                  (105, 27, 294), (420, 55, 590)])
    def test_exact_sums_hold_the_representatives(self, q, reps, columns):
        layout = _Layout(q)
        chars = enumerate_characters(q)[1:]
        assert layout.reps.tolist() == [j for j, chi in enumerate(chars) if chi.index <= chi.conjugate_index]
        assert len(layout.reps) == reps
        assert len(TallyPartial.empty(q).sums.vals) == 5 * layout.nclass + 2 * reps == columns

    @pytest.mark.parametrize("q", [13, 17, 105])
    def test_conjugate_columns_match_the_oracle(self, tmp_path, q):
        # every conjugate's column, in the series and in the CSV text, is the
        # per-character scalar fold's, bit for bit.  To 1e4, q=17 has 82
        # cells of char_invsqrt and 82 of char_eulerlog whose imaginary sum is
        # +0.0 for chi and chi-bar alike (chi of order 4 has chi(2) = -1), 41
        # of each in the conjugates' columns, where np.conj would give -0.0
        grid = CheckpointGrid.from_xmax(1e4, h=0.01)
        want, _ = scalar_tally(grid, q, math.floor(grid.x_max) + 1, tally.DEFAULT_SEGMENT_ODDS)
        path = tmp_path / "run.csv"
        res = accumulate(grid, q, persist=path)
        chars = enumerate_characters(q)[1:]
        conj = [j for j, chi in enumerate(chars) if chi.index > chi.conjugate_index]
        assert len(conj) == len(chars) - len(_Layout(q).reps) > 0
        for name in ("char_invsqrt", "char_mertens", "char_eulerlog"):
            got = np.take(matrix(res.series, name), conj, axis=1)
            oracle = np.take(np.array([row[name] for row in want]), conj, axis=1)
            assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64)), name
        zeros = [np.count_nonzero(matrix(res.series, name)[:, conj].imag == 0.0)
                 for name in ("char_invsqrt", "char_eulerlog")]
        assert zeros == ([41, 41] if q == 17 else [0, 0])
        labels = {chars[j].label for j in conj}
        cols = [k for k, name in enumerate(tally._csv_columns(q))
                if name.startswith("chi_") and name.split("_")[1] in labels]
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(want) == grid.n
        for line, x, y, row in zip(lines, grid.x.tolist(), grid.y.tolist(), want):
            cells, oracle = line.split(","), format_row(x, y, row).split(",")
            assert [cells[k] for k in cols] == [oracle[k] for k in cols]

    @settings(max_examples=300, deadline=None)
    @given(v=st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2.225073858507201e-308)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_a_conjugates_imaginary_text_is_repr_of_the_negation(self, v):
        # the row writer formats the representatives' cells alone; every
        # conjugate's imaginary cell must read repr(0.0 - v) for the
        # representative's v.  q=13 has conjugates in all three fields
        layout = _Layout(13)
        writer = tally._RowWriter(layout)
        point = np.full(layout.nchar, complex(0.25, v))
        fields = ("char_invsqrt", "char_eulerlog", "char_mertens")
        line = writer.lines([2.0], [LOG2], {f: [point] for f in fields}, [([], True)])
        x, y, empty, *cells = line.rstrip("\n").split(",")
        assert (x, y, empty) == ("2.0", repr(LOG2), "") and len(cells) == 6 * layout.nchar
        for k, name in enumerate(("char_invsqrt", "char_mertens", "char_eulerlog")):
            flip = layout.pairs[name][2]
            assert flip.any()
            for j in range(layout.nchar):
                re, im = cells[6 * j + 2 * k:6 * j + 2 * k + 2]
                assert re == "0.25" and im == repr(0.0 - v if flip[j] else v), (name, j)


class TestCsvRows:
    """The checkpoint CSV's bytes against format_row, which formats every cell."""

    @pytest.mark.parametrize("q", [4, 12, 24, 105])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_match_the_oracle(self, tmp_path, monkeypatch, q, threads):
        # h=0.02 to 2e4 over 5 segments, flushed 2 at a time: many grid
        # points gain no prime, some gain only a prime power
        grid = CheckpointGrid.from_xmax(20_000, h=0.02)
        monkeypatch.setattr(tally, "_FLUSH_EVERY", 2)
        kw = dict(segment_odds=2048, threads=threads)
        path = tmp_path / "run.csv"
        res = accumulate(grid, q, persist=path, **kw)
        want = oracle_csv(res.series)
        assert path.read_bytes() == want
        tails = [line.split(",", 2)[2] for line in want.decode().splitlines()[1:]]
        assert sum(a == b for a, b in zip(tails, tails[1:])) > 100
        # stopped at max_segments, then resumed
        split = tmp_path / "split.csv"
        first = accumulate(grid, q, persist=split, max_segments=3, **kw)
        assert 0 < len(first.series) < grid.n
        assert split.read_bytes() == oracle_csv(first.series)
        back = accumulate(grid, q, persist=split, resume=True, **kw)
        assert back.completed and split.read_bytes() == want
        # every cell formatted again, of the resumed series and of the CSV read back
        for series in (back.series, read_series_csv(path)):
            assert oracle_csv(series) == want

    @pytest.mark.filterwarnings("error")
    def test_header_only_csv_reads_as_an_empty_series(self, tmp_path):
        grid = CheckpointGrid.from_xmax(20_000, h=0.02)
        path = tmp_path / "none.csv"
        res = accumulate(grid, 12, segment_odds=512, persist=path, max_segments=0)
        assert len(res.series) == 0 and path.read_text().count("\n") == 1
        back = read_series_csv(path)
        assert len(back) == 0 and back.q == 12
        assert (back.units, back.char_labels) == (res.series.units, res.series.char_labels)
        done = accumulate(grid, 12, segment_odds=512, persist=path, resume=True)
        assert done.completed
        fresh = tmp_path / "fresh.csv"
        accumulate(grid, 12, segment_odds=512, persist=fresh)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("q", [4, 12])
    def test_empty_series_tables_match_a_header_only_csv(self, tmp_path, q):
        grid = CheckpointGrid.from_xmax(1e3)
        path = tmp_path / "none.csv"
        empty = accumulate(grid, q, persist=path, max_segments=0).series
        back = read_series_csv(path)
        for series in (empty, back):
            tables = [series.counts, series.invsqrt, series.theta, series.psi,
                      *(series.char_matrix(kind) for kind in ("invsqrt", "mertens", "eulerlog"))]
            assert [(t.shape, t.dtype) for t in tables] == [
                *[((0, len(series.units)), np.dtype(d)) for d in ("int64", "float64", "float64", "float64")],
                *[((0, len(series.char_labels)), np.dtype("complex128"))] * 3,
            ]
            for field in ("invsqrt", "counts", "theta", "psi"):
                assert series.weighted(race_weight(q - 1, 1, q), field).shape == (0,)

    def test_rows_of_the_wrong_width_rejected(self, tmp_path):
        # 8 rows of 6 cells under q=4's 16 columns: 48 cells, which would
        # otherwise re-cut into 3 rows of 16
        path = tmp_path / "narrow.csv"
        header = ",".join(tally._csv_columns(4))
        assert header.count(",") == 15
        path.write_text(header + "\n" + "".join(f"{2.0 + k},0.{k},1,0.5,0.25,0.125\n" for k in range(8)))
        with pytest.raises(ValueError, match=r"narrow\.csv: rows hold 6 cells, but the header has 16 columns"):
            read_series_csv(path)

    @pytest.mark.parametrize("edit", ["renamed", "dropped", "swapped"])
    def test_a_header_unlike_the_writers_is_refused(self, tmp_path, edit):
        # the reader cuts fields by position, so a header must be the writer's exactly
        path = tmp_path / "edited.csv"
        accumulate(CheckpointGrid.from_xmax(2e3, h=0.05), 12, persist=path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        k = lines[0].index("theta_5")
        if edit == "renamed":
            lines[0][k] = "theta_6"
        elif edit == "dropped":  # with its cells, so every row still fits the header
            lines = [line[:k] + line[k + 1:] for line in lines]
        else:
            lines[0][k], lines[0][k + 1] = lines[0][k + 1], lines[0][k]
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=r"edited\.csv: the header is not the checkpoint columns"):
            read_series_csv(path)

    @pytest.mark.parametrize("header, modulus", [("x,y,n_1,invsqrt_1,theta_1,psi_1", "none"),
                                                 ("x,y,chi_x.1_invsqrt_re", "x"),
                                                 ("x,y,chi_2.1_invsqrt_re", "2"),
                                                 ("x,y,chi_1000000007.1_invsqrt_re", "1000000007")])
    def test_a_header_without_a_checkpoint_modulus_is_refused(self, tmp_path, header, modulus):
        # a modulus past len(header)**2 is refused before its characters are built
        path = tmp_path / "odd.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=rf"odd\.csv: .* first chi_ column names \({modulus}\)"):
            read_series_csv(path)

    @pytest.mark.parametrize("stop", [3, None])
    def test_a_resume_reads_the_csv_once_through_tally(self, tmp_path, monkeypatch, stop):
        # perfbench counts checkpoint reads by wrapping tally.read_series_csv
        grid = CheckpointGrid.from_xmax(20_000, h=0.02)
        path = tmp_path / "run.csv"
        accumulate(grid, 12, segment_odds=512, persist=path, max_segments=stop)
        calls, read = [], tally.read_series_csv
        monkeypatch.setattr(tally, "read_series_csv", lambda p: calls.append(p) or read(p))
        assert accumulate(grid, 12, segment_odds=512, persist=path, resume=True).completed
        assert calls == [path]


class TestCheckpointOps:
    def test_principal_euler_rejected(self, small_run):
        principal = enumerate_characters(4)[0]
        with pytest.raises(ValueError, match="nonprincipal"):
            euler_series(small_run.series, principal)

    def test_negative_vanishing_order_rejected(self, small_run):
        chi = enumerate_characters(4)[1]
        with pytest.raises(ValueError, match="nonnegative"):
            euler_series(small_run.series, chi, vanishing_order=-1)

    def test_modulus_mismatch_rejected(self, small_run):
        chi5 = enumerate_characters(5)[1]
        with pytest.raises(ValueError, match="modulus"):
            small_run.series.weighted(chi5, "invsqrt")
        t5 = race_weight(2, 1, 5)
        with pytest.raises(ValueError, match="modulus"):
            small_run.series.weighted(t5)

    def test_race_requires_units(self):
        grid = CheckpointGrid.from_xmax(100, h=0.1)
        with pytest.raises(ValueError, match="not a unit"):
            accumulate(grid, 4, race=(2, 1))
        with pytest.raises(ValueError, match="not a unit"):
            accumulate(grid, 12, race=(1, 9))

    def test_race_requires_two_classes(self):
        grid = CheckpointGrid.from_xmax(100, h=0.1)
        with pytest.raises(ValueError, match="must differ"):
            accumulate(grid, 4, race=(1, 5))

    def test_weighted_series_view(self, small_run):
        t = race_weight(3, 1, 4)
        series = small_run.series
        vec = series.weighted(t)
        assert len(vec) == len(series)
        j = point_at(series, 10.0)
        # the sum over classes, one complex add at a time
        want = 0j
        for i, a in enumerate(series.units):
            want += t.values[a] * series.invsqrt[j, i]
        assert vec[j] == pytest.approx(want, rel=1e-14)


def assert_resumed_from_fixture(resumed, fixture, fresh):
    """A resumed CSV keeps the fixture's rows and goes on with a fresh run's.

    Flushed rows are never rewritten, so the fixture's rows keep the
    char_invsqrt and char_mertens cells that its release summed per chunk:
    those agree with the fresh run's derived cells at the oracle tolerance,
    and every other cell byte for byte.  Returns the number of fixture rows.
    """
    old = fixture.read_bytes().splitlines(keepends=True)
    new = fresh.read_bytes().splitlines(keepends=True)
    assert len(old) < len(new)
    assert resumed.read_bytes() == b"".join(old + new[len(old):])
    header = old[0].decode().rstrip("\n").split(",")
    derived = [name.startswith("chi_") and name.split("_")[-2] in ("invsqrt", "mertens")
               for name in header]
    for a, b in zip(old[1:], new[1:]):
        for name, is_derived, u, v in zip(header, derived, a.split(b","), b.split(b",")):
            if is_derived:
                assert float(u) == pytest.approx(float(v), rel=1e-11, abs=1e-12), name
            else:
                assert u == v, name
    return len(old) - 1


def assert_series_from_fixture(got, want, inherited):
    """assert_resumed_from_fixture's split, on the series' arrays."""
    assert len(got) == len(want)
    for attr in ALL_ARRAYS:
        u, v = matrix(got, attr), matrix(want, attr)
        assert u.shape == v.shape, attr
        for k in range(len(got)):
            if k < inherited and attr in DERIVED:
                assert u[k] == pytest.approx(v[k], rel=1e-11, abs=1e-12), (k, attr)
            else:
                assert np.array_equal(u[k].view(np.uint64), v[k].view(np.uint64)), (k, attr)


class TestCrossVersionResume:
    """Partial runs written by earlier releases, which summed char_invsqrt and
    char_mertens per chunk instead of deriving them.  Resuming one must
    continue it as a fresh run would: the fixture's 79 rows stay as they
    were written, and every later row is a fresh run's.

    tests/data/resume_q12.* (format 1) was written by the release before
    the tally state was unified (commit b55212d) by

        accumulate(CheckpointGrid.from_xmax(20_000, h=0.1), 12,
                   segment_odds=512, persist="resume_q12.csv", max_segments=5)

    and tests/data/resume_q4_race.* (format 2, with a recorded race) by the
    release before the two columns were derived (commit 3c2a832) by

        accumulate(CheckpointGrid.from_xmax(20_000, h=0.1), 4,
                   segment_odds=512, persist="resume_q4_race.csv",
                   race=(3, 1), max_segments=5)

    tests/data/resume_q13.* (format 3) was written by the release before a
    conjugate character's values were its conjugate's bit for bit (commit
    131d9b1) by

        accumulate(CheckpointGrid.from_xmax(20_000, h=0.1), 13,
                   segment_odds=512, persist="resume_q13.csv", max_segments=5)
    """

    # the largest difference of a complex character's cell in a row after
    # the resume point from a fresh run's: 5.9e-15 measured
    CONJUGATE_BOUND = 1e-14

    def resume(self, tmp_path, name, q, race):
        """Resume a copy of fixture name; return the result, a fresh run, the work directory."""
        grid = CheckpointGrid.from_xmax(20_000, h=0.1)
        work = tmp_path / str(race)
        work.mkdir()
        for suffix in (".csv", ".meta.json"):
            shutil.copy(DATA / (name + suffix), work / (name + suffix))
        res = accumulate(grid, q, segment_odds=512, persist=work / (name + ".csv"),
                         resume=True, race=race)
        assert res.completed
        direct = accumulate(grid, q, segment_odds=512, persist=work / "fresh.csv", race=race)
        inherited = assert_resumed_from_fixture(work / (name + ".csv"), DATA / (name + ".csv"),
                                                work / "fresh.csv")
        assert inherited == 79
        assert_series_from_fixture(res.series, direct.series, inherited)
        return res, direct, work

    def test_format_1_sidecar_resumes_byte_identically(self, tmp_path):
        # a format-1 sidecar records no race: one is folded again from the sieve
        meta = json.loads((DATA / "resume_q12.meta.json").read_text())
        assert meta["format"] == 1 and not meta["complete"]
        for race in (None, (5, 1)):
            res, direct, _ = self.resume(tmp_path, "resume_q12", 12, race)
            if race is not None:
                assert_same_summary(res.race, direct.race)

    def test_format_2_sidecar_resumes_its_recorded_race(self, tmp_path):
        meta = json.loads((DATA / "resume_q4_race.meta.json").read_text())
        assert meta["format"] == 2 and not meta["complete"] and list(meta["races"]) == ["3,1"]
        res, direct, work = self.resume(tmp_path, "resume_q4_race", 4, (3, 1))
        assert_same_summary(res.race, direct.race)
        # complete, the two sidecars hold the same race and the same counts
        assert (work / "resume_q4_race.meta.json").read_bytes() == (work / "fresh.meta.json").read_bytes()


    def test_format_3_sidecar_of_complex_characters_resumes(self, tmp_path):
        # the fixture's complex-character cells and its sums of both
        # characters of each conjugate pair carry the old values' last bits.
        # A resume reads each pair's representative and writes both: the
        # fixture's rows stay as written, and every later row is a fresh
        # run's, bit for bit in the class and real-character columns and
        # within CONJUGATE_BOUND in the complex ones
        grid, q = CheckpointGrid.from_xmax(20_000, h=0.1), 13
        meta = json.loads((DATA / "resume_q13.meta.json").read_text())
        assert meta["format"] == 3 and not meta["complete"] and meta["rows_written"] == 79
        for suffix in (".csv", ".meta.json"):
            shutil.copy(DATA / ("resume_q13" + suffix), tmp_path / ("resume_q13" + suffix))
        path = tmp_path / "resume_q13.csv"
        # a partial sidecar stays format 3, with one Euler-log entry per
        # character: a conjugate's imaginary part is its representative's negated
        accumulate(grid, q, segment_odds=512, persist=path, resume=True, max_segments=2)
        meta = json.loads(tally._sidecar_path(path).read_text())
        assert meta["format"] == 3 and not meta["complete"]
        eul = meta["state"]["char"]["eulerlog"]
        chars = enumerate_characters(q)[1:]
        assert len(eul) == len(chars)
        for j, chi in enumerate(chars):
            conj = eul[chi.conjugate_index - 1]
            assert conj[0] == eul[j][0] and from_hex(conj[1]) == -from_hex(eul[j][1]), chi.label
        res = accumulate(grid, q, segment_odds=512, persist=path, resume=True)
        fresh = accumulate(grid, q, segment_odds=512, persist=tmp_path / "fresh.csv")
        assert res.completed
        old = (DATA / "resume_q13.csv").read_bytes().decode().splitlines()
        got, new = path.read_text().splitlines(), (tmp_path / "fresh.csv").read_text().splitlines()
        assert len(old) == 80 and len(got) == len(new) == grid.n + 1 and got[:80] == old
        header = new[0].split(",")
        labels = {chi.label for chi in chars if not chi.is_real}
        complex_cols = [name.startswith("chi_") and name.split("_")[1] in labels for name in header]
        assert sum(complex_cols) == 6 * len(labels) == 60
        moved = 0
        for a, b in zip(got[80:], new[80:]):
            for name, is_complex, u, v in zip(header, complex_cols, a.split(","), b.split(",")):
                if is_complex:
                    assert abs(float(u) - float(v)) <= self.CONJUGATE_BOUND, name
                    moved += u != v
                else:
                    assert u == v, name
        assert moved > 0
        # the series: the fixture's rows as read, then the resumed ones, as in the CSV
        assert oracle_csv(res.series) == path.read_bytes()


# the scalar-fold runs, per segment width: x_max, h and the segment a run is cut before
SCALAR_RUNS = {512: (3e4, 0.02, 5), 2**20: (2.2e6, 0.1, 1)}


@functools.lru_cache(maxsize=None)
def scalar_reference(q, segment_odds):
    """The grid, the scalar fold's rows, its state where a run is cut, and its CSV bytes."""
    x_max, h, stop = SCALAR_RUNS[segment_odds]
    grid = CheckpointGrid.from_xmax(x_max, h=h)
    x_hi = math.floor(grid.x_max) + 1
    rows, state = scalar_tally(grid, q, x_hi, segment_odds, stop)
    lines = [",".join(tally._csv_columns(q)),
             *(format_row(x, y, row) for x, y, row in zip(grid.x.tolist(), grid.y.tolist(), rows))]
    return grid, rows, state, "".join(f"{line}\n" for line in lines).encode()


def assert_rows(series, rows):
    """Every point of a series equals the scalar fold's row, bit for bit."""
    assert len(series) == len(rows)
    for name in ALL_ARRAYS:
        got, want = matrix(series, name), np.array([row[name] for row in rows])
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


class TestScalarFold:
    """accumulate against the exact fold one entry at a time (oracles.scalar_tally), bit for bit.

    The tally folds and rounds a batch of grid points in one step; the
    oracle adds exact() of every chunk sum and rounds every total with
    rounded(), as the tally did before its batches, and derives each
    character column per character, where the tally takes char_mertens on
    the distinct rows of chi^2.  Its chunk sums come from the per-character
    loop (reference_segment_partial), where the tally builds one Euler-log
    row per distinct chi(a); q=13 has complex values in every class but 1
    and 12.
    """

    @pytest.mark.parametrize("q, segment_odds, points", [
        *((q, 512, points) for q in (4, 12, 13, 105, 420) for points in (1, 2, 3)),
        *((q, 2**20, 2) for q in (4, 12, 13, 105, 420)),
    ])
    def test_series_csv_and_state(self, tmp_path, monkeypatch, q, segment_odds, points):
        # batches of 1-3 grid points; a run cut before segment `stop` and
        # resumed at the other thread count; two threads for 2-point batches
        layout = _Layout(q)
        monkeypatch.setattr(tally, "_BATCH_CELLS", points * (4 * layout.nclass + 6 * layout.nchar))
        grid, rows, state, text = scalar_reference(q, segment_odds)
        stop = SCALAR_RUNS[segment_odds][2]
        threads = 2 if points == 2 else 1
        fresh = accumulate(grid, q, segment_odds=segment_odds, threads=threads, persist=tmp_path / "fresh.csv")
        assert (tmp_path / "fresh.csv").read_bytes() == text
        assert_rows(fresh.series, rows)
        path = tmp_path / "cut.csv"
        accumulate(grid, q, segment_odds=segment_odds, threads=threads, persist=path, max_segments=stop)
        assert json.loads(tally._sidecar_path(path).read_text())["state"] == state
        back = accumulate(grid, q, segment_odds=segment_odds, threads=3 - threads, persist=path, resume=True)
        assert back.completed and path.read_bytes() == text
        assert_rows(back.series, rows)

    @pytest.mark.parametrize("q, segment_odds", [(4, 512), (12, 512), (13, 512), (105, 512), (420, 512),
                                                 (4, 2**20), (12, 2**20), (13, 2**20), (105, 2**20)])
    def test_merged_range_partials(self, q, segment_odds):
        # a split on a segment boundary, the upper range on two threads
        x_max, _h, stop = SCALAR_RUNS[segment_odds]
        hi, m = int(x_max), 2 + 2 * segment_odds * stop
        fold, layout = ScalarFold(q), _Layout(q)
        base = simple_sieve(math.isqrt(hi))
        for a, b in segment_bounds(2, hi, segment_odds):
            fold.fold(reference_chunks(sieve_segment(a, b, base), np.empty(0), layout), 0)
        for _v, slot, lg in _power_terms(layout, 2, hi):
            if slot >= 0:
                fold.fold_power(slot, lg)
        want = fold.row()
        for got in (range_partial(2, hi, q, segment_odds=segment_odds),
                    merge(range_partial(2, m, q, segment_odds=segment_odds),
                          range_partial(m, hi, q, segment_odds=segment_odds, threads=2))):
            totals = got.totals()
            assert got.counts == fold.counts
            for name in ALL_ARRAYS:
                assert np.array_equal(totals[name].view(np.uint64), want[name].view(np.uint64)), name


@pytest.mark.parametrize("module", sorted(p.name for p in Path(tally.__file__).parent.glob("*.py")))
def test_module_stays_below_the_compile_threshold(module):
    # significant tokens: every token but comments, blank lines, the encoding
    # and the end marker.  Past 8192 of them, CPython 3.11's compile() of
    # tally.py peaked about 0.47 MB higher, which every process that imports
    # a module from source pays
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(Path(tally.__file__).parent / module, "rb") as fh:
        count = sum(token.type not in skip for token in tokenize.tokenize(fh.readline))
    assert count < 8192, count

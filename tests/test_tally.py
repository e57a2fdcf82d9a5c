"""Streaming tally vs. brute-force reference sums and hand-checked values."""
import itertools
import json
import math
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from primerace import tally
from primerace.analysis import density_race, euler_series, mean_values
from primerace.characters import (
    ClassFunction,
    enumerate_characters,
    race_weight,
)
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
    write_series_csv,
    _Layout,
    _RaceFold,
    _power_terms,
    _race_terms,
    _segment_partial,
)

from oracles import (
    ReferenceTally,
    format_row,
    race_jump_weights,
    reference_segment_partial,
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


def assert_segment_matches_reference(primes, lo, hi, boundaries, q):
    """Bit for bit, -0.0 included, against the loop-per-character reduction."""
    layout = _Layout(q)
    race = (layout.units[1], layout.units[0])
    got = _segment_partial(primes, lo, hi, boundaries, layout)
    want = reference_segment_partial(primes, boundaries, layout, race)
    for name in SEGMENT_FIELDS:
        a, b = getattr(got, name), want[name]
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    # the race terms: the segment's race stream and w*p behind the carry slot
    p, terms, cut = _race_terms(primes, primes % q, race, boundaries)
    pos, w = want["race"]
    assert np.array_equal(p, pos)
    assert np.array_equal(terms[0, 1:].view(np.uint64), w.view(np.uint64))
    assert np.array_equal(terms[1, 1:].view(np.uint64), (w * pos).view(np.uint64))
    assert np.array_equal(cut, np.searchsorted(pos, boundaries, side="right"))
    return got


class TestSegmentReduction:
    """The vectorised segment reduction against the per-character loop."""

    LO, HI = 1_000_001, 1_400_001
    # chunk sizes in primes; the per-class and per-chunk rows they give
    # straddle numpy's pairwise-sum block edges (8-wide blocks, recursion
    # above 128), which the test asserts on the per-class counts
    CHUNKS = (1, 2, 7, 8, 9, 60, 127, 128, 129, 300, 1000, 9000)

    @pytest.mark.parametrize("q", [4, 12, 24, 105])
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
            part = _segment_partial(primes, lo, hi, np.empty(0), layout)
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
        state = TallyPartial.empty(q, layout=layout)
        powers, pw = _power_terms(layout, 2, 10_001), 0
        for lo, hi in ((2, 2050), (2050, 10_001)):
            primes = sieve_segment(lo, hi, simple_sieve(200))
            x = grid.x[(grid.x >= lo) & (grid.x < hi)]
            part = _segment_partial(primes, lo, hi, x, layout)
            for c, end in enumerate([*x, hi - 1]):
                state.fold(part, c)
                pw = state.fold_powers(powers, pw, end)
                fresh = TallyPartial.from_state(state.to_state(), q, layout=layout)
                assert_same_totals(state, fresh)

    def test_totals_with_nothing_folded_are_the_same_read_only_arrays(self):
        q = 12
        layout = _Layout(q)
        part = range_partial(2, 5_000, q, segment_odds=512)
        first = part.totals()
        assert part.stale_classes() == set()
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
        assert part.stale_classes() == {slot}
        psi_only = part.totals()
        for name, arr in psi_only.items():
            assert (arr is first[name]) == (name != "psi"), name
        assert psi_only["psi"][slot] > first["psi"][slot]

    @pytest.mark.parametrize("q", [4, 12, 24, 105])
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
        res = accumulate(grid, 5, segment_odds=1024)
        path = tmp_path / "series.csv"
        write_series_csv(res.series, path)
        back = read_series_csv(path)
        assert back.q == 5
        assert back.units == res.series.units
        assert back.char_labels == res.series.char_labels
        assert len(back) == len(res.series)
        assert back.x == res.series.x and back.y == res.series.y
        for attr in ALL_ARRAYS:
            assert np.array_equal(matrix(res.series, attr), matrix(back, attr)), attr

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        grid = self.grid()
        full = tmp_path / "full.csv"
        split = tmp_path / "split.csv"
        accumulate(grid, 4, segment_odds=512, persist=full, flush_every=3)
        first = accumulate(grid, 4, segment_odds=512, persist=split,
                           flush_every=2, max_segments=7)
        assert not first.completed
        second = accumulate(grid, 4, segment_odds=512, persist=split,
                            flush_every=2, resume=True)
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
    header = ",".join(tally._csv_columns(series.units, series.char_labels))
    return "".join(f"{line}\n" for line in [header, *(format_row(*r) for r in rows(series))]).encode()


class TestCsvRows:
    """The checkpoint CSV's bytes against format_row, which formats every cell."""

    @pytest.mark.parametrize("q", [4, 12, 24, 105])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_match_the_oracle(self, tmp_path, q, threads):
        # h=0.02 to 2e4 over 5 segments, flushed 2 at a time: many grid
        # points gain no prime, some gain only a prime power
        grid = CheckpointGrid.from_xmax(20_000, h=0.02)
        kw = dict(segment_odds=2048, threads=threads, flush_every=2)
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
        # write_series_csv, of the series in memory and of the one read back
        for series in (res.series, back.series, read_series_csv(path)):
            out = tmp_path / "written.csv"
            write_series_csv(series, out)
            assert out.read_bytes() == want

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
        layout = _Layout(4)
        header = ",".join(tally._csv_columns(layout.units, layout.char_labels))
        assert header.count(",") == 15
        path.write_text(header + "\n" + "".join(f"{2.0 + k},0.{k},1,0.5,0.25,0.125\n" for k in range(8)))
        with pytest.raises(ValueError, match=r"narrow\.csv: rows hold 6 cells, but the header has 16 columns"):
            read_series_csv(path)


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
    """

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

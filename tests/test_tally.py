"""Streaming tally vs. brute-force reference sums and hand-checked values."""
import json
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from primerace import tally
from primerace.characters import (
    ClassFunction,
    enumerate_characters,
    race_weight,
)
from primerace.sieve import simple_sieve, sieve_segment
from primerace.tally import (
    LOG2,
    CheckpointGrid,
    TallyOrderError,
    TallyPartial,
    accumulate,
    euler_product_partial,
    char_sum,
    merge,
    mertens_chi_square,
    pi_half,
    pi_weighted,
    psi_of,
    range_partial,
    read_series_csv,
    theta_of,
    write_series_csv,
    _Layout,
    _power_terms,
    _segment_partial,
)

from oracles import ReferenceTally, race_jump_weights, reference_segment_partial

DATA = Path(__file__).resolve().parent / "data"

ALL_ARRAYS = ("counts", "invsqrt", "theta", "psi",
              "char_invsqrt", "char_mertens", "char_eulerlog")


def checkpoint_at(series, x):
    """Last checkpoint with grid point <= x."""
    j = int(np.searchsorted(series.grid.x, x, side="right")) - 1
    return series[j]


def assert_same_stream(got, want):
    """Race streams equal bit for bit, positions and weights."""
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
        ck = checkpoint_at(small_run.series, 10.0)
        assert ck.counts[ck.class_index(1)] == 1  # 5
        assert ck.counts[ck.class_index(3)] == 2  # 3, 7

    def test_pi_half_class_three(self, small_run):
        ck = checkpoint_at(small_run.series, 10.0)
        want = 1 / math.sqrt(3) + 1 / math.sqrt(7)
        assert ck.invsqrt[ck.class_index(3)] == pytest.approx(want, rel=1e-14)

    def test_pi_half_race_weight(self, small_run):
        ck = checkpoint_at(small_run.series, 10.0)
        t = race_weight(3, 1, 4)
        want = 1 / math.sqrt(3) + 1 / math.sqrt(7) - 1 / math.sqrt(5)
        got = pi_half(ck, t)
        assert abs(got.imag) < 1e-15
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_psi_sees_the_residue_of_the_power(self, small_run):
        # 9 = 3*3 lands in class 1 with weight log 3, so the class-3 loss of
        # log 3 from the prime 3 cancels against it and log5 - log7 remains
        ck = checkpoint_at(small_run.series, 10.0)
        t = race_weight(1, 3, 4)
        got = psi_of(ck, t)
        assert got.real == pytest.approx(math.log(5) - math.log(7), rel=1e-12)

    def test_theta_splits_by_class(self, small_run):
        ck = checkpoint_at(small_run.series, 10.0)
        ind1 = ClassFunction.from_pairs(4, {1: 1.0})
        ind3 = ClassFunction.from_pairs(4, {3: 1.0})
        assert theta_of(ck, ind1).real == pytest.approx(math.log(5), rel=1e-14)
        assert theta_of(ck, ind3).real == pytest.approx(math.log(3) + math.log(7), rel=1e-14)

    def test_euler_product_at_three(self, small_run):
        # product over p <= 3.01..: the 2-factor is 1, the 3-factor is
        # (1 + 1/sqrt3)^(-1)
        series = small_run.series
        j = int(np.searchsorted(series.grid.x, 3.0, side="left"))
        ck = series[j]
        chi = enumerate_characters(4)[1]
        want = 1 / (1 + 1 / math.sqrt(3))
        got = euler_product_partial(ck, chi)
        assert abs(got.imag) < 1e-15
        assert got.real == pytest.approx(want, rel=1e-12)
        lifted = euler_product_partial(ck, chi, vanishing_order=1)
        assert lifted.real == pytest.approx(math.log(ck.x) * want, rel=1e-12)

    def test_mertens_square_sum(self, small_run):
        ck = checkpoint_at(small_run.series, 10.0)
        chi = enumerate_characters(4)[1]
        want = 1 / 3 + 1 / 5 + 1 / 7  # chi(p^2) = 1 for odd p, 0 for p = 2
        assert mertens_chi_square(ck, chi).real == pytest.approx(want, rel=1e-14)

    def test_pi_weighted_counts(self, small_run):
        ck = checkpoint_at(small_run.series, 10.0)
        t = race_weight(3, 1, 4)
        assert pi_weighted(ck, t).real == pytest.approx(1.0)

    def test_jump_positions(self, small_run):
        pos, w = small_run.race
        assert list(pos[:6]) == [3, 5, 7, 11, 13, 17]
        assert list(pos[w > 0][:5]) == [3, 7, 11, 19, 23]
        assert list(pos[w < 0][:5]) == [5, 13, 17, 29, 37]
        assert list(w[:3]) == [1 / math.sqrt(3), -1 / math.sqrt(5), 1 / math.sqrt(7)]


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
        for j in sorted(set(sample)):
            ck = res.series[j]
            for a in ck.units:
                stats = ref.class_stats(a, ck.x)
                i = ck.class_index(a)
                assert int(ck.counts[i]) == stats["count"]
                assert ck.invsqrt[i] == pytest.approx(stats["invsqrt"], rel=1e-12, abs=1e-15)
                assert ck.theta[i] == pytest.approx(stats["log"], rel=1e-12, abs=1e-15)
                assert ck.psi[i] == pytest.approx(stats["psi"], rel=1e-12, abs=1e-15)
            for chi in chars[1:]:
                stats = ref.char_stats(chi.index, ck.x)
                for kind in ("invsqrt", "mertens", "eulerlog"):
                    got = char_sum(ck, chi, kind)
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

        for j in (grid.n // 3, grid.n - 1):
            ck = res.series[j]
            direct = pi_half(ck, t)
            total_units = float(np.sum(ck.invsqrt))
            via_chars = coeff(chars[0]) * total_units
            for chi in chars[1:]:
                via_chars += coeff(chi) * char_sum(ck, chi, "invsqrt")
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
        for j in range(coarse.n):
            a, b = rc.series[j], rf.series[2 * j]
            assert np.array_equal(a.counts, b.counts)
            assert np.allclose(a.invsqrt, b.invsqrt, rtol=1e-10)
            assert np.allclose(a.psi, b.psi, rtol=1e-10)
            assert np.allclose(a.char_eulerlog, b.char_eulerlog, rtol=1e-10, atol=1e-12)

    def test_grid_beyond_sieved_range_rejected(self):
        grid = CheckpointGrid.from_xmax(1000, h=0.1)
        with pytest.raises(ValueError, match="strictly past"):
            accumulate(grid, 4, x_hi=500)


class TestThreadInvariance:
    def test_bit_exact_across_pool_sizes(self):
        grid = CheckpointGrid.from_xmax(100_000, h=0.02)
        r1 = accumulate(grid, 4, segment_odds=1 << 12, threads=1)
        r4 = accumulate(grid, 4, segment_odds=1 << 12, threads=4)
        for a, b in zip(r1.series, r4.series):
            for attr in ALL_ARRAYS:
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

    def test_jumps_identical(self):
        grid = CheckpointGrid.from_xmax(30_000, h=0.1)
        r1 = accumulate(grid, 4, threads=1, segment_odds=777, race=(1, 3))
        r3 = accumulate(grid, 4, threads=3, segment_odds=777, race=(1, 3))
        assert_same_stream(r1.race, r3.race)


def oracle_stream(x_hi, q, a, b):
    """The race stream of classes a and b below x_hi, by the argsort merge."""
    primes = simple_sieve(x_hi - 1)
    r = primes % q
    return race_jump_weights(primes[r == a % q], primes[r == b % q])


# (q, a, b) with a > b and a < b, classes given by representatives that are
# not all reduced mod q
RACES = [(4, 3, 1), (4, 1 + 4, 3 + 8), (12, 11, 5 + 12), (12, 1, 7),
         (24, 5 + 48, 1), (24, 13, 19 + 24), (105, 2 + 105, 1), (105, 4, 104 + 210)]


class TestRaceStream:
    """accumulate(race=...) against the argsort merge of per-class positions."""

    @pytest.mark.parametrize("q, a, b", RACES)
    # no shrinking: each example is a whole run, and shrinking a failure
    # takes minutes; the failing segment_odds and threads are reported as drawn
    @settings(max_examples=3, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(segment_odds=st.integers(64, 4096), threads=st.sampled_from([1, 3]))
    def test_matches_the_merged_oracle(self, q, a, b, segment_odds, threads):
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        run = accumulate(grid, q, segment_odds=segment_odds, threads=threads, race=(a, b))
        assert_same_stream(run.race, oracle_stream(run.x_hi, q, a, b))

    @pytest.mark.parametrize("q, a, b", RACES[1::2])
    @pytest.mark.parametrize("stop", [3, None])
    def test_resumed_stream_matches_the_oracle(self, tmp_path, q, a, b, stop):
        # stop=3 leaves a partial sidecar, None a complete one
        grid = CheckpointGrid.from_xmax(20_000, h=0.05)
        path = tmp_path / "race.csv"
        accumulate(grid, q, segment_odds=512, persist=path, max_segments=stop)
        res = accumulate(grid, q, segment_odds=512, persist=path, resume=True,
                         threads=3, race=(a, b))
        assert res.completed
        assert_same_stream(res.race, oracle_stream(res.x_hi, q, a, b))

    def test_no_race_no_stream(self):
        grid = CheckpointGrid.from_xmax(1000, h=0.1)
        assert accumulate(grid, 4).race is None
        empty = accumulate(grid, 4, race=(3, 1), max_segments=0).race
        assert [len(v) for v in empty] == [0, 0]


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


def assert_same_totals(a, b):
    ta, tb = a.totals(), b.totals()
    assert ta.keys() == tb.keys()
    for k in ta:
        assert np.array_equal(ta[k], tb[k]), k


SEGMENT_FIELDS = ("counts", "invsqrt", "theta", "invp",
                  "char_invsqrt", "char_mertens", "char_eulerlog")


def assert_segment_matches_reference(primes, lo, hi, boundaries, q):
    """Bit for bit, -0.0 included, against the loop-per-character reduction."""
    layout = _Layout(q)
    race = (layout.units[1], layout.units[0])
    got = _segment_partial(primes, lo, hi, boundaries, layout, race)
    want = reference_segment_partial(primes, boundaries, layout, race)
    for name in SEGMENT_FIELDS:
        a, b = getattr(got, name), want[name]
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert_same_stream(got.race, want["race"])
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

    @pytest.mark.parametrize("q", [24, 105])
    def test_row_groups_under_a_small_budget(self, q, monkeypatch):
        # 50 terms: one or a few character rows per group, and a single row
        # (over budget) for every chunk longer than 50 primes
        monkeypatch.setattr(tally, "_BLOCK_TERMS", 50)
        self.test_matches_the_loop_per_character(q)

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
        for a, b in zip(res.series, back):
            assert a.x == b.x and a.y == b.y
            for attr in ALL_ARRAYS:
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

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
        for a, b in zip(res.series, direct.series):
            for attr in ALL_ARRAYS:
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

    def test_resume_of_finished_run_is_a_read(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "done.csv"
        accumulate(grid, 4, segment_odds=512, persist=path)
        res = accumulate(grid, 4, segment_odds=512, persist=path,
                         resume=True, race=(3, 1))
        assert res.completed and len(res.series) == grid.n
        direct = accumulate(grid, 4, segment_odds=512, race=(3, 1))
        assert_same_stream(res.race, direct.race)

    def test_resume_jumps_cover_presieved_segments(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "j.csv"
        accumulate(grid, 4, segment_odds=512, persist=path, max_segments=5)
        res = accumulate(grid, 4, segment_odds=512, persist=path,
                         resume=True, race=(1, 3))
        direct = accumulate(grid, 4, segment_odds=512, race=(1, 3))
        assert_same_stream(res.race, direct.race)

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
        state = json.loads((tmp_path / "q12.meta.json").read_text())["state"]
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
        for a, b in zip(res.series, direct.series):
            assert np.array_equal(a.invsqrt, b.invsqrt)


class TestCheckpointOps:
    def test_non_unit_class_rejected(self, small_run):
        ck = small_run.series[-1]
        with pytest.raises(ValueError, match="unit"):
            ck.class_index(2)

    def test_principal_euler_rejected(self, small_run):
        ck = small_run.series[-1]
        principal = enumerate_characters(4)[0]
        with pytest.raises(ValueError, match="nonprincipal"):
            euler_product_partial(ck, principal)

    def test_negative_vanishing_order_rejected(self, small_run):
        ck = small_run.series[-1]
        chi = enumerate_characters(4)[1]
        with pytest.raises(ValueError, match="nonnegative"):
            euler_product_partial(ck, chi, vanishing_order=-1)

    def test_modulus_mismatch_rejected(self, small_run):
        ck = small_run.series[-1]
        chi5 = enumerate_characters(5)[1]
        with pytest.raises(ValueError, match="modulus"):
            char_sum(ck, chi5, "invsqrt")
        t5 = race_weight(2, 1, 5)
        with pytest.raises(ValueError, match="modulus"):
            pi_half(ck, t5)

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
        vec = small_run.series.weighted(t)
        assert len(vec) == len(small_run.series)
        ck = checkpoint_at(small_run.series, 10.0)
        j = int(np.searchsorted(small_run.series.grid.x, 10.0, side="right")) - 1
        assert vec[j] == pytest.approx(pi_half(ck, t), rel=1e-14)


class TestCrossVersionResume:
    """tests/data/resume_q12.* is a run interrupted by the release before the
    tally state was unified (commit b55212d), written by

        accumulate(CheckpointGrid.from_xmax(20_000, h=0.1), 12,
                   segment_odds=512, persist="resume_q12.csv", max_segments=5)

    Resuming it must give a fresh run's CSV bytes, which pins sidecar format 1.
    """

    def test_format_1_sidecar_resumes_byte_identically(self, tmp_path):
        grid = CheckpointGrid.from_xmax(20_000, h=0.1)
        for name in ("resume_q12.csv", "resume_q12.meta.json"):
            shutil.copy(DATA / name, tmp_path / name)
        meta = json.loads((tmp_path / "resume_q12.meta.json").read_text())
        assert meta["format"] == 1 and not meta["complete"]
        res = accumulate(grid, 12, segment_odds=512, persist=tmp_path / "resume_q12.csv",
                         resume=True)
        assert res.completed
        fresh = tmp_path / "fresh.csv"
        direct = accumulate(grid, 12, segment_odds=512, persist=fresh)
        assert (tmp_path / "resume_q12.csv").read_bytes() == fresh.read_bytes()
        for a, b in zip(res.series, direct.series):
            for attr in ALL_ARRAYS:
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

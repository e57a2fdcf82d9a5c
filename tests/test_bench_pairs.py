"""scripts/bench_pairs.py: the verdict it writes for each metric of a set of pairs."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs: median 1.0, q3 - q1 = 0.055 (statistics.quantiles)
PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
BOUND = 0.25  # a relative bound wider than the parent's spread, as wall_s's


def test_a_gain_lower_in_every_pair_and_past_the_parents_spread():
    got = bench_pairs.compare(PARENT, [p - 0.2 for p in PARENT], BOUND)
    assert got["parent"]["values"] == PARENT and got["parent"]["median"] == 1.0
    assert got["parent"]["q3"] - got["parent"]["q1"] == pytest.approx(0.055)
    assert got["change_lower_in"] == 10 and got["gain"]
    assert got["median_change_pct"] == pytest.approx(-20.0)


@pytest.mark.parametrize("against, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_pairs_of_ten(against, gain):
    change = [p - 0.2 for p in PARENT]
    change[:against] = [p + 0.1 for p in PARENT[:against]]
    got = bench_pairs.compare(PARENT, change, BOUND)
    assert got["change_lower_in"] == 10 - against and got["gain"] is gain


@pytest.mark.parametrize("ties, gain", [(1, True), (2, False)])
def test_a_tie_counts_for_neither_side(ties, gain):
    change = [p - 0.2 for p in PARENT]
    change[:ties] = PARENT[:ties]
    got = bench_pairs.compare(PARENT, change, BOUND)
    assert got["change_lower_in"] == 10 - ties and got["gain"] is gain


def test_a_gap_inside_the_parents_spread_is_no_gain():
    got = bench_pairs.compare(PARENT, [p - 0.05 for p in PARENT], BOUND)
    assert got["change_lower_in"] == 10 and not got["gain"]
    assert got["median_change_pct"] == pytest.approx(-5.0)


def test_a_parent_median_of_zero_has_no_percentage():
    got = bench_pairs.compare([0.0] * 10, [0.0] * 10, BOUND)
    assert got["median_change_pct"] is None and not got["gain"]


@pytest.mark.parametrize("shift, verdict", [(0.3, False), (0.2, True), (0.0, True), (-0.2, True)])
def test_within_bound_compares_the_medians_against_the_relative_bound(shift, verdict):
    # the change's median is the parent's 1.0 plus shift
    got = bench_pairs.compare(PARENT, [p + shift for p in PARENT], BOUND)
    assert got["within_bound"] is verdict


@pytest.mark.parametrize("shift, verdict", [(0.0, "unresolved"), (0.04, "unresolved"), (-0.2, "unresolved"),
                                            (-0.25, True)])
def test_a_parent_spread_past_the_bound_leaves_the_verdict_unresolved(shift, verdict):
    # bound 0.05 is below the parent's (q3 - q1) / median = 0.055; only a change
    # whose every value is below every parent value (min 0.9) is resolved
    got = bench_pairs.compare(PARENT, [p + shift for p in PARENT], 0.05)
    assert got["within_bound"] == verdict


def test_a_parent_median_of_zero_is_within_bound_only_unchanged():
    assert bench_pairs.compare([0.0] * 10, [0.0] * 10, BOUND)["within_bound"] is True
    assert bench_pairs.compare([0.0] * 10, [0.1] * 10, BOUND)["within_bound"] is False

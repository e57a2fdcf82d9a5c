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


def test_a_gain_lower_in_every_pair_and_past_the_parents_spread():
    got = bench_pairs.compare(PARENT, [p - 0.2 for p in PARENT])
    assert got["parent"]["values"] == PARENT and got["parent"]["median"] == 1.0
    assert got["parent"]["q3"] - got["parent"]["q1"] == pytest.approx(0.055)
    assert got["change_lower_in"] == 10 and got["gain"]
    assert got["median_change_pct"] == pytest.approx(-20.0)


@pytest.mark.parametrize("against, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_pairs_of_ten(against, gain):
    change = [p - 0.2 for p in PARENT]
    change[:against] = [p + 0.1 for p in PARENT[:against]]
    got = bench_pairs.compare(PARENT, change)
    assert got["change_lower_in"] == 10 - against and got["gain"] is gain


@pytest.mark.parametrize("ties, gain", [(1, True), (2, False)])
def test_a_tie_counts_for_neither_side(ties, gain):
    change = [p - 0.2 for p in PARENT]
    change[:ties] = PARENT[:ties]
    got = bench_pairs.compare(PARENT, change)
    assert got["change_lower_in"] == 10 - ties and got["gain"] is gain


def test_a_gap_inside_the_parents_spread_is_no_gain():
    got = bench_pairs.compare(PARENT, [p - 0.05 for p in PARENT])
    assert got["change_lower_in"] == 10 and not got["gain"]
    assert got["median_change_pct"] == pytest.approx(-5.0)


def test_a_parent_median_of_zero_has_no_percentage():
    got = bench_pairs.compare([0.0] * 10, [0.0] * 10)
    assert got["median_change_pct"] is None and not got["gain"]

"""The exact layer: sums of doubles held as ints in units of 2**-1074, and their tables."""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primerace.exact import ExactSums, exact, from_hex, rounded, to_hex

DATA = Path(__file__).resolve().parent / "data"
UNIT = Fraction(1, 2**1074)
TINY = 2.0**-1074  # the smallest subnormal

# doubles whose sums round on a tie, or cancel, or underflow
SPECIAL = [1.0, 2.0**-53, 1.0 + 2.0**-52, 2.0**-54, 3 * 2.0**-53, TINY, 3 * TINY,
           2.0**-1022, 2.0**-1022 - TINY, 2.0**1000, 2.0**947, 0.0]
doubles = st.one_of(
    st.floats(-2.0**1000, 2.0**1000, allow_nan=False),  # wide exponents
    st.floats(-2.0**-1021, 2.0**-1021),  # subnormals and the smallest normals
    st.builds(lambda x, sign: sign * x, st.sampled_from(SPECIAL), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=500, deadline=None)
@given(xs=st.lists(doubles, max_size=40), data=st.data())
def test_rounded_sum_is_fsum_in_any_order(xs, data):
    n = sum(map(exact, xs))
    assert rounded(n) == math.fsum(xs)
    assert Fraction(n) * UNIT == sum(map(Fraction, xs), Fraction(0))
    assert sum(map(exact, data.draw(st.permutations(xs), label="order"))) == n


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(doubles, max_size=40))
def test_hex_round_trip(xs):
    n = sum(map(exact, xs))
    hexes = to_hex(n)
    assert from_hex(hexes) == n
    assert sum((Fraction(float.fromhex(h)) for h in hexes), Fraction(0)) == Fraction(n) * UNIT


@given(n=st.integers(-(2**2090), 2**2090))
def test_hex_round_trip_of_any_int(n):
    assert from_hex(to_hex(n)) == n


@given(x=doubles)
def test_one_double(x):
    assert Fraction(exact(x)) * UNIT == Fraction(x)
    assert rounded(exact(x)) == x


def test_zero():
    assert to_hex(0) == []
    assert from_hex([]) == 0
    assert exact(-0.0) == exact(0.0) == 0
    assert math.copysign(1.0, rounded(0)) == 1.0


def test_ties_round_to_even():
    assert rounded(exact(1.0) + exact(2.0**-53)) == 1.0
    assert rounded(exact(1.0 + 2.0**-52) + exact(2.0**-53)) == 1.0 + 2.0**-51
    assert rounded(exact(2.0**1000) + exact(2.0**947)) == 2.0**1000


# 4 sums per class; per character invsqrt, mertens and eulerlog, each as (re, im)
@pytest.mark.parametrize("name, count", [("resume_q12", 4 * 4 + 3 * 3 * 2),
                                         ("resume_q4_race", 2 * 4 + 1 * 3 * 2)])
def test_fixture_state_lists(name, count):
    """Every hex list of an older release's partial sidecar sums exactly."""
    state = json.loads((DATA / f"{name}.meta.json").read_text())["state"]

    def lists(node):
        node = list(node.values()) if isinstance(node, dict) else node
        if all(isinstance(h, str) for h in node):
            yield node
        else:
            for child in node:
                yield from lists(child)

    found = list(lists({"class": state["class"], "char": state["char"]}))
    assert len(found) == count
    for hexes in found:
        assert Fraction(from_hex(hexes)) * UNIT == sum(
            (Fraction(float.fromhex(h)) for h in hexes), Fraction(0))


def scalar_running(table):
    """Per row of table, each column's rounded running sum; and the sums, in units of 2**-1074."""
    sums, rows = [0] * table.shape[1], []
    for row in table.tolist():
        sums = [n + exact(x) for n, x in zip(sums, row)]
        rows.append([rounded(n) for n in sums])
    return np.array(rows, dtype=np.float64).reshape(table.shape), sums


def assert_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def added(sums, table, cuts):
    """The rows ExactSums.add returns after each row of table, added in the batches cuts make."""
    rows = [sums.add(table[a:b], range(1, b - a + 1)) for a, b in zip([0, *cuts], [*cuts, len(table)])]
    return np.concatenate([np.empty((0, table.shape[1])), *rows])


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 5), height=st.integers(0, 10), data=st.data())
def test_table_sums_are_the_scalar_fold_in_any_batches(width, height, data):
    table = np.array(data.draw(st.lists(st.lists(doubles, min_size=width, max_size=width),
                                        min_size=height, max_size=height), label="table"))
    table = table.reshape(height, width)
    cuts = sorted(data.draw(st.lists(st.integers(0, height), max_size=4), label="cuts"))
    want, units = scalar_running(table)
    sums = ExactSums(np.zeros(width, dtype=object))
    assert_bits(added(sums, table, cuts), want)
    assert sums.units() == units
    assert_bits(sums.vals, [rounded(n) for n in units])
    # the sums survive their units, and keep adding from there
    back = ExactSums.from_units(units)
    assert back.units() == units and back.e <= 0
    assert_bits(back.vals, sums.vals)
    assert_bits(back.add(table, [height]), sums.add(table, [height]))


@pytest.mark.parametrize("tiny", [TINY, 3 * TINY, 2.0**-1022, 1e-300, 2.0**-60], ids=repr)
def test_an_exponent_dropped_in_mid_run_keeps_every_bit(tiny):
    # large sums first, then a tiny delta lowers the table's exponent: every
    # sum already held is shifted to it, and later deltas land on it too
    table = np.array([[1e10, 3.7, -2.5], [2.0**40, 1.0 / 3, 7.0], [tiny, -tiny, 0.0],
                      [1e10, 2.0**-52, 1.0], [-tiny, 0.25, -0.0]])
    want, units = scalar_running(table)
    sums = ExactSums(np.zeros(3, dtype=object))
    assert_bits(sums.add(table[:2], [1, 2]), want[:2])
    before = sums.e
    assert_bits(sums.add(table[2:], [1, 2, 3]), want[2:])
    assert sums.e < before and sums.units() == units


def test_limbs_and_python_ints_agree():
    # sums that fit 2**105 at their exponent go through int64 limbs; a
    # wider column sends the table to Python ints, and bits agree either way
    rng = np.random.default_rng(7)
    narrow = rng.random((6, 4)) * 10.0 ** rng.integers(-4, 4, (6, 4))
    for table, limbs in ((narrow, True), (np.vstack([narrow, [[2.0**1000, TINY, 1.0, -1.0]]]), False)):
        want, units = scalar_running(table)
        sums = ExactSums(np.zeros(4, dtype=object))
        assert_bits(sums.add(table, range(1, len(table) + 1)), want)
        assert (sums.limbs is not None) == limbs and sums.units() == units


@given(units=st.lists(st.integers(-(2**2090), 2**2090), max_size=6))
def test_units_round_trip(units):
    sums = ExactSums.from_units(units)
    assert sums.units() == units
    assert_bits(sums.vals, [rounded(n) for n in units])

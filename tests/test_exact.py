"""The exact layer: sums of doubles held as ints in units of 2**-1074."""
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from primerace.exact import exact, from_hex, rounded, to_hex

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

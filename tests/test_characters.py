"""Character table construction, inner products, and the bias constant."""
from __future__ import annotations

import math

import numpy as np
import pytest

from primerace.characters import (
    BiasConstant,
    ClassFunction,
    bias_constant,
    character_by_label,
    enumerate_characters,
    euler_phi,
    inner_product,
    parse_label,
    race_weight,
    square_root_count,
    unit_residues,
)

import oracles


class TestEnumeration:
    def test_counts_match_phi(self):
        for q in range(3, 60):
            assert len(enumerate_characters(q)) == euler_phi(q)

    def test_principal_is_index_zero(self):
        for q in (3, 4, 5, 8, 12, 24, 35):
            chars = enumerate_characters(q)
            assert chars[0].is_principal
            for a in unit_residues(q):
                assert chars[0](a) == 1.0
            assert all(not chi.is_principal for chi in chars[1:])

    def test_mod4_table(self):
        chars = enumerate_characters(4)
        assert len(chars) == 2
        chi = chars[1]
        assert chi(1) == 1.0 and chi(3) == -1.0
        assert chi(2) == 0.0 and chi(0) == 0.0
        assert chi.label == "4.1"

    def test_mod5_has_order_four_character(self):
        chars = enumerate_characters(5)
        assert len(chars) == 4
        quartic = [chi for chi in chars if chi.order == 4]
        assert len(quartic) == 2
        vals = sorted((chi(2) for chi in quartic), key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1j) and vals[1] == pytest.approx(1j)

    def test_matches_brute_force_homomorphisms(self):
        # independent oracle: exhaustive multiplicative-map search
        for q in (3, 4, 5, 8):
            expected = oracles.brute_force_characters(q)
            chars = enumerate_characters(q)
            assert len(chars) == len(expected)
            for chi in chars:
                match = [
                    t
                    for t in expected
                    if all(abs(t[a] - chi(a)) < 1e-9 for a in unit_residues(q))
                ]
                assert len(match) == 1

    def test_q_below_three_rejected(self):
        with pytest.raises(ValueError):
            enumerate_characters(2)
        with pytest.raises(ValueError):
            enumerate_characters(1)

    def test_power_of_two_moduli(self):
        # (Z/2^k)* is not cyclic for k >= 3; all mod-8 characters are real
        chars = enumerate_characters(8)
        assert len(chars) == 4
        for chi in chars:
            assert chi.is_real
            for a in (3, 5, 7):
                assert chi(a) in (1.0, -1.0)
        tables = {tuple(int(chi(a).real) for a in (1, 3, 5, 7)) for chi in chars}
        assert len(tables) == 4

    def test_labels_round_trip(self):
        for q in (4, 5, 12):
            for chi in enumerate_characters(q):
                assert character_by_label(chi.label) is chi
        assert parse_label("12.3") == (12, 3)
        with pytest.raises(ValueError):
            parse_label("12")
        with pytest.raises(ValueError):
            character_by_label("5.7")


class TestExactArithmetic:
    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 12, 16, 21, 24, 40, 45])
    def test_multiplicativity_exact_on_exponents(self, q):
        units = unit_residues(q)
        for chi in enumerate_characters(q):
            n = chi.root_order
            for a in units:
                for b in units:
                    lhs = chi.exponent_at((a * b) % q)
                    rhs = (chi.exponent_at(a) + chi.exponent_at(b)) % n
                    assert lhs == rhs

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 13, 15, 16, 17, 36, 105, 420])
    def test_conjugation_is_an_involution(self, q):
        # bit for bit: on every unit, chi-bar(a) is (Re chi(a), 0.0 - Im chi(a)),
        # so a real value keeps its imaginary part +0.0
        chars = enumerate_characters(q)
        units = list(unit_residues(q))
        for chi in chars:
            conj = chars[chi.conjugate_index]
            assert chars[conj.conjugate_index] is chi
            want = chi.values[units].copy()
            want.imag = 0.0 - want.imag
            assert np.array_equal(conj.values[units].view(np.uint64), want.view(np.uint64)), chi.label

    def test_values_zero_off_units(self):
        for q in (4, 6, 12, 18):
            for chi in enumerate_characters(q):
                for a in range(q):
                    if math.gcd(a, q) != 1:
                        assert chi(a) == 0.0
                        assert chi.exponent_at(a) == -1


class TestInnerProduct:
    @pytest.mark.parametrize("q", list(range(3, 101)))
    def test_orthogonality(self, q):
        chars = enumerate_characters(q)
        units = np.array(unit_residues(q))
        table = np.stack([chi.values[units] for chi in chars])
        gram = table @ np.conj(table.T) / len(units)
        assert np.max(np.abs(gram - np.eye(len(chars)))) < 1e-12

    @pytest.mark.parametrize("q", list(range(3, 101)))
    def test_fourier_inversion(self, q):
        # f(a) = sum_chi <f, chi> chi(a) recovers any table on the units
        rng = np.random.default_rng(q)
        units = unit_residues(q)
        vals = np.zeros(q, dtype=np.complex128)
        for a in units:
            vals[a] = rng.normal() + 1j * rng.normal()
        f = ClassFunction(q, vals)
        chars = enumerate_characters(q)
        coeffs = [inner_product(f, chi) for chi in chars]
        for a in units:
            rebuilt = sum(c * chi(a) for c, chi in zip(coeffs, chars))
            assert rebuilt == pytest.approx(f(a), abs=1e-12)

    def test_race_weight_coefficient_mod4(self):
        t = race_weight(3, 1, 4)
        chi = enumerate_characters(4)[1]
        assert inner_product(t, chi) == pytest.approx(-1.0)
        assert inner_product(t, enumerate_characters(4)[0]) == pytest.approx(0.0)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            inner_product(race_weight(3, 1, 4), enumerate_characters(5)[1])


class TestSquareRoots:
    def test_mod4_counts(self):
        r = square_root_count(4)
        assert r(1) == 2 and r(3) == 0

    def test_mod8_counts(self):
        r = square_root_count(8)
        assert r(1) == 4
        assert r(3) == r(5) == r(7) == 0

    @pytest.mark.parametrize("q", list(range(3, 501)))
    def test_total_is_phi(self, q):
        r = square_root_count(q)
        assert int(np.sum(r.counts)) == euler_phi(q)

    def test_nonresidue_classes_zero(self):
        r = square_root_count(7)
        # squares mod 7: 1, 4, 2
        assert [r(a) for a in (1, 2, 4)] == [2, 2, 2]
        assert [r(a) for a in (3, 5, 6)] == [0, 0, 0]


class TestBiasConstant:
    def test_mod4_race_default_orders(self):
        t = race_weight(3, 1, 4)
        M = bias_constant(t)
        assert isinstance(M, BiasConstant)
        assert M.value == pytest.approx(-0.5)
        assert abs(M.value.imag) < 1e-14

    def test_mod4_race_with_central_zero(self):
        t = race_weight(3, 1, 4)
        M = bias_constant(t, {"4.1": 1})
        # coefficient of the nonprincipal character is -1, so the shift is -1
        assert M.value == pytest.approx(-1.5)

    def test_formula_matches_square_root_counts(self):
        for q, a, b in [(5, 2, 1), (8, 3, 1), (12, 11, 1), (7, 3, 2)]:
            t = race_weight(a, b, q)
            r = square_root_count(q)
            expected = (r(a) - r(b)) / (2 * euler_phi(q))
            assert bias_constant(t).value == pytest.approx(expected)

    def test_real_for_real_input(self):
        for q, a, b in [(5, 2, 3), (7, 3, 5), (13, 2, 5)]:
            M = bias_constant(race_weight(a, b, q), None)
            assert abs(M.value.imag) < 1e-14

    def test_absent_order_counts_as_zero(self):
        t = race_weight(3, 1, 4)
        assert bias_constant(t, {}).value == bias_constant(t, {"4.1": 0}).value == pytest.approx(-0.5)

    def test_orders_by_index_or_label(self):
        t = race_weight(3, 1, 4)
        assert bias_constant(t, {1: 2}).value == pytest.approx(-2.5)
        with pytest.raises(ValueError):
            bias_constant(t, {"5.1": 1})
        with pytest.raises(ValueError):
            bias_constant(t, {1: -1})

    def test_requires_orthogonality_to_principal(self):
        q = 4
        f = ClassFunction.from_pairs(q, {1: 1.0, 3: 1.0})
        with pytest.raises(ValueError, match="principal"):
            bias_constant(f)


class TestRaceWeight:
    def test_values(self):
        t = race_weight(3, 1, 4)
        assert t(3) == 1.0 and t(1) == -1.0 and t(2) == 0.0

    def test_rejects_non_units_and_equal(self):
        with pytest.raises(ValueError, match="not a unit"):
            race_weight(2, 1, 4)
        with pytest.raises(ValueError, match="not a unit"):
            race_weight(3, 2, 4)
        with pytest.raises(ValueError, match="differ"):
            race_weight(3, 3, 4)
        with pytest.raises(ValueError, match="invalid modulus"):
            race_weight(1, 0, 2)

"""Zero-file parsing, validation, and the symmetric expansion."""
import math

import numpy as np
import pytest

from primerace.characters import enumerate_characters, race_weight, ClassFunction
from primerace.ingest import (
    CoverageWarning,
    ZeroFileError,
    load_zeros,
    parse_zeros,
    serialize,
    symmetric_expand,
)

BASIC = """\
# synthetic ordinates exercising the format
modulus 4
mchi 4.1 0
4.1 6.0 1
4.1 10.2 1
"""


class TestParsing:
    def test_basic_file(self):
        zd = parse_zeros(BASIC, 4)
        assert zd.modulus == 4
        assert len(zd) == 2
        assert zd.labels() == ("4.1",)
        assert list(zd.ordinates("4.1")) == [6.0, 10.2]
        assert zd.central_order("4.1") == 0
        assert zd.height() == 10.2

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text(BASIC)
        zd = load_zeros(p, 4)
        assert len(zd) == 2
        assert zd.source == str(p)

    def test_comments_and_blanks_skipped(self):
        text = "\n# top comment\n\n4.1 3.5 1  # trailing comment\n\n"
        zd = parse_zeros(text, 4)
        assert len(zd) == 1

    def test_principal_label_rejected(self):
        with pytest.raises(ZeroFileError, match="1: .*principal"):
            parse_zeros("4.0 5.0 1\n", 4)

    def test_nonpositive_ordinate_rejected(self):
        with pytest.raises(ZeroFileError, match="positive"):
            parse_zeros("4.1 -3.0 1\n", 4)
        with pytest.raises(ZeroFileError, match="positive"):
            parse_zeros("4.1 0.0 1\n", 4)

    def test_unknown_label_rejected(self):
        with pytest.raises(ZeroFileError, match="unknown character label"):
            parse_zeros("4.2 5.0 1\n", 4)
        with pytest.raises(ZeroFileError, match="unknown character label"):
            parse_zeros("5.1 5.0 1\n", 4)

    def test_unsorted_ordinates_rejected(self):
        text = "4.1 10.0 1\n4.1 6.0 1\n"
        with pytest.raises(ZeroFileError, match="2: .*nondecreasing"):
            parse_zeros(text, 4)

    def test_interleaved_labels_sorted_per_character_accepted(self):
        text = "5.1 4.0 1\n5.2 3.0 1\n5.1 6.0 1\n5.2 8.0 1\n"
        zd = parse_zeros(text, 5)
        assert list(zd.ordinates("5.1")) == [4.0, 6.0]
        assert list(zd.ordinates("5.2")) == [3.0, 8.0]

    def test_modulus_header_mismatch(self):
        with pytest.raises(ZeroFileError, match="declares modulus 8"):
            parse_zeros("modulus 8\n4.1 5.0 1\n", 4)

    def test_field_count_errors_carry_line_numbers(self):
        with pytest.raises(ZeroFileError, match=":3:"):
            parse_zeros("# one\n4.1 5.0 1\n4.1 6.0\n", 4)

    def test_bad_numbers_rejected(self):
        with pytest.raises(ZeroFileError, match="bad ordinate"):
            parse_zeros("4.1 abc 1\n", 4)
        with pytest.raises(ZeroFileError, match="bad multiplicity"):
            parse_zeros("4.1 5.0 x\n", 4)
        with pytest.raises(ZeroFileError, match="multiplicity must be positive"):
            parse_zeros("4.1 5.0 0\n", 4)

    def test_mchi_validation(self):
        with pytest.raises(ZeroFileError, match="unknown character label"):
            parse_zeros("mchi 4.9 1\n", 4)
        with pytest.raises(ZeroFileError, match="nonnegative"):
            parse_zeros("mchi 4.1 -1\n", 4)
        zd = parse_zeros("mchi 4.1 2\n4.1 5.0 1\n", 4)
        assert zd.central_order("4.1") == 2
        assert zd.central_order("4.0") == 0  # absent means zero

    def test_round_trip_is_stable(self):
        once = serialize(parse_zeros(BASIC, 4))
        twice = serialize(parse_zeros(once, 4))
        assert once == twice
        assert parse_zeros(once, 4).entries == parse_zeros(BASIC, 4).entries


class TestSymmetricExpansion:
    def test_real_character_pairs(self):
        zd = parse_zeros("4.1 6.0 1\n", 4)
        t = race_weight(3, 1, 4)
        out = symmetric_expand(zd, t)
        assert len(out) == 2
        assert [z.gamma for z in out] == [6.0, -6.0]
        for z in out:
            assert z.coefficient == pytest.approx(-1.0)
            assert z.rho == pytest.approx(complex(0.5, z.gamma))

    def test_multiplicity_two_gives_four(self):
        zd = parse_zeros("4.1 6.0 2\n", 4)
        out = symmetric_expand(zd, race_weight(3, 1, 4))
        assert len(out) == 4
        assert sorted(z.gamma for z in out) == [-6.0, -6.0, 6.0, 6.0]

    def test_empty_dataset(self):
        zd = parse_zeros("", 4)
        t = ClassFunction(4, np.zeros(4, dtype=np.complex128))
        assert symmetric_expand(zd, t) == []

    def test_sorted_by_absolute_ordinate(self):
        text = "5.1 2.0 1\n5.1 9.0 1\n5.2 4.0 1\n5.3 2.0 1\n"
        zd = parse_zeros(text, 5)
        t = race_weight(2, 1, 5)
        out = symmetric_expand(zd, t)  # 5.1/5.2/5.3 is full coverage for q=5
        mags = [abs(z.gamma) for z in out]
        assert mags == sorted(mags)
        # ties at |gamma|=2.0 group by label: 5.1 before 5.3's conjugate pairs
        tied = [z.label for z in out if abs(z.gamma) == 2.0]
        assert tied == sorted(tied)

    def test_conjugate_coefficients(self):
        # a complex weight: expansion of chi's entries carries <t,chibar> at -gamma
        q = 5
        chars = enumerate_characters(q)
        zd = parse_zeros("".join(f"{c.label} 3.0 1\n" for c in chars[1:]), q)
        rng = np.random.default_rng(7)
        vals = np.zeros(q, dtype=np.complex128)
        for a in range(1, q):
            vals[a] = complex(rng.standard_normal(), rng.standard_normal())
        t = ClassFunction(q, vals)
        out = symmetric_expand(zd, t)
        assert len(out) == 2 * (len(chars) - 1)
        by_gamma = {}
        for z in out:
            by_gamma.setdefault(z.label, {})[z.gamma] = z.coefficient
        for chi in chars[1:]:
            conj_label = chars[chi.conjugate_index].label
            # the -gamma copy filed under the conjugate's label carries its coefficient
            assert by_gamma[conj_label][-3.0] == by_gamma[conj_label].get(-3.0)

    def test_missing_coverage_warns_or_raises(self):
        zd = parse_zeros("4.1 6.0 1\n", 4)
        q8 = race_weight(3, 1, 8)
        with pytest.raises(ValueError, match="modulus mismatch"):
            symmetric_expand(zd, q8)
        empty = parse_zeros("", 4)
        t = race_weight(3, 1, 4)
        with pytest.warns(CoverageWarning, match="no zeros"):
            assert symmetric_expand(empty, t) == []

    def test_zero_coefficient_needs_no_coverage(self):
        # principal-only weight never needs zeros
        zd = parse_zeros("", 4)
        vals = np.zeros(4, dtype=np.complex128)
        vals[1] = vals[3] = 1.0  # constant on units -> principal component only
        t = ClassFunction(4, vals)
        out = symmetric_expand(zd, t)  # must not warn
        assert out == []

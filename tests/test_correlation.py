"""Correlation series, expectation measure, pair table, convention choice."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nht import fixtures
from nht.core import ResidueSequence
from nht.correlation import (
    Convention,
    circular_autocorr,
    circular_crosscorr,
    expectation_measure,
    pair_table,
    resolve_convention,
)
from nht.errors import ConventionError, InvalidModulusError, ShapeError
from nht.seqio import decimal_string
from oracles import fixture

values_lists = st.lists(st.integers(0, 500), min_size=2, max_size=12)
moduli = st.sampled_from([2, 3, 5, 7, 13, 47, 331, 7283])


def _examples(count=4):
    return [fixture(f"example{i}").residue_sequence()
            for i in range(1, count + 1)]


class TestSeries:
    def test_delta_sequence(self):
        series = circular_autocorr(ResidueSequence([1, 0, 0, 0, 0], 5))
        assert series.raw_sums == (1, 0, 0, 0, 0)
        assert series.residues == (1, 0, 0, 0, 0)
        assert Fraction(series.residues[0], series.modulus) == Fraction(1, 5)

    def test_autocorr_is_self_crosscorr(self):
        s = fixture("example5").residue_sequence()
        assert circular_autocorr(s) == circular_crosscorr(s, s, s.modulus)

    def test_scaled_small_case(self):
        # N = 3, q = 7: inv(3) = 5; raw sums 14, 11, 11.
        series = circular_crosscorr([1, 2, 3], [1, 2, 3], 7, Convention.SCALED)
        assert series.raw_sums == (14, 11, 11)
        assert series.residues == (0, 6, 6)

    def test_scaled_needs_coprime_length(self):
        with pytest.raises(ConventionError):
            circular_autocorr(ResidueSequence([1, 0, 0, 0, 0], 5),
                              Convention.SCALED)

    def test_operands_reduced_before_multiplying(self):
        a = circular_crosscorr([8, 9], [10, 11], 7)
        b = circular_crosscorr([1, 2], [3, 4], 7)
        assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            circular_crosscorr([1, 2, 3], [1, 2], 5)

    def test_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            circular_crosscorr([1, 2], [3, 4], 1)

    @given(values_lists, st.data())
    @settings(deadline=None)
    def test_direction_reversal(self, a, data):
        b = data.draw(st.lists(st.integers(0, 500),
                               min_size=len(a), max_size=len(a)))
        q = data.draw(moduli)
        ab = circular_crosscorr(a, b, q)
        ba = circular_crosscorr(b, a, q)
        n = len(a)
        for k in range(n):
            assert ab.raw_sums[k] == ba.raw_sums[(n - k) % n]


class TestExpectation:
    def test_frozen_example_pairs(self):
        seqs = _examples()
        frozen = {
            (1, 2): Fraction(101947, 116528),
            (2, 1): Fraction(160243, 349616),
            (1, 3): Fraction(10665, 14566),
            (3, 1): Fraction(13523, 49936),
        }
        for (i, j), expected in frozen.items():
            q = seqs[i - 1].modulus
            series = circular_crosscorr(seqs[i - 1], seqs[j - 1], q)
            assert expectation_measure(series) == expected

    @given(values_lists, st.data())
    @settings(deadline=None)
    def test_range_and_swap_invariance(self, a, data):
        b = data.draw(st.lists(st.integers(0, 500),
                               min_size=len(a), max_size=len(a)))
        q = data.draw(moduli)
        ab = expectation_measure(circular_crosscorr(a, b, q))
        ba = expectation_measure(circular_crosscorr(b, a, q))
        assert 0 <= ab < 1
        assert ab == ba

    # (x, digits, den, text): x / den rounded half up, exactly. 639/640 is
    # 0.9984375, a seventh-digit tie that float formatting rounds down.
    ROUNDING = [
        (Fraction(87, 100), 2, 1, "0.87"),
        (Fraction(1, 8), 2, 1, "0.13"),
        (Fraction(45834, 100000), 2, 1, "0.46"),
        (Fraction(0), 2, 1, "0.00"),
        (Fraction(1, 3), 4, 1, "0.3333"),
        (639, 6, 640, "0.998438"),
        (0, 6, 1, "0.000000"),
        (Fraction(3, 2), 2, 1, "1.50"),
        (2**3072 - 2, 6, 2**3072 - 1, "1.000000"),
    ]

    @pytest.mark.parametrize("x, digits, den, text", ROUNDING,
                             ids=[case[-1] for case in ROUNDING])
    def test_string_rounds_half_up(self, x, digits, den, text):
        assert decimal_string(x, digits, den) == text


class TestPairTable:
    def test_ordering_and_moduli(self):
        seqs = _examples()
        rows = pair_table(seqs)
        assert [(r.i, r.j) for r in rows] == [
            (i, j) for i in range(1, 5) for j in range(1, 5) if i != j
        ]
        for row in rows:
            assert row.modulus == seqs[row.i - 1].modulus

    def test_complementary_flags(self):
        rows = {(r.i, r.j): r for r in pair_table(_examples())}
        flagged = {(1, 3), (3, 1), (2, 3), (3, 2)}
        for key, row in rows.items():
            assert row.complementary is (key in flagged), key

    def test_fewer_than_two(self):
        assert pair_table([]) == []
        assert pair_table(_examples(1)) == []

    def test_mixed_lengths(self):
        with pytest.raises(ShapeError):
            pair_table([ResidueSequence([1, 2], 5),
                        ResidueSequence([1, 2, 3], 5)])


class TestResolveConvention:
    def test_reference_targets_choose_raw(self):
        report = resolve_convention(_examples(), fixtures.REFERENCE_EXPECTATIONS)
        assert report.chosen is Convention.RAW
        assert report.raw.max_deviation <= Fraction(1, 100)
        assert report.scaled.max_deviation > Fraction(1, 2)
        assert len(report.raw.rows) == 12
        assert len(report.scaled.rows) == 12
        assert report.rejected() is report.scaled

    def test_scaled_targets_choose_scaled(self):
        # Targets read off the SCALED profile of the bundled rows: SCALED
        # meets them exactly, and RAW (which misses the reference targets
        # by under 0.01) misses these by more than 0.5.
        seqs = _examples()
        reference = resolve_convention(seqs, fixtures.REFERENCE_EXPECTATIONS)
        targets = {(row.i, row.j): row.expectation for row in reference.scaled.rows}
        report = resolve_convention(seqs, targets)
        assert report.chosen is Convention.SCALED
        assert report.scaled.max_deviation == 0
        assert report.raw.max_deviation > Fraction(1, 2)
        assert report.rejected() is report.raw
        assert report.rejected().convention is Convention.RAW
        assert report.profile(Convention.SCALED) is report.scaled

    def test_tie_prefers_raw(self):
        # Length 16 mod 5 means the scale factor is 1, so both
        # conventions coincide and the tie must resolve to RAW.
        a = ResidueSequence([1, 2, 3, 4] * 4, 5)
        b = ResidueSequence([2, 0, 1, 3] * 4, 5)
        report = resolve_convention([a, b], {(1, 2): Fraction(1, 2)})
        assert report.raw.max_deviation == report.scaled.max_deviation
        assert report.chosen is Convention.RAW

    def test_scaled_not_applicable(self):
        a = ResidueSequence([1, 0] * 8, 2)
        b = ResidueSequence([0, 1] * 8, 2)
        report = resolve_convention([a, b], {(1, 2): Fraction(1, 2)})
        assert report.chosen is Convention.RAW
        assert report.scaled is None
        assert report.scaled_error
        assert report.rejected() is None

    def test_empty_targets(self):
        with pytest.raises(ShapeError):
            resolve_convention(_examples(), {})

    def test_bad_target_pair(self):
        with pytest.raises(ShapeError):
            resolve_convention(_examples(), {(1, 9): Fraction(1, 2)})

"""Circulant construction, Gram sums, modulus discovery, transforms."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nht import fixtures
from nht.core import (
    GeneratorSequence,
    GramSummary,
    ResidueSequence,
    cyclic_correlate,
    discover_modulus,
    forward_transform,
    gram_lag_sums,
    inverse_transform,
    normalizer,
    orthogonality_report,
    reduce_mod,
)
from nht.errors import (
    InvalidGeneratorError,
    InvalidModulusError,
    NonInvertibleError,
    ShapeError,
)
from nht.search import doubling_chain, evaluate_candidate
from oracles import circulant_rows, diagonal_residue, matrix_gram, naive_correlate

generators = st.lists(st.integers(0, 2**16 - 1), min_size=2, max_size=8).filter(any)


def _operand(n):
    # A bit size per operand: 0 gives an all-zero operand, 600 is the size
    # of doubling-chain values at n=512, and two independent draws give
    # operands whose maxima differ by many bits.
    return st.integers(0, 600).flatmap(
        lambda bits: st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n)
    )


operand_pairs = st.integers(2, 64).flatmap(lambda n: st.tuples(_operand(n), _operand(n)))


def _brute_rows(values):
    # Independent row construction: slice-rotate the interleaved row.
    first = []
    for v in values:
        first += [v, 0]
    return [first[len(first) - i:] + first[:len(first) - i]
            for i in range(len(first))]


def _brute_gram(values):
    rows = _brute_rows(values)
    d = len(rows)
    return [[sum(rows[i][t] * rows[j][t] for t in range(d)) for j in range(d)]
            for i in range(d)]


class TestTypes:
    def test_generator_too_short(self):
        with pytest.raises(InvalidGeneratorError):
            GeneratorSequence([5])

    def test_generator_negative(self):
        with pytest.raises(InvalidGeneratorError):
            GeneratorSequence([1, -2])

    def test_generator_all_zero(self):
        with pytest.raises(InvalidGeneratorError):
            GeneratorSequence([0, 0, 0])

    def test_residue_out_of_range(self):
        with pytest.raises(InvalidGeneratorError):
            ResidueSequence([1, 7], 7)

    def test_residue_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            ResidueSequence([0, 0], 1)


class TestCirculant:
    def test_first_row_interleaves(self):
        rows = circulant_rows([3, 1, 4])
        assert len(rows) == 6
        assert rows[0] == (3, 0, 1, 0, 4, 0)

    def test_rows_rotate_right(self):
        rows = circulant_rows([3, 1, 4])
        assert rows[1] == (0, 3, 0, 1, 0, 4)
        assert rows[2] == (4, 0, 3, 0, 1, 0)

    @given(generators)
    @settings(deadline=None)
    def test_rows_match_slice_rotation(self, values):
        assert circulant_rows(values) == [
            tuple(r) for r in _brute_rows(values)
        ]


class TestCyclicCorrelate:
    @given(operand_pairs)
    @example(([0, 0], [0, 0]))
    @example(([0, 0, 0], [5, 2**600, 1]))
    @example(([2**600 - 1] * 64, [1] + [0] * 63))
    @example(([1] + [0] * 63, [2**600 - 1] * 64))
    @settings(deadline=None, max_examples=200)
    def test_matches_naive_double_sum(self, pair):
        a, b = pair
        assert cyclic_correlate(a, b) == naive_correlate(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cyclic_correlate([1, 2], [1, 2, 3])


class TestGram:
    def test_two_element_literal(self):
        gram = gram_lag_sums([1, 2])
        assert gram.diagonal == 5
        assert gram.lag_sums == (4,)

    @given(generators)
    @settings(deadline=None)
    def test_matches_brute_force_matrix(self, values):
        gram = gram_lag_sums(values)
        brute = _brute_gram(values)
        n = len(values)
        for i in range(2 * n):
            for j in range(2 * n):
                shift = (i - j) % (2 * n)
                if i == j:
                    assert brute[i][j] == gram.diagonal
                elif shift % 2 == 1:
                    assert brute[i][j] == 0
                else:
                    assert brute[i][j] == gram.lag_sums[shift // 2 - 1]

    @given(generators)
    @settings(deadline=None)
    def test_lag_symmetry(self, values):
        gram = gram_lag_sums(values)
        n = len(values)
        for k in range(1, n):
            assert gram.lag_sums[k - 1] == gram.lag_sums[n - k - 1]

    @given(generators, st.integers(1, 9))
    @settings(deadline=None)
    def test_quadratic_scaling(self, values, c):
        base = gram_lag_sums(values)
        scaled = gram_lag_sums([c * v for v in values])
        assert scaled.diagonal == c * c * base.diagonal
        assert scaled.lag_sums == tuple(c * c * s for s in base.lag_sums)

    @given(generators)
    @settings(deadline=None, max_examples=30)
    def test_matrix_gram_equals_summary(self, values):
        gram = gram_lag_sums(values)
        full = matrix_gram(values)
        n = len(values)
        for i in range(2 * n):
            for j in range(2 * n):
                shift = (i - j) % (2 * n)
                expected = (
                    gram.diagonal if i == j
                    else 0 if shift % 2 else gram.lag_sums[shift // 2 - 1]
                )
                assert full[i][j] == expected


class TestDiscoverModulus:
    def test_small_case(self):
        assert discover_modulus(gram_lag_sums([2, 3, 0, 0])) == 6

    def test_zero_sentinel(self):
        assert discover_modulus(gram_lag_sums([1, 0])) == 0

    def test_no_modulus(self):
        assert discover_modulus(gram_lag_sums([1, 1, 0])) == 1

    @given(generators)
    @settings(deadline=None)
    def test_divides_every_lag_sum(self, values):
        gram = gram_lag_sums(values)
        g = discover_modulus(gram)
        if g == 0:
            assert all(s == 0 for s in gram.lag_sums)
        else:
            assert all(s % g == 0 for s in gram.lag_sums)

    def test_handmade_summary(self):
        assert discover_modulus(GramSummary(diagonal=10, lag_sums=(12, 18, 12))) == 6


class TestDiagonalResidueAndNormalizer:
    def test_fixture_residues(self):
        expected = {1: 1, 2: 1, 3: 16, 4: 4, 5: 24, 6: 576}
        for i, r in expected.items():
            report = orthogonality_report(fixtures.fixture(f"example{i}").residue_sequence())
            assert report.diagonal_residue == r

    def test_fixture_normalizers(self):
        expected = {1: 1, 2: 1, 3: 2341, 4: 166, 5: 40, 6: 414}
        for i, w in expected.items():
            sf = fixtures.fixture(f"example{i}")
            r = orthogonality_report(sf.residue_sequence()).diagonal_residue
            assert normalizer(r, sf.modulus) == w
            assert w * w * r % sf.modulus == 1

    def test_normalized_row_has_unit_diagonal(self):
        for i in range(1, 7):
            sf = fixtures.fixture(f"example{i}")
            q = sf.modulus
            w = orthogonality_report(sf.residue_sequence()).normalizer
            scaled = [w * v % q for v in sf.values]
            assert diagonal_residue(scaled, q) == 1
            assert all(s % q == 0 for s in gram_lag_sums(scaled).lag_sums)

    def test_zero_residue_rejected(self):
        with pytest.raises(NonInvertibleError):
            normalizer(0, 7)

    def test_composite_modulus_unsupported(self):
        assert normalizer(9, 54) is None

    def test_non_residue_has_no_normalizer(self):
        assert normalizer(3, 7) is None


class TestReduceMod:
    def test_reduces(self):
        s = reduce_mod([10, 11, 12], 7)
        assert s.values == (3, 4, 5)
        assert s.modulus == 7

    def test_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            reduce_mod([1, 2], 1)


class TestTransforms:
    def test_delta_block_reads_first_column(self):
        sf = fixtures.fixture("example4")
        s = sf.residue_sequence()
        delta = [1] + [0] * 31
        g = forward_transform(s, delta)
        column = tuple(row[0] for row in circulant_rows(sf.values))
        assert g == tuple(v % s.modulus for v in column)

    def test_round_trip_on_fixture_rows(self):
        rng = random.Random(20260817)
        for i in range(1, 7):
            s = fixtures.fixture(f"example{i}").residue_sequence()
            r = orthogonality_report(s).diagonal_residue
            for _ in range(5):
                block = [rng.randrange(s.modulus) for _ in range(2 * s.n)]
                assert list(
                    inverse_transform(s, forward_transform(s, block), r)
                ) == block

    def test_forward_matches_explicit_matrix_multiply(self):
        rng = random.Random(99)
        s = fixtures.fixture("example5").residue_sequence()
        rows = circulant_rows(s.values)
        d = 2 * s.n
        block = [rng.randrange(s.modulus) for _ in range(d)]
        expected = tuple(
            sum(row[j] * block[j] for j in range(d)) % s.modulus
            for row in rows
        )
        assert forward_transform(s, block) == expected

    def test_inverse_matches_explicit_transpose_multiply(self):
        rng = random.Random(100)
        s = fixtures.fixture("example5").residue_sequence()
        q = s.modulus
        r = orthogonality_report(s).diagonal_residue
        rows = circulant_rows(s.values)
        d = 2 * s.n
        block = [rng.randrange(q) for _ in range(d)]
        r_inv = pow(r, -1, q)
        expected = tuple(
            r_inv * sum(rows[j][i] * block[j] for j in range(d)) % q
            for i in range(d)
        )
        assert inverse_transform(s, block, r) == expected

    def test_wrong_block_length(self):
        s = fixtures.fixture("example1").residue_sequence()
        with pytest.raises(ShapeError):
            forward_transform(s, [1, 2, 3])

    def test_non_invertible_diagonal(self):
        s = fixtures.fixture("example1").residue_sequence()
        with pytest.raises(NonInvertibleError):
            inverse_transform(s, [0] * 32, 0)

    @given(st.integers(2, 97), st.integers(2, 8), st.integers(1, 40),
           st.data())
    @settings(deadline=None, max_examples=60)
    def test_round_trip_on_chain_candidates(self, seed, n, start, data):
        cand = evaluate_candidate(doubling_chain(seed, n, start))
        assume(cand.valid and cand.diagonal_residue is not None)
        assume(math.gcd(cand.diagonal_residue, cand.modulus) == 1)
        s = cand.reduced
        block = data.draw(
            st.lists(st.integers(0, s.modulus - 1),
                     min_size=2 * n, max_size=2 * n)
        )
        forward = forward_transform(s, block)
        assert list(
            inverse_transform(s, forward, cand.diagonal_residue)
        ) == block


class TestOrthogonalityReport:
    def test_example_rows(self):
        identity = {1: True, 2: True, 3: False, 4: False, 5: False, 6: False}
        for i, flag in identity.items():
            rep = orthogonality_report(
                fixtures.fixture(f"example{i}").residue_sequence()
            )
            assert rep.is_self_orthogonal
            assert (rep.diagonal_residue == 1) is flag
            assert rep.offending_lags() == []
            assert rep.normalizer is not None

    def test_corrupted_row_reports_offenders(self):
        sf = fixtures.fixture("example4")
        values = list(sf.values)
        values[3] += 1
        rep = orthogonality_report(ResidueSequence(values, sf.modulus))
        assert not rep.is_self_orthogonal
        offenders = rep.offending_lags()
        assert offenders
        assert all(rep.offdiag_residues[k - 1] == r for k, r in offenders)

"""Circulant construction, Gram sums, modulus discovery, transforms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nht import core
from nht.core import (
    _TWO_POINT_BYTES,
    GramSummary,
    ResidueSequence,
    _evaluations,
    _pack,
    _plan,
    _unpack,
    cyclic_correlate,
    discover_modulus,
    forward_transform,
    gram_lag_sums,
    inverse_transform,
    normalizer,
    orthogonality_report,
    reduce_mod,
)
from nht.correlation import circular_autocorr, pair_table, resolve_convention
from nht.errors import (
    InvalidGeneratorError,
    InvalidModulusError,
    NonInvertibleError,
    ShapeError,
)
from nht.search import doubling_chain, evaluate_candidate
from oracles import (
    circulant_rows, diagonal_residue, fixture, kernel_gram, matrix_gram,
    naive_correlate,
)

generators = st.lists(st.integers(0, 2**16 - 1), min_size=2, max_size=8).filter(any)


def _operand(n):
    # A bit size per operand: 0 gives an all-zero operand, 600 is the size
    # of doubling-chain values at n=512, and two independent draws give
    # operands whose maxima differ by many bits.
    return st.integers(0, 600).flatmap(
        lambda bits: st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n)
    )


operand_pairs = st.integers(2, 64).flatmap(lambda n: st.tuples(_operand(n), _operand(n)))


def _narrow_operand(n):
    # Residue-sized values: at n <= 64 every slot fits in 9 bytes, so most
    # draws take the struct-lane path and some land just past it.
    return st.integers(0, 30).flatmap(
        lambda bits: st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n)
    )


narrow_pairs = st.integers(1, 64).flatmap(
    lambda n: st.tuples(_narrow_operand(n), _narrow_operand(n))
)


def _at_width(n, w):
    # The exponent e for which values up to 2^e give n-value operands
    # w-byte slots: n * 2^(2e) has 8w - 1 or 8w bits.
    return (8 * w - n.bit_length()) // 2


def _operand_at(n, w):
    # Values below 2^e for a random e up to the width-w exponent, so the
    # kernel's own w lands at or under this one.
    return st.integers(0, _at_width(n, w)).flatmap(
        lambda e: st.lists(st.integers(0, 2**e), min_size=n, max_size=n))


def _near_crossover(n):
    # Slot widths around the two-point crossover for this n; each operand
    # draws its own top bit, so some pairs land below it and some above.
    w = -(-_TWO_POINT_BYTES // n)
    return st.integers(max(1, w - 2), w + 2).flatmap(
        lambda w: st.tuples(_operand_at(n, w), _operand_at(n, w)))


def _filled(n, w):
    # Operands of length n whose slot width is exactly w, with unequal values
    # so that a misplaced coefficient shows.
    top = 2 ** _at_width(n, w)
    step = top // 8
    return ([top - i % 5 * step for i in range(n)],
            [top - i % 7 * step for i in range(n)])


def _pack_reference(values, w):
    # One to_bytes per value: the packing every slot width must reproduce.
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in values), "little")


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
            ResidueSequence([5])

    def test_generator_negative(self):
        with pytest.raises(InvalidGeneratorError):
            ResidueSequence([1, -2])

    def test_generator_all_zero(self):
        # An all-zero row is a record; only a Gram needs a nonzero value.
        assert ResidueSequence([0, 0, 0]).values == (0, 0, 0)
        for use in (gram_lag_sums, evaluate_candidate):
            with pytest.raises(InvalidGeneratorError):
                use([0, 0, 0])

    def test_residue_out_of_range(self):
        with pytest.raises(InvalidGeneratorError):
            ResidueSequence([1, 7], 7)

    def test_residue_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            ResidueSequence([0, 0], 1)

    def test_value_equality_and_hash(self):
        a, b = ResidueSequence([1, 2, 3], 5), ResidueSequence((1, 2, 3), 5)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != ResidueSequence([1, 2, 3], 7)
        assert a != ResidueSequence([1, 2, 3], 5, "x")
        assert ResidueSequence([1, 2]) == ResidueSequence((1, 2))
        assert repr(a) == "ResidueSequence(values=(1, 2, 3), modulus=5, name=None)"

    def test_generator_never_equals_residue(self):
        g, s = ResidueSequence([1, 2, 3]), ResidueSequence([1, 2, 3], 5)
        assert g.values == s.values
        assert g != s and s != g
        assert g != (1, 2, 3) and s != ((1, 2, 3), 5)


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

    @given(narrow_pairs)
    # n * max(a) * max(b) just below 2^64 (8-byte slots) and at 2^64 (9 bytes),
    # at n = 4 and n = 1.
    @example(([2**31] * 4, [2**31 - 1] * 4))
    @example(([2**31] * 4, [2**31] * 4))
    @example(([2**32 - 1], [2**32 + 1]))
    @example(([2**32], [2**32]))
    @example(([7], [0]))
    @settings(deadline=None, max_examples=200)
    def test_narrow_operands_match_naive_double_sum(self, pair):
        a, b = pair
        assert cyclic_correlate(a, b) == naive_correlate(a, b)

    @pytest.mark.parametrize("w", range(1, 13))
    def test_pack_and_unpack_match_per_value_bytes(self, w):
        rng = random.Random(w)
        top = 2 ** (8 * w) - 1
        for n in (1, 2, 7, 64):
            values = [0, top][:n] + [rng.randint(0, top) for _ in range(n - 2)]
            packed = _pack(values, w)
            assert packed == _pack_reference(values, w)
            assert _unpack(packed.to_bytes(n * w, "little"), w) == values

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cyclic_correlate([1, 2], [1, 2, 3])

    @given(st.integers(1, 48).flatmap(_near_crossover))
    # n * w exactly at the constant (two points) and one byte under it (one
    # multiply), odd and even n, n = 1, slots of 2, 3 and up to 1,536 bytes,
    # and all-zero operands on both sides.
    @example(_filled(16, _TWO_POINT_BYTES // 16))
    @example(_filled(5, (_TWO_POINT_BYTES - 1) // 5))
    @example(_filled(1, _TWO_POINT_BYTES))
    @example(_filled(3, _TWO_POINT_BYTES // 3))
    @example(_filled(2, _TWO_POINT_BYTES // 2))
    @example(_filled(512, 3))
    @example(_filled(768, 2))
    @example(([0] * 16, [2**800] * 16))
    @example(([0] * 16, [0] * 16))
    @settings(deadline=None, max_examples=100)
    def test_two_point_matches_naive_double_sum(self, pair):
        a, b = pair
        assert cyclic_correlate(a, b) == naive_correlate(a, b)

    @pytest.mark.parametrize("n, w, points", [
        (16, _TWO_POINT_BYTES // 16, 2),
        (17, _TWO_POINT_BYTES // 16, 2),
        (16, _TWO_POINT_BYTES // 16 - 1, 1),
        (1, _TWO_POINT_BYTES, 2),
        (512, 3, 2),
        (64, 17, 1),
    ])
    def test_filled_operands_take_the_expected_path(self, n, w, points):
        a, b = _filled(n, w)
        assert (n * max(a) * max(b)).bit_length() + 7 >> 3 == w
        assert len(_evaluations(a, w)) == points

    def test_empty_operands(self):
        with pytest.raises(ShapeError):
            cyclic_correlate([], [])

    @pytest.mark.parametrize("a, b", [
        ([-1, 2], [3, 4]),
        ([1, 2], [3, -4]),
        ([-1, 0], [0, 0]),
        ([-(2**100), 1], [1, 1]),
        ([2**100, 1], [1, -1]),
        # Above the crossover, in an even and in an odd position.
        ([2**800] * 15 + [-1], [2**800] * 16),
        ([2**800] * 16, [1, -(2**800)] + [2**800] * 14),
    ])
    def test_negative_values_are_invalid(self, a, b):
        with pytest.raises(InvalidGeneratorError):
            cyclic_correlate(a, b)

    @pytest.mark.parametrize("a, b", [
        ([2.5, 1], [1, 2]),  # one multiply, float maximum
        ([1.5] + [2**80] * 3, [1] * 4),  # slots over 8 bytes, float not the maximum
        ([2.5] + [2] * 1599, [1] * 1600),  # two points, float maximum
        ([Fraction(3), 1], [1, 2]),  # a Fraction maximum
        ([1.5, 2], [1, 2]),  # struct lanes, float not the maximum
    ], ids=["one-multiply", "wide-slots", "two-point", "fraction", "struct-lanes"])
    def test_non_integer_values_are_invalid(self, a, b):
        with pytest.raises(InvalidGeneratorError):
            cyclic_correlate(a, b)


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


chains = st.builds(
    lambda s, a, n: [s] + [a << i for i in range(n - 1)],
    st.integers(0, 2**64), st.integers(0, 2**64), st.integers(2, 130),
).filter(any)


class TestGramForm:
    """gram_lag_sums takes the closed form for chain-shaped rows and the
    kernel for every other; both give the kernel's self-correlation."""

    @given(st.one_of(chains, generators))
    @example([5, 0, 0])
    @example([0, 7])
    @example([2**64, 2**64, 2**65])
    @example([3, 1, 2, 5])  # chain-shaped up to its last value
    @example([3, 2, 4, 8, 0])
    @settings(deadline=None, max_examples=300)
    def test_equals_the_kernel_for_every_generator(self, values):
        assert gram_lag_sums(values) == kernel_gram(values)

    @pytest.mark.parametrize("values", [
        [2.5, 2, 4, 8],
        [Fraction(5, 2), 2, 4],
        [2, 2, 4, 8.0],
        [2, 2.0, 4],
        [2, 2.0],
        [2.0, 2],
    ])
    def test_non_integer_values_are_invalid(self, values):
        with pytest.raises(InvalidGeneratorError):
            gram_lag_sums(values)

    def test_chains_skip_the_kernel(self, monkeypatch):
        def no_kernel(a, b):
            raise AssertionError("cyclic_correlate called")

        expected = kernel_gram(doubling_chain(19, 512))
        monkeypatch.setattr(core, "cyclic_correlate", no_kernel)
        assert gram_lag_sums(doubling_chain(19, 512)) == expected
        assert gram_lag_sums([9, 4]) == GramSummary(97, (72,))


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
            report = orthogonality_report(fixture(f"example{i}").residue_sequence())
            assert report.diagonal_residue == r

    def test_fixture_normalizers(self):
        expected = {1: 1, 2: 1, 3: 2341, 4: 166, 5: 40, 6: 414}
        for i, w in expected.items():
            sf = fixture(f"example{i}")
            r = orthogonality_report(sf.residue_sequence()).diagonal_residue
            assert normalizer(r, sf.modulus) == w
            assert w * w * r % sf.modulus == 1

    def test_normalized_row_has_unit_diagonal(self):
        for i in range(1, 7):
            sf = fixture(f"example{i}")
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
        sf = fixture("example4")
        s = sf.residue_sequence()
        delta = [1] + [0] * 31
        g = forward_transform(s, delta)
        column = tuple(row[0] for row in circulant_rows(sf.values))
        assert g == tuple(v % s.modulus for v in column)

    def test_round_trip_on_fixture_rows(self):
        rng = random.Random(20260817)
        for i in range(1, 7):
            s = fixture(f"example{i}").residue_sequence()
            r = orthogonality_report(s).diagonal_residue
            for _ in range(5):
                block = [rng.randrange(s.modulus) for _ in range(2 * s.n)]
                assert list(
                    inverse_transform(s, forward_transform(s, block), r)
                ) == block

    def test_forward_matches_explicit_matrix_multiply(self):
        rng = random.Random(99)
        s = fixture("example5").residue_sequence()
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
        s = fixture("example5").residue_sequence()
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

    # n = 64 with the largest prime q below 2^29 gives 64 * (q-1)^2 < 2^64:
    # the widest 8-byte slot at that n.
    @pytest.mark.parametrize("n, q", [(128, 32749), (64, 2**29 - 3)])
    def test_large_n_matches_explicit_matrix(self, n, q):
        rng = random.Random(n)
        s = ResidueSequence([rng.randrange(q) for _ in range(n)], q)
        rows = circulant_rows(s.values)
        d = 2 * n
        block = [rng.randrange(q) for _ in range(d)]
        assert forward_transform(s, block) == tuple(
            sum(row[j] * block[j] for j in range(d)) % q for row in rows
        )
        r = rng.randrange(1, q)
        r_inv = pow(r, -1, q)
        assert inverse_transform(s, block, r) == tuple(
            r_inv * sum(rows[j][i] * block[j] for j in range(d)) % q
            for i in range(d)
        )

    def test_wrong_block_length(self):
        s = fixture("example1").residue_sequence()
        with pytest.raises(ShapeError):
            forward_transform(s, [1, 2, 3])

    def test_non_invertible_diagonal(self):
        s = fixture("example1").residue_sequence()
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


def _explicit_forward(values, q, block):
    rows = circulant_rows(values)
    return tuple(sum(r * x for r, x in zip(row, block)) % q for row in rows)


def _explicit_inverse(values, q, block, r):
    rows = circulant_rows(values)
    r_inv = pow(r, -1, q)
    return tuple(
        r_inv * sum(row[i] * x for row, x in zip(rows, block)) % q
        for i in range(len(block))
    )


class TestTransformsAtTwoPoints:
    # The doubling chain of seed 19 at n = 512 has 5953 in its lag-sum gcd,
    # so its reduction is self-orthogonal with r = 1296. Its slots are 4
    # bytes (512 * 5952^2 < 2^32), 2,048 bytes per half-block: two points.
    Q = 5953
    ROW = reduce_mod(doubling_chain(19, 512), Q)

    def test_row_is_self_orthogonal_at_two_points(self):
        report = orthogonality_report(self.ROW)
        assert report.is_self_orthogonal and report.diagonal_residue == 1296
        assert len(_plan(self.ROW, False, 1)[1]) == 2

    @given(st.lists(st.integers(-3 * Q, 3 * Q), min_size=1024, max_size=1024))
    @example([Q] * 1024)
    @example([-1] * 1024)
    @example(list(range(-512, 512)))
    @settings(deadline=None, max_examples=3)
    def test_round_trip_matches_naive_correlation(self, block):
        s, q, r = self.ROW, self.Q, 1296
        reduced = [b % q for b in block]
        forward = forward_transform(s, block)
        v = s.values
        for h in (0, 1):
            assert list(forward[h::2]) == [
                x % q for x in naive_correlate(v, reduced[h::2])]
        assert list(inverse_transform(s, forward, r)) == reduced
        r_inv, back = pow(r, -1, q), list(forward)
        for h in (0, 1):
            assert list(inverse_transform(s, back, r)[h::2]) == [
                r_inv * x % q for x in naive_correlate(v[:1] + v[:0:-1], back[h::2])]


class TestTransformPlans:
    VALUES = (3, 1, 4, 1, 5, 9, 2, 6)

    def test_rows_differing_only_in_modulus(self):
        _plan.cache_clear()
        block = [2**40 + i for i in range(16)]
        # The small modulus first: its 2-byte slots would overflow under
        # the large one.
        for q in (11, 2**61 - 1, 11, 13):
            s = ResidueSequence(self.VALUES, q)
            assert forward_transform(s, block) == _explicit_forward(s.values, q, block)
        assert _plan.cache_info().currsize == 3

    def test_directions_and_diagonals(self):
        _plan.cache_clear()
        q = 101
        s = ResidueSequence(self.VALUES, q)
        block = [7 * i % q for i in range(16)]
        expected_forward = _explicit_forward(self.VALUES, q, block)
        # Diagonal 1 makes the inverse's scale equal the forward's.
        for _ in range(2):
            for r in (1, 5, 1, 100):
                assert forward_transform(s, block) == expected_forward
                assert inverse_transform(s, block, r) == _explicit_inverse(
                    self.VALUES, q, block, r)
        assert _plan.cache_info().currsize == 4

    def test_equal_rows_share_a_plan(self):
        _plan.cache_clear()
        block = list(range(16))
        forward_transform(ResidueSequence(self.VALUES, 101), block)
        forward_transform(ResidueSequence(list(self.VALUES), 101), block)
        assert _plan.cache_info().hits == 1
        assert _plan.cache_info().currsize == 1


class TestRecordWithNoModulus:
    """A row read as residues needs a modulus; residue_sequence() says so."""

    ROW = ResidueSequence([1, 2, 3, 4])

    @pytest.mark.parametrize("use", [
        lambda s: orthogonality_report(s),
        lambda s: forward_transform(s, [0] * 8),
        lambda s: inverse_transform(s, [0] * 8, 1),
        lambda s: circular_autocorr(s),
        lambda s: pair_table([s, s]),
        lambda s: resolve_convention([s, s], {(1, 2): Fraction(1, 2)}),
    ], ids=["orthogonality_report", "forward_transform", "inverse_transform",
            "circular_autocorr", "pair_table", "resolve_convention"])
    def test_public_functions_raise_invalid_modulus(self, use):
        with pytest.raises(InvalidModulusError, match="has no modulus"):
            use(self.ROW)


class TestOrthogonalityReport:
    def test_example_rows(self):
        identity = {1: True, 2: True, 3: False, 4: False, 5: False, 6: False}
        for i, flag in identity.items():
            rep = orthogonality_report(
                fixture(f"example{i}").residue_sequence()
            )
            assert rep.is_self_orthogonal
            assert (rep.diagonal_residue == 1) is flag
            assert rep.offending_lags() == []
            assert rep.normalizer is not None

    def test_corrupted_row_reports_offenders(self):
        sf = fixture("example4")
        values = list(sf.values)
        values[3] += 1
        rep = orthogonality_report(ResidueSequence(values, sf.modulus))
        assert not rep.is_self_orthogonal
        offenders = rep.offending_lags()
        assert offenders
        assert all(rep.offdiag_residues[k - 1] == r for k, r in offenders)

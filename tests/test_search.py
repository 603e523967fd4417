"""Doubling chains, candidate evaluation, seed search."""

import io
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nht import core, modmath, search
from nht.cli import run_command
from nht.core import ResidueSequence, _chain_gram
from nht.errors import InvalidGeneratorError
from nht.modmath import is_prime
from nht.search import doubling_chain, evaluate_candidate, search_seeds
from oracles import fixture, kernel_gram

REFERENCE_ROWS = {2: ("example4", 331), 3: ("example3", 3121),
             11: ("example5", 47), 13: ("example6", 1987)}


class TestDoublingChain:
    def test_default_start(self):
        assert doubling_chain(7, 6).values == (7, 2, 4, 8, 16, 32)

    def test_custom_start(self):
        assert doubling_chain(5, 4, start=3).values == (5, 3, 6, 12)

    def test_length_too_short(self):
        with pytest.raises(InvalidGeneratorError):
            doubling_chain(7, 1)

    def test_seed_too_small(self):
        with pytest.raises(InvalidGeneratorError):
            doubling_chain(1, 4)

    def test_start_too_small(self):
        with pytest.raises(InvalidGeneratorError):
            doubling_chain(7, 4, start=0)


def _chain_t(seed, n, start):
    """T = a * (6s + a * (2^n - 4)), with S(k) = (2^k + 2^(n-k)) * T / 12."""
    return start * (6 * seed + start * (2**n - 4))


class TestChainGram:
    @given(st.integers(2, 2**64), st.integers(2, 130), st.integers(1, 2**64))
    @example(2, 2, 1)
    @example(2**64, 2, 2**64)
    @example(7, 3, 2)
    @example(2**64, 3, 2**64)
    @settings(deadline=None, max_examples=200)
    def test_closed_form_matches_kernel(self, seed, n, start):
        gram = _chain_gram(seed, n, start)
        chain = doubling_chain(seed, n, start)
        assert gram == kernel_gram(chain) == core.gram_lag_sums(chain)
        t = _chain_t(seed, n, start)
        for k, lag_sum in enumerate(gram.lag_sums, 1):
            x = 2**k + 2 ** (n - k)
            assert x * t % 12 == 0
            assert lag_sum == x * t // 12

    @pytest.mark.parametrize("n", [2, 3])
    def test_shortest_chains(self, n):
        # [s, a] has S(1) = 2as; [s, a, 2a] has S(1) = S(2) = 3as + 2a^2.
        seed, start = 11, 5
        lag = {2: 2 * start * seed, 3: 3 * start * seed + 2 * start**2}[n]
        assert _chain_gram(seed, n, start).lag_sums == (lag,) * (n - 1)

    @given(st.integers(2, 2**64), st.integers(2, 130), st.integers(1, 2**64))
    @example(5, 2, 3)
    @example(5, 3, 3)
    @settings(deadline=None, max_examples=200)
    def test_gcd_is_u_n_times_t_over_12(self, seed, n, start):
        # gcd of 2^k + 2^(n-k) over k = 1..n-1: 4 at n = 2, 6 at odd n
        # (3 divides 1 + 2^odd), 2 at even n >= 4 (lag 1 has one factor 2).
        u = 4 if n == 2 else 6 if n % 2 else 2
        chain = doubling_chain(seed, n, start)
        assert u * _chain_t(seed, n, start) // 12 == core.discover_modulus(
            kernel_gram(chain))


class TestEvaluateCandidate:
    def test_chains_regenerate_bundled_rows(self):
        for seed, (fixture_name, modulus) in REFERENCE_ROWS.items():
            cand = evaluate_candidate(doubling_chain(seed, 16), prime_only=True)
            target = fixture(fixture_name)
            assert cand.valid
            assert cand.modulus == modulus
            assert cand.modulus_is_prime
            assert cand.reduced.values == target.values
            assert cand.gcd == 43688 + 2 * seed

    def test_without_prime_only_the_gcd_is_the_modulus(self):
        cand = evaluate_candidate(doubling_chain(2, 16))
        assert cand.valid
        assert cand.modulus == cand.gcd == 43692
        assert not cand.modulus_is_prime
        assert cand.normalizer is None

    def test_integer_orthogonal_input(self):
        cand = evaluate_candidate([1, 0])
        assert not cand.valid
        assert cand.gcd == 0 and cand.modulus == 0
        assert "orthogonal over the integers" in cand.diagnostic
        assert cand.reduced is None

    def test_gcd_one_input(self):
        cand = evaluate_candidate([1, 1, 0])
        assert not cand.valid
        assert cand.gcd == 1 and cand.modulus == 1
        assert "gcd 1" in cand.diagnostic

    def test_twelve_point_walkthrough(self):
        cand = evaluate_candidate(doubling_chain(7, 6))
        assert cand.valid
        assert cand.gcd == 54
        assert cand.diagonal_residue == 9
        assert cand.normalizer is None  # 54 is composite
        narrowed = evaluate_candidate(doubling_chain(7, 6), prime_only=True)
        assert narrowed.modulus == 3
        assert narrowed.reduced.values == (1, 2, 1, 2, 1, 2)
        assert narrowed.diagonal_residue == 0
        assert narrowed.normalizer is None

    def test_modulus_not_dividing_every_lag_sum_is_invalid(self, monkeypatch):
        # Lag sums of this chain are 918, 540, 432, 540, 918; 5 misses lags 1, 3, 5.
        monkeypatch.setattr(search, "largest_prime_factor", lambda g: 5)
        cand = evaluate_candidate(doubling_chain(7, 6), prime_only=True)
        assert not cand.valid
        assert cand.gcd == 54 and cand.modulus == 5
        assert cand.modulus_is_prime
        assert cand.diagnostic == "lag sums [1, 3, 5] not divisible by 5"
        assert cand.diagonal_residue is None and cand.normalizer is None
        assert cand.reduced is None

    def test_generalized_chain_regenerates_example2(self):
        cand = evaluate_candidate(
            doubling_chain(12747, 16, start=3642), prime_only=True
        )
        assert cand.gcd == 144917623782
        assert cand.modulus == 21851
        assert cand.reduced.values == fixture("example2").values

    @given(st.lists(st.integers(0, 2**12), min_size=2, max_size=10).filter(any))
    @settings(deadline=None)
    def test_valid_candidates_are_reverified(self, values):
        from nht.core import gram_lag_sums

        cand = evaluate_candidate(values)
        if cand.valid:
            assert cand.modulus >= 2
            lag_sums = gram_lag_sums(values).lag_sums
            assert all(s % cand.modulus == 0 for s in lag_sums)
            assert cand.reduced.modulus == cand.modulus
            assert cand.diagonal_residue == sum(
                v * v for v in values
            ) % cand.modulus
        else:
            assert cand.gcd in (0, 1)
            assert cand.diagnostic

    @given(st.integers(2, 50), st.integers(2, 10), st.integers(1, 20))
    @settings(deadline=None)
    def test_prime_only_yields_prime_modulus(self, seed, n, start):
        cand = evaluate_candidate(doubling_chain(seed, n, start), prime_only=True)
        if cand.valid:
            assert is_prime(cand.modulus)
            assert cand.gcd % cand.modulus == 0


class TestSearchSeeds:
    def test_reference_seed_set(self):
        report = search_seeds([2, 3, 11, 13], 16, prime_only=True)
        assert [c.seed for c in report.candidates] == [2, 3, 11, 13]
        assert [c.modulus for c in report.candidates] == [331, 3121, 47, 1987]
        assert report.rejected == ()

    def test_non_prime_seed_rejected_processing_continues(self):
        report = search_seeds([2, 4, 9, 13], 16)
        assert [c.seed for c in report.candidates] == [2, 13]
        assert [seed for seed, _ in report.rejected] == [4, 9]
        assert all("not prime" in reason for _, reason in report.rejected)

    def test_only_non_prime_seed_gives_empty_result(self):
        report = search_seeds([4], 16)
        assert report.candidates == ()
        assert report.rejected == ((4, "seed 4 is not prime"),)

    @pytest.mark.parametrize("n, start", [(1, 2), (16, 0)])
    def test_chain_arguments_checked_before_any_seed(self, n, start):
        # 4 is not prime, so a check made per chain would never run.
        with pytest.raises(InvalidGeneratorError):
            search_seeds([4], n, start=start)

    def test_input_order_does_not_matter(self):
        a = search_seeds([13, 2, 3, 11], 16, prime_only=True)
        b = search_seeds([2, 3, 11, 13], 16, prime_only=True)
        assert a == b

    @given(
        st.sets(st.integers(2, 400), min_size=1, max_size=4),
        st.integers(2, 40),
        st.integers(1, 64),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    def test_candidates_match_the_kernel_path(self, seeds, n, start, prime_only):
        report = search_seeds(seeds, n, prime_only=prime_only, start=start)
        primes = sorted(s for s in seeds if is_prime(s))
        with mock.patch.object(search, "gram_lag_sums", kernel_gram):
            expected = tuple(
                evaluate_candidate(doubling_chain(s, n, start), prime_only) for s in primes
            )
        assert report.candidates == expected

    def test_search_uses_the_closed_form_not_the_kernel(self, monkeypatch):
        def no_kernel(a, b):
            raise AssertionError("cyclic_correlate called")

        expected = search_seeds([2, 3, 11, 13], 16, prime_only=True)
        monkeypatch.setattr(core, "cyclic_correlate", no_kernel)
        assert search_seeds([2, 3, 11, 13], 16, prime_only=True) == expected

    def test_each_prime_seed_is_evaluated_once(self, monkeypatch):
        evaluated = []

        def counting(raw, prime_only=False):
            evaluated.append(raw.values[0])
            return evaluate_candidate(raw, prime_only)

        monkeypatch.setattr(search, "evaluate_candidate", counting)
        report = search_seeds([2, 4, 3, 9, 13], 16)
        assert evaluated == [2, 3, 13] == [c.seed for c in report.candidates]

    @given(
        st.sets(st.integers(2, 200), min_size=1, max_size=4),
        st.integers(2, 79),
        st.integers(1, 39),
        st.booleans(),
    )
    @example({2, 3, 5, 7}, 2, 1, False)
    @example({197, 199}, 79, 39, True)
    @settings(deadline=None, max_examples=60)
    def test_chain_rows_are_valid_by_construction(self, seeds, n, start, prime_only):
        # A chain's gcd is u_n * T / 12 >= 2 (every 2^k + 2^(n-k) is even
        # and T >= 6s >= 12), and a modulus dividing it zeroes every lag.
        report = search_seeds(seeds, n, prime_only=prime_only, start=start)
        assert all(c.valid for c in report.candidates)
        assert search_seeds(seeds, n, prime_only=prime_only, start=start,
                            include_invalid=False) == report

    def test_valid_only_filter(self):
        full = search_seeds([2, 3], 16)
        filtered = search_seeds([2, 3], 16, include_invalid=False)
        assert filtered.candidates == tuple(
            c for c in full.candidates if c.valid
        )


class TestOnePrimalityTestPerModulus:
    """Each modulus goes through is_prime at most once per verdict."""

    @pytest.fixture
    def tested(self, monkeypatch):
        seen = []

        def counting(n):
            seen.append(n)
            return is_prime(n)

        for module in (core, search, modmath):
            monkeypatch.setattr(module, "is_prime", counting)
        return seen

    def test_prime_only_candidate(self, tested):
        c = evaluate_candidate(doubling_chain(2, 16), prime_only=True)
        assert (c.modulus, c.modulus_is_prime, c.normalizer) == (331, True, 166)
        assert tested.count(331) == 1

    def test_candidate_with_prime_gcd(self, tested):
        # S(1) = S(2) = 1 + 3 + 3 = 7, diagonal 11 = 4 mod 7.
        c = evaluate_candidate([1, 1, 3])
        assert (c.gcd, c.modulus_is_prime, c.diagonal_residue) == (7, True, 4)
        assert c.normalizer == 4
        assert tested.count(7) == 1

    def test_candidate_with_composite_gcd(self, tested):
        c = evaluate_candidate(doubling_chain(2, 16))
        assert not c.modulus_is_prime and c.normalizer is None
        assert tested.count(c.modulus) == 1

    def test_non_orthogonal_row_is_not_tested(self, tested):
        # S(1) = S(2) = 8 = 1 mod 7; r = 9 = 2 mod 7, a square (3^2).
        report = core.orthogonality_report(ResidueSequence([1, 2, 2], 7))
        assert not report.is_self_orthogonal and report.diagonal_residue == 2
        assert report.normalizer is None
        assert tested == []

    def test_normalizer_and_verify(self, tested):
        assert core.normalizer(4, 331) == 166
        assert tested.count(331) == 1
        report = run_command(["verify", "example4"], io.StringIO(), io.StringIO())
        assert report.exit_status == 0
        assert tested.count(331) == 2

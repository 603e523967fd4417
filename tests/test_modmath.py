"""Modular arithmetic helpers against brute-force references."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nht import modmath
from nht.core import discover_modulus, gram_lag_sums
from nht.errors import CompositeModulusError, InvalidModulusError, NHTError, NonInvertibleError
from nht.modmath import (
    factorize,
    is_prime,
    largest_prime_factor,
    mod_inverse,
    sqrt_mod_prime,
)
from nht.search import doubling_chain

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 47, 331, 1987, 3121, 7283, 21851]


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _trial_division_factors(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


_PRIMES_TO_4200 = [p for p in range(2, 4200) if _trial_division_prime(p)]


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


_P20, _P21, _P40 = (_next_prime(2**b) for b in (20, 21, 40))


# The least strong pseudoprime to the first k primes (OEIS A014233), for
# each k where the next tier of is_prime begins: each passes every
# witness of the tier below it.
_TIER_PSEUDOPRIMES = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
}
_PRIMES_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, witnesses) -> bool:
    """Miller-Rabin on odd n > 41 with every given witness."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestIsPrime:
    def test_matches_trial_division_below_two_hundred_thousand(self):
        divisors = [d for d in range(2, 448) if _trial_division_prime(d)]
        for n in range(200_000):
            prime = n >= 2 and all(n % d for d in divisors if d * d <= n)
            assert is_prime(n) == prime, n

    def test_fixture_moduli_are_prime(self):
        for q in (7283, 21851, 3121, 331, 47, 1987):
            assert is_prime(q)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))

    @pytest.mark.parametrize("k, n", _TIER_PSEUDOPRIMES.items())
    def test_tier_pseudoprimes_rejected(self, k, n):
        assert _strong_probable_prime(n, _PRIMES_TO_41[:k])
        assert not _strong_probable_prime(n, _PRIMES_TO_41)
        assert not is_prime(n)

    def test_twelve_witness_pseudoprime_factors(self):
        n = 318_665_857_834_031_151_167_461
        assert n < modmath.DETERMINISTIC_PRIMALITY_BOUND
        assert factorize(n) == {399_165_290_221: 1, 798_330_580_441: 1}

    @given(
        st.one_of(
            *(
                st.integers(lo, hi - 1)
                for lo, hi in zip(
                    [42, *_TIER_PSEUDOPRIMES.values()],
                    [*_TIER_PSEUDOPRIMES.values(), modmath.DETERMINISTIC_PRIMALITY_BOUND],
                )
            ),
            st.integers(modmath.DETERMINISTIC_PRIMALITY_BOUND, 2**128),
        )
    )
    @settings(deadline=None, max_examples=300)
    def test_tiers_agree_with_all_thirteen_witnesses(self, start):
        # Numbers with a factor up to 41 never reach the witnesses.
        for n in range(start, start + 200):
            if math.gcd(n, math.prod(_PRIMES_TO_41)) == 1:
                assert is_prime(n) == _strong_probable_prime(n, _PRIMES_TO_41), n


class TestModInverse:
    @given(st.integers(1, 10**6), st.sampled_from(SMALL_PRIMES))
    @settings(deadline=None)
    def test_inverse_property(self, a, q):
        if a % q == 0:
            with pytest.raises(NonInvertibleError):
                mod_inverse(a, q)
        else:
            inv = mod_inverse(a, q)
            assert 0 <= inv < q
            assert a * inv % q == 1

    def test_half_of_331(self):
        assert mod_inverse(2, 331) == 166

    def test_non_coprime(self):
        with pytest.raises(NonInvertibleError):
            mod_inverse(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            mod_inverse(3, 1)


class TestSqrtModPrime:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 17, 47, 331, 3121])
    def test_against_square_enumeration(self, q):
        squares = {}
        for x in range(q):
            squares.setdefault(x * x % q, set()).add(x)
        for a in range(q):
            roots = sqrt_mod_prime(a, q)
            if a in squares:
                assert roots is not None
                assert set(roots) == squares[a]
                assert roots[0] <= roots[1]
            else:
                assert roots is None

    def test_known_roots(self):
        assert sqrt_mod_prime(4, 331) == (2, 329)
        assert sqrt_mod_prime(16, 3121) == (4, 3117)
        assert sqrt_mod_prime(24, 47) == (20, 27)
        assert sqrt_mod_prime(576, 1987) == (24, 1963)

    def test_non_residue(self):
        assert sqrt_mod_prime(3, 7) is None

    def test_zero(self):
        assert sqrt_mod_prime(0, 13) == (0, 0)

    def test_composite_modulus_rejected(self):
        with pytest.raises(CompositeModulusError):
            sqrt_mod_prime(4, 15)

    @given(st.sampled_from([13, 17, 331, 1987, 3121]), st.integers(1, 10**9))
    @settings(deadline=None)
    def test_roots_square_back(self, q, x):
        a = x * x % q
        roots = sqrt_mod_prime(a, q)
        assert roots is not None
        assert all(r * r % q == a for r in roots)


class TestFactorize:
    def test_chain_gcds(self):
        assert factorize(43692) == {2: 2, 3: 1, 11: 1, 331: 1}
        assert factorize(43694) == {2: 1, 7: 1, 3121: 1}
        assert factorize(43710) == {2: 1, 3: 1, 5: 1, 31: 1, 47: 1}
        assert factorize(43714) == {2: 1, 11: 1, 1987: 1}
        assert factorize(54) == {2: 1, 3: 3}

    def test_one_is_empty(self):
        assert factorize(1) == {}

    def test_zero_rejected(self):
        with pytest.raises(NHTError):
            factorize(0)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q) == {p: 1, q: 1}

    # gcds of the lag sums of n=64 doubling chains: prime factors beyond
    # 10^6, and gcds with two large prime factors.
    @pytest.mark.parametrize("seed, gcd, factors", [
        (3001, 12297829382473040410, {2: 1, 5: 1, 47: 1, 463: 1, 56513162917481: 1}),
        (3049, 12297829382473040506, {2: 1, 4536619: 1, 1355395877687: 1}),
        (3137, 12297829382473040682, {2: 1, 3: 1, 19: 1, 312560539: 1, 345135367: 1}),
        (3169, 12297829382473040746, {2: 1, 586960571: 1, 10475856463: 1}),
    ])
    def test_n64_chain_gcds(self, seed, gcd, factors):
        assert discover_modulus(gram_lag_sums(doubling_chain(seed, 64))) == gcd
        assert factorize(gcd) == factors

    @pytest.mark.parametrize("p", [41, 43, 47, 53, 1_000_003])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_prime_powers_above_small_primes(self, p, k):
        assert factorize(p**k) == {p: k}
        assert factorize(2**3 * 37 * p**k) == {2: 3, 37: 1, p: k}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_prime_power_splits_without_rho(self, monkeypatch, k):
        def no_rho(n):
            raise AssertionError(f"Brent rho called on {n}")

        monkeypatch.setattr(modmath, "_brent_rho", no_rho)
        assert factorize(_P40**k) == {_P40: k}

    @pytest.mark.parametrize(
        "x, factors, rho_calls",
        [
            # rho splits off q, the least prime above the small-prime
            # split; the p**2 left over is a perfect power.
            (_P40**2 * 4099, {4099: 1, _P40: 2}, [_P40**2 * 4099]),
            # A composite root is split once, not once per copy. (p*q)**6
            # is first seen as a square, then its root as a cube.
            *(
                ((_P20 * _P21) ** k, {_P20: k, _P21: k}, [_P20 * _P21])
                for k in (2, 3, 6)
            ),
        ],
        ids=["p^2*q", "(pq)^2", "(pq)^3", "(pq)^6"],
    )
    def test_perfect_power_leaves_one_rho_split(
        self, monkeypatch, x, factors, rho_calls
    ):
        rho = modmath._brent_rho
        calls = []

        def counting_rho(n):
            calls.append(n)
            return rho(n)

        monkeypatch.setattr(modmath, "_brent_rho", counting_rho)
        assert factorize(x) == factors
        assert calls == rho_calls

    @pytest.mark.parametrize("x, factors", [
        (_P40**2 * 1009, {1009: 1, _P40: 2}),
        (_P40 * 4093**2, {4093: 2, _P40: 1}),
    ])
    def test_factor_below_split_bound_splits_without_rho(self, monkeypatch, x, factors):
        def no_rho(n):
            raise AssertionError(f"Brent rho called on {n}")

        monkeypatch.setattr(modmath, "_brent_rho", no_rho)
        assert factorize(x) == factors

    @pytest.mark.parametrize("x, factors", [
        (43 * 47 * 53, {43: 1, 47: 1, 53: 1}),
        (4091 * 4093, {4091: 1, 4093: 1}),
        (_P40 * 1009**2, {1009: 2, _P40: 1}),
        (_P20 * _P21 * 4093 * 4099**3, {4093: 1, 4099: 3, _P20: 1, _P21: 1}),
    ])
    def test_roots_are_tried_only_above_split_bound(self, monkeypatch, x, factors):
        # _perfect_power's k <= bits // 12 needs a root of at least 4099.
        perfect_power = modmath._perfect_power
        small = math.prod(p for p in _PRIMES_TO_4200 if p < 4096)

        def checked(m):
            assert math.gcd(m, small) == 1, m
            return perfect_power(m)

        monkeypatch.setattr(modmath, "_perfect_power", checked)
        assert factorize(x) == factors

    def test_small_prime_product(self):
        product = modmath._small_prime_product()
        assert product.bit_length() == 5763
        assert product == math.prod(p for p in _PRIMES_TO_4200 if 43 <= p < 4096)

    @pytest.mark.parametrize("x", [
        4093, 4099, 4093**2, 4099**2, 43 * 4093, 4093 * 4099, 4091 * 4093,
        43**5 * 4093**3 * 4099**2,
        math.prod(range(2, 60)),
        math.prod(p for p in _PRIMES_TO_4200 if p < 600),
        math.prod(p**2 for p in _PRIMES_TO_4200 if 43 <= p < 300),
        math.prod(p for p in _PRIMES_TO_4200 if p >= 3900),
    ])
    def test_near_split_bound_against_trial_division(self, x):
        assert factorize(x) == _trial_division_factors(x)

    @given(
        st.lists(st.sampled_from(_PRIMES_TO_4200), min_size=1, max_size=40),
        st.sampled_from([1, _P20, _P40, _P20 * _P21]),
    )
    @settings(deadline=None, max_examples=100)
    def test_products_of_many_small_primes(self, primes, large):
        expected = Counter(primes) + Counter(factorize(large))
        assert factorize(large * math.prod(primes)) == dict(sorted(expected.items()))

    def test_perfect_power_roots_stop_at_twelfth_of_the_bits(self, monkeypatch):
        tried = []
        iroot = modmath._iroot

        def counting_iroot(m, k):
            tried.append(k)
            return iroot(m, k)

        monkeypatch.setattr(modmath, "_iroot", counting_iroot)
        m = _P40 * _P21 * 4099  # 74 bits, no factor below 4096, not a power
        assert modmath._perfect_power(m) is None
        assert tried == [2, 3, 5]
        assert modmath._perfect_power(4099**7) == (4099, 7)

    @given(st.integers(1, 2**300), st.integers(2, 60), st.integers(-1, 1))
    @settings(deadline=None, max_examples=300)
    def test_integer_root_is_exact_at_powers(self, root, k, offset):
        m = max(1, root**k + offset)
        r = modmath._iroot(m, k)
        assert r**k <= m < (r + 1) ** k

    @given(st.data(), st.integers(3, 620), st.integers(-1, 1))
    @settings(deadline=None, max_examples=100)
    def test_integer_root_is_exact_at_3100_bits(self, data, k, offset):
        bits = 3100 // k
        root = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        m = root**k + offset
        r = modmath._iroot(m, k)
        assert r**k <= m < (r + 1) ** k

    @given(
        st.lists(
            st.one_of(st.integers(38, 10**4), st.integers(10**6, 10**8)).map(_next_prime),
            min_size=2, max_size=3,
        ),
        st.sampled_from([1, 2, 6, 2**5 * 37]),
    )
    @settings(deadline=None, max_examples=100)
    def test_products_of_primes_above_37(self, primes, small):
        expected = Counter(primes) + Counter(factorize(small))
        assert factorize(small * math.prod(primes)) == dict(sorted(expected.items()))

    @given(st.integers(2, 10**9))
    @settings(deadline=None, max_examples=200)
    def test_reconstructs_and_factors_prime(self, x):
        factors = factorize(x)
        product = 1
        for p, e in factors.items():
            assert is_prime(p)
            product *= p**e
        assert product == x

    def test_largest_prime_factor(self):
        assert largest_prime_factor(43692) == 331
        assert largest_prime_factor(144917623782) == 21851
        with pytest.raises(NHTError):
            largest_prime_factor(1)

"""Exact modular arithmetic: inverses, prime square roots, primality, factoring.

Everything here works on plain Python integers, so nothing ever wraps or
loses precision. All functions are deterministic: repeated calls with the
same arguments take the same path and return the same result.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (
    CompositeModulusError,
    InvalidModulusError,
    NonInvertibleError,
    NHTError,
)

# Miller-Rabin with all thirteen witnesses is a proven primality test for
# every n below this bound (about 2^81), itself the least strong
# pseudoprime to all of them. Larger inputs reuse the same fixed
# witnesses, which is deterministic in behavior but heuristic in proof,
# and chains of length 96 or more already yield larger moduli (88 bits
# and up).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, k): the first k witnesses prove every n below bound, the least
# strong pseudoprime to them (OEIS A014233; Jaeschke, Math. Comp. 1993;
# Sorenson and Webster, Math. Comp. 2017).
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
)


def _witness_count(n: int) -> int:
    for bound, k in _MR_TIERS:
        if n < bound:
            return k
    return len(_MR_WITNESSES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for all n below DETERMINISTIC_PRIMALITY_BOUND (about 3.3e24),
    using the first k of the witnesses 2..41, where k is the least count
    proven for n:

        n below                            witnesses
        2,047                              2
        1,373,653                          2, 3
        25,326,001                         2..5
        3,215,031,751                      2..7
        2,152,302,898,747                  2..11
        3,474,749,660,383                  2..13
        341,550,071,728,321                2..17
        3,825,123,056,546,413,051          2..23
        318,665,857,834,031,151,167,461    2..37
        3,317,044,064,679,887,385,961,981  2..41

    Larger n run all thirteen; see the module notes.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:_witness_count(n)]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q, in [0, q). Raises when gcd(a, q) != 1."""
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    try:
        return pow(a, -1, q)
    except ValueError:
        raise NonInvertibleError(f"{a} is not invertible mod {q}") from None


def sqrt_mod_prime(a: int, q: int) -> tuple[int, int] | None:
    """Both square roots of a modulo a prime q, or None for a non-residue.

    Returns (x, q - x) ordered smaller first. a = 0 yields (0, 0).
    Uses Tonelli-Shanks, with the direct exponent shortcut when
    q % 4 == 3.
    """
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    if not is_prime(q):
        raise CompositeModulusError(f"square roots require a prime modulus, got {q}")
    return _sqrt_mod_prime(a, q)


def _sqrt_mod_prime(a: int, q: int) -> tuple[int, int] | None:
    """sqrt_mod_prime for a q already known to be prime: no primality test."""
    a %= q
    if a == 0:
        return (0, 0)
    if q == 2:
        return (1, 1)
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        x = pow(a, (q + 1) // 4, q)
    else:
        # Tonelli-Shanks: write q - 1 = d * 2^s with d odd.
        d = q - 1
        s = 0
        while d % 2 == 0:
            d //= 2
            s += 1
        z = 2
        while pow(z, (q - 1) // 2, q) != q - 1:
            z += 1
        c = pow(z, d, q)
        x = pow(a, (d + 1) // 2, q)
        t = pow(a, d, q)
        m = s
        while t != 1:
            i = 0
            t2 = t
            while t2 != 1:
                t2 = t2 * t2 % q
                i += 1
            b = pow(c, 1 << (m - i - 1), q)
            x = x * b % q
            t = t * b * b % q
            c = b * b % q
            m = i
    return (x, q - x) if x <= q - x else (q - x, x)


# Cofactors left after 2..41 are divided out meet one gcd with the product
# of the primes 43..4093 (5,763 bits, about 5 us a gcd) before any root or
# rho step, so rho spends no steps on a factor below 4096 in a large cofactor.
_SPLIT_BOUND = 4096


@lru_cache(maxsize=1)
def _small_prime_product() -> int:
    """The product of the primes 43..4093, sieved on first use (about 0.45 ms),
    so that a process that never factors does not pay for it at import."""
    sieve = bytearray([1]) * _SPLIT_BOUND
    for p in range(2, math.isqrt(_SPLIT_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _SPLIT_BOUND, p)))
    return math.prod(p for p in range(_MR_WITNESSES[-1] + 1, _SPLIT_BOUND) if sieve[p])


def _brent_rho(n: int) -> int:
    # Brent's cycle variant of Pollard rho with fixed parameters, so the
    # factor found for a given n never varies between runs. n is an odd composite.
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise NHTError(f"failed to factor {n}")


def _iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1, exactly."""
    if k == 2:
        return math.isqrt(m)
    # 2 ** (log2(m) / k) in floating point is within a relative 2^-36 of
    # the root, so this r lies above it by at most a relative 2^-29 + 2.
    # Integer Newton steps from above fall monotonically to the floor, and
    # from that close each step about doubles the correct bits.
    t = math.log2(m) / k
    whole = int(t)
    r = int(2 ** (t - whole) * 2**53)
    r = r << (whole - 53) if whole >= 53 else r >> (53 - whole)
    r += (r >> 30) + 2
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(root, k) with root**k == m for the least prime k that has one, else None.

    m has no prime factor below _SPLIT_BOUND = 2^12, so a root is at
    least 4099 > 2^12 and k is at most m.bit_length() // 12.
    """
    for k in range(2, m.bit_length() // 12 + 1):
        if is_prime(k):
            root = _iroot(m, k)
            if root**k == m:
                return root, k
    return None


def factorize(x: int) -> dict[int, int]:
    """Exact prime factorization of x >= 1 as {prime: multiplicity}.

    x = 1 gives an empty map; x = 0 is undefined and raises. After the
    primes 2..41 are divided out, each cofactor either passes is_prime or
    takes one gcd d with the product of the primes 43..4093. A d strictly
    between 1 and the cofactor splits it in two. Otherwise a cofactor with
    d = 1 (no prime factor below 4096) may be a perfect power root**k
    (k prime), whose root is factored once and counted k times; what is
    left, including a cofactor equal to its d (squarefree, every factor
    below 4096), is split by Brent rho. There is no effort budget yet:
    rho's cost grows as the square root of the second largest prime
    factor, so gcds of chains with n >= 192 may not finish.
    """
    if x < 1:
        raise NHTError(f"factorization is undefined for {x}")
    factors: dict[int, int] = {}
    for p in _MR_WITNESSES:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    # (cofactor, how many times it divides x)
    stack = [(x, 1)]
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        d = math.gcd(m, _small_prime_product())
        if 1 < d < m:
            stack.append((d, e))
            stack.append((m // d, e))
            continue
        # A squarefree m (d == m) is no perfect power.
        power = None if d == m else _perfect_power(m)
        if power:
            root, k = power
            stack.append((root, e * k))
            continue
        g = _brent_rho(m)
        stack.append((g, e))
        stack.append((m // g, e))
    return dict(sorted(factors.items()))


def largest_prime_factor(x: int) -> int:
    """Largest prime dividing x, for x >= 2."""
    if x < 2:
        raise NHTError(f"no prime factor for {x}")
    return max(factorize(x))

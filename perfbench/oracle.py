"""Reference computations the benchmark checks the package against.

Each function is written from the definitions in the package docs, in
the plainest form: O(n^2) sums for the correlation kernels and the
transforms, trial division and brute-force square roots for the number
theory. None of it calls into `nht`, so a later kernel rewrite is
checked against the definition and not only against its own round trip
(an identity forward/inverse pair round-trips too).
"""

from __future__ import annotations

import math
from fractions import Fraction

# Deterministic Miller-Rabin witnesses: a proven test below 3.3e24,
# which covers every modulus the chain-search workload produces.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def crosscorr(a, b) -> list[int]:
    """S(k) = sum_m a[m] * b[(m + k) mod n] for k = 0..n-1."""
    n = len(a)
    return [sum(a[m] * b[(m + k) % n] for m in range(n)) for k in range(n)]


def lag_sums(v) -> list[int]:
    """S(0) (the Gram diagonal) followed by the circular lag sums S(1..n-1)."""
    return crosscorr(v, v)


def forward(v, q: int, block) -> list[int]:
    """G = N * F mod q, reading row i of N as the interleaved first row
    (v[0], 0, v[1], 0, ...) rotated right by i."""
    n = len(v)
    d = 2 * n
    return [sum(v[t] * block[(i + 2 * t) % d] for t in range(n)) % q for i in range(d)]


def inverse(v, q: int, block, r: int) -> list[int]:
    """F = r^-1 * N^T * G mod q."""
    n = len(v)
    d = 2 * n
    r_inv = pow(r, -1, q)
    return [
        r_inv * sum(v[t] * block[(i - 2 * t) % d] for t in range(n)) % q
        for i in range(d)
    ]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 1_000_000:
        return all(n % d for d in range(2, math.isqrt(n) + 1))
    if any(n % p == 0 for p in _WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
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


def largest_prime_factor(x: int) -> int:
    """By trial division; only for the small gcds of n=16 chains."""
    largest, d = 1, 2
    while d * d <= x:
        while x % d == 0:
            largest, x = d, x // d
        d += 1
    return max(largest, x)


def is_largest_prime_factor(p: int, x: int) -> bool:
    """True when p is prime, divides x, and no prime above p divides x.

    Trial-divides the cofactor x / p only by d <= p, stopping at
    sqrt of what is left, so the cost stays small whenever p is large.
    """
    if not is_prime(p) or x % p:
        return False
    c, d = x // p, 2
    while d <= p and d * d <= c:
        while c % d == 0:
            c //= d
        d += 1 if d == 2 else 2
    return c == 1 or c <= p


def normalizer(r: int, q: int) -> int | None:
    """w with w^2 * r == 1 (mod q), w the inverse of the smaller square
    root of r; None for composite q, r == 0, or a non-residue."""
    r %= q
    if r == 0 or not is_prime(q):
        return None
    if q > 2 and pow(r, (q - 1) // 2, q) != 1:
        return None
    root = next(x for x in range(1, q // 2 + 1) if x * x % q == r)
    return pow(root, -1, q)


def normalizer_ok(w: int | None, r: int, q: int) -> bool:
    """Check a normalizer by its defining property, without searching."""
    r %= q
    if r == 0 or not is_prime(q) or (q > 2 and pow(r, (q - 1) // 2, q) != 1):
        return w is None
    if w is None or w * w * r % q != 1:
        return False
    root = pow(w, -1, q)
    return root <= q - root


def residues(raw, n: int, q: int, convention: str) -> list[int] | None:
    """raw: S mod q; scaled: n^-1 * S mod q, or None when gcd(n, q) != 1."""
    if convention == "raw":
        return [s % q for s in raw]
    if math.gcd(n, q) != 1:
        return None
    scale = pow(n, -1, q)
    return [scale * s % q for s in raw]


def expectation(res, q: int) -> Fraction:
    return Fraction(sum(res), len(res) * q)


def expectation_text(e: Fraction) -> str:
    """Two decimals, rounded half up."""
    units = math.floor(e * 100 + Fraction(1, 2))
    return f"{units // 100}.{units % 100:02d}"


def doubling_chain(seed: int, n: int, start: int = 2) -> list[int]:
    return [seed] + [start << i for i in range(n - 1)]


def chain_gcd(values) -> int:
    return math.gcd(*lag_sums(values)[1:])

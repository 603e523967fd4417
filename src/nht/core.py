"""Exact orthogonality checks and block transforms of circulant generators.

A generator sequence g of length n defines a 2n x 2n circulant matrix N
whose first row interleaves the generator with zeros:

    g(0), 0, g(1), 0, ..., g(n-1), 0

and whose row i is the first row rotated right by i. N itself is never
built, because the Gram product N * N^T collapses to n distinct
integers: the diagonal value sum(g(j)^2) and, for each lag k in
1..n-1, the circular lag sum

    S(k) = sum_j g(j) * g((j + k) mod n).

Whenever a modulus q >= 2 divides every S(k), the matrix satisfies
N * N^T == r * I (mod q) with r = diagonal mod q, which is what makes
the forward/inverse block transforms below exact inverses of each other.
That verdict (off-diagonal residues, r, and the normalizer w when r != 0)
is computed in one place, _verdict, for both orthogonality_report and
the chain search.

The lag sums, the modular correlation series and both block transforms
are cyclic correlations, all computed by one exact kernel,
cyclic_correlate (one big-integer multiply by Kronecker substitution).
Its slots are the fewest whole bytes that hold every sum. Slots of at
most 8 bytes (every residue-sized input) are packed and unpacked through
8-byte struct lanes, a handful of C calls in place of one Python call per
value; wider slots (raw chain Grams) convert one value at a time. Slots
are not widened to 8 bytes, since the longer operands slow the multiply.
All arithmetic is on plain Python integers (no wraparound), and every
operation here is a pure function on immutable values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import (
    InvalidGeneratorError,
    InvalidModulusError,
    NonInvertibleError,
    ShapeError,
)
from .modmath import is_prime, mod_inverse, sqrt_mod_prime


@dataclass(frozen=True)
class GeneratorSequence:
    """Nonnegative integers, length >= 2, not all zero."""

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "values", tuple(values))
        if len(self.values) < 2:
            raise InvalidGeneratorError(
                f"need at least 2 values, got {len(self.values)}"
            )
        if any(v < 0 for v in self.values):
            raise InvalidGeneratorError("generator values must be nonnegative")
        if not any(self.values):
            raise InvalidGeneratorError("generator must have a nonzero value")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ResidueSequence:
    """A generator reduced modulo q: every value lies in [0, q)."""

    values: tuple[int, ...]
    modulus: int

    def __init__(self, values: Iterable[int], modulus: int):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "modulus", modulus)
        if modulus < 2:
            raise InvalidModulusError(f"modulus must be >= 2, got {modulus}")
        if len(self.values) < 2:
            raise InvalidGeneratorError(
                f"need at least 2 values, got {len(self.values)}"
            )
        bad = [v for v in self.values if not 0 <= v < modulus]
        if bad:
            raise InvalidGeneratorError(
                f"values {bad} out of range [0, {modulus})"
            )

    @property
    def n(self) -> int:
        return len(self.values)


def _values(seq) -> tuple[int, ...]:
    if isinstance(seq, (GeneratorSequence, ResidueSequence)):
        return seq.values
    return tuple(seq)


@dataclass(frozen=True)
class GramSummary:
    """The distinct entries of N * N^T: one diagonal, n-1 lag sums."""

    diagonal: int
    lag_sums: tuple[int, ...]


@dataclass(frozen=True)
class OrthogonalityReport:
    """Result of checking N * N^T == r * I modulo q for one sequence."""

    modulus: int
    diagonal_residue: int
    offdiag_residues: tuple[int, ...]
    normalizer: int | None

    def offending_lags(self) -> list[tuple[int, int]]:
        """(lag, residue) pairs where the off-diagonal residue is nonzero."""
        return [(k + 1, r) for k, r in enumerate(self.offdiag_residues) if r]

    @property
    def is_self_orthogonal(self) -> bool:
        return not any(self.offdiag_residues)


def _pack(values: Sequence[int], w: int) -> int:
    """values as one little-endian integer, w bytes per value (slot).

    Slots of at most 8 bytes go through one struct.pack into 8-byte lanes,
    whose low w bytes are then copied out with w strided slice assignments.
    """
    if w > 8:
        return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in values), "little")
    n = len(values)
    lanes = struct.pack(f"<{n}Q", *values)
    slots = bytearray(n * w)
    for k in range(w):
        slots[k::w] = lanes[k::8]
    return int.from_bytes(slots, "little")


def _unpack(data: bytes, w: int) -> list[int]:
    """The inverse of _pack on little-endian bytes: one int per w-byte slot."""
    if w > 8:
        return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]
    n = len(data) // w
    lanes = bytearray(8 * n)
    for k in range(w):
        lanes[k::8] = data[k::w]
    return list(struct.unpack(f"<{n}Q", lanes))


def cyclic_correlate(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c[k] = sum_m a[m] * b[(m + k) mod n] for k in 0..n-1, exactly.

    For equal-length nonnegative integer sequences. Kronecker substitution
    (Harvey, 2009): reversed(a) and b are packed into one integer each, w
    bytes per value, and multiplied once. A slot holds n * max(a) * max(b)
    and every input, so none carries: the top n slots plus the low n-1,
    moved up one slot, are the wrapped sums.

    w is the fewest whole bytes that fit, so residue-sized inputs get
    slots of at most 8 bytes and pack through struct lanes (see _pack);
    wider slots, such as raw chain Grams, pack one value at a time. w is
    not rounded up to 8: the longer operands make the multiply, which
    dominates at large n, over twice as slow.
    """
    n = len(a)
    if len(b) != n:
        raise ShapeError(f"length mismatch: {n} vs {len(b)}")
    ma, mb = max(a), max(b)
    w = (max(n * ma * mb, ma, mb).bit_length() + 7) // 8 or 1
    p, low = _pack(a[::-1], w) * _pack(b, w), 8 * w * (n - 1)
    c = ((p >> low) + ((p & ((1 << low) - 1)) << 8 * w)).to_bytes(n * w, "little")
    return _unpack(c, w)


def gram_lag_sums(g: GeneratorSequence | Sequence[int]) -> GramSummary:
    """Diagonal and circular lag sums of a generator, exactly.

    Equivalent to reading N * N^T off the full matrix product: the
    generator's cyclic self-correlation, whose lag 0 is the diagonal.
    """
    if not isinstance(g, GeneratorSequence):
        g = GeneratorSequence(_values(g))
    c = cyclic_correlate(g.values, g.values)
    return GramSummary(diagonal=c[0], lag_sums=tuple(c[1:]))


def discover_modulus(gram: GramSummary) -> int:
    """The gcd of all lag sums: the largest modulus killing every off-diagonal.

    Returns 0 when every lag sum is already 0 (orthogonal over the
    integers, no finite modulus needed) and 1 when no nontrivial modulus
    exists. Any divisor >= 2 of the result is a working modulus.
    """
    return reduce(math.gcd, gram.lag_sums, 0)


def normalizer(r: int, q: int) -> int | None:
    """The scale w with w^2 * r == 1 (mod q), when one exists.

    w is the inverse of the smaller square root of r. Requires prime q;
    composite q returns None (unsupported, reported rather than raised).
    Returns None when r is a quadratic non-residue. r == 0 mod q can
    never be normalized and raises.
    """
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    r %= q
    if r == 0:
        raise NonInvertibleError(f"diagonal residue 0 mod {q} has no normalizer")
    if not is_prime(q):
        return None
    roots = sqrt_mod_prime(r, q)
    if roots is None:
        return None
    return mod_inverse(roots[0], q)


def reduce_mod(seq, q: int) -> ResidueSequence:
    """Reduce each value mod q."""
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    return ResidueSequence((v % q for v in _values(seq)), q)


def _verdict(gram: GramSummary, q: int) -> OrthogonalityReport:
    """Reduce a Gram summary mod q: offdiag residues, r and its normalizer."""
    offdiag = tuple(v % q for v in gram.lag_sums)
    r = gram.diagonal % q
    return OrthogonalityReport(
        modulus=q,
        diagonal_residue=r,
        offdiag_residues=offdiag,
        normalizer=normalizer(r, q) if r else None,
    )


def orthogonality_report(s: ResidueSequence) -> OrthogonalityReport:
    """Check one residue sequence for self-orthogonality mod its modulus."""
    return _verdict(gram_lag_sums(s.values), s.modulus)


def _transform(s: ResidueSequence, block: Sequence[int], v: Sequence[int], scale: int):
    """scale * cyclic_correlate(v, half) mod q for each half of the block."""
    d = 2 * s.n
    if len(block) != d:
        raise ShapeError(f"block length {len(block)} != {d}")
    q = s.modulus
    f = [b % q for b in block]
    out = [0] * d
    for h in (0, 1):
        out[h::2] = [scale * x % q for x in cyclic_correlate(v, f[h::2])]
    return tuple(out)


def forward_transform(s: ResidueSequence, block: Sequence[int]) -> tuple[int, ...]:
    """G = N * F mod q for a block F of 2n values.

    Row i of N holds generator value t at column i + 2t (mod 2n), so the
    output is two cyclic correlations: v with the even and the odd half of F.
    """
    return _transform(s, block, s.values, 1)


def inverse_transform(
    s: ResidueSequence, block: Sequence[int], diagonal: int
) -> tuple[int, ...]:
    """F = r^-1 * N^T * G mod q; exact inverse of forward_transform.

    diagonal is the residue r with N * N^T == r * I (mod q); it must be
    invertible mod q or there is nothing to undo. N^T holds value t at
    column i - 2t: the forward correlations with the generator reversed.
    """
    v = s.values
    return _transform(s, block, v[:1] + v[:0:-1], mod_inverse(diagonal, s.modulus))

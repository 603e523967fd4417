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
That verdict (off-diagonal residues, r, and the normalizer w of a
self-orthogonal row with r != 0) is computed in one place, _verdict, for
both orthogonality_report and search.evaluate_candidate.

The Gram follows its input, in gram_lag_sums alone: a row of integers
shaped like a doubling chain, [s, a, 2a, ..., a * 2^(n-2)], has its lag
sums in closed form (_chain_gram). Any other row's lag sums, the modular
correlation series and both block transforms are cyclic correlations,
all computed by one exact kernel, cyclic_correlate (Kronecker
substitution: big-integer multiplies of the packed operands). Its slots
are the fewest whole bytes that hold every sum. Slots of at most 8 bytes
(every residue-sized input) are packed and unpacked through 8-byte
struct lanes, a handful of C calls in place of one Python call per
value; wider slots (wide moduli, raw rows of large values) convert one
value at a time. Slots are not widened to 8 bytes, since the longer
operands slow the multiply. Below _TWO_POINT_BYTES per packed operand
(the bundled n = 16 rows) the kernel multiplies once. From there up
(transforms at n = 512, verify of long rows of wide values) it uses
Harvey's multipoint Kronecker substitution: each operand is evaluated at
+2^(4w) and -2^(4w), and the two products, each of about half the bits,
give the even and the odd coefficients. The table beside that constant
shows where this starts to pay.

A transform packs the generator once per row: _plan, a bounded cache
keyed on the row, the direction and the scale, holds the slot width
(from q alone) and the packed generator, with the inverse's r^-1
already multiplied in. Each block half then costs one pack, the
multiplies and one reduction mod q.

Every row is one record, ResidueSequence: at least 2 nonnegative
values, and, when it carries a modulus (a raw generator carries none),
a modulus >= 2 with every value below it. Its __init__ is the only place
those rules are checked; a sequence file adds only its format's own
(keys, integers, n against the count, the name, the modulus width; see
seqio). That a generator is not all zero is a rule of the Gram
(_generator), so an all-zero row with no modulus still loads.

All arithmetic is on plain Python integers (no wraparound), and every
operation here is a pure function on immutable values.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InvalidGeneratorError,
    InvalidModulusError,
    NonInvertibleError,
    ShapeError,
)
from .modmath import _sqrt_mod_prime, is_prime, mod_inverse


class ResidueSequence:
    """A row of at least 2 nonnegative integers, with the modulus it is
    read under (None for a raw generator) and an optional name.

    With a modulus, it is at least 2 and every value lies below it.
    Immutable; equality, hashing, repr and pickling go by the three fields.
    """

    __slots__ = ("values", "modulus", "name")

    def __init__(self, values: Iterable[int], modulus: int | None = None,
                 name: str | None = None):
        # The modulus first, before values (reduce_mod's v % q) are read.
        if modulus is not None and modulus < 2:
            raise InvalidModulusError(f"modulus must be >= 2, got {modulus}")
        values = tuple(values)
        for field, value in zip(self.__slots__, (values, modulus, name)):
            object.__setattr__(self, field, value)
        if len(values) < 2:
            raise InvalidGeneratorError(f"need at least 2 values, got {len(values)}")
        if min(values) < 0:
            raise InvalidGeneratorError("values must be nonnegative")
        if modulus is not None and max(values) >= modulus:
            bad = [v for v in values if v >= modulus]
            raise InvalidGeneratorError(f"values {bad} not below modulus {modulus}")

    @property
    def n(self) -> int:
        return len(self.values)

    def residue_sequence(self) -> ResidueSequence:
        """This record, which must carry a modulus to be read as residues."""
        if self.modulus is None:
            raise InvalidModulusError(f"sequence {self.name!r} has no modulus")
        return self

    def _key(self) -> tuple:
        return self.values, self.modulus, self.name

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ResidueSequence) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ResidueSequence(values={self.values!r}, "
                f"modulus={self.modulus!r}, name={self.name!r})")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ResidueSequence, self._key()


def _values(seq) -> tuple[int, ...]:
    return seq.values if isinstance(seq, ResidueSequence) else tuple(seq)


def _generator(g) -> ResidueSequence:
    """g as a record with a nonzero value: an all-zero row's Gram is all
    zero, so no modulus is discovered from it."""
    if not isinstance(g, ResidueSequence):
        g = ResidueSequence(g)
    if not any(g.values):
        raise InvalidGeneratorError("generator must have a nonzero value")
    return g


class GramSummary(NamedTuple):
    """The distinct entries of N * N^T: one diagonal, n-1 lag sums."""

    diagonal: int
    lag_sums: tuple[int, ...]


class OrthogonalityReport(NamedTuple):
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
    try:
        if w > 8:
            return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in values), "little")
        lanes = struct.pack(f"<{len(values)}Q", *values)
    except (struct.error, OverflowError, AttributeError):
        # w fits every value, so one that fails to pack is negative or not
        # an integer (struct refuses it, or it has no to_bytes).
        raise InvalidGeneratorError("correlated values must be nonnegative integers") from None
    n = len(values)
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


# cyclic_correlate multiplies once while an operand packs into fewer bytes
# (n * w) than this, and evaluates at two points from it up. Two-point time
# over one-multiply time, median of 11, random operands with w-byte slots,
# Python 3.11.7 on 2 vCPUs:
#
#      n    w=3   w=5   w=8  w=16  w=32  w=64
#     16   1.98  1.80  1.77  1.13  1.07  0.92
#     64   1.41  1.41  1.31  0.85  0.81  0.79
#    256   0.98  0.89  0.76  0.82  0.76  0.68
#    512   0.97  0.80  0.78  0.74  0.74  0.72
#   1024   0.74  0.76  0.70  0.71  0.70  0.70
#   4096   0.77  0.74  0.70  0.66  0.66  0.72
#
# Every cell under 768 bytes is slower. A second sweep at fixed n * w found
# 1.16 at n = 128, w = 8 (1,024 bytes) and nothing above 0.94 from 1,536
# bytes up, so two points start there.
_TWO_POINT_BYTES = 1536


def _evaluations(values: Sequence[int], w: int) -> tuple[int, ...]:
    """The packed forms of values that _correlate multiplies.

    Below the crossover, one integer: values in w-byte slots. From it up,
    the two-point evaluations E + X*O and E - X*O, where E and O pack the
    even- and odd-indexed values in w-byte slots and X = 2^(4w) is half a
    slot, so each is about half as long as the one-integer form.
    """
    if len(values) * w < _TWO_POINT_BYTES:
        return (_pack(values, w),)
    e, o = _pack(values[0::2], w), _pack(values[1::2], w) << 4 * w
    return e + o, e - o


def _correlate(ra: tuple[int, ...], b: tuple[int, ...], n: int, w: int) -> list[int]:
    """The cyclic correlation of a and b from _evaluations of reversed(a) and b.

    The product P of the packed operands has linear coefficients P[t], and
    c[k] = P[n-1+k] + P[k-1]: the top n slots plus the low n-1, moved up one
    slot. With two evaluations, P(X) + P(-X) = 2 * Pe and
    P(X) - P(-X) = 2X * Po, where Pe and Po hold the even and the odd
    coefficients in w-byte slots, so each parity of c folds from them.
    """
    bits = 8 * w
    if len(ra) == 1:
        p, low = ra[0] * b[0], bits * (n - 1)
        c = (p >> low) + ((p & ((1 << low) - 1)) << bits)
        return _unpack(c.to_bytes(n * w, "little"), w)
    plus, minus = ra[0] * b[0], ra[1] * b[1]
    pe, po = (plus + minus) >> 1, (plus - minus) >> (4 * w + 1)
    # Even k = 2j take P[n-1+2j], of n-1's parity, and Po[j-1]; odd k = 2j+1
    # take P[n+2j], of n's parity, and Pe[j].
    ne, no = (n + 1) // 2, n // 2
    top_e, top_o = (pe, po) if n % 2 else (po, pe)
    ce = (top_e >> bits * (ne - 1)) + ((po & ((1 << bits * (ne - 1)) - 1)) << bits)
    co = (top_o >> bits * no) + (pe & ((1 << bits * no) - 1))
    out = [0] * n
    out[0::2] = _unpack(ce.to_bytes(ne * w, "little"), w)
    out[1::2] = _unpack(co.to_bytes(no * w, "little"), w)
    return out


def cyclic_correlate(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c[k] = sum_m a[m] * b[(m + k) mod n] for k in 0..n-1, exactly.

    For equal-length, nonempty, nonnegative integer sequences; any other
    value raises InvalidGeneratorError, found where it fails to size or
    pack rather than by a check per value. Kronecker
    substitution (Harvey, 2009): reversed(a) and b are packed w bytes per
    value. A slot holds n * max(a) * max(b) and every input, so none
    carries. Below _TWO_POINT_BYTES per operand the two packed integers
    are multiplied once; from there up, Harvey's multipoint variant
    multiplies their evaluations at +X and -X, two multiplies of half the
    length, which is cheaper once the multiply dominates (see _correlate).

    w is the fewest whole bytes that fit, so residue-sized inputs get
    slots of at most 8 bytes and pack through struct lanes (see _pack);
    wider slots, such as wide moduli, pack one value at a time. w is
    not rounded up to 8: the longer operands make the multiply, which
    dominates at large n, over twice as slow.
    """
    n = len(a)
    if len(b) != n:
        raise ShapeError(f"length mismatch: {n} vs {len(b)}")
    if not n:
        raise ShapeError("cannot correlate empty sequences")
    ma, mb = max(a), max(b)
    try:
        w = (max(n * ma * mb, ma, mb).bit_length() + 7) // 8 or 1
    except AttributeError:
        # A maximum that is no integer (a float, a Fraction) has no bit_length.
        raise InvalidGeneratorError("correlated values must be nonnegative integers") from None
    return _correlate(_evaluations(a[::-1], w), _evaluations(b, w), n, w)


def gram_lag_sums(g: ResidueSequence | Sequence[int]) -> GramSummary:
    """Diagonal and circular lag sums of a generator, exactly.

    Equivalent to reading N * N^T off the full matrix product: the
    generator's cyclic self-correlation, whose lag 0 is the diagonal.
    The values pick the method: integers shaped [s, a, 2a, ..., a *
    2^(n-2)] (every doubling chain, every 2-value row) take the closed
    form, _chain_gram; any other row takes the kernel. The first and
    last values must be ints by type, and (2).__mul__ gives
    NotImplemented for any value between that is no integer, so a row
    holding a float or a Fraction fails the shape test and the kernel
    refuses it.
    """
    v = _generator(g).values
    if type(v[0]) is type(v[-1]) is int and v[2:] == tuple(map((2).__mul__, v[1:-1])):
        return _chain_gram(v[0], len(v), v[1])
    c = cyclic_correlate(v, v)
    return GramSummary(c[0], tuple(c[1:]))


def _chain_gram(seed: int, n: int, start: int) -> GramSummary:
    """The Gram summary of [seed, start, 2*start, ..., start * 2^(n-2)],
    in closed form.

    Write s = seed, a = start and g = [s, a, 2a, ..., a * 2^(n-2)], so
    g(0) = s and g(j) = a * 2^(j-1) for j >= 1. For a lag k in 1..n-1,
    S(k) = sum_j g(j) * g((j + k) mod n) has three parts:

    - the two terms holding s, at j = 0 and j = n - k:
      s * a * (2^(k-1) + 2^(n-k-1)) = s * a * x(k) / 2,
      with x(k) = 2^k + 2^(n-k);
    - the unwrapped terms, j = 1..n-k-1, a geometric run of ratio 4:
      a^2 * 2^k * (4^(n-k-1) - 1) / 3;
    - the wrapped terms, j + k - n = i for i = 1..k-1, likewise:
      a^2 * 2^(n-k) * (4^(k-1) - 1) / 3.

    The last two add up to a^2 * x(k) * (2^(n-2) - 1) / 3, so

        S(k) = x(k) * T / 12,   T = a * (6s + a * (2^n - 4)),

    where each quotient is exact because S(k) is an integer. x(k) =
    x(n-k), so only half the lags are computed. The diagonal is s^2 plus
    one run of ratio 4: s^2 + a^2 * (4^(n-1) - 1) / 3.

    The kernel packs these wide values one at a time: it was about a
    quarter of a median n = 64 search (Python 3.11, 2 vCPUs).
    """
    t = start * (6 * seed + start * ((1 << n) - 4))
    half = [((t << k) + (t << (n - k))) // 12 for k in range(1, n // 2 + 1)]
    diagonal = seed * seed + start * start * ((1 << 2 * (n - 1)) - 1) // 3
    return GramSummary(diagonal, tuple(half + half[:(n - 1) // 2][::-1]))


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
    return _prime_normalizer(r, q) if is_prime(q) else None


def _prime_normalizer(r: int, q: int) -> int | None:
    """normalizer for r in [1, q) and a q already known to be prime."""
    roots = _sqrt_mod_prime(r, q)
    return None if roots is None else mod_inverse(roots[0], q)


def reduce_mod(seq, q: int) -> ResidueSequence:
    """Reduce each value mod q; a q below 2 is refused before any is reduced."""
    return ResidueSequence((v % q for v in _values(seq)), q)


def _verdict(gram: GramSummary, q: int, prime: bool | None = None) -> OrthogonalityReport:
    """Reduce a Gram summary mod q: offdiag residues, r and its normalizer.

    w is computed, and q tested for primality, only for a self-orthogonal
    row with r != 0; any other row has normalizer None. prime is q's
    primality when the caller already knows it, so that q is tested at
    most once; None leaves the test to normalizer.
    """
    offdiag = tuple(v % q for v in gram.lag_sums)
    r = gram.diagonal % q
    if not r or any(offdiag):
        w = None
    elif prime is None:
        w = normalizer(r, q)
    else:
        w = _prime_normalizer(r, q) if prime else None
    return OrthogonalityReport(q, r, offdiag, w)


def orthogonality_report(s: ResidueSequence) -> OrthogonalityReport:
    """Check one residue sequence for self-orthogonality mod its modulus."""
    s = s.residue_sequence()
    return _verdict(gram_lag_sums(s), s.modulus)


@lru_cache(maxsize=8)
def _plan(s: ResidueSequence, inverse: bool, scale: int) -> tuple[int, tuple[int, ...]]:
    """The slot width and the packed generator for one row's transforms.

    w holds every sum of n products of residues, n * (q-1)^2, so blocks
    need no max() pass. The generator (reversed for the inverse, as N^T
    needs) is multiplied by scale mod q and packed reversed, as
    _correlate takes it. Keyed on the row itself, so rows with equal
    values but different moduli never share a plan.
    """
    q, v = s.modulus, s.values
    if inverse:
        v = v[:1] + v[:0:-1]
    w = ((s.n * (q - 1) ** 2).bit_length() + 7) // 8
    return w, _evaluations([scale * x % q for x in reversed(v)], w)


def _transform(s: ResidueSequence, block: Sequence[int], inverse: bool, scale: int):
    """scale * (v correlated with each half of the block) mod q, where v is
    the generator, reversed after its first value for the inverse."""
    n = s.n
    if len(block) != 2 * n:
        raise ShapeError(f"block length {len(block)} != {2 * n}")
    q = s.modulus
    w, gen = _plan(s, inverse, scale)
    f = [b % q for b in block]
    out = [0] * (2 * n)
    for h in (0, 1):
        out[h::2] = [x % q for x in _correlate(gen, _evaluations(f[h::2], w), n, w)]
    return tuple(out)


def forward_transform(s: ResidueSequence, block: Sequence[int]) -> tuple[int, ...]:
    """G = N * F mod q for a block F of 2n values.

    Row i of N holds generator value t at column i + 2t (mod 2n), so the
    output is two cyclic correlations: v with the even and the odd half of F.
    """
    return _transform(s.residue_sequence(), block, False, 1)


def inverse_transform(
    s: ResidueSequence, block: Sequence[int], diagonal: int
) -> tuple[int, ...]:
    """F = r^-1 * N^T * G mod q; exact inverse of forward_transform.

    diagonal is the residue r with N * N^T == r * I (mod q); it must be
    invertible mod q or there is nothing to undo. N^T holds value t at
    column i - 2t: the forward correlations with the generator reversed.
    """
    s = s.residue_sequence()
    return _transform(s, block, True, mod_inverse(diagonal, s.modulus))

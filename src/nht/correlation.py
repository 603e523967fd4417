"""Modular circular correlation and the expectation measure.

The circular cross-correlation of two length-N value lists a, b at lag k
is the exact integer sum

    S(k) = sum_m a(m) * b((m + k) mod N)

with both operands reduced mod q before multiplying, computed for all
lags at once by core.cyclic_correlate. Two residue
conventions exist for reporting S(k) modulo q:

    RAW     residue(k) = S(k) mod q
    SCALED  residue(k) = N^-1 * S(k) mod q   (needs gcd(N, q) = 1)

The reference expectations for the bundled example rows match
RAW, so RAW is the default everywhere; resolve_convention makes that
choice reproducible by measuring both against the targets.

The expectation measure condenses a correlation series to one rational:

    E = sum_k residue(k) / (N * q)

summed over all lags 0..N-1 and kept as an exact Fraction. Every
result here stays exact; nht.seqio.decimal_string is what prints one
as a decimal.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import ResidueSequence, _values, cyclic_correlate
from .errors import ConventionError, InvalidModulusError, NonInvertibleError, ShapeError
from .modmath import mod_inverse

COMPLEMENTARY_BAND = (Fraction(95, 100), Fraction(105, 100))


class Convention(enum.Enum):
    RAW = "raw"
    SCALED = "scaled"


class CorrelationSeries(NamedTuple):
    """Per-lag correlation of two length-N sequences modulo q."""

    length: int
    modulus: int
    convention: Convention
    raw_sums: tuple[int, ...]
    residues: tuple[int, ...]


class PairTableRow(NamedTuple):
    """One ordered pair (i, j), measured with sequence i's modulus."""

    i: int
    j: int
    modulus: int
    expectation: Fraction
    complementary: bool


class DeviationRow(NamedTuple):
    i: int
    j: int
    modulus: int
    expectation: Fraction
    target: Fraction
    deviation: Fraction


class ConventionProfile(NamedTuple):
    convention: Convention
    rows: tuple[DeviationRow, ...]

    @property
    def max_deviation(self) -> Fraction:
        return max(row.deviation for row in self.rows)


class ConventionReport(NamedTuple):
    """Both candidate profiles plus the choice; nothing is thrown away."""

    chosen: Convention
    raw: ConventionProfile
    scaled: ConventionProfile | None
    scaled_error: str | None = None

    def profile(self, convention: Convention) -> ConventionProfile | None:
        return self.raw if convention is Convention.RAW else self.scaled

    def rejected(self) -> ConventionProfile | None:
        other = Convention.SCALED if self.chosen is Convention.RAW else Convention.RAW
        return self.profile(other)


def _residues(raw_sums: Sequence[int], n: int, q: int, convention: Convention):
    if convention is Convention.RAW:
        return tuple(s % q for s in raw_sums)
    try:
        scale = mod_inverse(n, q)
    except NonInvertibleError:
        raise ConventionError(
            f"scaled convention needs gcd({n}, {q}) = 1"
        ) from None
    return tuple(scale * s % q for s in raw_sums)


def circular_crosscorr(
    a, b, q: int, convention: Convention = Convention.RAW
) -> CorrelationSeries:
    """Correlate two equal-length value lists modulo q.

    Operands are reduced mod q before multiplication, so the raw sums
    are already the sums of residue products (still exact integers).
    """
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    av = [v % q for v in _values(a)]
    bv = [v % q for v in _values(b)]
    n = len(av)
    if n < 2:
        raise ShapeError(f"need at least 2 values, got {n}")
    raw = tuple(cyclic_correlate(av, bv))
    return CorrelationSeries(n, q, convention, raw, _residues(raw, n, q, convention))


def circular_autocorr(
    s: ResidueSequence, convention: Convention = Convention.RAW
) -> CorrelationSeries:
    """Correlate a residue sequence with itself, mod its own modulus."""
    return circular_crosscorr(s, s, s.residue_sequence().modulus, convention)


def expectation_measure(series: CorrelationSeries) -> Fraction:
    """E = sum of residues over all lags, divided by N * q. Exact, in [0, 1)."""
    return Fraction(sum(series.residues), series.length * series.modulus)


def pair_table(
    seqs: Sequence[ResidueSequence], convention: Convention = Convention.RAW
) -> list[PairTableRow]:
    """Expectation for every ordered pair (i, j), i != j, 1-based.

    Row (i, j) correlates i against j under sequence i's modulus; the
    asymmetry of the table comes entirely from that modulus choice.
    Pairs whose two expectations sum into COMPLEMENTARY_BAND are
    flagged. Fewer than 2 sequences yields an empty table.
    """
    if len(seqs) < 2:
        return []
    lengths = {s.n for s in seqs}
    if len(lengths) != 1:
        raise ShapeError(f"mixed sequence lengths: {sorted(lengths)}")
    moduli = [s.residue_sequence().modulus for s in seqs]
    count = len(seqs)
    expectations: dict[tuple[int, int], Fraction] = {}
    for i in range(1, count + 1):
        for j in range(1, count + 1):
            if i == j:
                continue
            series = circular_crosscorr(seqs[i - 1], seqs[j - 1], moduli[i - 1], convention)
            expectations[(i, j)] = expectation_measure(series)
    lo, hi = COMPLEMENTARY_BAND
    return [
        PairTableRow(i, j, moduli[i - 1], e, lo <= e + expectations[(j, i)] <= hi)
        for (i, j), e in sorted(expectations.items())
    ]


def _profile(measured: Sequence[tuple], convention: Convention) -> ConventionProfile:
    rows = []
    for (i, j), target, raw in measured:
        residues = _residues(raw.raw_sums, raw.length, raw.modulus, convention)
        e = expectation_measure(raw._replace(convention=convention, residues=residues))
        target = Fraction(target)
        rows.append(DeviationRow(i, j, raw.modulus, e, target, abs(e - target)))
    return ConventionProfile(convention, tuple(rows))


def resolve_convention(
    seqs: Sequence[ResidueSequence],
    targets: Mapping[tuple[int, int], Fraction],
) -> ConventionReport:
    """Pick the convention that best reproduces the target expectations.

    Correlates every target pair once, derives its residues under both
    conventions from the same raw sums, and keeps both deviation
    profiles in the report. The winner minimizes the maximum
    absolute deviation; ties go to RAW, as does the case where SCALED
    is not applicable at all.
    """
    if not targets:
        raise ShapeError("no target expectations to resolve against")
    for i, j in targets:
        if not (1 <= i <= len(seqs) and 1 <= j <= len(seqs)) or i == j:
            raise ShapeError(f"target pair ({i}, {j}) out of range")
    measured = [
        ((i, j), t, circular_crosscorr(seqs[i - 1], seqs[j - 1],
                                       seqs[i - 1].residue_sequence().modulus))
        for (i, j), t in sorted(targets.items())
    ]
    raw = _profile(measured, Convention.RAW)
    try:
        scaled = _profile(measured, Convention.SCALED)
    except ConventionError as exc:
        return ConventionReport(
            chosen=Convention.RAW, raw=raw, scaled=None, scaled_error=str(exc)
        )
    chosen = (
        Convention.SCALED
        if scaled.max_deviation < raw.max_deviation
        else Convention.RAW
    )
    return ConventionReport(chosen=chosen, raw=raw, scaled=scaled)

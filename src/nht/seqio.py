"""The sequence-file format, and every CSV and decimal nht prints.

A sequence file is plain UTF-8 key/value text:

    name: example4
    n: 16
    modulus: 331
    values: 2 2 4 8 16 32 64 128 256 181 31 62 124 248 165 330

Blank lines and lines starting with # are ignored. parse_sequence_file
checks the format's own rules: known keys, each at most once, with name,
n and values required; integer fields; a name without whitespace; n
equal to the value count; and an optional modulus line (raw chains have
none) at most MAX_MODULUS_BITS wide. It also bounds a file's size: at
most MAX_FILE_CHARS of text, MAX_FILE_VALUES values and MAX_FILE_BITS
for n times the modulus width. The record it returns,
core.ResidueSequence, checks the value rules (at least 2 values, none
negative, a modulus >= 2 with every value below it); a breach of those
is reported on the values line. The package only reads sequence files;
the tests' canonical writer, tests/oracles.py:emit_sequence_file, is its
exact inverse.

Output: the emit_*_csv functions build all five CSVs the command line
writes, and decimal_string is the one formatter for the decimals in them
and on stdout. It rounds the exact rational half up; no float is used.

All file writes go through an atomic write-then-rename so a crash never
leaves a half-written file behind.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Sequence

from .core import OrthogonalityReport, ResidueSequence
from .correlation import ConventionReport, CorrelationSeries, PairTableRow
from .errors import InvalidGeneratorError, InvalidModulusError, SequenceFileError
from .search import SearchReport

_KEYS = ("name", "n", "modulus", "values")

# Widest modulus a sequence file may give. Every modulus that search can
# print fits (about 3,070 bits at --n 1024 with a 1,024-bit --start), a
# correlation's raw sums stay below n * q^2, so about 1,850 digits plus
# those of n, far inside Python's 4,300-digit int-to-str limit, and the
# one primality test of a verify stays near a second.
MAX_MODULUS_BITS = 3072
# Most values a file may hold, and most n times modulus bits (1,024 values
# of 3,072 bits). A command's work grows with both: on 2 vCPUs (Python
# 3.11), autocorr took 0.2 s at n = 65,536 with q = 3, 1.7 s at 65,536 x 48
# bits, 2.0 s at 65,536 x 61 bits (over the cap), 1.3 s at 1,024 x 3,072
# bits, where verify of a row that is not self-orthogonal took 1.2 s, and
# 7.8 s at 4,096 x 3,072 (over the cap).
MAX_FILE_VALUES = 65_536
MAX_FILE_BITS = 3_145_728
# Longest file text. A raw row (no modulus) has no width cap, and parsing
# 4,096 values of 4,300 digits took 0.5 s, so the text bounds that work.
MAX_FILE_CHARS = 2_097_152


def parse_sequence_file(text: str) -> ResidueSequence:
    """Parse sequence-file text, reporting the line of any problem."""
    if len(text) > MAX_FILE_CHARS:
        raise SequenceFileError(f"file is longer than {MAX_FILE_CHARS} characters")
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _KEYS:
            raise SequenceFileError(f"expected 'key: value' with key in {_KEYS}",
                                    line=lineno)
        if key in fields:
            raise SequenceFileError(f"duplicate key {key!r}", line=lineno)
        fields[key] = value.strip()
        lines[key] = lineno
    for key in ("name", "n", "values"):
        if key not in fields:
            raise SequenceFileError(f"missing required key {key!r}")

    def _int(key: str, token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise SequenceFileError(
                f"{key}: {token!r} is not an integer", line=lines[key]
            ) from None

    n = _int("n", fields["n"])
    if n > MAX_FILE_VALUES:
        raise SequenceFileError(f"n is {n}, more than {MAX_FILE_VALUES}", line=lines["n"])
    modulus = _int("modulus", fields["modulus"]) if "modulus" in fields else None
    bits = 0 if modulus is None else modulus.bit_length()
    if bits > MAX_MODULUS_BITS:
        raise SequenceFileError(f"modulus is {bits} bits, wider than {MAX_MODULUS_BITS}",
                                line=lines["modulus"])
    if n * bits > MAX_FILE_BITS:
        raise SequenceFileError(f"n times the modulus width is {n * bits} bits, "
                                f"more than {MAX_FILE_BITS}", line=lines["modulus"])
    name = fields["name"]
    if not name or any(c.isspace() for c in name):
        raise SequenceFileError(f"bad sequence name {name!r}", line=lines["name"])
    values = tuple(_int("values", tok) for tok in fields["values"].split())
    if len(values) != n:
        raise SequenceFileError(f"n is {n} but {len(values)} values given",
                                line=lines["values"])
    try:
        return ResidueSequence(values, modulus, name)
    except (InvalidGeneratorError, InvalidModulusError) as exc:
        raise SequenceFileError(str(exc), line=lines["values"]) from None


def load_sequence_file(path: str) -> ResidueSequence:
    """Parse the file at path; unreadable or non-UTF-8 files raise SequenceFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            # One character past the cap is enough for the parser to reject.
            text = fh.read(MAX_FILE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceFileError(f"cannot read {path!r}: {exc}") from None
    return parse_sequence_file(text)


def write_text_atomic(path: str, text: str) -> None:
    """Write a same-directory temp file (mode 0666 less umask) and rename it to path.

    On failure the temp file is removed and an OSError names path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # Name the target, not the temp file, in the error.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def decimal_string(x: int | Fraction, digits: int, den: int = 1) -> str:
    """x / den to `digits` decimals, rounded half up, for an int or Fraction
    x >= 0 and an int den > 0. Exact: no float is involved."""
    den *= x.denominator
    scale = 10**digits
    units = (2 * scale * x.numerator + den) // (2 * den)
    return f"{units // scale}.{units % scale:0{digits}d}"


def _csv(header: str, lines: Iterable[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def _field(x) -> str:
    """A CSV cell: empty for None, else str(x), lowercased so bools read true/false."""
    return "" if x is None else str(x).lower()


def emit_correlation_csv(series: CorrelationSeries) -> str:
    """lag,raw_sum,residue,normalized rows; normalized is residue / q to 6 decimals."""
    q = series.modulus
    return _csv("lag,raw_sum,residue,normalized", [
        f"{k},{s},{r},{decimal_string(r, 6, q)}"
        for k, (s, r) in enumerate(zip(series.raw_sums, series.residues))])


def emit_pair_table_csv(rows: Sequence[PairTableRow]) -> str:
    """i,j,modulus,expectation rows; expectation to 2 decimals."""
    return _csv("i,j,modulus,expectation", [
        f"{r.i},{r.j},{r.modulus},{decimal_string(r.expectation, 2)}" for r in rows])


def emit_search_csv(report: SearchReport) -> str:
    """One row per candidate; its reduced values are space-separated."""
    return _csv("seed,n,gcd,modulus,modulus_is_prime,diagonal_residue,normalizer,valid,values", [
        f"{c.seed},{c.n},{c.gcd},{c.modulus},{_field(c.modulus_is_prime)},"
        f"{_field(c.diagonal_residue)},{_field(c.normalizer)},{_field(c.valid)},"
        f"{'' if c.reduced is None else ' '.join(map(str, c.reduced.values))}"
        for c in report.candidates])


def emit_convention_csv(report: ConventionReport) -> str:
    """Each row of the raw profile, then of the scaled one when it applies;
    expectation, target and deviation to 6 decimals."""
    profiles = [report.raw] + ([report.scaled] if report.scaled else [])
    return _csv("convention,i,j,modulus,expectation,target,deviation", [
        f"{p.convention.value},{r.i},{r.j},{r.modulus},{decimal_string(r.expectation, 6)},"
        f"{decimal_string(r.target, 6)},{decimal_string(r.deviation, 6)}"
        for p in profiles for r in p.rows])


def emit_verification_csv(verdicts: Sequence[tuple[ResidueSequence, OrthogonalityReport]]) -> str:
    """One row per (row, its orthogonality report), named by the row."""
    return _csv("name,modulus,diagonal_residue,normalizer,self_orthogonal", [
        f"{row.name},{v.modulus},{v.diagonal_residue},{_field(v.normalizer)},"
        f"{_field(v.is_self_orthogonal)}" for row, v in verdicts])

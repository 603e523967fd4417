"""Sequence file format and deterministic CSV emission.

A sequence file is plain UTF-8 key/value text:

    name: example4
    n: 16
    modulus: 331
    values: 2 2 4 8 16 32 64 128 256 181 31 62 124 248 165 330

Blank lines and lines starting with # are ignored. parse_sequence_file
checks the format's own rules: known keys, each at most once, with name,
n and values required; integer fields; a name without whitespace; n
equal to the value count; and an optional modulus line (raw chains have
none) at most MAX_MODULUS_BITS wide. The record it returns,
core.ResidueSequence, checks the value rules (at least 2 values, none
negative, a modulus >= 2 with every value below it); a breach of those
is reported on the values line. The package only reads sequence files;
the tests' canonical writer, tests/oracles.py:emit_sequence_file, is its
exact inverse.

All file writes go through an atomic write-then-rename so a crash never
leaves a half-written file behind.
"""

from __future__ import annotations

import os
from typing import Sequence

from .core import ResidueSequence
from .correlation import CorrelationSeries, PairTableRow, expectation_string
from .errors import InvalidGeneratorError, InvalidModulusError, SequenceFileError

_KEYS = ("name", "n", "modulus", "values")

# Widest modulus a sequence file may give. Every modulus that search can
# print fits (about 3,070 bits at --n 1024 with a 1,024-bit --start), a
# correlation's raw sums stay below n * q^2, so about 1,850 digits plus
# those of n, far inside Python's 4,300-digit int-to-str limit, and the
# one primality test of a verify stays near a second.
MAX_MODULUS_BITS = 3072


def parse_sequence_file(text: str) -> ResidueSequence:
    """Parse sequence-file text, reporting the line of any problem."""
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
    modulus = _int("modulus", fields["modulus"]) if "modulus" in fields else None
    if modulus is not None and modulus.bit_length() > MAX_MODULUS_BITS:
        raise SequenceFileError(
            f"modulus is {modulus.bit_length()} bits, wider than {MAX_MODULUS_BITS}",
            line=lines["modulus"],
        )
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
            text = fh.read()
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


def emit_correlation_csv(series: CorrelationSeries) -> str:
    """lag,raw_sum,residue,normalized rows; normalized to 6 decimals."""
    out = ["lag,raw_sum,residue,normalized"]
    for k in range(series.length):
        norm = series.residues[k] / series.modulus
        out.append(
            f"{k},{series.raw_sums[k]},{series.residues[k]},{norm:.6f}"
        )
    return "\n".join(out) + "\n"


def emit_pair_table_csv(rows: Sequence[PairTableRow]) -> str:
    """i,j,modulus,expectation rows; expectation to 2 decimals."""
    out = ["i,j,modulus,expectation"]
    for row in rows:
        out.append(
            f"{row.i},{row.j},{row.modulus},{expectation_string(row.expectation)}"
        )
    return "\n".join(out) + "\n"

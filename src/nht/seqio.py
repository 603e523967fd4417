"""Sequence file format and deterministic CSV emission.

A sequence file is plain UTF-8 key/value text:

    name: example4
    n: 16
    modulus: 331
    values: 2 2 4 8 16 32 64 128 256 181 31 62 124 248 165 330

Blank lines and lines starting with # are ignored. The modulus line is
optional (raw chains have none), every value must sit below it when it
is present, and the value count must match n. Emission is canonical:
fixed key order, single spaces, one trailing newline, so equal records
always serialize to equal bytes.

All file writes go through an atomic write-then-rename so a crash never
leaves a half-written file behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from .core import ResidueSequence
from .correlation import CorrelationSeries, PairTableRow, expectation_string
from .errors import InvalidModulusError, SequenceFileError

_KEYS = ("name", "n", "modulus", "values")


@dataclass(frozen=True)
class SequenceFile:
    """One named sequence record, with or without an attached modulus."""

    name: str
    n: int
    values: tuple[int, ...]
    modulus: int | None = None

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise SequenceFileError(f"bad sequence name {self.name!r}")
        if self.n < 2:
            raise SequenceFileError(f"n must be >= 2, got {self.n}")
        if len(self.values) != self.n:
            raise SequenceFileError(
                f"n is {self.n} but {len(self.values)} values given"
            )
        if any(v < 0 for v in self.values):
            raise SequenceFileError("values must be nonnegative")
        if self.modulus is not None:
            if self.modulus < 2:
                raise SequenceFileError(f"modulus must be >= 2, got {self.modulus}")
            bad = [v for v in self.values if v >= self.modulus]
            if bad:
                raise SequenceFileError(
                    f"values {bad} not below modulus {self.modulus}"
                )

    def residue_sequence(self) -> ResidueSequence:
        if self.modulus is None:
            raise InvalidModulusError(f"sequence {self.name!r} has no modulus")
        return ResidueSequence(self.values, self.modulus)


def parse_sequence_file(text: str) -> SequenceFile:
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
    values = tuple(_int("values", tok) for tok in fields["values"].split())
    try:
        return SequenceFile(name=fields["name"], n=n, values=values, modulus=modulus)
    except SequenceFileError as exc:
        raise SequenceFileError(str(exc), line=lines["values"]) from None


def emit_sequence_file(sf: SequenceFile) -> str:
    """Canonical text form; parse_sequence_file inverts it exactly."""
    lines = [f"name: {sf.name}", f"n: {sf.n}"]
    if sf.modulus is not None:
        lines.append(f"modulus: {sf.modulus}")
    lines.append("values: " + " ".join(str(v) for v in sf.values))
    return "\n".join(lines) + "\n"


def load_sequence_file(path: str) -> SequenceFile:
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

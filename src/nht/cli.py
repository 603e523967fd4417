"""Command-line front end.

Subcommands: verify, autocorr, xcorr, expect, search, reproduce.
Sequences are named either by bundled fixture name or by path to a
sequence file. Exit codes: 0 success, 1 a verification or reproduction
check failed, 2 usage errors (bad flags, unreadable or malformed input,
mismatched operands).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import IO, NamedTuple, Sequence

from . import fixtures, seqio
from .core import ResidueSequence, orthogonality_report
from .correlation import (
    Convention,
    ConventionReport,
    PairTableRow,
    circular_crosscorr,
    expectation_measure,
    pair_table,
    resolve_convention,
)
from .errors import NHTError
from .modmath import is_prime
from .search import search_seeds

# Widest --seeds range: each integer in it gets a primality test.
MAX_SEED_RANGE = 100_000
# Longest --n chain: its values reach n bits, so the cost of one chain
# grows much faster than n^2.
MAX_CHAIN_LENGTH = 1024
# Widest --start and widest --seeds value: at n = MAX_CHAIN_LENGTH the gcd
# stays near 3,100 bits, well inside Python's 4,300-digit int-to-str limit
# for the CSV, and no seed's primality test runs on a larger number.
MAX_START_BITS = 1024


class RunReport(NamedTuple):
    """What one invocation did: inputs read, files written, status."""

    command: str
    exit_status: int
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    convention: str | None = None
    diagnostics: tuple[str, ...] = ()


class _UsageError(NHTError):
    pass


class _HelpRequested(Exception):
    """--help was given; carries the help text for run_command to write."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="nht", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check rows for self-orthogonality")
    p.add_argument("sequences", nargs="+", metavar="SEQ")

    def corr_flags(p, pair: bool):
        if pair:
            p.add_argument("--modulus-of", choices=("a", "b"), default="a",
                           help="whose modulus to correlate under (default a)")
        p.add_argument("--convention", choices=("raw", "scaled", "auto"),
                       default="raw")

    p = sub.add_parser("autocorr", help="autocorrelation series as CSV")
    p.add_argument("a", metavar="SEQ")
    corr_flags(p, pair=False)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(b=None, modulus_of="a")

    p = sub.add_parser("xcorr", help="cross-correlation series as CSV")
    p.add_argument("a", metavar="SEQA")
    p.add_argument("b", metavar="SEQB")
    corr_flags(p, pair=True)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("expect", help="expectation measure of a pair")
    p.add_argument("a", metavar="SEQA")
    p.add_argument("b", metavar="SEQB")
    corr_flags(p, pair=True)

    p = sub.add_parser("search", help="evaluate doubling chains of prime seeds")
    p.add_argument("--seeds", required=True,
                   help="comma list (2,3,11,13) or range (2..50, primes only, "
                        f"at most {MAX_SEED_RANGE} integers wide); "
                        f"each seed at most {MAX_START_BITS} bits; "
                        f"a list holds at most {MAX_SEED_RANGE} values")
    p.add_argument("--n", type=int, required=True,
                   help=f"chain length (at most {MAX_CHAIN_LENGTH})")
    p.add_argument("--start", type=int, default=2,
                   help=f"chain start value (default 2, at most {MAX_START_BITS} bits)")
    p.add_argument("--prime-only", action="store_true",
                   help="use the largest prime factor of the gcd")
    p.add_argument("--valid-only", action="store_true",
                   help="drop candidates without a usable modulus")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("reproduce",
                       help="regenerate and check the bundled reference tables")
    p.add_argument("--out", metavar="DIR",
                   help="directory for the generated CSV reports")
    parser.commands = sub.choices  # subcommand name -> its own _Parser
    return parser


# Built once, at import, so in-process callers pay the argparse build once
# and the help text always names the module's caps as imported.
_PARSER = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """_PARSER.parse_args(argv), reading each token once: a subcommand's own
    parser takes the rest of argv, and only argv that names none (top-level
    --help, a missing or unknown command) goes through _PARSER."""
    sub = _PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _load(token: str) -> ResidueSequence:
    if token in fixtures.BUNDLED:
        return fixtures.BUNDLED[token]
    if os.path.isfile(token):
        return seqio.load_sequence_file(token)
    raise _UsageError(f"{token!r} is not a bundled sequence or a readable file")


@functools.cache
def _bundled_calibration() -> tuple[ConventionReport, tuple[PairTableRow, ...]]:
    """The convention resolved against the bundled reference expectations,
    and the pair table of the bundled rows under it.

    Both depend only on constant fixture data, so they are computed on
    first use and kept for the rest of the process.
    """
    seqs = fixtures.example_rows(4)
    report = resolve_convention(seqs, fixtures.REFERENCE_EXPECTATIONS)
    return report, tuple(pair_table(seqs, report.chosen))


def _pick_convention(name: str) -> tuple[Convention, str | None]:
    """Map a --convention value to a Convention, resolving 'auto'."""
    if name == "auto":
        chosen = _bundled_calibration()[0].chosen
        return chosen, f"auto convention resolved to {chosen.value}"
    return Convention(name), None


def _emit(text: str, out_path: str | None, stream: IO[str]) -> tuple[str, ...]:
    if out_path:
        seqio.write_text_atomic(out_path, text)
        return (out_path,)
    stream.write(text)
    return ()


def _cmd_verify(ns, out, err) -> RunReport:
    # Every operand is loaded and checked before the first line is printed,
    # so a bad one exits 2 with nothing on stdout.
    rows = [_load(token).residue_sequence() for token in ns.sequences]
    reports = [orthogonality_report(row) for row in rows]
    failures = 0
    for row, report in zip(rows, reports):
        w = "-" if report.normalizer is None else str(report.normalizer)
        if report.is_self_orthogonal:
            print(
                f"{row.name}: q={report.modulus} r={report.diagonal_residue} "
                f"w={w} lags 1..{row.n - 1} all zero: self-orthogonal",
                file=out,
            )
        else:
            failures += 1
            offending = ", ".join(
                f"k={k} residue {r}" for k, r in report.offending_lags()
            )
            print(
                f"{row.name}: q={report.modulus} r={report.diagonal_residue} "
                f"offending lags: {offending}",
                file=out,
            )
    return RunReport(
        command="verify",
        exit_status=1 if failures else 0,
        inputs=tuple(ns.sequences),
    )


def _series(ns):
    """Correlate a with b (a itself when b is not given) under the anchor's modulus."""
    convention, note = _pick_convention(ns.convention)
    a = _load(ns.a)
    b = a if ns.b is None else _load(ns.b)
    anchor = a if ns.modulus_of == "a" else b
    q = anchor.residue_sequence().modulus
    return circular_crosscorr(a.values, b.values, q, convention), convention, note


def _correlation_report(ns, err, convention, note, outputs=()) -> RunReport:
    if note:
        print(note, file=err)
    return RunReport(
        command=ns.command, exit_status=0,
        inputs=(ns.a,) if ns.b is None else (ns.a, ns.b),
        outputs=outputs, convention=convention.value,
        diagnostics=(note,) if note else (),
    )


def _cmd_correlate(ns, out, err) -> RunReport:
    series, convention, note = _series(ns)
    outputs = _emit(seqio.emit_correlation_csv(series), ns.out, out)
    return _correlation_report(ns, err, convention, note, outputs)


def _cmd_expect(ns, out, err) -> RunReport:
    series, convention, note = _series(ns)
    e = expectation_measure(series)
    print(
        f"E({ns.a},{ns.b}) = {seqio.decimal_string(e, 2)} "
        f"(exact {e.numerator}/{e.denominator}, modulus {series.modulus}, "
        f"{convention.value})",
        file=out,
    )
    return _correlation_report(ns, err, convention, note)


def _parse_seeds(arg: str) -> list[int]:
    try:
        if ".." in arg:
            lo_text, _, hi_text = arg.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise _UsageError(f"empty seed range {arg!r}")
            if hi - max(2, lo) >= MAX_SEED_RANGE:
                raise _UsageError(f"seed range {arg!r} is wider than {MAX_SEED_RANGE}")
            _check_seed_bits([hi])
            return [p for p in range(max(2, lo), hi + 1) if is_prime(p)]
        tokens = [tok for tok in arg.split(",") if tok.strip()]
        if len(tokens) > MAX_SEED_RANGE:
            raise _UsageError(
                f"--seeds lists {len(tokens)} values, more than {MAX_SEED_RANGE}"
            )
        return _check_seed_bits([int(tok) for tok in tokens])
    except ValueError:
        raise _UsageError(f"bad --seeds value {arg!r}") from None


def _check_seed_bits(seeds: list[int]) -> list[int]:
    if any(s.bit_length() > MAX_START_BITS for s in seeds):
        raise _UsageError(f"a --seeds value is wider than {MAX_START_BITS} bits")
    return seeds


def _cmd_search(ns, out, err) -> RunReport:
    if ns.n > MAX_CHAIN_LENGTH:
        raise _UsageError(f"--n {ns.n} is longer than {MAX_CHAIN_LENGTH}")
    if ns.start.bit_length() > MAX_START_BITS:
        raise _UsageError(f"--start is wider than {MAX_START_BITS} bits")
    seeds = _parse_seeds(ns.seeds)
    report = search_seeds(
        seeds, ns.n, prime_only=ns.prime_only, start=ns.start,
        include_invalid=not ns.valid_only,
    )
    diagnostics = tuple(f"rejected: {reason}" for _, reason in report.rejected)
    for line in diagnostics:
        print(line, file=err)
    outputs = _emit(seqio.emit_search_csv(report), ns.out, out)
    return RunReport(
        command="search", exit_status=0, inputs=(ns.seeds,),
        outputs=outputs, diagnostics=diagnostics,
    )


@functools.cache
def _reproduction() -> tuple[str, int, str, tuple[tuple[str, str], ...]]:
    """reproduce's PASS/FAIL text, failure count, chosen convention and
    three (file name, CSV text) reports. They depend only on constant
    fixture data, so the checks run once per process, on first use."""
    tolerance = Fraction(1, 100)
    lines: list[str] = []

    def check(ok: bool, label: str):
        lines.append(("PASS " if ok else "FAIL ") + label + "\n")

    verdicts = [(row, orthogonality_report(row)) for row in fixtures.example_rows(6)]
    for row, report in verdicts:
        zero = sum(1 for r in report.offdiag_residues if r == 0)
        check(
            report.is_self_orthogonal,
            f"row orthogonality: {row.name} q={report.modulus} "
            f"r={report.diagonal_residue} ({zero}/{len(report.offdiag_residues)} "
            f"lag residues zero)",
        )

    conv_report, table = _bundled_calibration()
    rejected = conv_report.rejected()
    rejected_note = (
        f"vs {rejected.convention.value} {seqio.decimal_string(rejected.max_deviation, 6)}"
        if rejected else "no alternative applicable"
    )
    max_deviation = conv_report.profile(conv_report.chosen).max_deviation
    check(
        max_deviation <= tolerance,
        f"convention resolution: {conv_report.chosen.value} "
        f"(max deviation {seqio.decimal_string(max_deviation, 6)} {rejected_note})",
    )

    within = sum(
        1 for row in table
        if abs(row.expectation - fixtures.REFERENCE_EXPECTATIONS[(row.i, row.j)])
        <= tolerance
    )
    check(
        within == len(table),
        f"pair expectations: {within}/{len(table)} within "
        f"{seqio.decimal_string(tolerance, 2)} under {conv_report.chosen.value}",
    )

    expected = {2: "example4", 3: "example3", 11: "example5", 13: "example6"}
    search_report = search_seeds(expected, 16, prime_only=True)
    matches = []
    for cand in search_report.candidates:
        target = fixtures.BUNDLED[expected[cand.seed]]
        matches.append(
            cand.valid
            and cand.modulus == target.modulus
            and cand.reduced.values == target.values
        )
    moduli = ",".join(str(c.modulus) for c in search_report.candidates)
    check(
        len(matches) == 4 and all(matches),
        f"chain regeneration: seeds 2,3,11,13 -> moduli {moduli} match bundled rows",
    )

    return (
        "".join(lines),
        sum(line.startswith("FAIL") for line in lines),
        conv_report.chosen.value,
        (
            ("verification.csv", seqio.emit_verification_csv(verdicts)),
            ("pair_expectations.csv", seqio.emit_pair_table_csv(table)),
            ("convention_profiles.csv", seqio.emit_convention_csv(conv_report)),
        ),
    )


def _cmd_reproduce(ns, out, err) -> RunReport:
    text, failures, convention, reports = _reproduction()
    paths: tuple[str, ...] = ()
    if ns.out:
        # Before any stdout, so a bad --out exits 2 with nothing printed.
        os.makedirs(ns.out, exist_ok=True)
        paths = tuple(os.path.join(ns.out, fname) for fname, _ in reports)
    out.write(text)
    for path, (_, csv) in zip(paths, reports):
        seqio.write_text_atomic(path, csv)
    return RunReport(
        command="reproduce", exit_status=1 if failures else 0,
        inputs=tuple(fixtures.BUNDLED), outputs=paths, convention=convention,
    )


_HANDLERS = {
    "verify": _cmd_verify,
    "autocorr": _cmd_correlate,
    "xcorr": _cmd_correlate,
    "expect": _cmd_expect,
    "search": _cmd_search,
    "reproduce": _cmd_reproduce,
}


def run_command(
    argv: Sequence[str], out: IO[str] | None = None, err: IO[str] | None = None
) -> RunReport:
    """Run one CLI invocation and report what it did."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    command = argv[0] if argv else ""
    try:
        ns = _parse(list(argv))
        return _HANDLERS[ns.command](ns, out, err)
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return RunReport(command=command, exit_status=0)
    except (NHTError, OSError) as exc:
        prefix = "usage error" if isinstance(exc, _UsageError) else "error"
        print(f"{prefix}: {exc}", file=err)
        return RunReport(command=command, exit_status=2, diagnostics=(str(exc),))


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv).exit_status


if __name__ == "__main__":
    sys.exit(main())

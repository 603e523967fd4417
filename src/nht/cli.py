"""Command-line front end.

Subcommands: verify, autocorr, xcorr, expect, search, reproduce.
Sequences are named either by bundled fixture name or by path to a
sequence file. Exit codes: 0 success, 1 a verification or reproduction
check failed, 2 usage errors (bad flags, unreadable or malformed input,
mismatched operands).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Sequence

from . import fixtures
from .core import orthogonality_report
from .correlation import (
    Convention,
    circular_crosscorr,
    expectation_measure,
    expectation_string,
    pair_table,
    resolve_convention,
)
from .errors import NHTError
from .modmath import is_prime
from .search import search_seeds
from .seqio import (
    SequenceFile,
    emit_correlation_csv,
    emit_pair_table_csv,
    load_sequence_file,
    write_text_atomic,
)

# Widest --seeds range: each integer in it gets a primality test.
MAX_SEED_RANGE = 100_000
# Longest --n chain: its values reach n bits, so the cost of one chain
# grows much faster than n^2.
MAX_CHAIN_LENGTH = 1024
# Widest --start: at n = MAX_CHAIN_LENGTH the gcd stays near 3,100 bits,
# well inside Python's 4,300-digit int-to-str limit for the CSV.
MAX_START_BITS = 1024


@dataclass(frozen=True)
class RunReport:
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
                        f"at most {MAX_SEED_RANGE} integers wide)")
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
    return parser


def _load(token: str) -> SequenceFile:
    if token in fixtures.BUNDLED:
        return fixtures.BUNDLED[token]
    if os.path.isfile(token):
        return load_sequence_file(token)
    raise _UsageError(f"{token!r} is not a bundled sequence or a readable file")


def _pick_convention(name: str) -> tuple[Convention, str | None]:
    """Map a --convention value to a Convention, resolving 'auto'."""
    if name == "auto":
        seqs = [sf.residue_sequence() for sf in fixtures.example_rows(4)]
        report = resolve_convention(seqs, fixtures.REFERENCE_EXPECTATIONS)
        return report.chosen, f"auto convention resolved to {report.chosen.value}"
    return Convention(name), None


def _emit(text: str, out_path: str | None, stream: IO[str]) -> tuple[str, ...]:
    if out_path:
        write_text_atomic(out_path, text)
        return (out_path,)
    stream.write(text)
    return ()


def _cmd_verify(ns, out, err) -> RunReport:
    failures = 0
    for token in ns.sequences:
        sf = _load(token)
        report = orthogonality_report(sf.residue_sequence())
        w = "-" if report.normalizer is None else str(report.normalizer)
        if report.is_self_orthogonal:
            print(
                f"{sf.name}: q={report.modulus} r={report.diagonal_residue} "
                f"w={w} lags 1..{sf.n - 1} all zero: self-orthogonal",
                file=out,
            )
        else:
            failures += 1
            offending = ", ".join(
                f"k={k} residue {r}" for k, r in report.offending_lags()
            )
            print(
                f"{sf.name}: q={report.modulus} r={report.diagonal_residue} "
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
    outputs = _emit(emit_correlation_csv(series), ns.out, out)
    return _correlation_report(ns, err, convention, note, outputs)


def _cmd_expect(ns, out, err) -> RunReport:
    series, convention, note = _series(ns)
    e = expectation_measure(series)
    print(
        f"E({ns.a},{ns.b}) = {expectation_string(e)} "
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
            return [p for p in range(max(2, lo), hi + 1) if is_prime(p)]
        return [int(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --seeds value {arg!r}") from None


def _search_csv(report) -> str:
    out = ["seed,n,gcd,modulus,modulus_is_prime,diagonal_residue,normalizer,valid,values"]
    for c in report.candidates:
        r = "" if c.diagonal_residue is None else str(c.diagonal_residue)
        w = "" if c.normalizer is None else str(c.normalizer)
        vals = "" if c.reduced is None else " ".join(str(v) for v in c.reduced.values)
        prime = "true" if c.modulus_is_prime else "false"
        valid = "true" if c.valid else "false"
        out.append(f"{c.seed},{c.n},{c.gcd},{c.modulus},{prime},{r},{w},{valid},{vals}")
    return "\n".join(out) + "\n"


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
    outputs = _emit(_search_csv(report), ns.out, out)
    return RunReport(
        command="search", exit_status=0, inputs=(ns.seeds,),
        outputs=outputs, diagnostics=diagnostics,
    )


def _float6(x) -> str:
    return f"{float(x):.6f}"


def _convention_csv(report) -> str:
    out = ["convention,i,j,modulus,expectation,target,deviation"]
    profiles = [report.raw] + ([report.scaled] if report.scaled else [])
    for profile in profiles:
        for row in profile.rows:
            out.append(
                f"{profile.convention.value},{row.i},{row.j},{row.modulus},"
                f"{_float6(row.expectation)},{_float6(row.target)},"
                f"{_float6(row.deviation)}"
            )
    return "\n".join(out) + "\n"


def _cmd_reproduce(ns, out, err) -> RunReport:
    tolerance = 0.01
    failures = 0
    outputs: list[str] = []
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)

    def check(ok: bool, label: str):
        nonlocal failures
        failures += 0 if ok else 1
        print(("PASS" if ok else "FAIL") + " " + label, file=out)

    rows = fixtures.example_rows(6)
    verification_lines = ["name,modulus,diagonal_residue,normalizer,self_orthogonal"]
    for sf in rows:
        report = orthogonality_report(sf.residue_sequence())
        zero = sum(1 for r in report.offdiag_residues if r == 0)
        check(
            report.is_self_orthogonal,
            f"row orthogonality: {sf.name} q={report.modulus} "
            f"r={report.diagonal_residue} ({zero}/{len(report.offdiag_residues)} "
            f"lag residues zero)",
        )
        w = "" if report.normalizer is None else str(report.normalizer)
        ortho = "true" if report.is_self_orthogonal else "false"
        verification_lines.append(
            f"{sf.name},{report.modulus},{report.diagonal_residue},{w},{ortho}"
        )

    seqs = [sf.residue_sequence() for sf in fixtures.example_rows(4)]
    conv_report = resolve_convention(seqs, fixtures.REFERENCE_EXPECTATIONS)
    rejected = conv_report.rejected()
    rejected_note = (
        f"vs {rejected.convention.value} {_float6(rejected.max_deviation)}"
        if rejected else "no alternative applicable"
    )
    chosen_profile = conv_report.profile(conv_report.chosen)
    check(
        float(chosen_profile.max_deviation) <= tolerance,
        f"convention resolution: {conv_report.chosen.value} "
        f"(max deviation {_float6(chosen_profile.max_deviation)} {rejected_note})",
    )

    table = pair_table(seqs, conv_report.chosen)
    within = sum(
        1 for row in table
        if abs(row.expectation - fixtures.REFERENCE_EXPECTATIONS[(row.i, row.j)])
        <= tolerance
    )
    check(
        within == len(table),
        f"pair expectations: {within}/{len(table)} within {tolerance} "
        f"under {conv_report.chosen.value}",
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

    if ns.out:
        for fname, text in (
            ("verification.csv", "\n".join(verification_lines) + "\n"),
            ("pair_expectations.csv", emit_pair_table_csv(table)),
            ("convention_profiles.csv", _convention_csv(conv_report)),
        ):
            path = os.path.join(ns.out, fname)
            write_text_atomic(path, text)
            outputs.append(path)

    return RunReport(
        command="reproduce",
        exit_status=1 if failures else 0,
        inputs=tuple(fixtures.fixture_names()),
        outputs=tuple(outputs),
        convention=conv_report.chosen.value,
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
        ns = _build_parser().parse_args(list(argv))
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

"""Command-line behavior: exit codes, CSV output, reproduction run."""

import argparse
import hashlib
import io
import os
import pickle
import subprocess
import sys

import pytest

from nht import cli, fixtures
from nht.cli import run_command
from nht.core import ResidueSequence, gram_lag_sums, orthogonality_report
from nht.correlation import circular_autocorr, pair_table
from nht.search import search_seeds
from nht.seqio import (
    MAX_FILE_VALUES,
    MAX_MODULUS_BITS,
    emit_correlation_csv,
    write_text_atomic,
)
from oracles import emit_sequence_file, fixture


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    report = run_command(argv, out=out, err=err)
    return report, out.getvalue(), err.getvalue()


def run_fresh(monkeypatch, argv):
    """run(argv) through a parser built just for this call."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_PARSER", cli._build_parser())
        return run(argv)


def python_c(script):
    """Stdout of a fresh `python -c script` that imports nht from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=60, check=True,
    )
    return proc.stdout


def seq_file(tmp_path, name, values, modulus=None):
    sf = ResidueSequence(values, modulus, name)
    path = tmp_path / f"{name}.seq"
    write_text_atomic(str(path), emit_sequence_file(sf))
    return str(path)


class TestVerify:
    def test_bundled_rows_pass(self):
        report, out, _ = run(["verify"] + [f"example{i}" for i in range(1, 7)])
        assert report.exit_status == 0
        assert out.count("self-orthogonal") == 6

    def test_broken_row_fails_with_offenders(self, tmp_path):
        values = list(fixture("example4").values)
        values[0] = (values[0] + 1) % 331
        path = seq_file(tmp_path, "broken", values, modulus=331)
        report, out, _ = run(["verify", path])
        assert report.exit_status == 1
        assert "offending lags" in out

    def test_unknown_sequence(self):
        report, _, err = run(["verify", "nonesuch"])
        assert report.exit_status == 2
        assert "nonesuch" in err

    def test_directory_is_usage_error(self, tmp_path):
        report, out, err = run(["verify", str(tmp_path)])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_non_utf8_file_is_input_error(self, tmp_path):
        path = tmp_path / "latin1.seq"
        path.write_bytes("name: caf\xe9\nn: 2\nvalues: 1 2\n".encode("latin-1"))
        report, out, err = run(["verify", str(path)])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_sequence_without_modulus(self):
        report, _, err = run(["verify", "chain2"])
        assert report.exit_status == 2
        assert "no modulus" in err

    @pytest.mark.parametrize("operand, prefix", [
        ("chain2", "error: "),
        ("missing.seq", "usage error: "),
        ("zero.seq", "error: "),
    ])
    def test_bad_later_operand_prints_nothing(self, tmp_path, operand, prefix):
        # Every operand is checked before example1's verdict is printed.
        if operand == "zero.seq":
            operand = seq_file(tmp_path, "zero", [0, 0], modulus=5)
        elif operand == "missing.seq":
            operand = str(tmp_path / operand)
        report, out, err = run(["verify", "example1", operand])
        assert (report.exit_status, out) == (2, "")
        assert err.startswith(prefix)


class TestCorrelationCommands:
    def test_autocorr_stdout_matches_library(self):
        report, out, _ = run(["autocorr", "example4"])
        series = circular_autocorr(
            fixture("example4").residue_sequence()
        )
        assert report.exit_status == 0
        assert out == emit_correlation_csv(series)

    def test_autocorr_out_file_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(["autocorr", "example1", "--out", a])[0].exit_status == 0
        assert run(["autocorr", "example1", "--out", b])[0].exit_status == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_auto_convention_resolves_to_raw(self):
        report, _, err = run(["autocorr", "example1", "--convention", "auto"])
        assert report.exit_status == 0
        assert report.convention == "raw"
        assert "resolved to raw" in err

    def test_xcorr_modulus_of_b(self):
        report, out, _ = run(
            ["xcorr", "example1", "example2", "--modulus-of", "b"]
        )
        assert report.exit_status == 0
        assert out.splitlines()[0] == "lag,raw_sum,residue,normalized"
        # 16 lags plus header
        assert len(out.splitlines()) == 17

    def test_normalized_rounds_exact_ties_up(self, tmp_path):
        # 639/640 = 0.9984375 exactly; a float rounds it down to 0.998437.
        a = seq_file(tmp_path, "a640", [639, 0], modulus=640)
        b = seq_file(tmp_path, "b640", [1, 0], modulus=640)
        report, out, _ = run(["xcorr", a, b])
        assert report.exit_status == 0
        assert out.splitlines()[1] == "0,639,639,0.998438"

    def test_file_over_value_cap_prints_nothing(self, tmp_path):
        path = seq_file(tmp_path, "long", [0] * (MAX_FILE_VALUES + 1), modulus=3)
        report, out, err = run(["autocorr", path])
        assert (report.exit_status, out) == (2, "")
        assert err.startswith("error: ")

    def test_xcorr_length_mismatch(self, tmp_path):
        a = seq_file(tmp_path, "a3", [1, 2, 3], modulus=5)
        b = seq_file(tmp_path, "b2", [1, 2], modulus=5)
        report, _, err = run(["xcorr", a, b])
        assert report.exit_status == 2
        assert "mismatch" in err

    def test_expect_reference_pair(self):
        report, out, _ = run(["expect", "example1", "example2"])
        assert report.exit_status == 0
        assert "0.87" in out
        assert "101947/116528" in out

    def test_expect_modulus_of_b_swaps_table_side(self):
        _, out, _ = run(["expect", "example1", "example2", "--modulus-of", "b"])
        assert "160243/349616" in out


class TestSearch:
    def test_reference_seed_row(self, tmp_path):
        out_path = str(tmp_path / "search.csv")
        report, _, _ = run(
            ["search", "--seeds", "2,3,11,13", "--n", "16",
             "--prime-only", "--out", out_path]
        )
        assert report.exit_status == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == (
            "seed,n,gcd,modulus,modulus_is_prime,diagonal_residue,"
            "normalizer,valid,values"
        )
        moduli = [int(line.split(",")[3]) for line in lines[1:]]
        assert moduli == [331, 3121, 47, 1987]
        values = [line.split(",")[8] for line in lines[1:]]
        expected = ["example4", "example3", "example5", "example6"]
        for cell, name in zip(values, expected):
            assert cell == " ".join(str(v) for v in fixture(name).values)

    def test_chains_at_the_length_cap_are_all_valid(self):
        # The widest chains the CLI takes: 25 prime seeds at n = 1,024.
        report, out, _ = run(["search", "--seeds", "2..100", "--n", "1024"])
        assert report.exit_status == 0
        lines = out.splitlines()
        assert len(lines) == 26 and lines[0].split(",")[7] == "valid"
        assert all(line.split(",")[7] == "true" for line in lines[1:])

    def test_rejected_seed_diagnostic(self):
        report, out, err = run(["search", "--seeds", "4", "--n", "16"])
        assert report.exit_status == 0
        assert out.splitlines()[1:] == []
        assert "seed 4 is not prime" in err
        assert report.diagnostics

    @pytest.mark.parametrize("args", [
        "--seeds 4 --n 1", "--seeds 4 --n -5", "--seeds 4 --n 16 --start 0",
    ])
    def test_chain_arguments_checked_before_any_seed(self, args):
        # Seed 4 is not prime, so no chain is ever built from it.
        report, out, err = run(["search"] + args.split())
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_seed_range_expands_to_primes(self):
        report, out, _ = run(["search", "--seeds", "2..13", "--n", "16"])
        seeds = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert seeds == [2, 3, 5, 7, 11, 13]

    def test_bad_seeds_argument(self):
        report, _, err = run(["search", "--seeds", "2,x", "--n", "16"])
        assert report.exit_status == 2

    def test_empty_seed_range(self):
        report, out, err = run(["search", "--seeds", "5..3", "--n", "16"])
        assert report.exit_status == 2
        assert out == ""
        assert err == "usage error: empty seed range '5..3'\n"

    def test_seed_range_wider_than_cap_is_usage_error(self):
        report, out, err = run(["search", "--seeds", "2..100000000", "--n", "16"])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert str(cli.MAX_SEED_RANGE) in err

    def test_seed_range_cap_counts_from_two(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SEED_RANGE", 10)
        report, out, _ = run(["search", "--seeds=-50..11", "--n", "16"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 6
        report, _, _ = run(["search", "--seeds", "2..12", "--n", "16"])
        assert report.exit_status == 2

    def test_seed_cap_in_help(self):
        report, out, err = run(["search", "--help"])
        assert report.exit_status == 0
        assert err == ""
        help_text = " ".join(out.split())
        assert f"at most {cli.MAX_SEED_RANGE} integers wide" in help_text
        assert f"chain length (at most {cli.MAX_CHAIN_LENGTH})" in help_text
        assert f"at most {cli.MAX_START_BITS} bits" in help_text
        assert f"each seed at most {cli.MAX_START_BITS} bits" in help_text
        assert f"a list holds at most {cli.MAX_SEED_RANGE} values" in help_text

    def test_seed_list_count_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SEED_RANGE", 3)
        report, out, _ = run(["search", "--seeds", "2,3,5", "--n", "16"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 4

        def no_search(*args, **kwargs):
            raise AssertionError("seeds reached the primality test")

        monkeypatch.setattr(cli, "search_seeds", no_search)
        report, out, err = run(["search", "--seeds", "2,3,5,7", "--n", "16"])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert "more than 3" in err

    def test_chain_longer_than_cap_is_usage_error(self):
        report, out, err = run(["search", "--seeds", "5", "--n", "100000000"])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert str(cli.MAX_CHAIN_LENGTH) in err

    def test_chain_length_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CHAIN_LENGTH", 16)
        report, out, _ = run(["search", "--seeds", "5", "--n", "16"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 2
        report, _, _ = run(["search", "--seeds", "5", "--n", "17"])
        assert report.exit_status == 2


    def test_start_wider_than_cap_is_usage_error(self):
        report, out, err = run(
            ["search", "--seeds", "3", "--n", "8", "--start", str(10**3000)]
        )
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert str(cli.MAX_START_BITS) in err

    def test_start_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_START_BITS", 4)
        report, out, _ = run(["search", "--seeds", "3", "--n", "8", "--start", "15"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 2
        report, _, _ = run(["search", "--seeds", "3", "--n", "8", "--start", "16"])
        assert report.exit_status == 2

    @pytest.mark.parametrize(
        "seeds", [str(2**1024), f"3,{2**1024}", f"{2**1024}..{2**1024 + 9}"],
        ids=["seed", "list", "range"],
    )
    def test_seed_wider_than_cap_is_usage_error(self, seeds):
        report, out, err = run(["search", "--seeds", seeds, "--n", "8"])
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert str(cli.MAX_START_BITS) in err

    def test_seed_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_START_BITS", 4)
        report, out, _ = run(["search", "--seeds", "13", "--n", "8"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 2
        report, out, _ = run(["search", "--seeds", "2..15", "--n", "8"])
        assert report.exit_status == 0
        assert len(out.splitlines()) == 7
        for seeds in ("17", "3,17", "2..16"):
            report, _, _ = run(["search", "--seeds", seeds, "--n", "8"])
            assert report.exit_status == 2


class TestUnwritableOutput:
    """An --out path that cannot be written is exit 2, with no temp file left."""

    def check(self, argv, where):
        report, out, err = run(argv)
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not list(where.rglob(".tmp-*"))

    @pytest.mark.parametrize("argv", [
        ["autocorr", "example4"],
        ["xcorr", "example1", "example2"],
        ["search", "--seeds", "2,3", "--n", "16"],
    ])
    def test_missing_directory(self, tmp_path, argv):
        self.check(argv + ["--out", str(tmp_path / "missing" / "dir" / "x.csv")],
                   tmp_path)

    def test_out_is_a_directory(self, tmp_path):
        self.check(["autocorr", "example4", "--out", str(tmp_path)], tmp_path)

    def test_reproduce_out_is_a_file(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("kept\n")
        self.check(["reproduce", "--out", str(path)], tmp_path)
        assert path.read_text() == "kept\n"

    def test_reproduce_out_under_a_file(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("kept\n")
        self.check(["reproduce", "--out", str(path / "sub")], tmp_path)


class TestReproduce:
    def test_all_checks_pass(self):
        report, out, _ = run(["reproduce"])
        assert report.exit_status == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 9
        assert report.convention == "raw"

    def test_out_directory_artifacts(self, tmp_path):
        out_dir = str(tmp_path / "reports")
        report, _, _ = run(["reproduce", "--out", out_dir])
        assert report.exit_status == 0
        assert sorted(report.outputs) == [
            f"{out_dir}/convention_profiles.csv",
            f"{out_dir}/pair_expectations.csv",
            f"{out_dir}/verification.csv",
        ]
        profiles = open(f"{out_dir}/convention_profiles.csv").read().splitlines()
        assert profiles[0] == "convention,i,j,modulus,expectation,target,deviation"
        assert sum(1 for l in profiles if l.startswith("raw,")) == 12
        assert sum(1 for l in profiles if l.startswith("scaled,")) == 12
        pairs = open(f"{out_dir}/pair_expectations.csv").read().splitlines()
        assert pairs[0] == "i,j,modulus,expectation"
        assert len(pairs) == 13


class TestSequenceFileModulusCap:
    """A sequence file's modulus is at most MAX_MODULUS_BITS wide."""

    def wide_file(self, tmp_path, q):
        return seq_file(tmp_path, f"w{q.bit_length()}", [q - 1, q - 2], modulus=q)

    @pytest.mark.parametrize("command", ["autocorr", "xcorr"])
    def test_modulus_at_cap_prints_its_sums(self, tmp_path, command):
        q = 2**MAX_MODULUS_BITS - 1
        path = self.wide_file(tmp_path, q)
        argv = [command, path] + ([path] if command == "xcorr" else [])
        report, out, err = run(argv)
        assert report.exit_status == 0, err
        assert out.splitlines()[1] == f"0,{(q - 1) ** 2 + (q - 2) ** 2},5,0.000000"

    @pytest.mark.parametrize("q", [2**MAX_MODULUS_BITS + 1, 10**2500 + 1],
                             ids=["cap+1", "2500-digit"])
    @pytest.mark.parametrize("command", ["verify", "autocorr", "xcorr"])
    def test_wider_modulus_is_input_error(self, tmp_path, q, command):
        path = self.wide_file(tmp_path, q)
        argv = [command, path] + ([path] if command == "xcorr" else [])
        report, out, err = run(argv)
        assert report.exit_status == 2
        assert out == ""
        assert err.startswith("error: line 3: modulus is ")


class TestBundledCalibration:
    """The auto convention and reproduce share one calibration per process."""

    def test_resolved_once_per_process(self, monkeypatch, tmp_path):
        calls = []
        for name in ("resolve_convention", "pair_table"):
            def counting(*args, _real=getattr(cli, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cli, name, counting)
        cli._bundled_calibration.cache_clear()
        try:
            for argv in (
                ["autocorr", "example1", "--convention", "auto"],
                ["expect", "example1", "example2", "--convention", "auto"],
                ["reproduce"],
                ["reproduce", "--out", str(tmp_path)],
            ):
                assert run(argv)[0].exit_status == 0
        finally:
            cli._bundled_calibration.cache_clear()
        assert calls == ["resolve_convention", "pair_table"]

    def test_not_computed_at_import(self):
        script = "import nht.cli; print(nht.cli._bundled_calibration.cache_info())"
        assert "currsize=0" in python_c(script)


class TestReproductionMemo:
    """reproduce computes its report once per process and reuses it."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        cli._reproduction.cache_clear()
        yield
        cli._reproduction.cache_clear()

    def test_checks_run_once_per_process(self, monkeypatch, tmp_path):
        calls = []
        for name in ("orthogonality_report", "search_seeds"):
            def counting(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        for argv in (
            ["reproduce"],
            ["reproduce", "--out", str(tmp_path / "a")],
            ["reproduce", "--out", str(tmp_path / "b")],
        ):
            assert run(argv)[0].exit_status == 0
        # One pass: a verdict for each of the six bundled rows, one search.
        assert calls.count("orthogonality_report") == 6
        assert calls.count("search_seeds") == 1

    def test_not_computed_at_import(self):
        script = "import nht.cli; print(nht.cli._reproduction.cache_info())"
        assert "currsize=0" in python_c(script)

    def test_later_calls_match_the_pinned_digests(self, tmp_path):
        for sub in ("first", "second", "third"):
            check_pinned_reproduce(tmp_path / sub)
        assert cli._reproduction.cache_info().misses == 1

    def test_failing_check_exits_one(self, monkeypatch):
        real = cli.search_seeds
        # Without prime_only the moduli are the chain gcds, not the rows' primes.
        monkeypatch.setattr(cli, "search_seeds", lambda seeds, n, **kw: real(seeds, n))
        report, out, _ = run(["reproduce"])
        assert report.exit_status == 1
        assert out.count("PASS ") == 8
        assert "\nFAIL chain regeneration: seeds 2,3,11,13 -> moduli 43692," in out
        monkeypatch.undo()
        cli._reproduction.cache_clear()
        report, out, _ = run(["reproduce"])
        assert report.exit_status == 0 and "FAIL" not in out


class TestSharedParser:
    """run_command parses every argv with the one parser built at import."""

    def test_commands_never_rebuild_the_parser(self, monkeypatch):
        def no_build():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "_build_parser", no_build)
        for argv in (
            ["verify", "example1"],
            ["autocorr", "example4"],
            ["xcorr", "example1", "example2"],
            ["expect", "example1", "example2"],
            ["search", "--seeds", "2,3", "--n", "16"],
            ["search", "--help"],
        ):
            report, out, _ = run(argv)
            assert report.exit_status == 0, argv
            assert out, argv

    def test_no_default_leaks_between_commands(self, monkeypatch, tmp_path):
        path = str(tmp_path / "auto.csv")
        sequence = (
            ["autocorr", "example4"],
            ["xcorr", "example1", "example2", "--modulus-of", "b",
             "--convention", "scaled"],
            ["autocorr", "example4", "--out", path],
            ["autocorr", "example4"],
        )
        for argv in sequence:
            shared = run(argv)
            assert shared == run_fresh(monkeypatch, argv), argv
            assert shared[0].exit_status == 0
        for argv in sequence:
            assert cli._PARSER.parse_args(argv) == cli._build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv", [["--help"]] + [[name, "--help"] for name in cli._HANDLERS],
        ids=lambda argv: " ".join(argv),
    )
    def test_help_matches_fresh_parser(self, monkeypatch, argv):
        run(["search", "--seeds", "2,3", "--n", "16", "--prime-only"])
        shared = run(argv)
        assert shared[0].exit_status == 0
        assert shared[1].startswith("usage: nht")
        assert shared == run_fresh(monkeypatch, argv)

    def test_help_names_caps_as_imported(self):
        # A search run while a cap is patched must not leave the patched
        # value in the help text.
        script = (
            "import io\n"
            "from nht import cli\n"
            "cap = cli.MAX_SEED_RANGE\n"
            "cli.MAX_SEED_RANGE = 10\n"
            "report = cli.run_command(['search', '--seeds', '2..11', '--n', '16'],"
            " io.StringIO(), io.StringIO())\n"
            "assert report.exit_status == 0, report\n"
            "cli.MAX_SEED_RANGE = cap\n"
            "cli.run_command(['search', '--help'])\n"
        )
        help_text = " ".join(python_c(script).split())
        assert f"at most {cli.MAX_SEED_RANGE} integers wide" in help_text
        assert f"a list holds at most {cli.MAX_SEED_RANGE} values" in help_text


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")


class TestOnePassParse:
    """run_command hands a subcommand's argv to that subcommand's own parser,
    so each token is parsed once; the two-pass _PARSER.parse_args is the
    oracle for every namespace, usage error and help text."""

    VALID = [
        ["verify", "example1", "example2"],
        ["verify", "--", "example1"],
        ["autocorr", "example4"],
        ["autocorr", "--convention", "auto", "--out", "a.csv", "example1"],
        ["autocorr", "example1", "--conv", "scaled"],
        ["xcorr", "example1", "example2", "--modulus-of=b"],
        ["xcorr", "--modulus-of", "b", "--convention", "raw", "example1", "example2"],
        ["expect", "example1", "example2", "--conv", "scaled"],
        ["expect", "--", "example1", "example2"],
        ["search", "--seeds", "2..50", "--n", "16", "--prime-only"],
        ["search", "--n=16", "--start", "3", "--valid-only", "--seeds=2,3", "--out", "s.csv"],
        ["reproduce"],
        ["reproduce", "--out", "rep"],
    ]
    INVALID = [
        ["autocorr", "example4", "--frobnicate"],
        ["xcorr", "example1", "example2", "--convention", "odd"],
        ["search", "--seeds", "2..50"],
        ["expect", "example1", "example2", "example3"],
        ["verify"],
        [],
        ["bogus", "example1"],
    ]

    @staticmethod
    def outcome(parse, argv):
        try:
            return parse(list(argv))
        except (cli._UsageError, cli._HelpRequested) as exc:
            return type(exc), exc.args

    def test_subcommands_have_their_own_parsers(self):
        assert sorted(cli._PARSER.commands) == sorted(cli._HANDLERS)
        assert all(isinstance(p, cli._Parser) for p in cli._PARSER.commands.values())

    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_same_namespace(self, argv):
        ns = self.outcome(cli._parse, argv)
        assert isinstance(ns, argparse.Namespace)
        assert ns.command == argv[0]
        assert ns == self.outcome(cli._PARSER.parse_args, argv)

    @pytest.mark.parametrize("argv", INVALID, ids=lambda argv: " ".join(argv) or "empty")
    def test_same_usage_error(self, argv):
        expected = self.outcome(cli._PARSER.parse_args, argv)
        assert expected[0] is cli._UsageError
        assert self.outcome(cli._parse, argv) == expected
        report, out, err = run(argv)
        assert report.exit_status == 2
        assert out == ""
        assert err == f"usage error: {expected[1][0]}\n"

    def test_same_subcommand_help(self):
        expected = self.outcome(cli._PARSER.parse_args, ["search", "-h"])
        assert expected[0] is cli._HelpRequested
        assert self.outcome(cli._parse, ["search", "-h"]) == expected
        report, out, err = run(["search", "-h"])
        assert (report.exit_status, out, err) == (0, expected[1][0], "")

    def test_subparsers_found_through_the_current_parser(self, monkeypatch):
        # A parser swapped in for _PARSER, as run_fresh does, is the one used.
        fresh = cli._build_parser()
        fresh.commands["autocorr"].set_defaults(convention="scaled")
        monkeypatch.setattr(cli, "_PARSER", fresh)
        assert run(["autocorr", "example4"])[0].convention == "scaled"


class TestRecords:
    """Records are NamedTuples or __slots__ classes: immutable, compared by
    value, and built without generating code at import."""

    def test_import_skips_dataclasses_and_inspect(self):
        script = (
            "import sys, nht.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        assert python_c(script).strip() == "[]"

    @staticmethod
    def records():
        sf = fixture("example4")
        calibration = cli._bundled_calibration()[0]
        search = search_seeds([2], 16, prime_only=True)
        rows = [s.residue_sequence() for s in fixtures.example_rows(2)]
        return [
            ResidueSequence(sf.values), sf.residue_sequence(), sf,
            gram_lag_sums(sf.values), orthogonality_report(sf.residue_sequence()),
            circular_autocorr(sf.residue_sequence()), pair_table(rows)[0],
            calibration.raw.rows[0], calibration.raw, calibration,
            search.candidates[0], search, run(["verify", "example4"])[0],
        ]

    def test_every_record_is_immutable(self):
        records = self.records()
        assert len({type(r).__name__ for r in records}) == 11
        for record in records:
            name = (getattr(record, "_fields", None) or record.__slots__)[0]
            before = getattr(record, name)
            for mutate in (lambda: setattr(record, name, None),
                           lambda: delattr(record, name),
                           lambda: setattr(record, "extra", 1)):
                with pytest.raises(AttributeError):
                    mutate()
            assert getattr(record, name) is before
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_records_survive_pickling(self):
        for record in self.records():
            assert pickle.loads(pickle.dumps(record)) == record


def check_pinned_reproduce(out_dir):
    """`reproduce --out out_dir` exits 0 with the pinned stdout and CSVs."""
    report, out, _ = run(["reproduce", "--out", str(out_dir)])
    assert report.exit_status == 0
    assert sha256(out) == (
        "5f9a9eec145fdc15abb603b0d5267e81a9aeedc2ca7586f9f05afe2731cde14f"
    )
    digests = {
        "verification.csv":
            "7cbddcb7fdd3ab3933cc9c0441f175c73c8419a796e154bb5b5b667aec199b68",
        "pair_expectations.csv":
            "1d6be629e33c84e35c89b981375c1a42f0648b50cee429fa9bbbb5e89e05e930",
        "convention_profiles.csv":
            "310bb8a35e4bd18feaf4b491c5c00c70cb2b7567d5d5bec98a66f30537b0f275",
    }
    for name, digest in digests.items():
        assert sha256((out_dir / name).read_text()) == digest


class TestPinnedOutputs:
    """Byte-for-byte digests of search, correlation and reproduce output."""

    @pytest.mark.parametrize("args, digest", [
        ("--seeds 3001..3200 --n 64 --prime-only",
         "697f74341ec39d9b037ef9edb1fc0f92099847ed821dd419f2af2ebcefd13f5a"),
        ("--seeds 2..400 --n 16",
         "40a300f2f873ae95acbf2b8358a8c95431049b1a97f6d8a93a592a591960f399"),
        ("--seeds 2..400 --n 17 --prime-only --start 3",
         "5b08bf61b275a2e9e7b8bca39a7cdc470cbef64ed6f14564f47d31353770197d"),
    ])
    def test_search_csv(self, args, digest):
        report, out, err = run(["search"] + args.split())
        assert report.exit_status == 0
        assert err == ""
        assert sha256(out) == digest

    @pytest.mark.parametrize("args, status, out_digest, err_digest", [
        ("autocorr example4", 0,
         "d2aa9edbd3803660002c608ba51600007885f0c5c3cc50297f6759a87e7ba15b", EMPTY),
        ("autocorr example1 --convention auto", 0,
         "7a785803f1a110f145c47bf249519b1e9f642e49f784eba6beadd1ec01ed04f0",
         "56e67130c7321b586f187f2e2040c5397fbe3a0d5b2614826a849dbb6a724aa2"),
        ("xcorr example1 example2 --modulus-of b --convention scaled", 0,
         "e72842fa54493642f0cdf20005902577dedececcd5cbb58714e7bfc73c512b4d", EMPTY),
        ("expect example1 example2", 0,
         "c2564089b86c1d2ec5ab37f92edfa84524ef756bf0bdbbd09e79cf94b59099a5", EMPTY),
        ("expect example3 example4 --modulus-of b --convention auto", 0,
         "d255c1e6f496dc8a6021b05d7ccc89381c249660e2b1421e3fa297a49014e001",
         "56e67130c7321b586f187f2e2040c5397fbe3a0d5b2614826a849dbb6a724aa2"),
        ("autocorr chain2", 2, EMPTY,
         "94e42be7fd574630c31a33c7921d91b8ae56f732f4ce1637d781e8a14ee795c9"),
    ])
    def test_correlation_commands(self, args, status, out_digest, err_digest):
        report, out, err = run(args.split())
        assert report.exit_status == status
        assert sha256(out) == out_digest
        assert sha256(err) == err_digest

    def test_reproduce(self, tmp_path):
        check_pinned_reproduce(tmp_path)


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: nht ")

    def test_no_arguments(self):
        report, _, _ = run([])
        assert report.exit_status == 2

    def test_unknown_subcommand(self):
        report, _, err = run(["bogus"])
        assert report.exit_status == 2

    def test_unknown_flag(self):
        report, _, _ = run(["verify", "example1", "--frobnicate"])
        assert report.exit_status == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("name: x\nwidth: 3\n")
        report, _, err = run(["verify", str(path)])
        assert report.exit_status == 2
        assert "line 2" in err

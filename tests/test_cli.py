"""Command-line behavior: exit codes, CSV output, reproduction run."""

import hashlib
import io

import pytest

from nht import cli, fixtures
from nht.cli import run_command
from nht.correlation import circular_autocorr
from nht.seqio import (
    SequenceFile,
    emit_correlation_csv,
    emit_sequence_file,
    write_text_atomic,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    report = run_command(argv, out=out, err=err)
    return report, out.getvalue(), err.getvalue()


def seq_file(tmp_path, name, values, modulus=None):
    sf = SequenceFile(name=name, n=len(values), values=tuple(values),
                      modulus=modulus)
    path = tmp_path / f"{name}.seq"
    write_text_atomic(str(path), emit_sequence_file(sf))
    return str(path)


class TestVerify:
    def test_bundled_rows_pass(self):
        report, out, _ = run(["verify"] + [f"example{i}" for i in range(1, 7)])
        assert report.exit_status == 0
        assert out.count("self-orthogonal") == 6

    def test_broken_row_fails_with_offenders(self, tmp_path):
        values = list(fixtures.fixture("example4").values)
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


class TestCorrelationCommands:
    def test_autocorr_stdout_matches_library(self):
        report, out, _ = run(["autocorr", "example4"])
        series = circular_autocorr(
            fixtures.fixture("example4").residue_sequence()
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
            assert cell == " ".join(str(v) for v in fixtures.fixture(name).values)

    def test_rejected_seed_diagnostic(self):
        report, out, err = run(["search", "--seeds", "4", "--n", "16"])
        assert report.exit_status == 0
        assert out.splitlines()[1:] == []
        assert "seed 4 is not prime" in err
        assert report.diagnostics

    def test_seed_range_expands_to_primes(self):
        report, out, _ = run(["search", "--seeds", "2..13", "--n", "16"])
        seeds = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert seeds == [2, 3, 5, 7, 11, 13]

    def test_bad_seeds_argument(self):
        report, _, err = run(["search", "--seeds", "2,x", "--n", "16"])
        assert report.exit_status == 2

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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")


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
        report, out, _ = run(["reproduce", "--out", str(tmp_path)])
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
            assert sha256((tmp_path / name).read_text()) == digest


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

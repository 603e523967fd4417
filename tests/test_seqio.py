"""Sequence file parsing/emission and CSV output."""

import os
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nht.core import ResidueSequence
from nht.correlation import PairTableRow, circular_autocorr
from nht.errors import InvalidModulusError, SequenceFileError
from nht.seqio import (
    SequenceFile,
    emit_correlation_csv,
    emit_pair_table_csv,
    emit_sequence_file,
    load_sequence_file,
    parse_sequence_file,
    write_text_atomic,
)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)


@st.composite
def sequence_files(draw):
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        q = draw(st.integers(2, 10**6))
        values = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        return SequenceFile(name=draw(names), n=n, values=tuple(values), modulus=q)
    values = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n))
    return SequenceFile(name=draw(names), n=n, values=tuple(values))


class TestSequenceFile:
    def test_rejects_residue_at_modulus(self):
        with pytest.raises(SequenceFileError):
            SequenceFile(name="x", n=2, values=(1, 7), modulus=7)

    def test_rejects_count_mismatch(self):
        with pytest.raises(SequenceFileError):
            SequenceFile(name="x", n=3, values=(1, 2))

    def test_rejects_whitespace_name(self):
        with pytest.raises(SequenceFileError):
            SequenceFile(name="a b", n=2, values=(1, 2))

    def test_conversions(self):
        sf = SequenceFile(name="x", n=2, values=(1, 2), modulus=5)
        assert sf.residue_sequence() == ResidueSequence((1, 2), 5)

    def test_residue_sequence_needs_modulus(self):
        sf = SequenceFile(name="x", n=2, values=(1, 2))
        with pytest.raises(InvalidModulusError):
            sf.residue_sequence()


class TestParsing:
    @given(sequence_files())
    @settings(deadline=None)
    def test_round_trip(self, sf):
        assert parse_sequence_file(emit_sequence_file(sf)) == sf

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nname: x\nn: 2\n\nvalues: 1 2\n"
        sf = parse_sequence_file(text)
        assert sf == SequenceFile(name="x", n=2, values=(1, 2))

    def test_unknown_key_reports_line(self):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file("name: x\nwidth: 3\n")
        assert exc.value.line == 2

    def test_duplicate_key_reports_line(self):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file("name: x\nname: y\n")
        assert exc.value.line == 2

    def test_bad_integer_reports_line(self):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file("name: x\nn: two\nvalues: 1 2\n")
        assert exc.value.line == 2

    def test_residue_at_modulus_reports_values_line(self):
        text = "name: x\nn: 2\nmodulus: 7\nvalues: 1 7\n"
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file(text)
        assert exc.value.line == 4

    def test_missing_required_key(self):
        with pytest.raises(SequenceFileError):
            parse_sequence_file("name: x\nn: 2\n")

    def test_empty_text(self):
        with pytest.raises(SequenceFileError):
            parse_sequence_file("")

    def test_load_from_disk(self, tmp_path):
        sf = SequenceFile(name="disk", n=3, values=(4, 5, 6), modulus=9)
        path = tmp_path / "disk.seq"
        write_text_atomic(str(path), emit_sequence_file(sf))
        assert load_sequence_file(str(path)) == sf


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_text_atomic(path, "first\n")
        write_text_atomic(path, "second\n")
        with open(path) as fh:
            assert fh.read() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_text_atomic(path, "data\n")
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = str(tmp_path / "out.txt")
        old = os.umask(umask)
        try:
            write_text_atomic(path, "data\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == mode


class TestCsv:
    def test_correlation_csv_golden(self):
        series = circular_autocorr(ResidueSequence([1, 0, 0, 0, 0], 5))
        assert emit_correlation_csv(series) == (
            "lag,raw_sum,residue,normalized\n"
            "0,1,1,0.200000\n"
            "1,0,0,0.000000\n"
            "2,0,0,0.000000\n"
            "3,0,0,0.000000\n"
            "4,0,0,0.000000\n"
        )

    def test_pair_table_csv_golden(self):
        rows = [
            PairTableRow(i=1, j=2, modulus=5, expectation=Fraction(87, 100),
                         complementary=True),
            PairTableRow(i=2, j=1, modulus=7, expectation=Fraction(1, 8),
                         complementary=True),
        ]
        assert emit_pair_table_csv(rows) == (
            "i,j,modulus,expectation\n"
            "1,2,5,0.87\n"
            "2,1,7,0.13\n"
        )

    def test_deterministic_bytes(self):
        series = circular_autocorr(ResidueSequence([3, 1, 4, 1], 5))
        assert emit_correlation_csv(series) == emit_correlation_csv(series)

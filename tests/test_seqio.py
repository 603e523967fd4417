"""Sequence file parsing/emission and CSV output."""

import os
import pickle
import stat
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nht.core import ResidueSequence
from nht.correlation import PairTableRow, circular_autocorr
from nht.errors import InvalidGeneratorError, InvalidModulusError, SequenceFileError
from nht.seqio import (
    MAX_FILE_BITS,
    MAX_FILE_CHARS,
    MAX_FILE_VALUES,
    MAX_MODULUS_BITS,
    emit_correlation_csv,
    emit_pair_table_csv,
    load_sequence_file,
    parse_sequence_file,
    write_text_atomic,
)
from oracles import emit_sequence_file

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)


@st.composite
def sequence_files(draw):
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        q = draw(st.integers(2, 10**6))
        values = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        return ResidueSequence(values, q, draw(names))
    values = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n))
    return ResidueSequence(values, name=draw(names))


CAP = 2**MAX_MODULUS_BITS


@st.composite
def file_fields(draw):
    """(name, n, modulus, values, key order) of a sequence file, valid or not."""
    modulus = draw(st.none() | st.integers(2, 50)
                   | st.sampled_from([0, 1, -3, CAP - 1, CAP, CAP + 1]))
    value = st.integers(-3, 60)
    if modulus is not None:
        value |= st.sampled_from([modulus - 1, modulus, modulus + 1])
    values = draw(st.lists(value, max_size=6)
                  | st.lists(st.just(0), min_size=2, max_size=4))
    n = len(values) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    name = draw(names | st.sampled_from(["", "a b", "a\tb"]))
    keys = ["name", "n", "values"] + ([] if modulus is None else ["modulus"])
    return name, n, modulus, values, draw(st.permutations(keys))


def file_text(name, n, modulus, values, order):
    fields = {"name": name, "n": n, "modulus": modulus,
              "values": " ".join(map(str, values))}
    return "".join(f"{key}: {fields[key]}\n" for key in order)


class TestSequenceFile:
    def test_rejects_residue_at_modulus(self):
        with pytest.raises(InvalidGeneratorError):
            ResidueSequence((1, 7), 7, "x")
        with pytest.raises(SequenceFileError):
            parse_sequence_file("name: x\nn: 2\nmodulus: 7\nvalues: 1 7\n")

    def test_rejects_count_mismatch(self):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file("name: x\nn: 3\nvalues: 1 2\n")
        assert exc.value.line == 3

    def test_rejects_whitespace_name(self):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence_file("name: a b\nn: 2\nvalues: 1 2\n")
        assert exc.value.line == 1

    def test_conversions(self):
        sf = ResidueSequence((1, 2), 5, "x")
        assert sf.residue_sequence() is sf
        assert sf.residue_sequence() == ResidueSequence((1, 2), 5, "x")

    def test_residue_row_built_once_outside_the_fields(self):
        sf = ResidueSequence((1, 2), 5, "x")
        twin = ResidueSequence((1, 2), 5, "x")
        before = repr(sf), pickle.dumps(sf)
        assert sf.residue_sequence() is sf
        assert sf == twin and hash(sf) == hash(twin)
        assert (repr(sf), pickle.dumps(sf)) == before
        assert pickle.loads(pickle.dumps(sf)) == sf

    def test_residue_sequence_needs_modulus(self):
        sf = ResidueSequence((1, 2), name="x")
        with pytest.raises(InvalidModulusError, match="sequence 'x' has no modulus"):
            sf.residue_sequence()


class TestParsing:
    @given(sequence_files())
    @settings(deadline=None)
    def test_round_trip(self, sf):
        assert parse_sequence_file(emit_sequence_file(sf)) == sf

    @given(file_fields())
    @settings(deadline=None)
    @example(("x", 2, 5, [1, -2], ["name", "n", "modulus", "values"]))
    @example(("x", 2, 7, [1, 7], ["name", "n", "modulus", "values"]))
    @example(("x", 2, 0, [0, 0], ["name", "n", "modulus", "values"]))
    @example(("x", 2, 1, [0, 0], ["name", "n", "modulus", "values"]))
    @example(("x", 2, -3, [0, 1], ["name", "n", "modulus", "values"]))
    @example(("x", 2, CAP - 1, [1, 2], ["name", "n", "modulus", "values"]))
    @example(("x", 2, CAP, [1, 2], ["name", "n", "modulus", "values"]))
    @example(("x", 3, None, [1, 2], ["name", "n", "values"]))
    @example(("a b", 2, None, [1, 2], ["name", "n", "values"]))
    @example(("x", 3, None, [0, 0, 0], ["name", "n", "values"]))
    def test_parse_returns_the_record_or_names_a_line(self, fields):
        name, n, modulus, values, order = fields
        text = file_text(*fields)
        valid = (
            name and not any(c.isspace() for c in name) and n == len(values)
            and len(values) >= 2 and min(values) >= 0
            and (modulus is None or 2 <= modulus < CAP and max(values) < modulus)
        )
        try:
            sf = parse_sequence_file(text)
        except SequenceFileError as exc:
            assert not valid, text
            assert 1 <= exc.line <= len(order), text
        else:
            assert valid, text
            assert sf == ResidueSequence(values, modulus, name)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nname: x\nn: 2\n\nvalues: 1 2\n"
        sf = parse_sequence_file(text)
        assert sf == ResidueSequence((1, 2), name="x")

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
        sf = ResidueSequence((4, 5, 6), 9, "disk")
        path = tmp_path / "disk.seq"
        write_text_atomic(str(path), emit_sequence_file(sf))
        assert load_sequence_file(str(path)) == sf


def row_text(n, bits):
    """A file of n values (one q - 1, then zeros) under a bits-wide modulus."""
    q = 3 if bits == 2 else 2 ** (bits - 1) + 1
    return f"name: x\nn: {n}\nmodulus: {q}\nvalues: {q - 1}" + " 0" * (n - 1) + "\n"


class TestFileCaps:
    """Each cap on a file's size, tested from both sides."""

    def test_value_count(self):
        assert parse_sequence_file(row_text(MAX_FILE_VALUES, 2)).n == MAX_FILE_VALUES
        with pytest.raises(SequenceFileError, match="more than") as exc:
            parse_sequence_file(row_text(MAX_FILE_VALUES + 1, 2))
        assert exc.value.line == 2

    @pytest.mark.parametrize("n, bits, ok", [
        (1024, 3072, True), (1025, 3072, False), (4096, 3072, False),
        (MAX_FILE_VALUES, 48, True), (MAX_FILE_VALUES, 49, False),
        (4327, 727, False),  # one bit over the cap
    ])
    def test_values_times_modulus_bits(self, n, bits, ok):
        assert (n * bits <= MAX_FILE_BITS) == ok
        text = row_text(n, bits)
        if ok:
            assert parse_sequence_file(text).n == n
        else:
            with pytest.raises(SequenceFileError, match="modulus width") as exc:
                parse_sequence_file(text)
            assert exc.value.line == 3

    def test_text_length(self, tmp_path):
        text = row_text(2, 2)
        text += "#" * (MAX_FILE_CHARS - len(text) - 1) + "\n"
        assert len(text) == MAX_FILE_CHARS
        assert parse_sequence_file(text).n == 2
        path = tmp_path / "long.seq"
        path.write_text(text + "\n")
        with pytest.raises(SequenceFileError, match="longer than"):
            load_sequence_file(str(path))


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

"""Tests for repro.core.storage — corpus persistence."""

import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.corpus import AddressCorpus
from repro.core.storage import (
    CorpusFormatError,
    load_corpus,
    load_corpus_binary,
    load_corpus_text,
    save_corpus,
    save_corpus_binary,
    save_corpus_text,
)


def sample_corpus():
    corpus = AddressCorpus("sample")
    corpus.record_interval(0x20010DB8 << 96 | 1, 10.0, 20.5, 3)
    corpus.record_interval(0x20010DB8 << 96 | 2, 0.25, 0.25, 1)
    corpus.record_interval((1 << 128) - 1, 1e9, 2e9, 100)
    return corpus


def assert_corpora_equal(a, b):
    assert a.name == b.name
    assert len(a) == len(b)
    assert dict(a.items()) == dict(b.items())


class TestTextFormat:
    def test_roundtrip(self):
        corpus = sample_corpus()
        stream = io.StringIO()
        written = save_corpus_text(corpus, stream)
        assert written == 3
        stream.seek(0)
        assert_corpora_equal(corpus, load_corpus_text(stream))

    def test_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            load_corpus_text(io.StringIO("not a corpus\n"))

    def test_rejects_missing_columns(self):
        with pytest.raises(ValueError):
            load_corpus_text(io.StringIO("# repro-corpus v1 name=x\nbad\n"))

    def test_rejects_malformed_record(self):
        text = (
            "# repro-corpus v1 name=x\n"
            "address,first_seen,last_seen,count\n"
            "2001:db8::1,1.0\n"
        )
        with pytest.raises(ValueError):
            load_corpus_text(io.StringIO(text))

    def test_skips_comments_and_blanks(self):
        text = (
            "# repro-corpus v1 name=x\n"
            "address,first_seen,last_seen,count\n"
            "\n"
            "# comment\n"
            "2001:db8::1,1.0,2.0,2\n"
        )
        corpus = load_corpus_text(io.StringIO(text))
        assert len(corpus) == 1

    def test_empty_corpus(self):
        stream = io.StringIO()
        save_corpus_text(AddressCorpus("empty"), stream)
        stream.seek(0)
        loaded = load_corpus_text(stream)
        assert loaded.name == "empty"
        assert len(loaded) == 0


class TestBinaryFormat:
    def test_roundtrip(self):
        corpus = sample_corpus()
        stream = io.BytesIO()
        assert save_corpus_binary(corpus, stream) == 3
        stream.seek(0)
        assert_corpora_equal(corpus, load_corpus_binary(stream))

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            load_corpus_binary(io.BytesIO(b"XXXX" + b"\x00" * 32))

    def test_rejects_truncation(self):
        corpus = sample_corpus()
        stream = io.BytesIO()
        save_corpus_binary(corpus, stream)
        data = stream.getvalue()[:-8]
        with pytest.raises(ValueError):
            load_corpus_binary(io.BytesIO(data))

    def test_timestamps_preserved_exactly(self):
        corpus = AddressCorpus("precise")
        corpus.record_interval(7, 0.1 + 0.2, 1e308, 1)
        stream = io.BytesIO()
        save_corpus_binary(corpus, stream)
        stream.seek(0)
        loaded = load_corpus_binary(stream)
        assert loaded.first_seen(7) == 0.1 + 0.2
        assert loaded.last_seen(7) == 1e308

    def test_smaller_than_text(self):
        corpus = sample_corpus()
        text = io.StringIO()
        save_corpus_text(corpus, text)
        binary = io.BytesIO()
        save_corpus_binary(corpus, binary)
        assert len(binary.getvalue()) < len(text.getvalue())

    def test_canonical_order_independent_of_insertion(self):
        forward = sample_corpus()
        backward = AddressCorpus("sample")
        for address, (first, last, count) in reversed(
            list(forward.items())
        ):
            backward.record_interval(address, first, last, count)
        a, b = io.BytesIO(), io.BytesIO()
        save_corpus_binary(forward, a)
        save_corpus_binary(backward, b)
        assert a.getvalue() == b.getvalue()


def v1_corpus_bytes(name, records):
    """Hand-roll a pre-PR v1 file (uint32 counts, RPC1 magic)."""
    record = struct.Struct(">16s d d I")
    out = io.BytesIO()
    out.write(b"RPC1")
    encoded = name.encode("utf-8")
    out.write(len(encoded).to_bytes(2, "big"))
    out.write(encoded)
    out.write(len(records).to_bytes(8, "big"))
    for address, first, last, count in records:
        out.write(record.pack(address.to_bytes(16, "big"), first, last, count))
    return out.getvalue()


class TestBinaryVersions:
    def test_v1_file_still_loads(self):
        data = v1_corpus_bytes(
            "legacy",
            [(0x20010DB8 << 96 | 1, 10.0, 20.5, 3), (7, 0.25, 0.25, 1)],
        )
        corpus = load_corpus_binary(io.BytesIO(data))
        assert corpus.name == "legacy"
        assert dict(corpus.items()) == {
            0x20010DB8 << 96 | 1: (10.0, 20.5, 3),
            7: (0.25, 0.25, 1),
        }

    def test_v1_writer_roundtrip(self):
        # Only v2 is written; v1 bytes are packed here, with struct.
        corpus = sample_corpus()
        data = v1_corpus_bytes(
            corpus.name,
            [(address, *record) for address, record in corpus.items()],
        )
        assert data.startswith(b"RPC1")
        assert_corpora_equal(corpus, load_corpus_binary(io.BytesIO(data)))

    def test_v2_is_default_magic(self):
        stream = io.BytesIO()
        save_corpus_binary(sample_corpus(), stream)
        assert stream.getvalue().startswith(b"RPC2")

    def test_v2_holds_counts_beyond_uint32(self):
        corpus = AddressCorpus("busy")
        corpus.record_interval(9, 1.0, 2.0, (1 << 32) + 5)
        stream = io.BytesIO()
        save_corpus_binary(corpus, stream)
        stream.seek(0)
        loaded = load_corpus_binary(stream)
        assert loaded.observation_count(9) == (1 << 32) + 5

    def test_unknown_version_rejected(self):
        data = v1_corpus_bytes("future", [])
        with pytest.raises(CorpusFormatError, match="magic"):
            load_corpus_binary(io.BytesIO(b"RPC3" + data[4:]))


def overflowing_corpus():
    """Two counts past uint64, the higher address inserted first."""
    corpus = AddressCorpus("busy")
    corpus.record_interval((1 << 128) - 1, 1.0, 2.0, (1 << 64) + 5)
    corpus.record_interval(0x20010DB8 << 96 | 9, 1.0, 2.0, 1 << 64)
    corpus.record_interval(7, 1.0, 2.0, (1 << 64) - 1)
    return corpus


#: The error for :func:`overflowing_corpus` names its lower offender.
OVERFLOW_ERROR = (
    "observation count 18,446,744,073,709,551,616 of 2001:db8::9 "
    "exceeds the uint64 range of binary format v2"
)


class TestCountOverflow:
    """Counts past the v2 record's uint64 field raise a typed error."""

    def test_save_corpus_binary_raises_before_writing(self):
        stream = io.BytesIO()
        with pytest.raises(ValueError) as excinfo:
            save_corpus_binary(overflowing_corpus(), stream)
        assert str(excinfo.value) == OVERFLOW_ERROR
        assert stream.getvalue() == b""

    def test_save_corpus_bin_keeps_previous_file(self, tmp_path):
        path = tmp_path / "c.corpus.bin"
        save_corpus(sample_corpus(), path)
        with pytest.raises(ValueError) as excinfo:
            save_corpus(overflowing_corpus(), path)
        assert str(excinfo.value) == OVERFLOW_ERROR
        assert_corpora_equal(sample_corpus(), load_corpus(path))
        assert list(tmp_path.iterdir()) == [path]

    def test_largest_count_round_trips(self):
        corpus = AddressCorpus("busy")
        corpus.record_interval(9, 1.0, 2.0, (1 << 64) - 1)
        stream = io.BytesIO()
        save_corpus_binary(corpus, stream)
        stream.seek(0)
        loaded = load_corpus_binary(stream)
        assert loaded.observation_count(9) == (1 << 64) - 1


class ExplodingCorpus(AddressCorpus):
    """Raises partway through serialization, like a mid-write crash."""

    def items(self):
        iterator = super().items()
        yield next(iterator)
        raise OSError("simulated crash")


class TestAtomicSave:
    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_failed_save_keeps_previous_file(self, tmp_path, suffix):
        path = tmp_path / f"c.corpus{suffix}"
        good = sample_corpus()
        save_corpus(good, path)
        bad = ExplodingCorpus("sample")
        bad.merge(good)
        with pytest.raises(OSError):
            save_corpus(bad, path)
        assert_corpora_equal(good, load_corpus(path))
        # No temp litter either.
        assert list(tmp_path.iterdir()) == [path]


class TestTruncatedCorpus:
    def test_truncated_binary_corpus_names_file_and_offset(self, tmp_path):
        path = tmp_path / "sample.corpus.bin"
        save_corpus(sample_corpus(), path)
        data = path.read_bytes()
        cut = len(data) - 7  # mid-record
        path.write_bytes(data[:cut])
        with pytest.raises(CorpusFormatError) as excinfo:
            load_corpus(path)
        error = excinfo.value
        assert error.path == path
        assert error.offset is not None
        assert str(path) in str(error)
        assert "byte offset" in str(error)

    def test_truncated_header_is_an_error_not_empty(self, tmp_path):
        # Cutting the file inside the record-count field must raise —
        # historically a short read here yielded a silently empty corpus.
        path = tmp_path / "sample.corpus.bin"
        save_corpus(sample_corpus(), path)
        count_field = len(b"RPC2") + 2 + len(b"sample")
        path.write_bytes(path.read_bytes()[: count_field + 4])
        with pytest.raises(CorpusFormatError) as excinfo:
            load_corpus(path)
        assert "record count" in str(excinfo.value)


class TestValidationOnLoad:
    def test_text_loader_rejects_nan_timestamps(self):
        text = (
            "# repro-corpus v1 name=x\n"
            "address,first_seen,last_seen,count\n"
            "2001:db8::1,nan,2.0,2\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            load_corpus_text(io.StringIO(text))

    def test_text_loader_rejects_inf_timestamps(self):
        text = (
            "# repro-corpus v1 name=x\n"
            "address,first_seen,last_seen,count\n"
            "2001:db8::1,1.0,inf,2\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            load_corpus_text(io.StringIO(text))

    def test_text_saver_rejects_corrupting_name(self):
        corpus = sample_corpus()
        corpus.name = "evil\ninjected"  # bypass constructor validation
        with pytest.raises(ValueError):
            save_corpus_text(corpus, io.StringIO())


class TestPathInterface:
    def test_suffix_dispatch(self, tmp_path):
        corpus = sample_corpus()
        text_path = tmp_path / "c.corpus.csv"
        binary_path = tmp_path / "c.corpus.bin"
        save_corpus(corpus, text_path)
        save_corpus(corpus, binary_path)
        assert_corpora_equal(corpus, load_corpus(text_path))
        assert_corpora_equal(corpus, load_corpus(binary_path))
        # Binary file is not valid text input and vice versa.
        with pytest.raises(ValueError):
            load_corpus_binary(text_path.open("rb"))


class TestPropertyRoundtrip:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=(1 << 128) - 1),
            st.tuples(
                st.floats(min_value=0, max_value=1e12),
                st.floats(min_value=0, max_value=1e12),
                st.integers(min_value=1, max_value=1_000_000),
            ),
            max_size=30,
        )
    )
    def test_both_formats_roundtrip(self, records):
        corpus = AddressCorpus("prop")
        for address, (first, extra, count) in records.items():
            corpus.record_interval(address, first, first + extra, count)
        text = io.StringIO()
        save_corpus_text(corpus, text)
        text.seek(0)
        assert_corpora_equal(corpus, load_corpus_text(text))
        binary = io.BytesIO()
        save_corpus_binary(corpus, binary)
        binary.seek(0)
        assert_corpora_equal(corpus, load_corpus_binary(binary))


#: Saves and reloads a ``.csv`` corpus with a non-ASCII name (escaped, so
#: the script text itself is ASCII under any locale).
CSV_ROUND_TRIP = """
import sys
from repro.core.corpus import AddressCorpus
from repro.core.storage import load_corpus, save_corpus

name = "hitlist \\u00e9t\\u00e9"
corpus = AddressCorpus(name)
corpus.record_interval(1, 0.5, 1.5, 2)
save_corpus(corpus, sys.argv[1])
loaded = load_corpus(sys.argv[1])
assert loaded.name == name, ascii(loaded.name)
assert dict(loaded.items()) == dict(corpus.items())
"""


def test_csv_is_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "c.corpus.csv"
    src = Path(__file__).resolve().parents[2] / "src"
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(src),
    }
    process = subprocess.run(
        [sys.executable, "-c", CSV_ROUND_TRIP, str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert process.returncode == 0, process.stderr
    header = path.read_bytes().split(b"\n")[0]
    assert header.endswith("hitlist été".encode("utf-8"))

"""Corpus persistence.

Offline analysis and releases need to reload collected corpora without
re-running the world.  Two formats:

* **text** (``.corpus.csv``) — one ``address,first,last,count`` line per
  record, human-greppable, with a header carrying the corpus name;
  UTF-8 with ``\n`` line endings whatever the host's locale.
* **binary** (``.corpus.bin``) — fixed-size records (16-byte address,
  two float64 timestamps, observation count) behind a magic/version
  header; ~3x smaller and ~5x faster to load than text.  The current
  **v2** record carries a uint64 count; the original v1 record used a
  uint32 count and overflowed at 2^32−1 sightings — v1 files still load,
  but only v2 is written.

Records are written in ascending address order, so two corpora with the
same contents serialize to identical bytes regardless of the order the
observations arrived in (the sharded executor relies on this for its
determinism checks).  Both writers take that order from one sort of the
corpus's index columns
(:meth:`~repro.core.index.PartialIndexColumns.from_corpus`), so saving a
corpus held by its index alone builds no record store; the binary
writer packs every v2 record at once, as one big-endian structured
array (:func:`binary_v2_chunks`), and a segment seal encodes its
records with the same function from the same columns.  Both formats
round-trip exactly (timestamps are preserved bit-for-bit in binary and
via ``repr`` precision in text).

Malformed or truncated input raises :class:`CorpusFormatError` naming
the file and byte offset — never a bare ``struct.error`` or a silently
shorter corpus.  A count beyond the v2 record's uint64 field raises
``ValueError`` naming the first such address, before any byte is
written.

Path-based saves (:func:`save_corpus`) are **atomic**
(:func:`repro.core.durable.atomic_file`): a crash mid-write leaves the
previous good file untouched.  Campaign progress is not persisted
here: a collection resumes from its segment store
(:mod:`repro.core.segments`), whose segment files reuse the binary v2
record layout.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import BinaryIO, Optional, TextIO, Tuple, Union

import numpy as np

from ..addr.ipv6 import format_address, parse
from . import durable
from .corpus import AddressCorpus
from .index import PartialIndexColumns

__all__ = [
    "BINARY_RECORD_BYTES",
    "CorpusFormatError",
    "binary_v2_chunks",
    "save_corpus_text",
    "load_corpus_text",
    "save_corpus_binary",
    "load_corpus_binary",
    "save_corpus",
    "load_corpus",
]

_TEXT_HEADER = "# repro-corpus v1 name="
_BINARY_MAGIC_V1 = b"RPC1"
_BINARY_MAGIC_V2 = b"RPC2"
_RECORD_V1 = struct.Struct(">16s d d I")
_RECORD_V2 = struct.Struct(">16s d d Q")
#: One v2 record as a numpy row: the bytes of ``_RECORD_V2``, with the
#: 16-byte address as its two big-endian u64 halves.
_RECORD_V2_ROW = np.dtype(
    [
        ("hi", ">u8"),
        ("lo", ">u8"),
        ("first", ">f8"),
        ("last", ">f8"),
        ("count", ">u8"),
    ]
)

#: Serialized size of one current-format (v2) record — the segment
#: store's flush estimator prices its in-memory buffer with this.
BINARY_RECORD_BYTES = _RECORD_V2.size


class CorpusFormatError(ValueError):
    """A corpus file is malformed.

    Carries the offending ``path`` (when known) and the byte ``offset``
    the problem was detected at, and renders both into the message —
    "file X is broken at byte Y", not a bare ``struct.error``.
    """

    def __init__(
        self,
        reason: str,
        *,
        path: Optional[Union[str, Path]] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.reason = reason
        self.path = None if path is None else Path(path)
        self.offset = offset
        message = reason
        if offset is not None:
            message += f" (at byte offset {offset})"
        if path is not None:
            message += f" in {path}"
        super().__init__(message)


def _with_path(error: CorpusFormatError, path: Union[str, Path]) -> CorpusFormatError:
    """The same error, re-raised with the file name attached."""
    cls = type(error)
    return cls(error.reason, path=path, offset=error.offset)


def _stream_offset(stream: BinaryIO) -> Optional[int]:
    try:
        return stream.tell()
    except (OSError, AttributeError):
        return None


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise a located truncation error."""
    data = stream.read(size)
    if len(data) != size:
        offset = _stream_offset(stream)
        if offset is not None:
            offset -= len(data)
        raise CorpusFormatError(
            f"truncated file: wanted {size} bytes for {what}, "
            f"got {len(data)}",
            offset=offset,
        )
    return data


def save_corpus_text(corpus: AddressCorpus, stream: TextIO) -> int:
    """Write the text format; returns the number of records written."""
    name = corpus.name
    if "\n" in name or "\r" in name:
        raise ValueError(
            f"corpus name would corrupt the text header: {name!r}"
        )
    rows = PartialIndexColumns.from_corpus(corpus)
    stream.write(f"{_TEXT_HEADER}{name}\n")
    stream.write("address,first_seen,last_seen,count\n")
    for hi, lo, first, last, count in zip(
        rows.hi.tolist(),
        rows.lo.tolist(),
        rows.first.tolist(),
        rows.last.tolist(),
        rows.counts.tolist(),
    ):
        stream.write(
            f"{format_address((hi << 64) | lo)},{first!r},{last!r},{count}\n"
        )
    return len(rows)


def load_corpus_text(stream: TextIO) -> AddressCorpus:
    """Read the text format back into a corpus."""
    header = stream.readline().rstrip("\n")
    if not header.startswith(_TEXT_HEADER):
        raise CorpusFormatError(
            f"not a repro corpus file: {header[:40]!r}", offset=0
        )
    name = header[len(_TEXT_HEADER):]
    corpus = AddressCorpus(name or "loaded")
    column_line = stream.readline()
    if not column_line.startswith("address,"):
        raise CorpusFormatError("missing column header")
    for line_number, line in enumerate(stream, start=3):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed record on line {line_number}: {line!r}")
        address, first, last, count = parts
        try:
            corpus.record_interval(
                parse(address), float(first), float(last), int(count)
            )
        except ValueError as error:
            raise ValueError(
                f"bad record on line {line_number}: {error}"
            ) from error
    return corpus


def binary_v2_chunks(
    name: str, rows: PartialIndexColumns
) -> Tuple[bytes, bytes]:
    """A v2 corpus as two chunks: its header, then every record.

    ``rows`` are sorted by address
    (:meth:`~repro.core.index.PartialIndexColumns.from_corpus`); their
    ``(hi, lo, first, last, counts)`` are packed as one big-endian
    structured array, so a save and a segment seal encode the same
    bytes from the same sort.
    """
    name_bytes = name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("corpus name too long for the binary header")
    table = np.empty(len(rows), dtype=_RECORD_V2_ROW)
    for field, column in zip(
        _RECORD_V2_ROW.names,
        (rows.hi, rows.lo, rows.first, rows.last, rows.counts),
    ):
        table[field] = column
    header = (
        _BINARY_MAGIC_V2
        + len(name_bytes).to_bytes(2, "big")
        + name_bytes
        + len(table).to_bytes(8, "big")
    )
    return header, table.tobytes()


def save_corpus_binary(corpus: AddressCorpus, stream: BinaryIO) -> int:
    """Write the binary format (v2); returns the number of records written.

    Counts beyond the uint64 record field raise ``ValueError`` naming
    the first such address, before any byte is written.
    """
    rows = PartialIndexColumns.from_corpus(corpus)
    for chunk in binary_v2_chunks(corpus.name, rows):
        stream.write(chunk)
    return len(rows)


def load_corpus_binary(stream: BinaryIO) -> AddressCorpus:
    """Read the binary format (v1 or v2) back into a corpus.

    Truncated or malformed input raises :class:`CorpusFormatError`
    pointing at the byte the problem was detected at.
    """
    magic = _read_exact(stream, 4, "format magic")
    if magic == _BINARY_MAGIC_V2:
        record = _RECORD_V2
    elif magic == _BINARY_MAGIC_V1:
        record = _RECORD_V1
    else:
        raise CorpusFormatError(
            f"not a repro binary corpus: magic {magic!r}", offset=0
        )
    name_length = int.from_bytes(
        _read_exact(stream, 2, "name length"), "big"
    )
    name = _read_exact(stream, name_length, "corpus name").decode("utf-8")
    corpus = AddressCorpus(name or "loaded")
    expected = int.from_bytes(_read_exact(stream, 8, "record count"), "big")
    for index in range(expected):
        raw = _read_exact(
            stream, record.size, f"record {index} of {expected}"
        )
        packed_address, first, last, count = record.unpack(raw)
        try:
            corpus.record_interval(
                int.from_bytes(packed_address, "big"), first, last, count
            )
        except ValueError as error:
            offset = _stream_offset(stream)
            if offset is not None:
                offset -= record.size
            raise CorpusFormatError(
                f"bad record {index} of {expected}: {error}", offset=offset
            ) from error
    return corpus


def save_corpus(corpus: AddressCorpus, path: Union[str, Path]) -> int:
    """Atomically save to a path; format chosen by suffix (``.bin`` → binary)."""
    path = Path(path)
    with durable.atomic_file(path) as stream:
        if path.suffix == ".bin":
            return save_corpus_binary(corpus, stream)
        # The same bytes on every host: UTF-8, "\n" line endings.
        text = io.TextIOWrapper(stream, encoding="utf-8", newline="\n")
        written = save_corpus_text(corpus, text)
        text.detach()
        return written


def load_corpus(path: Union[str, Path]) -> AddressCorpus:
    """Load from a path; format chosen by suffix (``.bin`` → binary)."""
    path = Path(path)
    try:
        if path.suffix == ".bin":
            with path.open("rb") as stream:
                return load_corpus_binary(stream)
        with path.open("r", encoding="utf-8") as stream:
            return load_corpus_text(stream)
    except CorpusFormatError as error:
        raise _with_path(error, path) from error

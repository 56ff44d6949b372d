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
determinism checks).  Both formats round-trip exactly (timestamps are
preserved bit-for-bit in binary and via ``repr`` precision in text).

Malformed or truncated input raises :class:`CorpusFormatError` naming
the file and byte offset — never a bare ``struct.error`` or a silently
shorter corpus.

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
from typing import BinaryIO, Optional, TextIO, Union

from ..addr.ipv6 import format_address, parse
from . import durable
from .corpus import AddressCorpus

__all__ = [
    "BINARY_RECORD_BYTES",
    "CorpusFormatError",
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
_MAX_COUNT = 0xFFFFFFFFFFFFFFFF

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
    stream.write(f"{_TEXT_HEADER}{name}\n")
    stream.write("address,first_seen,last_seen,count\n")
    written = 0
    for address, (first, last, count) in sorted(corpus.items()):
        stream.write(
            f"{format_address(address)},{first!r},{last!r},{count}\n"
        )
        written += 1
    return written


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


def save_corpus_binary(corpus: AddressCorpus, stream: BinaryIO) -> int:
    """Write the binary format (v2); returns the number of records written.

    Counts beyond the uint64 record field raise ``ValueError`` instead
    of a bare ``struct.error``.
    """
    name_bytes = corpus.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("corpus name too long for the binary header")
    stream.write(_BINARY_MAGIC_V2)
    stream.write(len(name_bytes).to_bytes(2, "big"))
    stream.write(name_bytes)
    stream.write(len(corpus).to_bytes(8, "big"))
    written = 0
    for address, (first, last, count) in sorted(corpus.items()):
        if count > _MAX_COUNT:
            raise ValueError(
                f"observation count {count:,} of "
                f"{format_address(address)} exceeds the uint64 range of "
                "binary format v2"
            )
        stream.write(
            _RECORD_V2.pack(address.to_bytes(16, "big"), first, last, count)
        )
        written += 1
    return written


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

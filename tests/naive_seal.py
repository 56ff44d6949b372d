"""Per-record reference encoders for the sealed corpus formats.

The package seals a corpus from one set of sorted numpy columns
(:meth:`repro.core.index.PartialIndexColumns.from_corpus`):
``save_corpus_binary`` and ``SegmentStore.write_segment`` pack every v2
record at once, and a segment's ``.idx`` partial is the same columns.  This module is the
independent side those bytes are checked against.  It sorts the records
with ``sorted(corpus.items())``, packs each one with its own
``struct.pack`` call, and derives the partial's feature columns one IID
at a time with the scalar :func:`repro.core.kernels.iid_features`.  It
reads no numpy column.

:func:`save_corpus_binary` is the per-record v2 writer the package
shipped before its columnar one, kept verbatim.  The seal-identity
properties (``tests/core/test_seal_identity.py``) import this module.
"""

import io
import struct
import zlib

from repro.addr.ipv6 import format_address
from repro.core.kernels import iid_features

_RECORD_V2 = struct.Struct(">16s d d Q")
_MAX_COUNT = 0xFFFFFFFFFFFFFFFF
_LOW_HALF = (1 << 64) - 1

#: The ``.idx`` payload columns in serialized order, as little-endian
#: ``struct`` codes (DESIGN.md §12).
_PARTIAL_COLUMNS = "QQddQdBQ"


def save_corpus_binary(corpus, stream) -> int:
    """Write the binary format (v2); returns the number of records written.

    Counts beyond the uint64 record field raise ``ValueError`` instead
    of a bare ``struct.error``.
    """
    name_bytes = corpus.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("corpus name too long for the binary header")
    stream.write(b"RPC2")
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


def corpus_bytes(corpus) -> bytes:
    """The v2 file :func:`save_corpus_binary` writes for ``corpus``."""
    stream = io.BytesIO()
    save_corpus_binary(corpus, stream)
    return stream.getvalue()


def _sealed(body: bytes, trailer_magic: bytes) -> bytes:
    return body + trailer_magic + zlib.crc32(body).to_bytes(4, "big")


def segment_bytes(corpus, start_day: int, end_day: int) -> bytes:
    """The ``.seg`` file a seal of ``corpus`` over the day range writes."""
    return _sealed(
        b"RPS1"
        + start_day.to_bytes(4, "big")
        + end_day.to_bytes(4, "big")
        + corpus_bytes(corpus),
        b"RPSF",
    )


def partial_index_bytes(corpus, segment_crc: int) -> bytes:
    """The ``.idx`` file bound to a segment whose CRC is ``segment_crc``."""
    rows = []
    for address, (first, last, count) in sorted(corpus.items()):
        lo = address & _LOW_HALF
        rows.append((address >> 64, lo, first, last, count, *iid_features(lo)))
    columns = list(zip(*rows)) or [()] * len(_PARTIAL_COLUMNS)
    payload = b"".join(
        struct.pack(f"<{len(rows)}{code}", *column)
        for code, column in zip(_PARTIAL_COLUMNS, columns)
    )
    return _sealed(
        b"RPI1"
        + segment_crc.to_bytes(4, "big")
        + len(rows).to_bytes(8, "big")
        + payload,
        b"RPIF",
    )

"""``RSB1``: the length-prefixed binary wire protocol for the serving layer.

JSON-lines (PR 8) is self-describing and debuggable, but at batch sizes
in the hundreds the server spends more time in ``json.dumps``/``loads``
than in the vectorized kernels.  RSB1 replaces the *encoding*, not the
protocol shape: requests and replies still carry a correlation id, may
be pipelined, and may be answered out of order.

Frame layout (all integers little-endian)::

    header (24 bytes):
        magic          b"RSB1"
        version        u8    (currently 1)
        kind           u8    0 = request, 1 = reply, 2 = error
        op             u8    QueryOp code (0 in error frames)
        (1 zero byte reserved)
        request_id     u64
        count          u32   items in the payload (addresses or results)
        payload_bytes  u32
    payload (payload_bytes bytes)
    trailer (4 bytes):
        crc32          u32 over header + payload

Request payloads are the address batch as a packed u128 column — each
address is 16 bytes little-endian, i.e. the lo u64 word then the hi u64
word — which :class:`AddressBlock` turns back into the hi/lo u64 columns
the vectorized kernels consume **without copying** (two strided numpy
views over the received buffer).  Reply payloads are typed per op (see
``QUERY_OP_TABLE``): columnar, with a leading u8 presence mask wherever
results can be None, so both sides decode with ``frombuffer`` instead of
a parser.  Error payloads are ``uvarint(code) + utf-8 message``.

Negotiation: a binary-capable client's *first* line on a fresh
connection is a perfectly ordinary JSON-lines request::

    {"id": 0, "op": "hello", "args": ["RSB1", 1]}

A binary-capable server replies ``{"id": 0, "results": [{"protocol":
"binary", ...}]}`` and flips the connection to RSB1 frames; a
json-configured new server replies ``{"protocol": "json"}``; an *old*
server answers it like any unknown op — a correlated error — so the
client downgrades to JSON-lines on the same connection.  Old clients
never send a hello and keep speaking JSON-lines unchanged.

Failure taxonomy: every decode failure raises a typed
:class:`WireError` (a :class:`ConnectionError` subclass, so existing
"transport died" handling keeps working) — :class:`FrameTooLargeError`,
:class:`FrameCorruptError`, or :class:`WireProtocolError` — and maps to
a numeric code in error frames and a ``"code"`` field in JSON error
replies.  Request-scoped failures (unknown op, engine errors) use code
``REQUEST_ERROR`` and leave the connection usable, exactly like the
JSON path's per-request error replies.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import kernels as _kernels
from ..core.durable import crc32_of
from .format import ColumnarResults, pack_uvarint, unpack_uvarint

__all__ = [
    "AddressBlock",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_HEADER_SIZE",
    "FRAME_TRAILER_SIZE",
    "FrameCorruptError",
    "FrameTooLargeError",
    "HELLO_OP",
    "KIND_ERROR",
    "KIND_REPLY",
    "KIND_REQUEST",
    "PROTOCOL_BINARY",
    "PROTOCOL_JSON",
    "QUERY_OP_TABLE",
    "QueryOp",
    "REQUEST_ERROR",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "WireProtocolError",
    "resolve_op",
]

WIRE_MAGIC = b"RSB1"
WIRE_VERSION = 1

#: Negotiated protocol names (the ``protocol=`` values everywhere).
PROTOCOL_BINARY = "binary"
PROTOCOL_JSON = "json"

#: The JSON-lines op a binary-capable client opens a connection with.
HELLO_OP = "hello"

KIND_REQUEST = 0
KIND_REPLY = 1
KIND_ERROR = 2

_FRAME_HEADER = struct.Struct("<4sBBBxQII")
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 24
FRAME_TRAILER_SIZE = 4
_TRAILER = struct.Struct("<I")

#: Default frame/line size bound on both protocols (``--max-frame-bytes``):
#: a ~512k-address binary request, or the JSON line bound PR 8 shipped.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Smallest accepted ``--max-frame-bytes``: room for the frame overhead,
#: a stats reply, and any error message.
MIN_FRAME_BYTES = 4096

_ADDRESS_SPACE = 1 << 128
_U64_MASK = (1 << 64) - 1


# -- error taxonomy ------------------------------------------------------------

#: Numeric code of request-scoped error frames (unknown op, engine
#: failure): the connection stays usable, only that request fails.
REQUEST_ERROR = 0


class WireError(ConnectionError):
    """A wire-level failure that poisons the whole connection.

    Subclasses carry a stable ``code`` (the ``"code"`` field of JSON
    error replies) and ``number`` (the uvarint in binary error frames).
    ``request_id`` is the frame the failure was detected in, when one
    was parseable — so servers can attribute the error frame they send
    before closing.
    """

    code = "wire-error"
    number = 255

    def __init__(self, message: str, *, request_id: Optional[int] = None):
        super().__init__(message)
        self.request_id = request_id


class FrameTooLargeError(WireError):
    """A frame or line larger than the negotiated ``max_frame_bytes``."""

    code = "frame-too-large"
    number = 1


class FrameCorruptError(WireError):
    """A truncated frame, bad magic, or CRC mismatch."""

    code = "frame-corrupt"
    number = 2


class WireProtocolError(WireError):
    """A well-formed frame the protocol state machine cannot accept."""

    code = "protocol-error"
    number = 3


_ERROR_BY_NUMBER: Dict[int, type] = {
    cls.number: cls
    for cls in (FrameTooLargeError, FrameCorruptError, WireProtocolError)
}
_ERROR_BY_CODE: Dict[str, type] = {
    cls.code: cls
    for cls in (FrameTooLargeError, FrameCorruptError, WireProtocolError)
}


def error_for(number: int, message: str) -> WireError:
    """Typed exception for a received binary error frame's code."""
    return _ERROR_BY_NUMBER.get(number, WireError)(message)


def typed_error_class(code) -> Optional[type]:
    """Exception class for a JSON error reply's ``"code"``, if typed."""
    return _ERROR_BY_CODE.get(code) if isinstance(code, str) else None


# -- the QueryOp registry ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QueryOp:
    """One serving query op: wire code ↔ name ↔ reply dtype ↔ surface.

    ``reply`` names the reply payload family (see :func:`encode_reply`
    and :func:`decode_results`); ``surface`` is the client method base
    name (``in_slash48`` for the wire op ``slash48``); ``tupled`` ops
    shape each present result as a tuple; non-``addressed`` ops take no
    address batch (stats).
    """

    code: int
    name: str
    reply: str
    surface: str
    tupled: bool = False
    addressed: bool = True


#: Every op both protocols serve.  Codes are wire ABI — append, never
#: renumber.  (DESIGN.md §15 mirrors this table.)
QUERY_OP_TABLE: Tuple[QueryOp, ...] = (
    QueryOp(1, "record", "record", "record", tupled=True),
    QueryOp(2, "lifetime", "f64opt", "lifetime"),
    QueryOp(3, "entropy", "f64opt", "entropy"),
    QueryOp(4, "features", "features", "features", tupled=True),
    QueryOp(5, "origin", "asn", "origin"),
    QueryOp(6, "contains", "bool", "contains"),
    QueryOp(7, "slash48", "bool", "in_slash48"),
    QueryOp(8, "slash64", "bool", "in_slash64"),
    QueryOp(15, "stats", "json", "stats", addressed=False),
)

OP_BY_CODE: Dict[int, QueryOp] = {spec.code: spec for spec in QUERY_OP_TABLE}
OP_BY_NAME: Dict[str, QueryOp] = {spec.name: spec for spec in QUERY_OP_TABLE}

#: The address-batch ops — what :class:`CoalescingEngine` runs kernels for.
ADDRESS_OPS: Tuple[QueryOp, ...] = tuple(
    spec for spec in QUERY_OP_TABLE if spec.addressed
)


def resolve_op(op: Union["QueryOp", int, str]) -> QueryOp:
    """Registry lookup accepting a spec, a wire code, or a name."""
    if isinstance(op, QueryOp):
        return op
    if isinstance(op, int) and not isinstance(op, bool):
        spec = OP_BY_CODE.get(op)
    else:
        spec = OP_BY_NAME.get(op)
    if spec is None:
        raise ValueError(
            f"unknown query op {op!r}; serving ops: "
            + ", ".join(spec.name for spec in QUERY_OP_TABLE)
        )
    return spec


# -- zero-copy address columns -------------------------------------------------


class AddressBlock:
    """A batch of 128-bit addresses as hi/lo u64 columns.

    ``hi``/``lo`` are u64 ndarrays.  Decoded request payloads become
    blocks whose columns are **strided views over the received bytes**
    — the vectorized kernels consume them directly, so a binary request
    is never materialized into Python ints on the hot path.
    ``ServingIndex``'s batch methods detect the pre-split columns by
    the ``hi`` attribute and skip their per-int validation loop;
    addresses from the wire are range-valid by construction.

    Behaves enough like a sequence of int addresses for the coalescing
    engine: ``len``, indexing, slicing (returns a sub-block), and
    iteration (yields plain ints).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo) -> None:
        self.hi = hi
        self.lo = lo

    @classmethod
    def from_payload(cls, payload, count: int) -> "AddressBlock":
        """Wrap a request payload's packed u128 column, zero-copy."""
        if len(payload) != 16 * count:
            raise ValueError(
                f"address payload is {len(payload)} bytes for "
                f"{count} addresses (expected {16 * count})"
            )
        words = np.frombuffer(payload, dtype="<u8")
        return cls(words[1::2], words[0::2])

    @classmethod
    def concat(cls, blocks: Sequence["AddressBlock"]) -> "AddressBlock":
        """One block holding every input's addresses, in order — numpy
        column concatenation, so the coalescing engine merges same-tick
        requests without materializing their columns into Python
        ints."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            np.concatenate([block.hi for block in blocks]),
            np.concatenate([block.lo for block in blocks]),
        )

    def __len__(self) -> int:
        return len(self.hi)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return AddressBlock(self.hi[item], self.lo[item])
        return (int(self.hi[item]) << 64) | int(self.lo[item])

    def __iter__(self):
        for hi, lo in zip(self.hi, self.lo):
            yield (int(hi) << 64) | int(lo)


# -- frame encode --------------------------------------------------------------


def encode_frame(
    kind: int, opcode: int, request_id: int, count: int, payload: bytes
) -> bytes:
    header = _FRAME_HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, kind, opcode, request_id, count,
        len(payload),
    )
    return header + payload + _TRAILER.pack(crc32_of(header, payload))


def encode_request(
    spec: QueryOp,
    request_id: int,
    addresses: Sequence[int],
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One request frame; validates addresses and the frame bound."""
    if not spec.addressed:
        return encode_frame(KIND_REQUEST, spec.code, request_id, 0, b"")
    count = len(addresses)
    limit = max_frame_bytes - FRAME_HEADER_SIZE - FRAME_TRAILER_SIZE
    if 16 * count > limit:
        raise FrameTooLargeError(
            f"{count}-address batch needs {16 * count} payload bytes, "
            f"over the {max_frame_bytes}-byte frame bound",
            request_id=request_id,
        )
    # Vectorized pack: two fromiter passes beat per-address
    # int.to_bytes + join severalfold at serving batch sizes.  Any bad
    # address drops to the scalar path for its exact error.
    try:
        lo = np.fromiter(
            (address & _U64_MASK for address in addresses),
            dtype=np.uint64,
            count=count,
        )
        hi = np.fromiter(
            (address >> 64 for address in addresses),
            dtype=np.uint64,
            count=count,
        )
    except (TypeError, OverflowError):
        try:
            payload = b"".join(
                address.to_bytes(16, "little") for address in addresses
            )
        except (AttributeError, OverflowError):
            # Match the JSON path's server-side rejection wording.
            bad = next(
                a
                for a in addresses
                if not isinstance(a, int) or not 0 <= a < _ADDRESS_SPACE
            )
            if not isinstance(bad, int):
                raise ValueError(
                    f"addresses must be ints, not {type(bad).__name__}"
                ) from None
            raise ValueError(f"address out of range: {bad:#x}") from None
    else:
        words = np.empty(2 * count, dtype="<u8")
        words[0::2] = lo
        words[1::2] = hi
        payload = words.tobytes()
    return encode_frame(KIND_REQUEST, spec.code, request_id, count, payload)


def encode_error(request_id: int, number: int, message: str) -> bytes:
    payload = pack_uvarint(number) + message.encode("utf-8")
    return encode_frame(KIND_ERROR, 0, request_id, 0, payload)


def decode_error(payload) -> Tuple[int, str]:
    number, offset = unpack_uvarint(payload, 0)
    return number, bytes(payload[offset:]).decode("utf-8", "replace")


# -- frame decode --------------------------------------------------------------


def parse_frame_header(
    header: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Tuple[int, int, int, int, int]:
    """``(kind, opcode, request_id, count, payload_bytes)``, validated.

    Checked *before* any payload read, so an adversarial or corrupt
    length never triggers an unbounded buffer.
    """
    magic, version, kind, opcode, request_id, count, payload_bytes = (
        _FRAME_HEADER.unpack(header)
    )
    if magic != WIRE_MAGIC:
        raise FrameCorruptError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported wire version {version} (speaking {WIRE_VERSION})",
            request_id=request_id,
        )
    if kind not in (KIND_REQUEST, KIND_REPLY, KIND_ERROR):
        raise WireProtocolError(
            f"unknown frame kind {kind}", request_id=request_id
        )
    limit = max_frame_bytes - FRAME_HEADER_SIZE - FRAME_TRAILER_SIZE
    if payload_bytes > limit:
        raise FrameTooLargeError(
            f"frame payload of {payload_bytes} bytes is over the "
            f"{max_frame_bytes}-byte frame bound",
            request_id=request_id,
        )
    return kind, opcode, request_id, count, payload_bytes


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
):
    """Read one frame: ``(kind, opcode, request_id, count, payload)``.

    Returns ``None`` on clean EOF (no bytes).  Any malformed input —
    truncation mid-frame, bad magic, an oversized or corrupt frame —
    raises a typed :class:`WireError`; reads are bounded by the header's
    (validated) payload length, so garbage can never hang the reader by
    promising bytes that fit no bound.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameCorruptError(
            f"connection closed {len(error.partial)} bytes into a "
            f"{FRAME_HEADER_SIZE}-byte frame header"
        ) from None
    kind, opcode, request_id, count, payload_bytes = parse_frame_header(
        header, max_frame_bytes=max_frame_bytes
    )
    try:
        body = await reader.readexactly(payload_bytes + FRAME_TRAILER_SIZE)
    except asyncio.IncompleteReadError:
        raise FrameCorruptError(
            "connection closed mid-frame", request_id=request_id
        ) from None
    payload = memoryview(body)[:payload_bytes]
    stored = _TRAILER.unpack_from(body, payload_bytes)[0]
    actual = crc32_of(header, payload)
    if stored != actual:
        raise FrameCorruptError(
            f"frame CRC mismatch: stored {stored:#010x}, "
            f"actual {actual:#010x}",
            request_id=request_id,
        )
    return kind, opcode, request_id, count, payload


def decode_request(
    opcode: int, count: int, payload
) -> Tuple[QueryOp, AddressBlock]:
    """Server-side request decode: the op spec plus its address block
    (empty for an op that takes none).

    Unknown ops and shape mismatches raise :class:`ValueError` — the
    frame passed its CRC, so the failure is the *request's*, answered
    with a ``REQUEST_ERROR`` frame on a connection that stays usable
    (the same contract as a JSON request naming an unknown op).
    """
    spec = OP_BY_CODE.get(opcode)
    if spec is None:
        raise ValueError(
            f"unknown query op code {opcode}; serving ops: "
            + ", ".join(f"{s.name}={s.code}" for s in QUERY_OP_TABLE)
        )
    if not spec.addressed and (count or len(payload)):
        raise ValueError(f"op {spec.name!r} takes no address payload")
    return spec, AddressBlock.from_payload(payload, count)


# -- typed columnar reply payloads ---------------------------------------------


def _le_column(column, dtype: str) -> bytes:
    """One reply column as little-endian bytes (no-copy when already so)."""
    return np.ascontiguousarray(column, dtype=dtype).tobytes()


def _encode_columnar(spec: QueryOp, results: ColumnarResults) -> bytes:
    """Vectorized encode of a columnar batch: one ``tobytes`` per
    column, masked-out entries zeroed at the source."""
    family = spec.reply
    columns = results.columns
    if family == "bool":
        return _le_column(columns[0], "u1")
    if family == "asn":
        return _le_column(columns[0], "<u4")
    mask = _le_column(results.mask, "u1")
    if family == "f64opt":
        return mask + _le_column(columns[0], "<f8")
    if family == "record":
        first, last, counts = columns
        return (
            mask
            + _le_column(first, "<f8")
            + _le_column(last, "<f8")
            + _le_column(counts, "<u8")
        )
    if family == "features":
        entropies, codes, macs = columns
        return (
            mask
            + _le_column(codes, "u1")
            + _le_column(entropies, "<f8")
            + _le_column(macs, "<u8")
        )
    raise AssertionError(f"unencodable columnar family {family!r}")


def encode_reply(
    spec: QueryOp, request_id: int, results: Sequence
) -> bytes:
    """One reply frame for what :meth:`CoalescingEngine.batch` answers
    with ``columnar=True``: :class:`ColumnarResults`, the ``json``
    family's list (``stats``), or ``[]`` for an empty batch of any op,
    whose payload is empty."""
    if spec.reply == "json":
        payload = json.dumps(results, separators=(",", ":")).encode("utf-8")
    elif len(results):
        payload = _encode_columnar(spec, results)
    else:
        payload = b""
    return encode_frame(
        KIND_REPLY, spec.code, request_id, len(results), payload
    )


def _check_payload_size(
    spec: QueryOp, payload, expected: int, request_id: int
) -> None:
    if len(payload) != expected:
        raise FrameCorruptError(
            f"{spec.name} reply payload is {len(payload)} bytes "
            f"(expected {expected})",
            request_id=request_id,
        )


def _column(payload, offset: int, count: int, width: int, code: str):
    """Decode one little-endian column to a plain list of Python values."""
    end = offset + width * count
    dtype = {"d": "<f8", "Q": "<u8", "I": "<u4", "B": "u1"}[code]
    return np.frombuffer(payload[offset:end], dtype=dtype).tolist(), end


def decode_results(
    spec: QueryOp, count: int, payload, *, request_id: int = 0
) -> List:
    """Client-side reply decode back to the JSON path's exact values."""
    family = spec.reply
    if family == "bool":
        _check_payload_size(spec, payload, count, request_id)
        return [byte != 0 for byte in bytes(payload)]
    if family == "f64opt":
        _check_payload_size(spec, payload, 9 * count, request_id)
        mask = bytes(payload[:count])
        values, _ = _column(payload, count, count, 8, "d")
        return [
            value if present else None
            for present, value in zip(mask, values)
        ]
    if family == "record":
        _check_payload_size(spec, payload, 25 * count, request_id)
        mask = bytes(payload[:count])
        first, offset = _column(payload, count, count, 8, "d")
        last, offset = _column(payload, offset, count, 8, "d")
        counts, _ = _column(payload, offset, count, 8, "Q")
        return [
            (first[i], last[i], counts[i]) if mask[i] else None
            for i in range(count)
        ]
    if family == "features":
        _check_payload_size(spec, payload, 18 * count, request_id)
        mask = bytes(payload[:count])
        codes = bytes(payload[count : 2 * count])
        entropies, offset = _column(payload, 2 * count, count, 8, "d")
        macs, _ = _column(payload, offset, count, 8, "Q")
        return [
            (
                entropies[i],
                codes[i],
                None if macs[i] == _kernels.NO_MAC else macs[i],
            )
            if mask[i]
            else None
            for i in range(count)
        ]
    if family == "asn":
        _check_payload_size(spec, payload, 4 * count, request_id)
        asns, _ = _column(payload, 0, count, 4, "I")
        return [None if asn == 0 else asn for asn in asns]
    if family == "json":
        try:
            results = json.loads(bytes(payload).decode("utf-8"))
        except ValueError:
            raise FrameCorruptError(
                f"undecodable {spec.name} reply payload",
                request_id=request_id,
            ) from None
        if not isinstance(results, list) or len(results) != count:
            raise FrameCorruptError(
                f"{spec.name} reply shape disagrees with its count",
                request_id=request_id,
            )
        return results
    raise AssertionError(f"undecodable reply family {family!r}")


# -- the hello handshake -------------------------------------------------------


def encode_hello_line(request_id: int = 0) -> bytes:
    """The JSON-lines hello a binary-capable client opens with."""
    return (
        json.dumps(
            {
                "id": request_id,
                "op": HELLO_OP,
                "args": [WIRE_MAGIC.decode("ascii"), WIRE_VERSION],
            },
            separators=(",", ":"),
        )
        + "\n"
    ).encode("utf-8")


def hello_accepts(request: Dict[str, object]) -> bool:
    """Whether a parsed hello request speaks a version we can serve."""
    args = request.get("args")
    return (
        isinstance(args, list)
        and len(args) >= 2
        and args[0] == WIRE_MAGIC.decode("ascii")
        and isinstance(args[1], int)
        and args[1] >= WIRE_VERSION
    )


def hello_reply(binary: bool) -> Dict[str, object]:
    """The single result of a served hello (the negotiation outcome)."""
    if binary:
        return {
            "protocol": PROTOCOL_BINARY,
            "version": WIRE_VERSION,
            "ops": {spec.name: spec.code for spec in QUERY_OP_TABLE},
        }
    return {"protocol": PROTOCOL_JSON, "version": WIRE_VERSION}


def negotiated_protocol(reply: Dict[str, object]) -> str:
    """Client-side read of a hello reply: the protocol to speak next.

    Any reply that is not an affirmative binary grant — an error (an old
    server treating hello as an unknown op), a json grant, or anything
    unrecognizable — downgrades to JSON-lines, which every server
    speaks.
    """
    results = reply.get("results")
    if (
        isinstance(results, list)
        and results
        and isinstance(results[0], dict)
        and results[0].get("protocol") == PROTOCOL_BINARY
        and results[0].get("version") == WIRE_VERSION
    ):
        return PROTOCOL_BINARY
    return PROTOCOL_JSON

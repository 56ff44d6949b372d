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
views over the received buffer).  :meth:`AddressBlock.of` is the one
address check: the RSB1 client, the JSON-lines server and the
in-process paths all run it, so each refuses a bad batch in the same
words.  Reply payloads are laid out per reply family by
:data:`REPLY_LAYOUT`: a leading u8 presence mask wherever results can
be None, then one little-endian run per column, so both sides encode
with one ``tobytes`` and decode with one ``frombuffer`` per column
instead of a parser.  Error payloads are ``uvarint(code) + utf-8
message``.

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
from typing import (
    Dict,
    List,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core import kernels as _kernels
from ..core.durable import crc32_of

__all__ = [
    "AddressBlock",
    "ColumnarResults",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_HEADER_SIZE",
    "FRAME_TRAILER_SIZE",
    "FrameCorruptError",
    "FrameTooLargeError",
    "HELLO_OP",
    "JsonLines",
    "KIND_ERROR",
    "KIND_REPLY",
    "KIND_REQUEST",
    "PROTOCOL_BINARY",
    "PROTOCOL_JSON",
    "QUERY_OP_TABLE",
    "QueryOp",
    "REPLY_LAYOUT",
    "REQUEST_ERROR",
    "ReplyLayout",
    "Rsb1",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "WireProtocol",
    "WireProtocolError",
    "json_line",
    "pack_uvarint",
    "resolve_op",
    "unpack_uvarint",
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
    """One serving query op: wire code ↔ name ↔ reply family ↔ surface.

    ``reply`` names the reply payload family: a :data:`REPLY_LAYOUT`
    key, or ``json`` for a JSON document (stats); ``surface`` is the
    client method base name (``in_slash48`` for the wire op
    ``slash48``); non-``addressed`` ops take no address batch (stats).
    """

    code: int
    name: str
    reply: str
    surface: str
    addressed: bool = True

    @property
    def tupled(self) -> bool:
        """Whether each present result is a tuple: the reply family has
        more than one column."""
        layout = REPLY_LAYOUT.get(self.reply)
        return layout is not None and len(layout.dtypes) > 1


#: Every op both protocols serve.  Codes are wire ABI — append, never
#: renumber.  (DESIGN.md §15 mirrors this table.)
QUERY_OP_TABLE: Tuple[QueryOp, ...] = (
    QueryOp(1, "record", "record", "record"),
    QueryOp(2, "lifetime", "f64opt", "lifetime"),
    QueryOp(3, "entropy", "f64opt", "entropy"),
    QueryOp(4, "features", "features", "features"),
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
    is never materialized into Python ints on the hot path.  Every
    other batch becomes a block through :meth:`of`, the one address
    check; addresses from the wire are range-valid by construction.

    Behaves enough like a sequence of int addresses for the coalescing
    engine: ``len``, indexing, slicing (returns a sub-block), and
    iteration (yields plain ints).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo) -> None:
        self.hi = hi
        self.lo = lo

    @classmethod
    def of(cls, addresses: Sequence[int]) -> "AddressBlock":
        """``addresses`` as a block: a block as it is, else a sequence
        of ints in ``[0, 2**128)``.

        The batch is packed as a request payload, 16 little-endian
        bytes per int, and wrapped by :meth:`from_payload`.  A bool,
        any other non-int, or an int out of range raises
        :class:`ValueError` naming the first such item, in the words
        every serving path reports.
        """
        if isinstance(addresses, AddressBlock):
            return addresses
        kinds = set(map(type, addresses))
        if bool not in kinds and all(issubclass(kind, int) for kind in kinds):
            try:
                payload = b"".join(
                    [address.to_bytes(16, "little") for address in addresses]
                )
            except OverflowError:  # a negative int, or one past 2**128
                pass
            else:
                return cls.from_payload(payload, len(addresses))
        # The batch did not pack, so some item is bad: name the first.
        for address in addresses:
            if not isinstance(address, int) or isinstance(address, bool):
                raise ValueError(
                    f"addresses must be ints, not {type(address).__name__}"
                )
            if not 0 <= address < _ADDRESS_SPACE:
                raise ValueError(f"address out of range: {address:#x}")

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

    def to_payload(self) -> bytes:
        """The block as a request payload: each address's lo word, then
        its hi word."""
        words = np.empty(2 * len(self), dtype="<u8")
        words[0::2] = self.lo
        words[1::2] = self.hi
        return words.tobytes()


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
    """One request frame, within the frame bound; the addresses pass
    :meth:`AddressBlock.of`."""
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
    payload = AddressBlock.of(addresses).to_payload()
    return encode_frame(KIND_REQUEST, spec.code, request_id, count, payload)


def pack_uvarint(value: int) -> bytes:
    """LEB128-style unsigned varint (7 value bits per byte, MSB = more)."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negatives: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def unpack_uvarint(data, offset: int = 0) -> Tuple[int, int]:
    """Decode one uvarint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data) or shift > 63:
            raise ValueError("truncated or oversized uvarint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


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


# -- columnar reply payloads ---------------------------------------------------

#: dtype of the one-byte presence mask (0 = None) a masked payload leads with.
_MASK_DTYPE = "?"


class ReplyLayout:
    """One columnar reply family: its RSB1 payload and its result shape.

    The payload is a one-byte presence mask when ``masked``, then each
    :class:`ColumnarResults` column as one run of its ``dtypes`` entry
    (little-endian), in payload order; ``runs`` holds every run's
    dtype, the mask's first, and ``row_bytes`` their sum.  A present
    result is the ``fields`` columns as a tuple, in that order, or its
    one column's value; ``nulls`` are ``(column, stored value)`` pairs
    read as None.
    """

    __slots__ = ("masked", "dtypes", "fields", "nulls", "runs", "row_bytes")

    def __init__(
        self,
        masked: bool,
        dtypes: Tuple[str, ...],
        *,
        fields: Tuple[int, ...] = (0,),
        nulls: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        self.masked = masked
        self.dtypes = dtypes
        self.fields = fields
        self.nulls = nulls
        self.runs = tuple(
            np.dtype(dtype)
            for dtype in ((_MASK_DTYPE,) if masked else ()) + dtypes
        )
        self.row_bytes = sum(run.itemsize for run in self.runs)


#: Every columnar reply family's layout: the one place a family's
#: column dtypes are written.  (DESIGN.md §15 mirrors this table.)
REPLY_LAYOUT: Dict[str, ReplyLayout] = {
    "bool": ReplyLayout(False, ("?",)),
    "f64opt": ReplyLayout(True, ("<f8",)),
    "record": ReplyLayout(True, ("<f8", "<f8", "<u8"), fields=(0, 1, 2)),
    # (codes, entropies, macs) answer (entropy, code, mac-or-None).
    "features": ReplyLayout(
        True,
        ("u1", "<f8", "<u8"),
        fields=(1, 0, 2),
        nulls=((2, _kernels.NO_MAC),),
    ),
    "asn": ReplyLayout(False, ("<u4",), nulls=((0, 0),)),
}


class ColumnarResults:
    """Column-major batch answers: what every serving op computes.

    One numpy array per column of the family's :data:`REPLY_LAYOUT`, in
    payload order, plus a boolean ``mask`` for the masked families with
    masked-out entries **zeroed** — the RSB1 reply payload itself, so
    :func:`encode_reply` is one ``tobytes`` per column.

    ``len()`` and slicing (a columnar sub-view: how the engine hands
    each coalesced waiter its share) are its whole sequence surface;
    :meth:`to_list` shapes the batch into the plain Python values the
    ``*_batch`` methods and JSON replies carry.
    """

    __slots__ = ("family", "mask", "columns")

    def __init__(self, family: str, mask, columns: Tuple) -> None:
        self.family = family
        self.mask = mask
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    # Not iterable: the fallback through __getitem__ would yield one
    # malformed result per row instead of failing.
    __iter__ = None

    def __getitem__(self, rows: slice) -> "ColumnarResults":
        return ColumnarResults(
            self.family,
            None if self.mask is None else self.mask[rows],
            tuple(column[rows] for column in self.columns),
        )

    def to_list(self) -> List:
        """The batch as a list of plain Python values (None for misses)."""
        layout = REPLY_LAYOUT[self.family]
        values = [column.tolist() for column in self.columns]
        for column, null in layout.nulls:
            values[column] = [
                None if value == null else value for value in values[column]
            ]
        if len(values) == 1:
            results = values[0]
        else:
            results = list(zip(*(values[field] for field in layout.fields)))
        if self.mask is None:
            return results
        return [
            result if hit else None
            for hit, result in zip(self.mask.tolist(), results)
        ]

    @classmethod
    def concat(cls, parts: Sequence["ColumnarResults"]):
        """Concatenate chunked results (the engine's max_batch split)."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        mask = (
            None
            if first.mask is None
            else np.concatenate([part.mask for part in parts])
        )
        columns = tuple(
            np.concatenate([part.columns[i] for part in parts])
            for i in range(len(first.columns))
        )
        return cls(first.family, mask, columns)


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
        layout = REPLY_LAYOUT[spec.reply]
        runs = ((results.mask,) if layout.masked else ()) + results.columns
        payload = b"".join(
            np.ascontiguousarray(run, dtype=dtype).tobytes()
            for run, dtype in zip(runs, layout.runs)
        )
    else:
        payload = b""
    return encode_frame(
        KIND_REPLY, spec.code, request_id, len(results), payload
    )


def decode_results(
    spec: QueryOp, count: int, payload, *, request_id: int = 0
) -> List:
    """Client-side reply decode back to the JSON path's exact values."""
    if spec.reply == "json":
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
    layout = REPLY_LAYOUT[spec.reply]
    expected = count * layout.row_bytes
    if len(payload) != expected:
        raise FrameCorruptError(
            f"{spec.name} reply payload is {len(payload)} bytes "
            f"(expected {expected})",
            request_id=request_id,
        )
    runs = []
    offset = 0
    for dtype in layout.runs:
        runs.append(np.frombuffer(payload, dtype, count, offset))
        offset += runs[-1].nbytes
    mask = runs.pop(0) if layout.masked else None
    return ColumnarResults(spec.reply, mask, tuple(runs)).to_list()


# -- the hello handshake -------------------------------------------------------


def json_line(document) -> bytes:
    """``document`` as one compact JSON line: every JSON-lines message."""
    return (json.dumps(document, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def encode_hello_line(request_id: int = 0) -> bytes:
    """The JSON-lines hello a binary-capable client opens with."""
    return json_line(
        {
            "id": request_id,
            "op": HELLO_OP,
            "args": [WIRE_MAGIC.decode("ascii"), WIRE_VERSION],
        }
    )


def parse_hello(line: bytes) -> Optional[Dict[str, object]]:
    """The parsed request when a connection's first line is a hello."""
    try:
        request = json.loads(line)
    except ValueError:
        return None
    if isinstance(request, dict) and request.get("op") == HELLO_OP:
        return request
    return None


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


# -- one connection's protocol -------------------------------------------------


class Answer(NamedTuple):
    """What a server writes for one request."""

    reply: bytes
    #: An error reply (``repro_serve_protocol_errors_total`` counts it).
    failed: bool
    #: No client can correlate the reply: the connection closes after it.
    closes: bool


def _end(entry, error: Exception) -> NoReturn:
    """End the connection with ``error``, failing ``entry``'s request
    with it first: a settled request is no longer pending, so the
    client's sweep of its pending requests cannot see it."""
    if entry is not None and not entry[0].done():
        entry[0].set_exception(error)
    raise error


def _settle_error(entry, message, fatal: Optional[WireError]) -> None:
    """An error reply.  A request-scoped one fails its own request and
    the connection serves on.  A typed ``fatal`` one, or one no pending
    request owns — every in-flight request is then ambiguous, since one
    of them may be the one that failed — ends the connection."""
    if fatal is None and entry is not None:
        if not entry[0].done():
            entry[0].set_exception(RuntimeError(f"server error: {message}"))
        return
    _end(
        entry,
        fatal or ConnectionError(f"un-correlatable server error: {message}"),
    )


class WireProtocol:
    """Everything one connection does differently per wire protocol.

    ``read(reader)`` awaits one message: a request on the ``server``
    side, a reply on the client side.  It returns None at a clean EOF
    and raises a typed :class:`WireError` when the connection must end.
    A server answers each request with ``answer(engine, message)``, an
    :class:`Answer`, and a connection-fatal error with ``fatal(error)``.
    A client encodes each request with ``request(op, request_id,
    args)``, which returns the bytes and what the reply is checked
    against, and passes each reply to ``settle(message, pending)``:
    that resolves the future its request waits on in ``pending`` (``id
    -> (future, spec)``), or raises the error that ends the connection.
    """

    name = ""

    def __init__(
        self,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        *,
        server: bool = False,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.server = server


class JsonLines(WireProtocol):
    """JSON-lines: one JSON object per line in each direction."""

    name = PROTOCOL_JSON

    async def read(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            # readline found no separator within the stream limit: the
            # line is over max_frame_bytes.
            raise FrameTooLargeError(
                f"{'request' if self.server else 'reply'} line is over "
                f"the {self.max_frame_bytes}-byte frame bound"
            ) from None
        return line or None

    async def answer(self, engine, line: bytes) -> Answer:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            args = request.get("args", [])
            if not isinstance(args, list):
                raise ValueError("args must be a list")
            results = await engine.batch(request.get("op"), args)
            reply = {"id": request_id, "results": results}
        except Exception as error:
            reply = {"id": request_id, "error": str(error)}
        # A reply no client can attribute to a request id (the line was
        # undecodable, or the request carried no id) poisons the
        # pipelined stream: the requester would wait forever for an
        # answer that can never be correlated.  Closing the connection
        # makes the client fail fast instead.
        return Answer(json_line(reply), "error" in reply, request_id is None)

    def fatal(self, error: WireError) -> bytes:
        return json_line({"id": None, "error": str(error), "code": error.code})

    def request(
        self, op, request_id: int, args: Sequence
    ) -> Tuple[bytes, None]:
        document = {"id": request_id, "op": op, "args": list(args)}
        return json_line(document), None

    def settle(self, line: bytes, pending: Dict) -> None:
        try:
            reply = json.loads(line)
        except ValueError as error:
            raise FrameCorruptError(
                f"undecodable reply line: {error}"
            ) from None
        if not isinstance(reply, dict):
            raise WireProtocolError("reply line is not a JSON object")
        try:
            entry = pending.pop(reply.get("id"), None)
        except TypeError:  # an unhashable id answers no request
            entry = None
        if "error" in reply:
            # A typed "code" (an oversized line, say) keeps its
            # exception class across the wire.
            message = reply["error"]
            typed = typed_error_class(reply.get("code"))
            _settle_error(entry, message, typed(message) if typed else None)
        elif "results" not in reply:
            _end(
                entry,
                WireProtocolError(
                    "reply line holds neither results nor an error"
                ),
            )
        elif entry is not None and not entry[0].done():
            entry[0].set_result(reply["results"])


#: What an op the registry cannot resolve is sent as on the binary
#: protocol: op code 0 is reserved-invalid, so the *server* rejects it
#: with the same request-scoped error contract as the JSON path.
_UNKNOWN_OP = QueryOp(0, "unknown", "json", "unknown")


class Rsb1(WireProtocol):
    """RSB1: length-prefixed, CRC-sealed binary frames."""

    name = PROTOCOL_BINARY

    async def read(self, reader: asyncio.StreamReader):
        frame = await read_frame(reader, max_frame_bytes=self.max_frame_bytes)
        if self.server and frame is not None and frame[0] != KIND_REQUEST:
            raise WireProtocolError(
                f"expected a request frame, got kind {frame[0]}",
                request_id=frame[2],
            )
        return frame

    async def answer(self, engine, frame) -> Answer:
        _, opcode, request_id, count, payload = frame
        try:
            spec, block = decode_request(opcode, count, payload)
            # columnar keeps the answer in numpy columns end to end;
            # encode_reply turns each into one tobytes call.
            results = await engine.batch(spec.code, block, columnar=True)
            reply = encode_reply(spec, request_id, results)
        except Exception as error:
            reply = encode_error(request_id, REQUEST_ERROR, str(error))
            return Answer(reply, True, False)
        return Answer(reply, False, False)

    def fatal(self, error: WireError) -> bytes:
        return encode_error(error.request_id or 0, error.number, str(error))

    def request(
        self, op, request_id: int, args: Sequence
    ) -> Tuple[bytes, QueryOp]:
        try:
            spec = resolve_op(op)
        except ValueError:
            spec = _UNKNOWN_OP
        data = encode_request(
            spec, request_id, args, max_frame_bytes=self.max_frame_bytes
        )
        return data, spec

    def settle(self, frame, pending: Dict) -> None:
        kind, opcode, request_id, count, payload = frame
        entry = pending.pop(request_id, None)
        if kind == KIND_ERROR:
            try:
                number, message = decode_error(payload)
            except ValueError:
                _end(
                    entry,
                    FrameCorruptError(
                        "undecodable error frame payload",
                        request_id=request_id,
                    ),
                )
            fatal = (
                None if number == REQUEST_ERROR else error_for(number, message)
            )
            _settle_error(entry, message, fatal)
            return
        if entry is None or entry[0].done():
            return
        future, spec = entry
        if kind != KIND_REPLY or opcode != spec.code:
            _end(
                entry,
                WireProtocolError(
                    f"reply kind {kind} op {opcode} does not match "
                    f"request {request_id} ({spec.name})"
                ),
            )
        try:
            results = decode_results(
                spec, count, payload, request_id=request_id
            )
        except WireError as error:
            _end(entry, error)
        future.set_result(results)


#: The protocol object for each negotiated protocol name.
PROTOCOLS: Dict[str, type] = {cls.name: cls for cls in (JsonLines, Rsb1)}

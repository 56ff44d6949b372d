"""The server's bytes, pinned on every negotiation and error path.

Each conversation runs against a fresh :class:`HitlistServer`
(``max_frame_bytes=4096``, binary-capable or ``binary=False``) over a
raw socket.  Every request waits for its reply before the next one is
sent, so a conversation's transcript is deterministic: the exact bytes
the server wrote, step by step, then either EOF on its own (a close) or
EOF after the client's half-close (a live connection).  After each
conversation the four connection counters are pinned too.

Error replies and hello grants are pinned literally.  Answer replies
are compared with the reference encoders instead — a JSON line of what
:class:`LocalHitlistClient` answers, or :mod:`naive_wire`'s RSB1 frame
of it — because the ``stats`` document carries the store's path.  The
frames this file expects are built by its own ``struct``/``zlib``
encoder, not by :mod:`repro.serve.wire`.
"""

import asyncio
import dataclasses
import json
import struct
import zlib
from typing import Callable, Dict, List, Tuple

import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    CoalescingEngine,
    HitlistServer,
    LocalHitlistClient,
    ServingIndex,
    build_serving_index,
)
from repro.serve import wire

from . import naive_wire

MAX_FRAME_BYTES = 4096
TIMEOUT = 30

REQUEST, REPLY, ERROR = 0, 1, 2
CONTAINS, RECORD, STATS = 6, 1, 15

COUNTERS = (
    "repro_serve_connections_total",
    "repro_serve_binary_connections_total",
    "repro_serve_requests_total",
    "repro_serve_protocol_errors_total",
)

BINARY_GRANT = {
    "protocol": "binary",
    "version": 1,
    "ops": {
        "record": 1,
        "lifetime": 2,
        "entropy": 3,
        "features": 4,
        "origin": 5,
        "contains": 6,
        "slash48": 7,
        "slash64": 8,
        "stats": 15,
    },
}
JSON_GRANT = {"protocol": "json", "version": 1}
UNKNOWN_NAME = (
    "unknown query op {!r}; serving ops: record, lifetime, entropy, "
    "features, origin, contains, slash48, slash64, stats"
)
UNKNOWN_CODE = (
    "unknown query op code {}; serving ops: record=1, lifetime=2, "
    "entropy=3, features=4, origin=5, contains=6, slash48=7, slash64=8, "
    "stats=15"
)


@pytest.fixture(scope="module")
def served_index(serve_dir, routing):
    build_serving_index(serve_dir, routing=routing)
    with ServingIndex.open(serve_dir) as index:
        yield index


# -- the expected bytes, encoded independently ----------------------------------


def line(document) -> bytes:
    """One compact JSON line."""
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


def frame(kind, op, request_id, count, payload=b"", *, version=1) -> bytes:
    """One RSB1 frame with its CRC trailer."""
    header = struct.pack(
        "<4sBBBxQII", b"RSB1", version, kind, op, request_id, count,
        len(payload),
    )
    return header + payload + struct.pack("<I", zlib.crc32(header + payload))


def error_frame(request_id, number, message) -> bytes:
    """An RSB1 error frame (numbers below 128 are one uvarint byte)."""
    return frame(ERROR, 0, request_id, 0, bytes([number]) + message.encode())


def address_payload(*addresses) -> bytes:
    return b"".join(address.to_bytes(16, "little") for address in addresses)


def request_frame(op, request_id, *addresses) -> bytes:
    return frame(
        REQUEST, op, request_id, len(addresses), address_payload(*addresses)
    )


def hello(request_id=0, version=1, magic="RSB1") -> Dict[str, object]:
    document = {"op": "hello", "args": [magic, version]}
    if request_id is not None:
        document = {"id": request_id, **document}
    return document


def json_request(request_id, op, args) -> bytes:
    return line({"id": request_id, "op": op, "args": args})


# -- conversation steps -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Answer:
    """The reply to an answered request, computed from the reference."""

    protocol: str
    request_id: int
    op: str
    args: Tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class Step:
    """``send`` bytes (or half-close on ``eof``), then read one reply
    (``"line"`` or ``"frame"``) and compare it with ``expect``, or with
    ``read="closed"`` read to EOF without closing first."""

    send: bytes = b""
    eof: bool = False
    read: str = ""
    expect: object = b""


def send(data, read, expect) -> Step:
    return Step(send=data, read=read, expect=expect)


def closed() -> Step:
    return Step(read="closed")


@dataclasses.dataclass(frozen=True)
class Conversation:
    binary: bool
    steps: Callable[[int], List[Step]]
    #: connections, binary connections, requests, protocol errors
    counters: Tuple[int, int, int, int]


def _json_plain(hit):
    return [
        send(json_request(1, "contains", [hit]), "line",
             Answer("json", 1, "contains", (hit,))),
        send(json_request(2, "record", [hit, 0]), "line",
             Answer("json", 2, "record", (hit, 0))),
        send(json_request(3, "stats", []), "line", Answer("json", 3, "stats")),
    ]


def _json_request_errors(hit):
    return [
        send(json_request(4, "frobnicate", [1]), "line",
             line({"id": 4, "error": UNKNOWN_NAME.format("frobnicate")})),
        send(line({"id": 5, "op": "contains", "args": 5}), "line",
             line({"id": 5, "error": "args must be a list"})),
        send(json_request(6, "contains", [True]), "line",
             line({"id": 6, "error": "addresses must be ints, not bool"})),
        send(json_request(7, "contains", []), "line",
             line({"id": 7, "results": []})),
        send(json_request(8, "contains", [hit]), "line",
             Answer("json", 8, "contains", (hit,))),
    ]


def _json_undecodable(hit):
    return [
        send(b"this is not json\n", "line",
             line({"id": None,
                   "error": "Expecting value: line 1 column 1 (char 0)"})),
        closed(),
    ]


def _json_not_an_object(hit):
    return [
        send(b"[1, 2, 3]\n", "line",
             line({"id": None, "error": "request must be a JSON object"})),
        closed(),
    ]


def _json_without_id(hit):
    return [
        send(line({"op": "contains", "args": [0]}), "line",
             line({"id": None, "results": [False]})),
        closed(),
    ]


def _json_over_bound(hit):
    # One write, newline included, so the server reads all of it
    # before it answers and closes.
    padding = "x" * (MAX_FRAME_BYTES + 100)
    return [
        send(line({"id": 1, "op": "contains", "args": [], "pad": padding}),
             "line",
             line({"id": None,
                   "error": "request line is over the 4096-byte frame bound",
                   "code": "frame-too-large"})),
        closed(),
    ]


def _upgrade():
    return send(line(hello()), "line", line({"id": 0, "results": [BINARY_GRANT]}))


def _binary_plain(hit):
    return [
        _upgrade(),
        send(request_frame(CONTAINS, 1, hit), "frame",
             Answer("binary", 1, "contains", (hit,))),
        send(request_frame(RECORD, 2, hit, 0), "frame",
             Answer("binary", 2, "record", (hit, 0))),
        send(frame(REQUEST, STATS, 3, 0), "frame",
             Answer("binary", 3, "stats")),
        send(request_frame(CONTAINS, 4), "frame", frame(REPLY, CONTAINS, 4, 0)),
    ]


def _binary_request_errors(hit):
    return [
        _upgrade(),
        send(request_frame(0, 4, hit), "frame",
             error_frame(4, 0, UNKNOWN_CODE.format(0))),
        send(request_frame(9, 5, hit), "frame",
             error_frame(5, 0, UNKNOWN_CODE.format(9))),
        send(frame(REQUEST, CONTAINS, 6, 2, address_payload(hit)), "frame",
             error_frame(6, 0, "address payload is 16 bytes for 2 addresses "
                               "(expected 32)")),
        send(frame(REQUEST, STATS, 7, 1, address_payload(hit)), "frame",
             error_frame(7, 0, "op 'stats' takes no address payload")),
        send(request_frame(CONTAINS, 8, hit), "frame",
             Answer("binary", 8, "contains", (hit,))),
    ]


def _hello_without_id(hit):
    return [
        send(line(hello(None)), "line",
             line({"id": None, "results": [BINARY_GRANT]})),
        closed(),
    ]


def _json_only_hello_without_id(hit):
    return [
        send(line(hello(None)), "line",
             line({"id": None, "results": [JSON_GRANT]})),
        closed(),
    ]


def _hello_version_0(hit):
    return [
        send(line(hello(version=0)), "line",
             line({"id": 0, "results": [JSON_GRANT]})),
        send(json_request(1, "contains", [hit]), "line",
             Answer("json", 1, "contains", (hit,))),
    ]


def _hello_other_magic(hit):
    return [
        send(line(hello(magic="RSB2")), "line",
             line({"id": 0, "results": [JSON_GRANT]})),
        send(json_request(1, "contains", [0]), "line",
             line({"id": 1, "results": [False]})),
    ]


def _hello_on_a_later_line(hit):
    return [
        send(json_request(1, "contains", [hit]), "line",
             Answer("json", 1, "contains", (hit,))),
        send(line(hello(2)), "line",
             line({"id": 2, "error": UNKNOWN_NAME.format("hello")})),
        send(json_request(3, "contains", [0]), "line",
             line({"id": 3, "results": [False]})),
    ]


def _reply_frame_after_upgrade(hit):
    return [
        _upgrade(),
        send(frame(REPLY, CONTAINS, 5, 0), "frame",
             error_frame(5, 3, "expected a request frame, got kind 1")),
        closed(),
    ]


def _bad_crc(hit):
    good = request_frame(CONTAINS, 6, hit)
    actual = struct.unpack("<I", good[-4:])[0]
    stored = actual ^ 1
    return [
        _upgrade(),
        send(good[:-4] + struct.pack("<I", stored), "frame",
             error_frame(6, 2, f"frame CRC mismatch: stored {stored:#010x}, "
                               f"actual {actual:#010x}")),
        closed(),
    ]


def _truncated_payload(hit):
    return [
        _upgrade(),
        Step(send=request_frame(CONTAINS, 7, hit)[:30], eof=True,
             read="frame", expect=error_frame(7, 2, "connection closed mid-frame")),
        closed(),
    ]


def _truncated_header(hit):
    return [
        _upgrade(),
        Step(send=request_frame(CONTAINS, 7, hit)[:10], eof=True,
             read="frame",
             expect=error_frame(0, 2, "connection closed 10 bytes into a "
                                      "24-byte frame header")),
        closed(),
    ]


def _garbage(hit):
    return [
        _upgrade(),
        send(b"\xde\xad\xbe\xef" * 6, "frame",
             error_frame(0, 2, "bad frame magic b'\\xde\\xad\\xbe\\xef'")),
        closed(),
    ]


def _over_bound_frame(hit):
    header = struct.pack(
        "<4sBBBxQII", b"RSB1", 1, REQUEST, CONTAINS, 8, 400, 16 * 400
    )
    return [
        _upgrade(),
        send(header, "frame",
             error_frame(8, 1, "frame payload of 6400 bytes is over the "
                               "4096-byte frame bound")),
        closed(),
    ]


def _wrong_version(hit):
    return [
        _upgrade(),
        send(frame(REQUEST, CONTAINS, 9, 0, version=2), "frame",
             error_frame(9, 3, "unsupported wire version 2 (speaking 1)")),
        closed(),
    ]


def _unknown_kind(hit):
    return [
        _upgrade(),
        send(frame(7, CONTAINS, 10, 0), "frame",
             error_frame(10, 3, "unknown frame kind 7")),
        closed(),
    ]


def _json_only_served(hit):
    return [
        send(line(hello()), "line", line({"id": 0, "results": [JSON_GRANT]})),
        send(json_request(1, "contains", [hit]), "line",
             Answer("json", 1, "contains", (hit,))),
        send(json_request(2, "stats", []), "line", Answer("json", 2, "stats")),
    ]


#: An RSB1 request frame holding no newline byte, so a JSON-lines
#: server reads it, up to the client's half-close, as one line.
RSB1_REQUEST = request_frame(CONTAINS, 1, 0)


def _rsb1_to_json_only(hit):
    assert b"\n" not in RSB1_REQUEST
    try:
        json.loads(RSB1_REQUEST)
    except ValueError as error:
        message = str(error)
    return [
        send(line(hello()), "line", line({"id": 0, "results": [JSON_GRANT]})),
        Step(send=RSB1_REQUEST, eof=True, read="line",
             expect=line({"id": None, "error": message})),
        closed(),
    ]


CONVERSATIONS: Dict[str, Conversation] = {
    "json-plain": Conversation(True, _json_plain, (1, 0, 3, 0)),
    "json-request-errors": Conversation(True, _json_request_errors, (1, 0, 5, 3)),
    "json-undecodable": Conversation(True, _json_undecodable, (1, 0, 1, 1)),
    "json-not-an-object": Conversation(True, _json_not_an_object, (1, 0, 1, 1)),
    "json-without-id": Conversation(True, _json_without_id, (1, 0, 1, 0)),
    "json-over-bound": Conversation(True, _json_over_bound, (1, 0, 0, 1)),
    "binary-plain": Conversation(True, _binary_plain, (1, 1, 5, 0)),
    "binary-request-errors": Conversation(True, _binary_request_errors, (1, 1, 6, 4)),
    "hello-without-id": Conversation(True, _hello_without_id, (1, 1, 1, 0)),
    "hello-version-0": Conversation(True, _hello_version_0, (1, 0, 2, 0)),
    "hello-other-magic": Conversation(True, _hello_other_magic, (1, 0, 2, 0)),
    "hello-on-a-later-line": Conversation(True, _hello_on_a_later_line, (1, 0, 3, 1)),
    "reply-frame-after-upgrade": Conversation(
        True, _reply_frame_after_upgrade, (1, 1, 1, 1)
    ),
    "bad-crc": Conversation(True, _bad_crc, (1, 1, 1, 1)),
    "truncated-payload": Conversation(True, _truncated_payload, (1, 1, 1, 1)),
    "truncated-header": Conversation(True, _truncated_header, (1, 1, 1, 1)),
    "garbage": Conversation(True, _garbage, (1, 1, 1, 1)),
    "over-bound-frame": Conversation(True, _over_bound_frame, (1, 1, 1, 1)),
    "wrong-version": Conversation(True, _wrong_version, (1, 1, 1, 1)),
    "unknown-kind": Conversation(True, _unknown_kind, (1, 1, 1, 1)),
    "json-only-served": Conversation(False, _json_only_served, (1, 0, 3, 0)),
    "json-only-hello-without-id": Conversation(
        False, _json_only_hello_without_id, (1, 0, 1, 0)
    ),
    "json-only-over-bound": Conversation(False, _json_over_bound, (1, 0, 0, 1)),
    "rsb1-to-json-only": Conversation(False, _rsb1_to_json_only, (1, 0, 2, 1)),
}


# -- the driver -------------------------------------------------------------------


async def read_reply(reader, kind) -> bytes:
    """One reply's raw bytes: a line, or a whole frame."""
    if kind == "line":
        return await reader.readline()
    header = await reader.readexactly(24)
    payload_bytes = struct.unpack_from("<I", header, 20)[0]
    return header + await reader.readexactly(payload_bytes + 4)


async def expected_bytes(expect, engine, local) -> bytes:
    if not isinstance(expect, Answer):
        return expect
    if expect.op == "stats":
        # Read right after the reply: nothing has run on the engine since.
        results = [engine.describe()]
    else:
        results = await getattr(local, f"{expect.op}_batch")(list(expect.args))
    if expect.protocol == "json":
        return line({"id": expect.request_id, "results": results})
    spec = wire.resolve_op(expect.op)
    return naive_wire.encode_reply(spec, expect.request_id, results)


async def converse(index, conversation, hit):
    metrics = MetricsRegistry()
    engine = CoalescingEngine(index)
    local = LocalHitlistClient(CoalescingEngine(index))
    server = HitlistServer(
        engine,
        metrics=metrics,
        max_frame_bytes=MAX_FRAME_BYTES,
        binary=conversation.binary,
    )
    await server.start()
    written, expected = [], []
    try:
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        half_closed = False
        for step in conversation.steps(hit):
            if step.send:
                writer.write(step.send)
                await writer.drain()
            if step.eof:
                writer.write_eof()
                half_closed = True
            if step.read == "closed":
                got = await asyncio.wait_for(reader.read(), TIMEOUT)
            else:
                got = await asyncio.wait_for(
                    read_reply(reader, step.read), TIMEOUT
                )
            written.append(got)
            expected.append(await expected_bytes(step.expect, engine, local))
        if not half_closed and not reader.at_eof():
            writer.write_eof()
        # A live connection closes once the client has; a closed one
        # has nothing more to say.
        written.append(await asyncio.wait_for(reader.read(), TIMEOUT))
        expected.append(b"")
        writer.close()
    finally:
        await server.aclose()
    counters = tuple(int(metrics.counter_value(name)) for name in COUNTERS)
    return written, expected, counters


@pytest.mark.parametrize("name", sorted(CONVERSATIONS))
def test_server_bytes_and_counters(served_index, queries, name):
    conversation = CONVERSATIONS[name]
    written, expected, counters = asyncio.run(
        converse(served_index, conversation, queries[0])
    )
    assert written == expected
    assert counters == conversation.counters

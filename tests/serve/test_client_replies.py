"""The remote client's reply rules, against scripted fake servers.

Each test runs one protocol's fake server: it answers every request
with whatever bytes its script returns, so the client meets replies no
real server sends.  The rules, on both protocols:

* a reply for an id no request is waiting on, without an error, is
  ignored;
* a request-scoped error fails its own request, and the connection
  keeps serving;
* an error no pending request owns ends the connection with
  ``ConnectionError("un-correlatable ...")``;
* a typed (connection-fatal) error fails every in-flight request with
  its class, the request it answered included;
* an RSB1 reply whose kind or op does not match its request fails with
  :class:`WireProtocolError`;
* a JSON-lines reply the client cannot read — over its frame bound, not
  JSON, or not an object — ends the connection with a typed
  :class:`WireError`, as an unreadable RSB1 frame does.
"""

import asyncio
import json

import pytest

from repro.serve import RemoteHitlistClient
from repro.serve import wire
from repro.serve.wire import (
    FrameCorruptError,
    FrameTooLargeError,
    PROTOCOL_BINARY,
    PROTOCOL_JSON,
    WireProtocolError,
)

from . import naive_wire

TIMEOUT = 30
CONTAINS = wire.resolve_op("contains")
RECORD = wire.resolve_op("record")


def line(document) -> bytes:
    return (json.dumps(document) + "\n").encode()


def request_id_of(request, protocol):
    return request["id"] if protocol == PROTOCOL_JSON else request[2]


def count_of(request, protocol):
    return len(request["args"]) if protocol == PROTOCOL_JSON else request[3]


def answer(protocol, request_id, count=1) -> bytes:
    """A well-formed ``contains`` reply: every address present."""
    if protocol == PROTOCOL_JSON:
        return line({"id": request_id, "results": [True] * count})
    return naive_wire.encode_reply(CONTAINS, request_id, [True] * count)


def error(protocol, request_id, message, typed=None) -> bytes:
    """An error reply: request-scoped, or of a typed error class."""
    if protocol == PROTOCOL_JSON:
        document = {"id": request_id, "error": message}
        if typed is not None:
            document["code"] = typed.code
        return line(document)
    number = wire.REQUEST_ERROR if typed is None else typed.number
    return wire.encode_error(request_id or 0, number, message)


async def fake_server(protocol, script):
    """A server answering request ``n`` (1, 2, ...) with ``script(n,
    request)``: a list of raw byte chunks.  RSB1 servers grant the
    hello first."""

    async def handle(reader, writer):
        if protocol == PROTOCOL_BINARY:
            hello = json.loads(await reader.readline())
            writer.write(
                line({"id": hello["id"], "results": [wire.hello_reply(True)]})
            )
        number = 0
        while True:
            if protocol == PROTOCOL_BINARY:
                request = await wire.read_frame(reader)
            else:
                raw = await reader.readline()
                request = json.loads(raw) if raw else None
            if request is None:
                break
            number += 1
            for chunk in script(number, request):
                writer.write(chunk)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def run_against(protocol, script, body, **connect):
    server = await fake_server(protocol, script)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        client = await RemoteHitlistClient.connect(
            host, port, protocol=protocol, **connect
        )
        assert client.protocol == protocol
        async with client:
            await asyncio.wait_for(body(client), TIMEOUT)
    finally:
        server.close()
        await server.wait_closed()


def run(protocol, script, body, **connect):
    asyncio.run(run_against(protocol, script, body, **connect))


async def assert_closed(client):
    with pytest.raises(ConnectionError):
        await client.contains(1)


PROTOCOLS = [PROTOCOL_JSON, PROTOCOL_BINARY]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_reply_for_an_unknown_id_is_ignored(protocol):
    def script(number, request):
        request_id = request_id_of(request, protocol)
        count = count_of(request, protocol)
        return [
            answer(protocol, request_id + 1000, count),
            answer(protocol, request_id, count),
        ]

    async def body(client):
        assert await client.contains(1) is True
        assert await client.contains_batch([1, 2]) == [True, True]

    run(protocol, script, body)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_request_error_fails_only_its_request(protocol):
    def script(number, request):
        request_id = request_id_of(request, protocol)
        if number == 1:
            return [error(protocol, request_id, "boom")]
        return [answer(protocol, request_id)]

    async def body(client):
        with pytest.raises(RuntimeError, match="^server error: boom$"):
            await client.contains(1)
        assert await client.contains(1) is True

    run(protocol, script, body)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_error_no_request_owns_ends_the_connection(protocol):
    def script(number, request):
        return [error(protocol, 999, "boom")]

    async def body(client):
        with pytest.raises(ConnectionError) as caught:
            await client.contains(1)
        assert type(caught.value) is ConnectionError
        assert str(caught.value) == "un-correlatable server error: boom"
        await assert_closed(client)

    run(protocol, script, body)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("owner", ["answered", "none"])
def test_a_typed_error_fails_every_request_in_flight(protocol, owner):
    # Request 1 waits unanswered; the error answers request 2, or no
    # request at all (the id a real server sends it with).
    def script(number, request):
        if number == 1:
            return []
        request_id = request_id_of(request, protocol)
        if owner == "none":
            request_id = None
        return [error(protocol, request_id, "too big", FrameTooLargeError)]

    async def body(client):
        first = asyncio.ensure_future(client.contains(1))
        await asyncio.sleep(0)
        second = asyncio.ensure_future(client.contains(2))
        for outcome in await asyncio.gather(
            first, second, return_exceptions=True
        ):
            assert isinstance(outcome, FrameTooLargeError)
            assert str(outcome) == "too big"
        await assert_closed(client)

    run(protocol, script, body)


@pytest.mark.parametrize(
    "kind, op",
    [(wire.KIND_REPLY, RECORD.code), (wire.KIND_REQUEST, CONTAINS.code)],
    ids=["wrong-op", "wrong-kind"],
)
def test_an_rsb1_reply_must_match_its_request(kind, op):
    def script(number, request):
        return [wire.encode_frame(kind, op, request[2], 0, b"")]

    async def body(client):
        with pytest.raises(WireProtocolError, match="does not match request"):
            await client.contains(1)
        await assert_closed(client)

    run(PROTOCOL_BINARY, script, body)


@pytest.mark.parametrize(
    "reply, typed, message",
    [
        (
            line({"id": 1, "results": [True], "pad": "x" * 5000}),
            FrameTooLargeError,
            "reply line is over the 4096-byte frame bound",
        ),
        (b"[1, 2]\n", WireProtocolError, "reply line is not a JSON object"),
        (b"not json\n", FrameCorruptError, "undecodable reply line"),
        (
            line({"id": 1}),
            WireProtocolError,
            "reply line holds neither results nor an error",
        ),
    ],
    ids=["over-bound", "not-an-object", "undecodable", "neither"],
)
def test_an_unreadable_json_reply_ends_the_connection_typed(
    reply, typed, message
):
    def script(number, request):
        return [reply]

    async def body(client):
        with pytest.raises(typed, match=message):
            await client.contains(1)
        await assert_closed(client)

    run(PROTOCOL_JSON, script, body, max_frame_bytes=4096)


def test_a_json_reply_with_an_unhashable_id_is_ignored():
    def script(number, request):
        request_id = request_id_of(request, PROTOCOL_JSON)
        stray = line({"id": [request_id], "results": [False]})
        return [stray, answer(PROTOCOL_JSON, request_id)]

    async def body(client):
        assert await client.contains(1) is True
        assert await client.contains(1) is True

    run(PROTOCOL_JSON, script, body)


def test_an_undecodable_rsb1_error_frame_ends_the_connection_typed():
    def script(number, request):
        return [wire.encode_frame(wire.KIND_ERROR, 0, request[2], 0, b"")]

    async def body(client):
        with pytest.raises(
            FrameCorruptError, match="undecodable error frame payload"
        ):
            await client.contains(1)
        await assert_closed(client)

    run(PROTOCOL_BINARY, script, body)

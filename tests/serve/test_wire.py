"""The RSB1 wire protocol: codec, negotiation, interop, and fuzz.

Three pinned contracts:

* **Codec** — every reply family round-trips bit-identically (None,
  sentinel MACs, absent ASNs, empty batches included), and op codes are
  wire ABI frozen by value.
* **Interop** — every protocol pairing works: binary↔binary, json↔json,
  a binary client downgrading against a ``--json-only`` server and
  against a simulated *old* (pre-RSB1) server, all returning the same
  answers as the JSON path.
* **Fuzz** — truncated, bit-flipped, and oversized frames always raise
  a *typed* :class:`WireError`, bounded in time (no hang) and in memory
  (length validated before any payload read).
"""

import asyncio
import contextlib
import json

import pytest

from repro import api
from repro.serve import (
    CoalescingEngine,
    ColumnarResults,
    HitlistServer,
    LocalHitlistClient,
    RemoteHitlistClient,
    ServingIndex,
    build_serving_index,
)
from repro.serve import wire
from repro.serve.wire import (
    AddressBlock,
    FRAME_HEADER_SIZE,
    FrameCorruptError,
    FrameTooLargeError,
    KIND_REPLY,
    KIND_REQUEST,
    PROTOCOL_BINARY,
    PROTOCOL_JSON,
    QUERY_OP_TABLE,
    WireError,
    WireProtocolError,
    resolve_op,
)

from . import naive_wire
from .conftest import write_serve_store
from .test_format import oracle


@pytest.fixture(scope="module")
def served_index(serve_dir, routing):
    build_serving_index(serve_dir, routing=routing)
    with ServingIndex.open(serve_dir) as index:
        yield index


@pytest.fixture(scope="module")
def unrouted_index(tmp_path_factory):
    """An index built without an origin table."""
    directory = tmp_path_factory.mktemp("unrouted-store")
    write_serve_store(directory, per_segment=20, segments=1)
    build_serving_index(directory)
    with ServingIndex.open(directory) as index:
        yield index


def run(coroutine):
    return asyncio.run(coroutine)


def feed(*chunks, eof=True):
    """A StreamReader pre-loaded with bytes (and optionally EOF)."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


async def read_one(data, **kwargs):
    """Read a single frame from raw bytes, bounded to prove no hang."""
    return await asyncio.wait_for(
        wire.read_frame(feed(data), **kwargs), timeout=10
    )


class TestRegistry:
    def test_op_codes_are_frozen_wire_abi(self):
        # Codes are ABI: a renumber breaks every deployed peer.  Pin
        # them by value, not by table order.
        assert {spec.name: spec.code for spec in QUERY_OP_TABLE} == {
            "record": 1,
            "lifetime": 2,
            "entropy": 3,
            "features": 4,
            "origin": 5,
            "contains": 6,
            "slash48": 7,
            "slash64": 8,
            "stats": 15,
        }
        assert all(spec.code != 0 for spec in QUERY_OP_TABLE)

    def test_resolve_accepts_spec_code_and_name(self):
        spec = resolve_op("contains")
        assert resolve_op(spec.code) is spec
        assert resolve_op(spec) is spec
        with pytest.raises(ValueError, match="unknown query op"):
            resolve_op("frobnicate")
        with pytest.raises(ValueError, match="unknown query op"):
            resolve_op(0)
        # bools are not op codes, even though bool is an int subclass.
        with pytest.raises(ValueError, match="unknown query op"):
            resolve_op(True)

    def test_surface_names(self):
        assert resolve_op("slash48").surface == "in_slash48"
        assert resolve_op("slash64").surface == "in_slash64"
        assert resolve_op("stats").addressed is False


class TestAddressBlock:
    ADDRESSES = [
        0,
        1,
        (1 << 128) - 1,
        (0x2001 << 112) | (1 << 64) | 7,
        (1 << 64) - 1,  # hi == 0, lo == max
        1 << 64,  # hi == 1, lo == 0
    ]

    def test_payload_round_trip(self):
        payload = b"".join(
            address.to_bytes(16, "little") for address in self.ADDRESSES
        )
        block = AddressBlock.from_payload(payload, len(self.ADDRESSES))
        assert list(block) == self.ADDRESSES
        assert len(block) == len(self.ADDRESSES)
        assert block[2] == (1 << 128) - 1
        assert list(block[1:3]) == self.ADDRESSES[1:3]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="address payload"):
            AddressBlock.from_payload(b"\x00" * 17, 1)


REPLY_CASES = [
    ("contains", [True, False, True]),
    ("contains", []),
    ("lifetime", [0.0, None, 86400.5, -0.0]),
    ("entropy", [None, 0.25, 1.0]),
    ("record", [(1.5, 2.5, 3), None, (0.0, 0.0, 1)]),
    ("features", [(0.5, 2, 0x0011_22_33_44_55), (1.0, 7, None), None]),
    ("origin", [64500, None, 4_294_967_295]),
    ("stats", [{"rows": 10, "coalesce": True, "origin_source": None}]),
]


class TestReplyCodec:
    @pytest.mark.parametrize("op,results", REPLY_CASES)
    def test_round_trip_bit_identical(self, op, results):
        # The reference encoder's frames: TestColumnar pins
        # encode_reply byte-equal to it on every family.
        spec = resolve_op(op)
        data = naive_wire.encode_reply(spec, 42, results)

        async def scenario():
            frame = await read_one(data)
            kind, opcode, request_id, count, payload = frame
            assert (kind, opcode, request_id) == (
                KIND_REPLY, spec.code, 42,
            )
            assert count == len(results)
            return wire.decode_results(spec, count, payload)

        assert run(scenario()) == results

    def test_request_round_trip(self):
        spec = resolve_op("record")
        addresses = TestAddressBlock.ADDRESSES
        data = wire.encode_request(spec, 9, addresses)

        async def scenario():
            kind, opcode, request_id, count, payload = await read_one(
                data
            )
            assert (kind, opcode, request_id) == (
                KIND_REQUEST, spec.code, 9,
            )
            decoded_spec, block = wire.decode_request(
                opcode, count, payload
            )
            assert decoded_spec is spec
            return list(block)

        assert run(scenario()) == addresses

    def test_request_validation_matches_json_wording(self):
        spec = resolve_op("contains")
        with pytest.raises(ValueError, match="addresses must be ints"):
            wire.encode_request(spec, 1, ["2001::1"])
        with pytest.raises(ValueError, match="address out of range"):
            wire.encode_request(spec, 1, [1 << 128])
        with pytest.raises(FrameTooLargeError):
            wire.encode_request(
                spec, 1, [0] * 1024, max_frame_bytes=4096
            )

    def test_reply_payload_size_is_validated(self):
        # A CRC-valid frame whose payload disagrees with its count is
        # corrupt, not silently mis-sliced.
        spec = resolve_op("lifetime")
        with pytest.raises(FrameCorruptError, match="reply payload"):
            wire.decode_results(spec, 3, b"\x00" * 5)

    def test_error_frame_round_trip(self):
        data = wire.encode_error(7, FrameTooLargeError.number, "too big")

        async def scenario():
            kind, _, request_id, _, payload = await read_one(data)
            assert kind == wire.KIND_ERROR
            assert request_id == 7
            return wire.decode_error(payload)

        number, message = run(scenario())
        assert message == "too big"
        assert isinstance(
            wire.error_for(number, message), FrameTooLargeError
        )


class TestFrameFuzz:
    FRAME = naive_wire.encode_reply(
        resolve_op("lifetime"), 3, [1.5, None, 2.5]
    )

    def test_clean_eof_returns_none(self):
        async def scenario():
            return await asyncio.wait_for(
                wire.read_frame(feed(b"")), timeout=10
            )

        assert run(scenario()) is None

    def test_truncation_at_every_length(self):
        # Cutting the frame anywhere — mid-header, mid-payload, mid-
        # trailer — must raise typed corruption, never hang or return.
        async def scenario():
            for cut in range(1, len(self.FRAME)):
                with pytest.raises(FrameCorruptError):
                    await read_one(self.FRAME[:cut])

        run(scenario())

    def test_every_single_bit_flip_is_detected(self):
        # Magic and version checks catch the first bytes; the CRC
        # catches everything else, including flips inside count /
        # payload_bytes that still parse.  A flip that inflates
        # payload_bytes hits the frame bound or EOF instead — every
        # path is a typed WireError.
        async def scenario():
            for position in range(len(self.FRAME)):
                for bit in range(8):
                    mutated = bytearray(self.FRAME)
                    mutated[position] ^= 1 << bit
                    with pytest.raises(WireError):
                        await read_one(bytes(mutated))

        run(scenario())

    def test_oversized_length_rejected_before_payload_read(self):
        # payload_bytes over the bound: rejected from the header alone.
        # No payload bytes are fed, so completing at all proves the
        # reader never tried to buffer the advertised 16 MiB.
        header = wire._FRAME_HEADER.pack(
            wire.WIRE_MAGIC, wire.WIRE_VERSION, KIND_REPLY, 2, 1, 0,
            16 * 1024 * 1024,
        )

        async def scenario():
            reader = feed(header, eof=False)
            with pytest.raises(FrameTooLargeError):
                await asyncio.wait_for(
                    wire.read_frame(reader, max_frame_bytes=4096),
                    timeout=10,
                )

        run(scenario())

    def test_wrong_version_and_kind_are_protocol_errors(self):
        def header(version=wire.WIRE_VERSION, kind=KIND_REPLY):
            head = wire._FRAME_HEADER.pack(
                wire.WIRE_MAGIC, version, kind, 2, 1, 0, 0
            )
            return head + wire._TRAILER.pack(wire.crc32_of(head))

        async def scenario():
            with pytest.raises(
                WireProtocolError, match="unsupported wire version"
            ):
                await read_one(header(version=9))
            with pytest.raises(
                WireProtocolError, match="unknown frame kind"
            ):
                await read_one(header(kind=7))
            with pytest.raises(FrameCorruptError, match="magic"):
                await read_one(b"NOPE" + header()[4:])

        run(scenario())


async def _server(index, **kwargs):
    engine = CoalescingEngine(index)
    server = HitlistServer(engine, **kwargs)
    await server.start()
    return server


class TestNegotiation:
    def test_binary_client_binary_server(self, served_index, queries):
        async def scenario():
            server = await _server(served_index)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port
                )
                async with client:
                    assert client.protocol == PROTOCOL_BINARY
                    assert await client.contains(queries[0]) is True
            finally:
                await server.aclose()

        run(scenario())

    def test_binary_client_downgrades_against_json_only_server(
        self, served_index, queries
    ):
        async def scenario():
            server = await _server(served_index, binary=False)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port, protocol=PROTOCOL_BINARY
                )
                async with client:
                    assert client.protocol == PROTOCOL_JSON
                    assert await client.contains(queries[0]) is True
                    assert await client.contains(0) is False
            finally:
                await server.aclose()

        run(scenario())

    def test_binary_client_downgrades_against_old_server(self, queries):
        # A pre-RSB1 server answers the hello like any unknown op: a
        # *correlated* error reply.  The client must downgrade to JSON
        # on the same connection, not fail.
        async def old_server(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                if request.get("op") == "contains":
                    reply = {
                        "id": request["id"],
                        "results": [True] * len(request["args"]),
                    }
                else:
                    reply = {
                        "id": request.get("id"),
                        "error": f"unknown query op "
                                 f"{request.get('op')!r}",
                    }
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(
                old_server, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            try:
                client = await RemoteHitlistClient.connect(host, port)
                async with client:
                    assert client.protocol == PROTOCOL_JSON
                    assert await client.contains(queries[0]) is True
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_json_client_skips_handshake(self, served_index, queries):
        async def scenario():
            server = await _server(served_index)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port, protocol=PROTOCOL_JSON
                )
                async with client:
                    assert client.protocol == PROTOCOL_JSON
                    assert await client.contains(queries[0]) is True
            finally:
                await server.aclose()

        run(scenario())

    def test_raw_json_lines_still_served_verbatim(self, served_index):
        # The old client's exact bytes — no hello — keep working.
        async def scenario():
            server = await _server(served_index)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    b'{"id": 1, "op": "contains", "args": [0]}\n'
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply == {"id": 1, "results": [False]}
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        run(scenario())

    def test_rejected_protocol_value(self):
        async def scenario():
            with pytest.raises(ValueError, match="protocol must be"):
                await RemoteHitlistClient.connect(
                    "127.0.0.1", 1, protocol="msgpack"
                )

        run(scenario())


class TestInteropAnswers:
    def test_both_protocols_answer_bit_identically(
        self, served_index, ground_truth, routing, queries
    ):
        """The tentpole's ground-truth gate, in-process: every op, every
        query, byte-for-byte equal across binary and JSON clients, both
        equal to the in-process oracle."""
        expected = oracle(ground_truth, routing, queries)

        async def scenario():
            server = await _server(served_index)
            try:
                binary = await RemoteHitlistClient.connect(
                    server.host, server.port, protocol=PROTOCOL_BINARY
                )
                jsonl = await RemoteHitlistClient.connect(
                    server.host, server.port, protocol=PROTOCOL_JSON
                )
                assert binary.protocol == PROTOCOL_BINARY
                try:
                    for op, method in [
                        ("record", "record_batch"),
                        ("lifetime", "lifetime_batch"),
                        ("entropy", "entropy_batch"),
                        ("features", "features_batch"),
                        ("origin", "origin_batch"),
                        ("contains", "contains_batch"),
                        ("slash48", "in_slash48_batch"),
                        ("slash64", "in_slash64_batch"),
                    ]:
                        b = await getattr(binary, method)(queries)
                        j = await getattr(jsonl, method)(queries)
                        assert b == j, op
                        assert b == expected[op], op
                    assert (await binary.stats())["rows"] == (
                        await jsonl.stats()
                    )["rows"]
                finally:
                    await binary.aclose()
                    await jsonl.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_unknown_op_is_request_scoped_on_binary(
        self, served_index, queries
    ):
        # Same contract as the JSON path: the op the registry cannot
        # resolve goes out as reserved code 0, the server rejects that
        # request, and the connection keeps serving.
        async def scenario():
            server = await _server(served_index)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port
                )
                async with client:
                    assert client.protocol == PROTOCOL_BINARY
                    with pytest.raises(
                        RuntimeError, match="server error"
                    ):
                        await client._request("frobnicate", [1])
                    assert await client.contains(queries[0]) is True
            finally:
                await server.aclose()

        run(scenario())

    def test_pipelined_binary_requests_coalesce(
        self, served_index, queries
    ):
        async def scenario():
            server = await _server(served_index)
            engine = server.engine
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port
                )
                async with client:
                    answers = await asyncio.gather(
                        *(
                            client.lifetime(query)
                            for query in queries[:48]
                        )
                    )
                    direct = await engine.batch(
                        "lifetime", queries[:48]
                    )
                    assert answers == direct
                    assert engine.batches_executed < 48
            finally:
                await server.aclose()

        run(scenario())


class TestFrameBounds:
    def test_oversized_json_line_gets_typed_error(self, served_index):
        # Satellite (c): a request line over --max-frame-bytes used to
        # surface as an unhandled LimitOverrunError; now it's answered
        # with a typed error and a close, and the client raises
        # FrameTooLargeError rather than a bare EOF.
        async def scenario():
            server = await _server(served_index, max_frame_bytes=4096)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port, protocol=PROTOCOL_JSON
                )
                with pytest.raises(FrameTooLargeError):
                    await asyncio.wait_for(
                        client.contains_batch(list(range(4096))),
                        timeout=30,
                    )
                await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_oversized_binary_frame_gets_typed_error(
        self, served_index
    ):
        # The client's own bound is larger than the server's, so the
        # frame goes out and the *server* rejects it from the header.
        async def scenario():
            server = await _server(served_index, max_frame_bytes=4096)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port
                )
                assert client.protocol == PROTOCOL_BINARY
                with pytest.raises(FrameTooLargeError):
                    await asyncio.wait_for(
                        client.contains_batch(list(range(4096))),
                        timeout=30,
                    )
                await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_client_side_bound_rejects_before_send(self, served_index):
        # A batch over the *client's* bound never reaches the wire, and
        # the connection stays usable.
        async def scenario():
            server = await _server(served_index)
            try:
                client = await RemoteHitlistClient.connect(
                    server.host, server.port, max_frame_bytes=4096
                )
                async with client:
                    with pytest.raises(FrameTooLargeError):
                        await client.contains_batch(list(range(4096)))
                    assert await client.contains(0) is False
            finally:
                await server.aclose()

        run(scenario())

    def test_garbage_after_upgrade_is_fatal_and_typed(
        self, served_index
    ):
        # Raw socket: negotiate binary, then send garbage bytes.  The
        # server must answer one typed error frame and close — no hang.
        async def scenario():
            server = await _server(served_index)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(wire.encode_hello_line())
                await writer.drain()
                hello = json.loads(await reader.readline())
                assert (
                    hello["results"][0]["protocol"] == PROTOCOL_BINARY
                )
                writer.write(b"\xde\xad\xbe\xef" * 8)
                await writer.drain()
                frame = await asyncio.wait_for(
                    wire.read_frame(reader), timeout=30
                )
                kind, _, _, _, payload = frame
                assert kind == wire.KIND_ERROR
                number, _ = wire.decode_error(payload)
                assert isinstance(
                    wire.error_for(number, ""), FrameCorruptError
                )
                assert (
                    await asyncio.wait_for(reader.read(), timeout=30)
                    == b""
                )
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()
            finally:
                await server.aclose()

        run(scenario())


class TestApiConnectUrls:
    def test_repro_url_binary_default(self, served_index, queries):
        async def scenario():
            server = await _server(served_index)
            try:
                client = await api.connect(
                    f"repro://{server.host}:{server.port}"
                )
                async with client:
                    assert isinstance(client, RemoteHitlistClient)
                    assert client.protocol == PROTOCOL_BINARY
                    assert await client.contains(queries[0]) is True
            finally:
                await server.aclose()

        run(scenario())

    def test_repro_url_protocol_param(self, served_index, queries):
        async def scenario():
            server = await _server(served_index)
            try:
                client = await api.connect(
                    f"repro://{server.host}:{server.port}"
                    "?protocol=json"
                )
                async with client:
                    assert client.protocol == PROTOCOL_JSON
                    assert await client.contains(queries[0]) is True
            finally:
                await server.aclose()

        run(scenario())

    def test_host_port_with_protocol_kwarg(self, served_index):
        async def scenario():
            server = await _server(served_index)
            try:
                client = await api.connect(
                    f"{server.host}:{server.port}", protocol="json"
                )
                async with client:
                    assert client.protocol == PROTOCOL_JSON
            finally:
                await server.aclose()

        run(scenario())

    def test_url_validation(self):
        async def scenario():
            with pytest.raises(ValueError, match="conflicts"):
                await api.connect(
                    "repro://127.0.0.1:1?protocol=json",
                    protocol="binary",
                )
            with pytest.raises(ValueError, match="unknown repro://"):
                await api.connect("repro://127.0.0.1:1?bogus=1")
            with pytest.raises(
                ValueError, match="host and port"
            ):
                await api.connect("repro://nohost")
            with pytest.raises(
                ValueError, match="only apply to remote"
            ):
                await api.connect(
                    "no-such-directory", protocol="binary"
                )

        run(scenario())


class TestColumnar:
    """Columnar answers equal the oracle, and their frames the reference.

    ``columnar_batch`` must produce exactly the ground-truth values
    (``to_list``), and ``encode_reply`` exactly the bytes of the
    per-item reference encoder (:mod:`tests.serve.naive_wire`) over
    those values, for every reply family.
    """

    OPS = [spec.name for spec in wire.ADDRESS_OPS]

    @pytest.mark.parametrize("op", OPS)
    def test_values_and_frame_bytes_match_list_path(
        self, served_index, ground_truth, routing, queries, op
    ):
        spec = resolve_op(op)
        expected = oracle(ground_truth, routing, queries)[op]
        columnar = served_index.columnar_batch(op, queries)
        assert isinstance(columnar, ColumnarResults)
        assert len(columnar) == len(expected)
        assert columnar.to_list() == expected
        assert wire.encode_reply(
            spec, 7, columnar
        ) == naive_wire.encode_reply(spec, 7, expected)

    def test_slices_items_and_iteration(
        self, served_index, ground_truth, routing, queries
    ):
        columnar = served_index.columnar_batch("record", queries)
        expected = oracle(ground_truth, routing, queries)["record"]
        piece = columnar[2:9]
        assert isinstance(piece, ColumnarResults)
        assert piece.to_list() == expected[2:9]
        # Rows are read through to_list(), never one by one.
        with pytest.raises(TypeError):
            iter(columnar)

    def test_address_block_concat_feeds_columnar(
        self, served_index, ground_truth, routing, queries
    ):
        payload = b"".join(a.to_bytes(16, "little") for a in queries)
        block = AddressBlock.from_payload(payload, len(queries))
        half = len(queries) // 2
        merged = AddressBlock.concat([block[:half], block[half:]])
        assert list(merged) == queries
        columnar = served_index.columnar_batch("contains", merged)
        expected = oracle(ground_truth, routing, queries)["contains"]
        assert columnar.to_list() == expected

    def test_empty_batch_falls_back(self, served_index):
        for op in self.OPS:
            empty = served_index.columnar_batch(op, [])
            assert isinstance(empty, ColumnarResults)
            assert len(empty) == 0
            assert empty.to_list() == []
            assert wire.encode_reply(resolve_op(op), 7, empty) == (
                naive_wire.encode_reply(resolve_op(op), 7, [])
            )

    def test_engine_mixed_waiters_coalesce(
        self, served_index, ground_truth, routing, queries
    ):
        async def scenario():
            engine = CoalescingEngine(served_index)
            before = engine.batches_executed
            columnar, listed = await asyncio.gather(
                engine.batch("lifetime", queries, columnar=True),
                engine.batch("lifetime", queries),
            )
            expected = oracle(ground_truth, routing, queries)["lifetime"]
            assert isinstance(listed, list)
            assert listed == expected
            assert isinstance(columnar, ColumnarResults)
            assert columnar.to_list() == expected
            # Both waiters were answered by the same kernel call.
            assert engine.batches_executed == before + 1

        run(scenario())


#: Every key of the ``stats`` document.
STATS_KEYS = {
    "path",
    "rows",
    "slash48s",
    "slash64s",
    "origin_intervals",
    "has_origin_table",
    "generation",
    "source_digest",
    "coalesce",
    "max_batch",
    "queries_served",
    "batches_executed",
    "index_swaps",
    "origin_source",
}


async def _clients(engine):
    """A server over ``engine`` and one client per path: RSB1,
    JSON-lines and in-process."""
    server = HitlistServer(engine)
    await server.start()
    clients = {
        PROTOCOL_BINARY: await RemoteHitlistClient.connect(
            server.host, server.port
        ),
        PROTOCOL_JSON: await RemoteHitlistClient.connect(
            server.host, server.port, protocol=PROTOCOL_JSON
        ),
        "local": LocalHitlistClient(engine),
    }
    return server, clients


async def _close(server, clients):
    for client in clients.values():
        await client.aclose()
    await server.aclose()


class TestOneDispatch:
    """Every op, ``stats`` included, is answered by ``engine.batch``:
    the same document and the same empty answers on every path."""

    def test_stats_is_one_document_on_every_path(self, served_index):
        async def scenario():
            server, clients = await _clients(CoalescingEngine(served_index))
            try:
                return {
                    name: await client.stats()
                    for name, client in clients.items()
                }
            finally:
                await _close(server, clients)

        documents = run(scenario())
        assert documents["local"]["rows"] == served_index.rows
        for name, document in documents.items():
            assert set(document) == STATS_KEYS, name
            shape = {key: document[key] for key in served_index.describe()}
            assert shape == served_index.describe(), name
            assert document == documents["local"], name

    @pytest.mark.parametrize("routed", [True, False])
    def test_an_empty_batch_of_every_op_answers_empty(
        self, served_index, unrouted_index, routed
    ):
        index = served_index if routed else unrouted_index
        assert index.has_origin_table is routed

        async def scenario():
            server, clients = await _clients(CoalescingEngine(index))
            try:
                for name, client in clients.items():
                    for spec in wire.ADDRESS_OPS:
                        batch = getattr(client, f"{spec.surface}_batch")
                        assert await batch([]) == [], (name, spec.name)
            finally:
                await _close(server, clients)

        run(scenario())

    @pytest.mark.parametrize("routed", [True, False])
    def test_engine_answers_encode_as_the_reference(
        self, served_index, unrouted_index, queries, routed
    ):
        # encode_reply takes whatever engine.batch(columnar=True)
        # answers, for every op and batch size, empty included.
        index = served_index if routed else unrouted_index

        async def scenario():
            engine = CoalescingEngine(index)
            for spec in QUERY_OP_TABLE:
                for batch in ([], queries[:1], queries):
                    if batch and spec.name == "origin" and not routed:
                        continue
                    results = await engine.batch(
                        spec.code, batch, columnar=True
                    )
                    values = (
                        results.to_list()
                        if isinstance(results, ColumnarResults)
                        else results
                    )
                    assert wire.encode_reply(
                        spec, 7, results
                    ) == naive_wire.encode_reply(spec, 7, values), (
                        spec.name,
                        len(batch),
                    )

        run(scenario())

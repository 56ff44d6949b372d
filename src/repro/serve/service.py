"""Hitlist-as-a-service transport: JSON-lines and RSB1 binary over TCP.

Every connection starts in the self-describing JSON-lines protocol PR 8
shipped — one JSON object per line in each direction, batch-shaped like
the engine itself::

    -> {"id": 7, "op": "origin", "args": [addr, addr, ...]}
    <- {"id": 7, "results": [asn-or-null, ...]}
    <- {"id": 7, "error": "..."}          (that request only)

A binary-capable client's first line is a ``hello`` request; when the
server grants it, the connection flips to length-prefixed ``RSB1``
frames (:mod:`repro.serve.wire`): packed u128 address columns in,
typed columnar reply payloads out, CRC32-sealed — the same ids, the
same pipelining, the same out-of-order replies, an order of magnitude
less encode/decode work at large batches.  Old clients never send a
hello and notice nothing; old servers answer the hello like any unknown
op, and the client downgrades to JSON-lines on the same connection.

Requests on one connection may be pipelined without awaiting replies;
the server answers each as its own task, which is exactly what lets the
:class:`~repro.serve.engine.CoalescingEngine` merge concurrent requests
— across connections too — into single kernel calls.  Replies may
therefore arrive out of request order; the ``id`` correlates them.
Both protocols bound what they will buffer for one request
(``max_frame_bytes``); an oversized line or frame is answered with a
*typed* error (``"code"`` field / error frame) before the connection
closes.

Two client flavours share one query surface (:class:`_QuerySurface`,
generated from the shared :data:`~repro.serve.wire.QUERY_OP_TABLE`):
:class:`LocalHitlistClient` wraps an in-process engine (no sockets —
the fastest path, used by benchmarks and library consumers), and
:class:`RemoteHitlistClient` speaks either wire protocol.  Both are
handed out by :func:`repro.api.connect`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry, NULL_REGISTRY
from . import wire
from .engine import CoalescingEngine
from .wire import DEFAULT_MAX_FRAME_BYTES, PROTOCOL_BINARY, PROTOCOL_JSON

__all__ = [
    "DEFAULT_MAX_PIPELINE",
    "DEFAULT_MAX_FRAME_BYTES",
    "HitlistServer",
    "LocalHitlistClient",
    "RemoteHitlistClient",
    "READY_PREFIX",
]

#: Line printed by ``repro serve`` once the socket is listening:
#: ``SERVE READY <host> <port>`` — parseable by benchmarks and CI.
READY_PREFIX = "SERVE READY"

#: Default per-connection in-flight request cap.  A client pipelining
#: faster than the engine answers (or not reading its replies) would
#: otherwise grow the per-request task set and the queued reply bytes
#: without bound; past this many unanswered requests the server simply
#: stops reading that connection until replies flush.
DEFAULT_MAX_PIPELINE = 128

_COMPACT = {"separators": (",", ":")}

#: What an op the registry cannot resolve is sent as on the binary
#: protocol: op code 0 is reserved-invalid, so the *server* rejects it
#: with the same request-scoped error contract as the JSON path.
_UNKNOWN_OP = wire.QueryOp(0, "unknown", "json", "unknown")


def _encode(payload: Dict[str, object]) -> bytes:
    return (json.dumps(payload, **_COMPACT) + "\n").encode("utf-8")


class HitlistServer:
    """Asyncio TCP front-end over a :class:`CoalescingEngine`.

    ``binary=False`` refuses hello upgrades (the connection answer is a
    ``json`` grant), pinning every connection to JSON-lines — the
    ``repro serve --json-only`` escape hatch.  ``max_frame_bytes``
    bounds both a JSON request line and an RSB1 frame.
    """

    def __init__(
        self,
        engine: CoalescingEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        binary: bool = True,
        sock=None,
    ) -> None:
        if max_pipeline < 1:
            raise ValueError(
                f"max_pipeline must be >= 1: {max_pipeline}"
            )
        if max_frame_bytes < wire.MIN_FRAME_BYTES:
            raise ValueError(
                f"max_frame_bytes must be >= {wire.MIN_FRAME_BYTES}: "
                f"{max_frame_bytes}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.max_pipeline = max_pipeline
        self.max_frame_bytes = max_frame_bytes
        self.binary = binary
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self._sock = sock
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        #: Every in-flight request task across all connections —
        #: what a bounded drain waits on at shutdown.
        self._inflight: set = set()
        #: Open connection writers, closed to force idle readers out.
        self._writers: set = set()
        self._m_connections = self.metrics.counter(
            "repro_serve_connections_total", "client connections accepted"
        )
        self._m_binary = self.metrics.counter(
            "repro_serve_binary_connections_total",
            "connections upgraded to the RSB1 binary protocol",
        )
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total", "protocol requests received"
        )
        self._m_errors = self.metrics.counter(
            "repro_serve_protocol_errors_total",
            "requests answered with an error",
        )
        self._m_stalls = self.metrics.counter(
            "repro_serve_backpressure_stalls_total",
            "reads paused because a connection hit its in-flight cap",
        )

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._sock is not None:
            # A pre-bound socket (the SO_REUSEPORT fan-out path: every
            # worker binds its own socket to the shared port).
            self._server = await asyncio.start_server(
                self._handle_connection,
                sock=self._sock,
                limit=self.max_frame_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.port,
                limit=self.max_frame_bytes,
            )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def aclose(
        self, drain_timeout: Optional[float] = None
    ) -> None:
        """Stop listening; optionally drain in-flight requests first.

        With a ``drain_timeout``, requests whose lines were already
        read (accepted) get up to that many seconds to compute and
        flush their replies before the remaining tasks are cancelled —
        so a SIGTERM under load loses zero accepted requests as long
        as replies flush within the bound.  Connections are then
        closed; handlers blocked in ``readline`` see EOF and exit.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        if drain_timeout and self._inflight:
            await asyncio.wait(
                set(self._inflight), timeout=drain_timeout
            )
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._writers):
            writer.close()
        with contextlib.suppress(ConnectionError):
            await self._server.wait_closed()
        self._server = None
        self._draining = False

    async def __aenter__(self) -> "HitlistServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection handling -----------------------------------------------------

    @staticmethod
    def _parse_hello(line: bytes) -> Optional[Dict[str, object]]:
        """The parsed request when a first line is a protocol hello."""
        try:
            request = json.loads(line)
        except ValueError:
            return None
        if isinstance(request, dict) and request.get("op") == wire.HELLO_OP:
            return request
        return None

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._m_connections.inc()
        write_lock = asyncio.Lock()
        # Per-connection in-flight cap: while max_pipeline requests are
        # unanswered, the loop below stops reading — so a client
        # pipelining faster than the engine answers (or never reading
        # its replies, which blocks replies on the transport's
        # high-water mark) bounds both the task set and the reply
        # queue instead of growing them without limit.
        slots = asyncio.Semaphore(self.max_pipeline)
        tasks: set = set()
        self._writers.add(writer)
        binary_mode = False
        first_line = True

        def finish(task: asyncio.Task) -> None:
            slots.release()
            tasks.discard(task)
            self._inflight.discard(task)

        # Cancellation (loop shutdown racing a connection teardown) is a
        # normal way for a handler to end — absorb it so it never
        # escapes into asyncio's stream-protocol callback.
        with contextlib.suppress(
            ConnectionError, asyncio.CancelledError
        ):
            try:
                while not self._draining:
                    if slots.locked():
                        self._m_stalls.inc()
                    await slots.acquire()
                    if binary_mode:
                        try:
                            frame = await wire.read_frame(
                                reader,
                                max_frame_bytes=self.max_frame_bytes,
                            )
                        except wire.WireError as error:
                            slots.release()
                            await self._fail_connection(
                                writer, write_lock, error, binary=True
                            )
                            break
                        if frame is None:
                            slots.release()
                            break
                        kind, opcode, request_id, count, payload = frame
                        if kind != wire.KIND_REQUEST:
                            slots.release()
                            await self._fail_connection(
                                writer,
                                write_lock,
                                wire.WireProtocolError(
                                    f"expected a request frame, got "
                                    f"kind {kind}",
                                    request_id=request_id,
                                ),
                                binary=True,
                            )
                            break
                        task = asyncio.ensure_future(
                            self._serve_frame(
                                opcode,
                                request_id,
                                count,
                                payload,
                                writer,
                                write_lock,
                            )
                        )
                    else:
                        try:
                            line = await reader.readline()
                        except (
                            asyncio.LimitOverrunError,
                            ValueError,
                        ):
                            # readline found no separator within the
                            # stream limit: the request line is over
                            # max_frame_bytes.
                            slots.release()
                            await self._fail_connection(
                                writer,
                                write_lock,
                                wire.FrameTooLargeError(
                                    "request line is over the "
                                    f"{self.max_frame_bytes}-byte "
                                    "frame bound"
                                ),
                                binary=False,
                            )
                            break
                        if not line:
                            slots.release()
                            break
                        if first_line:
                            first_line = False
                            hello = self._parse_hello(line)
                            if hello is not None:
                                slots.release()
                                binary_mode = self._serve_hello_reply(
                                    hello
                                )
                                await self._reply(
                                    writer,
                                    write_lock,
                                    {
                                        "id": hello.get("id"),
                                        "results": [
                                            wire.hello_reply(
                                                binary_mode
                                            )
                                        ],
                                    },
                                )
                                if hello.get("id") is None:
                                    # Same rule as any id-less reply:
                                    # un-correlatable, close.
                                    writer.close()
                                    break
                                continue
                        task = asyncio.ensure_future(
                            self._serve_line(line, writer, write_lock)
                        )
                    tasks.add(task)
                    self._inflight.add(task)
                    task.add_done_callback(finish)
            finally:
                if tasks:
                    await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                self._writers.discard(writer)
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()

    def _serve_hello_reply(self, hello: Dict[str, object]) -> bool:
        """Account a hello; returns whether the upgrade is granted."""
        self._m_requests.inc()
        granted = self.binary and wire.hello_accepts(hello)
        if granted:
            self._m_binary.inc()
        return granted

    async def _fail_connection(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        error: wire.WireError,
        *,
        binary: bool,
    ) -> None:
        """Report a connection-fatal wire error, typed, then close.

        The reply carries the error class — an RSB1 error frame with
        its numeric code, or a JSON error with a ``"code"`` field — so
        the peer fails its in-flight requests with the *typed*
        exception instead of a bare EOF.
        """
        self._m_errors.inc()
        if binary:
            frame = wire.encode_error(
                error.request_id or 0, error.number, str(error)
            )
            await self._reply_bytes(writer, write_lock, frame)
        else:
            await self._reply(
                writer,
                write_lock,
                {"id": None, "error": str(error), "code": error.code},
            )

    async def _serve_frame(
        self,
        opcode: int,
        request_id: int,
        count: int,
        payload,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self._m_requests.inc()
        try:
            spec, block = wire.decode_request(opcode, count, payload)
            if block is None:
                results: List = [self.engine.describe()]
            else:
                # columnar keeps the answer in numpy columns end to
                # end; encode_reply turns each into one tobytes call.
                results = await self.engine.batch(
                    spec.code, block, columnar=True
                )
            frame = wire.encode_reply(spec, request_id, results)
        except Exception as error:
            self._m_errors.inc()
            frame = wire.encode_error(
                request_id, wire.REQUEST_ERROR, str(error)
            )
        await self._reply_bytes(writer, write_lock, frame)

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self._m_requests.inc()
        request_id: Optional[int] = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            if op == "stats":
                results: List = [self.engine.describe()]
            else:
                args = request.get("args", [])
                if not isinstance(args, list):
                    raise ValueError("args must be a list")
                results = await self.engine.batch(op, args)
            payload: Dict[str, object] = {
                "id": request_id,
                "results": results,
            }
        except Exception as error:
            self._m_errors.inc()
            payload = {"id": request_id, "error": str(error)}
        await self._reply(writer, write_lock, payload)
        if request_id is None:
            # A reply no client can attribute to a request id (the
            # line was undecodable, or the request carried no id)
            # poisons the pipelined stream: the requester would wait
            # forever for an answer that can never be correlated.
            # Close the connection so the client fails fast instead.
            writer.close()

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: Dict[str, object],
    ) -> None:
        await self._reply_bytes(writer, write_lock, _encode(payload))

    async def _reply_bytes(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        data: bytes,
    ) -> None:
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except ConnectionError:  # pragma: no cover - client vanished
            pass


class _QuerySurface:
    """The query API both clients share — generated from the registry.

    Implementations provide ``_request(op, args)`` returning one result
    per arg; everything else is shaping.  One scalar/batch method pair
    per entry in :data:`~repro.serve.wire.QUERY_OP_TABLE` is attached
    below (``record``/``record_batch``, ..., ``in_slash64_batch``) —
    the historical hand-written names, now thin table-driven wrappers.
    ``*_batch`` methods are the throughput path — the engine coalesces
    whole client batches into its kernel calls.
    """

    async def _request(self, op: str, args: Sequence) -> List:
        raise NotImplementedError

    async def stats(self) -> Dict[str, object]:
        return (await self._request("stats", []))[0]


def _surface_methods(spec: wire.QueryOp):
    """Build the scalar and batch coroutine pair for one registry op."""
    name, tupled = spec.name, spec.tupled

    if tupled:

        async def scalar(self, address: int):
            value = (await self._request(name, [address]))[0]
            return None if value is None else tuple(value)

        async def batch(self, addresses: Sequence[int]) -> List:
            results = await self._request(name, list(addresses))
            return [
                None if value is None else tuple(value)
                for value in results
            ]

    else:

        async def scalar(self, address: int):
            return (await self._request(name, [address]))[0]

        async def batch(self, addresses: Sequence[int]) -> List:
            return await self._request(name, list(addresses))

    scalar.__name__ = spec.surface
    scalar.__qualname__ = f"_QuerySurface.{spec.surface}"
    scalar.__doc__ = f"Answer the {name!r} query for one address."
    batch.__name__ = f"{spec.surface}_batch"
    batch.__qualname__ = f"_QuerySurface.{spec.surface}_batch"
    batch.__doc__ = (
        f"Answer the {name!r} query for a batch of addresses "
        "(one result per address)."
    )
    return scalar, batch


for _spec in wire.ADDRESS_OPS:
    _scalar, _batch = _surface_methods(_spec)
    setattr(_QuerySurface, _scalar.__name__, _scalar)
    setattr(_QuerySurface, _batch.__name__, _batch)
del _spec, _scalar, _batch


class LocalHitlistClient(_QuerySurface):
    """In-process client: the engine without any transport.

    ``watcher`` (optional) is a background task — typically an
    :class:`~repro.serve.fleet.IndexReloader` run loop keeping the
    engine's index live against manifest commits — owned by this
    client and cancelled on :meth:`aclose`.
    """

    def __init__(
        self,
        engine: CoalescingEngine,
        *,
        watcher: Optional[asyncio.Task] = None,
    ) -> None:
        self.engine = engine
        self._watcher = watcher

    async def _request(self, op: str, args: Sequence) -> List:
        if op == "stats":
            return [self.engine.describe()]
        return await self.engine.batch(op, args)

    async def aclose(self) -> None:
        """Cancel the reload watcher, if any; nothing else to release."""
        if self._watcher is not None:
            self._watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._watcher
            self._watcher = None

    async def __aenter__(self) -> "LocalHitlistClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class RemoteHitlistClient(_QuerySurface):
    """Async client for a :class:`HitlistServer`, either protocol.

    Requests are pipelined: any number may be in flight, correlated by
    id, so concurrent client tasks sharing one connection coalesce on
    the server side.  Create with :meth:`connect` (or
    :func:`repro.api.connect` with a ``host:port`` or ``repro://``
    target), which performs the protocol negotiation; ``.protocol`` is
    the negotiated outcome — ``"binary"`` or ``"json"`` — after a
    graceful downgrade when the peer lacks RSB1.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        protocol: str = PROTOCOL_JSON,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.protocol = protocol
        self._max_frame_bytes = max_frame_bytes
        # id 0 is reserved for the connection's hello.
        self._next_id = 1
        self._pending: Dict[
            int, Tuple[asyncio.Future, Optional[wire.QueryOp]]
        ] = {}
        self._write_lock = asyncio.Lock()
        reads = (
            self._read_frames
            if protocol == PROTOCOL_BINARY
            else self._read_replies
        )
        self._reader_task = asyncio.ensure_future(reads())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        protocol: str = PROTOCOL_BINARY,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "RemoteHitlistClient":
        """Connect and negotiate.

        ``protocol="binary"`` *requests* RSB1 via the hello handshake
        and downgrades gracefully — to JSON-lines on the same
        connection — when the peer is an old server or was started
        ``--json-only``.  ``protocol="json"`` skips the handshake
        entirely and speaks exactly what old clients speak.
        """
        if protocol not in (PROTOCOL_BINARY, PROTOCOL_JSON):
            raise ValueError(
                f"protocol must be {PROTOCOL_BINARY!r} or "
                f"{PROTOCOL_JSON!r}: {protocol!r}"
            )
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes
        )
        negotiated = PROTOCOL_JSON
        if protocol == PROTOCOL_BINARY:
            try:
                writer.write(wire.encode_hello_line())
                await writer.drain()
                line = await reader.readline()
                if not line:
                    raise ConnectionError(
                        "server closed the connection during protocol "
                        "negotiation"
                    )
                reply = json.loads(line)
                if not isinstance(reply, dict):
                    raise ValueError("handshake reply is not an object")
            except ValueError as error:
                writer.close()
                raise ConnectionError(
                    f"peer did not answer the protocol handshake: {error}"
                ) from None
            except BaseException:
                writer.close()
                raise
            negotiated = wire.negotiated_protocol(reply)
        return cls(
            reader,
            writer,
            protocol=negotiated,
            max_frame_bytes=max_frame_bytes,
        )

    # -- reply pumps (one per protocol) ------------------------------------------

    async def _read_replies(self) -> None:
        """JSON-lines reply pump."""
        error: Exception = ConnectionError(
            "hitlist server closed the connection"
        )
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                entry = self._pending.pop(reply.get("id"), None)
                if entry is None:
                    if "error" in reply:
                        # An error the server could not attribute to
                        # any request we know (a null or unknown id).
                        # Every in-flight request is now ambiguous —
                        # one of them may be the request that failed —
                        # so fail them all instead of letting an
                        # unmatched caller await forever.  A typed
                        # "code" (an oversized line, say) keeps its
                        # exception class across the wire.
                        typed = wire.typed_error_class(
                            reply.get("code")
                        )
                        if typed is not None:
                            error = typed(reply["error"])
                        else:
                            error = ConnectionError(
                                "un-correlatable server error: "
                                f"{reply['error']}"
                            )
                        break
                    continue
                future = entry[0]
                if future.done():
                    continue
                if "error" in reply:
                    future.set_exception(
                        RuntimeError(f"server error: {reply['error']}")
                    )
                else:
                    future.set_result(reply["results"])
        except Exception as caught:  # pragma: no cover - transport loss
            error = caught
        self._fail_pending(error)

    async def _read_frames(self) -> None:
        """RSB1 reply pump."""
        error: Exception = ConnectionError(
            "hitlist server closed the connection"
        )
        try:
            while True:
                frame = await wire.read_frame(
                    self._reader, max_frame_bytes=self._max_frame_bytes
                )
                if frame is None:
                    break
                kind, opcode, request_id, count, payload = frame
                entry = self._pending.pop(request_id, None)
                if kind == wire.KIND_ERROR:
                    number, message = wire.decode_error(payload)
                    if number == wire.REQUEST_ERROR:
                        if entry is None:
                            error = ConnectionError(
                                "un-correlatable server error: "
                                f"{message}"
                            )
                            break
                        if not entry[0].done():
                            entry[0].set_exception(
                                RuntimeError(
                                    f"server error: {message}"
                                )
                            )
                        continue
                    # Connection-fatal codes: the server reported a
                    # wire-level failure and is closing; fail every
                    # in-flight request with the typed exception —
                    # including the already-popped one this frame
                    # answered, which _fail_pending can no longer see.
                    error = wire.error_for(number, message)
                    if entry is not None and not entry[0].done():
                        entry[0].set_exception(error)
                    break
                if entry is None:
                    continue
                future, spec = entry
                if future.done():
                    continue
                if kind != wire.KIND_REPLY or opcode != spec.code:
                    error = wire.WireProtocolError(
                        f"reply kind {kind} op {opcode} does not match "
                        f"request {request_id} ({spec.name})"
                    )
                    future.set_exception(error)
                    break
                try:
                    results = wire.decode_results(
                        spec, count, payload, request_id=request_id
                    )
                except wire.WireError as caught:
                    future.set_exception(caught)
                    error = caught
                    break
                future.set_result(results)
        except Exception as caught:
            error = caught
        self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        for future, _ in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self._writer.close()

    async def _request(self, op: str, args: Sequence) -> List:
        if self._reader_task.done():
            raise ConnectionError("hitlist client is closed")
        request_id = self._next_id
        self._next_id += 1
        if self.protocol == PROTOCOL_BINARY:
            try:
                spec = wire.resolve_op(op)
            except ValueError:
                # Reserved-invalid op code 0: the server rejects it
                # with the same request-scoped error a JSON request
                # naming an unknown op gets.
                spec = _UNKNOWN_OP
            data = wire.encode_request(
                spec,
                request_id,
                args,
                max_frame_bytes=self._max_frame_bytes,
            )
        else:
            spec = None
            data = _encode(
                {"id": request_id, "op": op, "args": list(args)}
            )
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (future, spec)
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        return await future

    async def aclose(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass

    async def __aenter__(self) -> "RemoteHitlistClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

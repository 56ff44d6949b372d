"""The serving side: a real ``repro serve`` child, an asyncio load
generator over the real RSB1 client, the oracle, and the in-process
replay that splits one request into layers.

The generator is one asyncio loop in one process with at most two
connections and no threads.  It keeps no per-request task list: an
open-loop request is a task held only in the in-flight set until it
completes, so memory and scheduler work track requests in flight, not
requests sent (a generator that retained every task inflated p99 from
~5 ms to 39-115 ms).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import selectors
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.index import CorpusIndex
from repro.core.kernels import NO_MAC
from repro.serve import (
    PROTOCOL_BINARY,
    READY_PREFIX,
    CoalescingEngine,
    RemoteHitlistClient,
    ServingIndex,
    resolve_op,
)
from repro.serve import wire

import stats

#: How long in-flight requests may take to finish after a phase ends
#: before they are cancelled and counted as failed (timed out).
DRAIN_TIMEOUT = 10.0
SERVER_READY_TIMEOUT = 90.0
SERVER_STOP_TIMEOUT = 30.0
#: An open-loop sender sleeps until this long before a request is due.
SPIN_S = 0.0015

_CPUS = sorted(os.sched_getaffinity(0))
#: The load generator runs on the first vCPU and the server on the last,
#: so neither waits for the other's vCPU: in three unpinned runs the
#: generator's lateness p99 was 2-43 ms.
CLIENT_CPU, SERVER_CPU = _CPUS[0], _CPUS[-1]

_SURFACE = {spec.name: f"{spec.surface}_batch" for spec in wire.ADDRESS_OPS}

#: ``pick(seq) -> (op, addresses)``: the request a sequence number sends.
Pick = Callable[[int], Tuple[str, Sequence[int]]]


class ServerProcess:
    """One ``repro serve`` process (a single worker, in-process engine)."""

    def __init__(
        self, process, host, port, metrics_path: Path, log_path: Path
    ):
        self.process = process
        self.host = host
        self.port = port
        self.metrics_path = metrics_path
        self.log_path = log_path

    @classmethod
    def start(
        cls,
        src: Path,
        directory: Path,
        *,
        seed: int,
        scale: str,
        reload_interval: float,
        metrics_path: Path,
        log_path: Path,
    ) -> "ServerProcess":
        """Spawn and wait for ``SERVE READY``; raises if it never comes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "repro.cli", "--log-level", "warning",
            "serve", str(directory),
            # --scale/--seed rebuild the world's routing, so an index
            # rebuilt on reload keeps its origin table.
            "--scale", scale, "--seed", str(seed),
            "--reload-interval", str(reload_interval),
            "--metrics-out", str(metrics_path),
        ]
        with log_path.open("ab") as log:
            process = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True, preexec_fn=_pin_server,
            )
        try:
            line = _read_line(process, SERVER_READY_TIMEOUT)
            if not line.startswith(READY_PREFIX):
                raise RuntimeError(
                    f"repro serve did not start ({line!r}); see {log_path}"
                )
        except BaseException:
            process.kill()
            process.wait(timeout=SERVER_STOP_TIMEOUT)
            raise
        _, _, host, port = line.split()
        return cls(process, host, int(port), metrics_path, log_path)

    def peak_rss_mib(self) -> float:
        return stats.peak_rss_mib(self.process.pid)

    def stop(self) -> Dict[str, object]:
        """SIGTERM (the server drains), wait, return its metrics snapshot."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=SERVER_STOP_TIMEOUT)
            raise RuntimeError("repro serve ignored SIGTERM; killed")
        finally:
            self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"repro serve exited {self.process.returncode}; "
                f"see {self.log_path}"
            )
        return json.loads(self.metrics_path.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=SERVER_STOP_TIMEOUT)
        self.process.stdout.close()


def _pin_server() -> None:
    os.sched_setaffinity(0, {SERVER_CPU})


@contextlib.contextmanager
def pinned_client():
    """Run the block on the load generator's vCPU."""
    os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, set(_CPUS))


def _read_line(process, timeout: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise RuntimeError(f"no SERVE READY within {timeout:.0f}s")
    return process.stdout.readline().strip()


async def connect(
    server: ServerProcess, count: int
) -> List[RemoteHitlistClient]:
    """``count`` RSB1 connections (refusing a JSON downgrade)."""
    clients = []
    try:
        for _ in range(count):
            client = await RemoteHitlistClient.connect(
                server.host, server.port, protocol=PROTOCOL_BINARY
            )
            clients.append(client)
            if client.protocol != PROTOCOL_BINARY:
                raise RuntimeError(f"negotiated {client.protocol!r}, not RSB1")
    except BaseException:
        await close(clients)
        raise
    return clients


async def close(clients: Sequence[RemoteHitlistClient]) -> None:
    for client in clients:
        await client.aclose()


def methods_of(client: RemoteHitlistClient) -> Dict[str, Callable]:
    """op name -> the client's batch coroutine method for it."""
    return {name: getattr(client, method) for name, method in _SURFACE.items()}


class Recorder:
    """What one traffic phase sent, got back, and how long it took."""

    def __init__(self, tracer, keep: Callable[[int], bool] = lambda seq: True):
        self.tracer = tracer
        self.keep = keep
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.replies: List[Tuple[int, object]] = []
        self.sent = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        self.lookups = 0

    def done(
        self, seq: int, start: float, end: float, result, size: int
    ) -> None:
        self.latencies.append(end - start)
        self.lookups += size
        if self.keep(seq):
            self.replies.append((seq, result))
        if self.tracer.enabled:
            self.tracer.add("client.request", start, end, request=seq)

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        kind = type(error).__name__
        self.errors[kind] = self.errors.get(kind, 0) + 1


async def _timed(method, seq: int, args, due: float, rec: Recorder) -> None:
    rec.sent += 1
    try:
        result = await method(args)
    except Exception as error:  # a failed request is counted, never fatal
        rec.fail(error)
        return
    rec.done(seq, due, perf_counter(), result, len(args))


async def open_loop(
    methods: Sequence[Dict[str, Callable]],
    pick: Pick,
    offsets: Sequence[float],
    first_seq: int,
    rec: Recorder,
    stop: Optional[asyncio.Event] = None,
) -> int:
    """Send on a Poisson schedule, each request timed from when it was due.

    Requests alternate across connections by sequence number; sending
    ends early once ``stop`` is set.  Returns the next unused sequence
    number.
    """
    inflight: set = set()
    base = perf_counter()
    seq = first_seq
    for offset in offsets:
        if stop is not None and stop.is_set():
            break
        due = base + offset
        delay = due - perf_counter()
        if delay > SPIN_S:
            await asyncio.sleep(delay - SPIN_S)
        # The loop's timers are only as fine as epoll's millisecond
        # timeout, so the last stretch yields (and reads replies) until
        # the request is due instead of oversleeping it.
        while perf_counter() < due:
            await asyncio.sleep(0)
        rec.lateness.append(perf_counter() - due)
        op, args = pick(seq)
        task = asyncio.ensure_future(
            _timed(methods[seq % len(methods)][op], seq, args, due, rec)
        )
        inflight.add(task)
        task.add_done_callback(inflight.discard)
        seq += 1
    await drain(inflight, rec)
    return seq


async def drain(inflight: set, rec: Recorder) -> None:
    """Wait for in-flight requests; cancel and count the stragglers."""
    if not inflight:
        return
    _, pending = await asyncio.wait(set(inflight), timeout=DRAIN_TIMEOUT)
    for task in pending:
        task.cancel()
        rec.fail(TimeoutError("request outlived the drain timeout"))
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)


async def closed_loop(
    methods: Sequence[Dict[str, Callable]],
    per_connection: int,
    pick: Pick,
    first_seq: int,
    duration: float,
    rec: Recorder,
) -> Tuple[float, int]:
    """``per_connection`` callers per connection, each awaiting its reply.

    Returns ``(wall seconds, next unused sequence number)``.
    """
    counter = itertools.count(first_seq)
    deadline = perf_counter() + duration

    async def caller(table: Dict[str, Callable]) -> None:
        while perf_counter() < deadline:
            seq = next(counter)
            op, args = pick(seq)
            rec.sent += 1
            start = perf_counter()
            try:
                result = await table[op](args)
            except Exception as error:  # counted, never fatal
                rec.fail(error)
                continue
            rec.done(seq, start, perf_counter(), result, len(args))

    start = perf_counter()
    await asyncio.gather(
        *(caller(table) for table in methods for _ in range(per_connection))
    )
    return perf_counter() - start, next(counter)


class Oracle:
    """Expected answers from an in-process :class:`CorpusIndex` and the
    world's routing table: built by a full scan of the generated
    records, it bypasses the server's partial-index fold, its RSI1 file
    and the wire codec (only the IID feature kernel is shared)."""

    def __init__(self, corpus, routing) -> None:
        index = CorpusIndex.build(corpus)
        self._index = index
        self._row = {
            address: row for row, address in enumerate(index.addresses)
        }
        self._routing = routing
        longest = max(item.prefix.length for item in routing.routed_prefixes())
        # Addresses sharing their first `longest` bits share every
        # covering prefix, so the LPM answer can be memoized on them.
        self._shift = 128 - longest
        self._origins: Dict[int, Optional[int]] = {}

    def answer(self, op: str, address: int):
        if op == "origin":
            key = address >> self._shift
            if key not in self._origins:
                self._origins[key] = self._routing.origin_asn(address)
            return self._origins[key]
        row = self._row.get(address)
        if op == "contains":
            return row is not None
        if row is None:
            return None
        index = self._index
        if op == "record":
            return (index.first[row], index.last[row], index.counts[row])
        if op == "features":
            mac = index.macs[row]
            return (
                index.entropies[row],
                index.pattern_codes[row],
                None if mac == NO_MAC else mac,
            )
        raise ValueError(f"the oracle does not answer {op!r}")


def check_replies(oracle: Oracle, pick: Pick, replies) -> List[str]:
    """One description per reply that differs from the oracle."""
    problems: List[str] = []
    for seq, result in replies:
        op, args = pick(seq)
        expected = [oracle.answer(op, address) for address in args]
        if result != expected:
            problems.append(describe(f"request {seq} {op}", result, expected))
    return problems


def describe(what: str, got: Sequence, want: Sequence) -> str:
    if len(got) != len(want):
        return f"{what}: {len(got)} results for {len(want)} addresses"
    item = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return f"{what}: item {item} is {got[item]!r}, oracle says {want[item]!r}"


async def _frame_fields(frame: bytes):
    """Read one frame back the way both peers do (CRC-checked)."""
    reader = asyncio.StreamReader()
    reader.feed_data(frame)
    reader.feed_eof()
    return await wire.read_frame(reader)


async def replay(
    directory: Path,
    requests: Sequence[Tuple[int, str, Sequence[int]]],
    oracle: Oracle,
    tracer,
) -> Tuple[Dict[str, float], List[str]]:
    """Push requests through each layer in-process and time each one.

    Per request: ``wire.encode_request`` then ``read_frame`` +
    ``decode_request`` (the server's read path), ``CoalescingEngine.batch``
    (one request per tick), ``wire.encode_reply`` then ``read_frame`` +
    ``decode_results`` (the client's read path); the kernel,
    ``ServingIndex.columnar_batch``, is timed again on its own so the
    engine's own cost is ``engine - kernel``.  Decoded answers are
    checked against the oracle.
    """
    codec: List[float] = []
    engine_own: List[float] = []
    kernel: List[float] = []
    codec_per_lookup: List[float] = []
    kernel_per_lookup: List[float] = []
    wire_bytes = 0
    lookups = 0
    problems: List[str] = []
    index = ServingIndex.open(directory)
    try:
        engine = CoalescingEngine(index)
        for seq, op, args in requests:
            spec = resolve_op(op)
            t0 = perf_counter()
            frame = wire.encode_request(spec, seq, args)
            _, opcode, request_id, count, payload = await _frame_fields(frame)
            spec, block = wire.decode_request(opcode, count, payload)
            t1 = perf_counter()
            results = await engine.batch(spec.code, block, columnar=True)
            t2 = perf_counter()
            reply = wire.encode_reply(spec, request_id, results)
            _, _, _, count, payload = await _frame_fields(reply)
            decoded = wire.decode_results(spec, count, payload)
            t3 = perf_counter()
            index.columnar_batch(spec.name, block)
            t4 = perf_counter()
            own = max(0.0, (t2 - t1) - (t4 - t3))
            size = len(args)
            codec.append((t1 - t0) + (t3 - t2))
            engine_own.append(own)
            kernel.append(t4 - t3)
            codec_per_lookup.append(codec[-1] / size)
            kernel_per_lookup.append((t4 - t3) / size)
            wire_bytes += len(frame) + len(reply)
            lookups += size
            if tracer.enabled:
                tracer.add("replay.decode_request", t0, t1, request=seq)
                tracer.add("replay.engine", t1, t2, request=seq)
                tracer.add("replay.codec_reply", t2, t3, request=seq)
                tracer.add("replay.kernel", t3, t4, request=seq)
            expected = [oracle.answer(op, address) for address in args]
            if decoded != expected:
                problems.append(
                    describe(f"replayed request {seq} {op}", decoded, expected)
                )
    finally:
        index.close()
    layers = {
        "serve.wire.codec_us": 1e6 * stats.median(codec),
        "serve.wire.codec_ns_per_lookup": 1e9 * stats.median(codec_per_lookup),
        "serve.wire.bytes_per_lookup": wire_bytes / lookups,
        "serve.engine.us_per_request": 1e6 * stats.median(engine_own),
        "serve.format.kernel_us": 1e6 * stats.median(kernel),
        "serve.format.kernel_ns_per_lookup": (
            1e9 * stats.median(kernel_per_lookup)
        ),
    }
    return layers, problems


def server_layers(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Per-layer numbers from a server's ``--metrics-out`` snapshot."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    spans = snapshot.get("spans", {})
    queries = stats.counter_sum(counters, "repro_serve_queries_total")
    batches = stats.counter_sum(counters, "repro_serve_batches_total")
    queue = stats.merged_histogram(histograms, "repro_serve_query_seconds")
    build = spans.get("serve-index-build")
    return {
        "serve.engine.queries_per_kernel_call": (
            queries / batches if batches else 0.0
        ),
        "serve.engine.queue_p50_ms": (
            1e3 * stats.histogram_quantile(queue, 0.5) if queue else 0.0
        ),
        "serve.service.requests": stats.counter_sum(
            counters, "repro_serve_requests_total"
        ),
        "serve.service.backpressure_stalls": stats.counter_sum(
            counters, "repro_serve_backpressure_stalls_total"
        ),
        "serve.format.build_s": (
            build["total"] / build["count"]
            if build and build["count"]
            else 0.0
        ),
        "serve.fleet.reloads": stats.counter_sum(
            counters, "repro_serve_index_reloads_total"
        ),
    }

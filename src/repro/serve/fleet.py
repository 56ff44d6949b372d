"""The production serving topology: pre-fork workers + live reload.

One asyncio process answers queries as fast as one CPU decodes JSON.
Past that, the serving layer scales *out*, not up: a **supervisor**
process builds (or validates) ``SERVING.rsi`` once, then forks N worker
processes that each open the same file mmap-read-only — one page-cache
copy for the whole fleet — and each bind their own ``SO_REUSEPORT``
socket to the shared port, so the kernel spreads incoming connections
across workers with no userspace proxy.  The supervisor restarts
crashed workers with capped exponential backoff
(``repro_serve_worker_restarts_total``), propagates SIGTERM (each
worker drains in-flight requests before exiting), and aggregates the
per-worker ``--metrics-out`` snapshots into one document on shutdown.

The index, meanwhile, stays **live**: every worker polls the
``(mtime_ns, size, digest)`` fingerprint of ``MANIFEST.json`` (the
parse is cached, so an unchanged manifest costs one ``stat``), and when
a commit or compaction moves the segment list, one builder is elected
via an advisory ``flock`` — the winner rebuilds ``SERVING.rsi`` from
the seal-time partials, the losers block then reuse the fresh file —
and each worker atomically swaps the new :class:`ServingIndex` into its
:class:`CoalescingEngine` between event-loop ticks
(``repro_serve_index_reloads_total``).  Batches execute synchronously
within a tick, so no kernel call ever straddles a swap; the replaced
mmap stays valid until closed, so answers already in flight are safe.

No serving process ever builds an index itself.  Every build — at
start-up and on reload, in the single process, the supervisor and each
worker — runs in a child forked by :func:`fork_index_build`, which
inherits the routing table, and whose numpy temporaries (a few times
the file size) die with it, so they never set a server's peak memory.
The server waits on the child's result pipe, merges the metrics it
sends back, and maps the published file itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import multiprocessing
import multiprocessing.connection
import os
import select
import signal
import socket
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.jobs import backoff_delay
from ..net.routing import RoutingTable
from ..obs import MetricsRegistry, NULL_REGISTRY, write_metrics
from ..world import build_routing, preset_config
from .engine import CoalescingEngine
from .format import (
    ServingIndex,
    ensure_serving_index,
    manifest_fingerprint,
)
from .service import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_PIPELINE,
    HitlistServer,
    READY_PREFIX,
)

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_RELOAD_INTERVAL",
    "FleetConfig",
    "IndexReloader",
    "fork_index_build",
    "reuseport_socket",
    "run_single",
    "run_supervisor",
]

logger = logging.getLogger("repro.serve.fleet")

#: Default seconds between manifest-fingerprint polls (0 disables).
DEFAULT_RELOAD_INTERVAL = 1.0

#: Default seconds in-flight requests get to flush replies on SIGTERM.
DEFAULT_DRAIN_TIMEOUT = 5.0

_RESTART_BACKOFF_BASE = 0.2
_RESTART_BACKOFF_CAP = 5.0
#: A worker that lived at least this long resets its backoff streak.
_RESTART_RESET_SECONDS = 10.0
#: How long the supervisor waits for the initial fleet to come up.
_READY_TIMEOUT = 120.0


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Everything a serving process (or fleet) needs, picklable.

    ``scale``/``seed`` name the synthetic world whose routing table
    backs origin queries.  Every serving process builds that table from
    the world's AS layer alone (:func:`repro.world.build_routing`, a few
    milliseconds), never the whole world.
    """

    directory: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    scale: Optional[str] = None
    seed: int = 7
    rebuild: bool = False
    reload_interval: float = DEFAULT_RELOAD_INTERVAL
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    metrics_out: Optional[str] = None
    max_pipeline: int = DEFAULT_MAX_PIPELINE
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Refuse RSB1 upgrades: every connection stays JSON-lines.
    json_only: bool = False


def _origin_routing(config: FleetConfig) -> Optional[RoutingTable]:
    """The routing table behind origin queries (None without ``scale``)."""
    if config.scale is None:
        return None
    return build_routing(preset_config(config.scale, seed=config.seed))


def reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound (not listening) TCP socket with ``SO_REUSEPORT`` set.

    Every fleet member binds its own socket to the same ``(host,
    port)`` — that is what makes the kernel load-balance accepts across
    workers.  The supervisor binds one too (resolving port 0 to a real
    port, and keeping the port reserved across worker restarts) but
    never listens on it, so it receives no connections.
    """
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - non-Linux
        raise RuntimeError(
            "SO_REUSEPORT is unavailable on this platform; "
            "multi-worker serving requires it"
        )
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


# -- serving-index builds in a forked child -----------------------------------


def _build_in_child(directory, routing, rebuild: bool, sender) -> None:
    """Forked builder: ensure the index, report back, exit.

    The report is ``(metrics snapshot, FileNotFoundError or None)``.
    Any other failure ends the child with its traceback on stderr and
    no report, as a kill does.
    """
    # The fork copied the server's signal set-up: asyncio's wakeup fd (a
    # socket the server's loop reads) and its no-op C handlers.  Left
    # alone, a SIGTERM sent to the builder only would be written to that
    # socket and handled by the server as its own.  With the defaults
    # back, it stops the builder and nothing else.
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)
    registry = MetricsRegistry()
    missing = None
    try:
        ensure_serving_index(
            directory,
            routing=routing,
            metrics=registry,
            rebuild=rebuild,
            lock=True,
        ).close()
    except FileNotFoundError as error:  # no store: the server reports it
        missing = error
    with contextlib.suppress(OSError):  # the server is gone: nothing to tell
        sender.send((registry.snapshot(), missing))


class IndexBuild:
    """One serving-index build running in a forked child.

    :meth:`result` blocks for the child's report (start-up);
    :meth:`wait` awaits it on the running loop (reload), with no
    thread.  Either way the server then merges the child's metrics into
    its own registry and maps the published file with
    :meth:`ServingIndex.open`, whose whole-file CRC check decides what
    is served.
    """

    __slots__ = ("directory", "process", "_receiver")

    def __init__(self, directory: Path, process, receiver) -> None:
        self.directory = directory
        self.process = process
        self._receiver = receiver

    def result(self, metrics: MetricsRegistry) -> ServingIndex:
        """Collect the child's report and open the index it published.

        A missing store raises the child's :class:`FileNotFoundError`;
        a child that failed or was killed before reporting raises
        :class:`ChildProcessError` naming its exit code.
        """
        try:
            report = self._receiver.recv()
        except EOFError:
            report = None
        finally:
            self._receiver.close()
            self.process.join()
        if report is None:
            raise ChildProcessError(
                f"serving index builder pid={self.process.pid} exited "
                f"with code {self.process.exitcode} before reporting"
            )
        snapshot, missing = report
        metrics.merge_snapshot(snapshot)
        if missing is not None:
            raise missing
        index = ServingIndex.open(self.directory)
        # Merging keeps a gauge that already exists, so the rows gauge
        # is set here, from the index actually served.
        metrics.gauge(
            "repro_serve_index_rows", "rows in the last built serving index"
        ).set(index.rows)
        return index

    async def wait(self, metrics: MetricsRegistry) -> ServingIndex:
        """:meth:`result`, once the child has reported and exited.

        The loop keeps serving meanwhile: it watches the result pipe
        (the report, or EOF from a child that died), then the process
        sentinel, so neither the read nor the reap blocks it.
        Cancelled, it terminates the child (a build killed mid-write
        leaves only a temp file, which the next build removes).
        """
        try:
            await _readable(self._receiver.fileno())
            await _readable(self.process.sentinel)
        except BaseException:
            self.process.terminate()
            self.process.join()
            self._receiver.close()
            raise
        return self.result(metrics)


async def _readable(fd: int) -> None:
    """Return once ``fd`` is readable (data or EOF) on the running loop."""
    loop = asyncio.get_running_loop()
    readable = loop.create_future()
    loop.add_reader(
        fd, lambda: readable.done() or readable.set_result(None)
    )
    try:
        await readable
    finally:
        loop.remove_reader(fd)


def fork_index_build(
    directory, *, routing=None, rebuild: bool = False
) -> IndexBuild:
    """Fork a child that runs ``ensure_serving_index(lock=True)``.

    The ``fork`` context is explicit: the child inherits ``routing``
    (and the rest of the server's state) instead of rebuilding it, and
    the build's temporaries are returned to the OS when it exits.  The
    serving processes run no threads, which is what makes forking them
    safe.  The ``flock`` election is unchanged — concurrent builders,
    one per worker, still elect one writer.  Only the child's report
    crosses the pipe.
    """
    directory = Path(directory)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_build_in_child,
        args=(directory, routing, rebuild, sender),
        name="repro-serve-builder",
        daemon=True,
    )
    try:
        process.start()
    except BaseException:
        receiver.close()
        raise
    finally:
        sender.close()
    return IndexBuild(directory, process, receiver)


# -- live index reload ---------------------------------------------------------


class IndexReloader:
    """Watch the manifest; hot-swap the engine's index when it moves.

    Each poll compares the manifest's ``(mtime_ns, size, digest)``
    fingerprint against the last one seen; the first poll has none, so
    it checks the digest against the index the engine serves.  A digest
    change means the segment list the current index was derived from
    is gone: a forked builder (:func:`fork_index_build`) rebuilds or
    reuses ``SERVING.rsi`` under the advisory build lock while queries
    keep flowing off the old snapshot; the reloader awaits its report
    on the loop, maps the file, swaps it into the engine between ticks,
    and closes the old index — whose mmap stays valid for any
    still-referenced view.  A failed or killed build swaps nothing and
    is retried at the next poll.
    """

    def __init__(
        self,
        engine: CoalescingEngine,
        directory,
        *,
        routing=None,
        metrics: Optional[MetricsRegistry] = None,
        interval: float = DEFAULT_RELOAD_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0: {interval}")
        directory = Path(directory)
        if directory.name in ("MANIFEST.json", "SERVING.rsi"):
            directory = directory.parent
        self.engine = engine
        self.directory = directory
        self.routing = routing
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.interval = interval
        self._m_reloads = self.metrics.counter(
            "repro_serve_index_reloads_total",
            "serving indexes hot-swapped after a manifest change",
        )
        # No fingerprint yet: the first poll compares the manifest with
        # the index the engine serves, so a commit that landed after
        # that index was opened (but before this reloader existed) is
        # picked up instead of being taken as already seen.
        self._fingerprint: Optional[Tuple[int, int, int]] = None

    async def poll_once(self) -> bool:
        """One poll; True when an index swap happened."""
        fingerprint = manifest_fingerprint(self.directory)
        if fingerprint is None or fingerprint == self._fingerprint:
            return False
        if fingerprint[2] == self.engine.index.source_digest:
            # The file was rewritten (watermark bump, metrics merge)
            # but the segment list — hence every answer — is the same.
            self._fingerprint = fingerprint
            return False
        build = fork_index_build(self.directory, routing=self.routing)
        new_index = await build.wait(self.metrics)
        old = self.engine.swap_index(new_index)
        # Deferred one tick: any callback already queued ahead of this
        # one still sees a closeable-but-valid mapping (close() keeps
        # the mmap alive while views reference it).
        asyncio.get_running_loop().call_soon(old.close)
        self._fingerprint = fingerprint
        self._m_reloads.inc()
        logger.info(
            "serving index reloaded: generation=%d rows=%d",
            new_index.generation,
            new_index.rows,
        )
        return True

    async def run(self) -> None:
        """Poll forever; a failed reload logs and retries next tick."""
        while True:
            await asyncio.sleep(self.interval)
            try:
                await self.poll_once()
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception as error:
                logger.warning(
                    "serving index reload failed (will retry): %s",
                    error,
                )


# -- one serving process (single mode, and each worker) ------------------------


async def _serve(
    index: ServingIndex,
    config: FleetConfig,
    registry: MetricsRegistry,
    *,
    sock=None,
    routing=None,
    on_ready=None,
    holder: Optional[dict] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain and close.

    ``holder`` (a mutable dict) receives the engine so the caller can
    close whichever index is current after live reloads swapped it.
    """
    engine = CoalescingEngine(index, metrics=registry)
    if holder is not None:
        holder["engine"] = engine
    server = HitlistServer(
        engine,
        host=config.host,
        port=config.port,
        metrics=registry,
        max_pipeline=config.max_pipeline,
        max_frame_bytes=config.max_frame_bytes,
        binary=not config.json_only,
        sock=sock,
    )
    host, port = await server.start()
    reloader_task = None
    if config.reload_interval > 0:
        reloader = IndexReloader(
            engine,
            config.directory,
            routing=routing,
            metrics=registry,
            interval=config.reload_interval,
        )
        reloader_task = asyncio.ensure_future(reloader.run())
    loop = asyncio.get_running_loop()
    stop = loop.create_future()

    def request_stop() -> None:
        if not stop.done():
            stop.set_result(None)

    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, request_stop)
    if on_ready is not None:
        on_ready(host, port)
    try:
        await stop
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(signum)
        if reloader_task is not None:
            reloader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reloader_task
        await server.aclose(drain_timeout=config.drain_timeout)


def run_single(config: FleetConfig) -> int:
    """``repro serve`` without fan-out: one process, reload-capable."""
    registry = MetricsRegistry()
    routing = _origin_routing(config)
    try:
        index = fork_index_build(
            config.directory, routing=routing, rebuild=config.rebuild
        ).result(registry)
    except FileNotFoundError as error:
        logger.error("no segment store to serve: %s", error)
        return 2
    info = index.describe()
    logger.info(
        "serving index ready: %s rows=%s generation=%s origin_table=%s",
        index.path,
        info["rows"],
        info["generation"],
        index.has_origin_table,
    )
    holder: dict = {}

    def on_ready(host: str, port: int) -> None:
        print(f"{READY_PREFIX} {host} {port}", flush=True)

    try:
        asyncio.run(
            _serve(
                index,
                config,
                registry,
                routing=routing,
                on_ready=on_ready,
                holder=holder,
            )
        )
    finally:
        engine = holder.get("engine")
        (engine.index if engine is not None else index).close()
        if config.metrics_out:
            write_metrics(registry, config.metrics_out)
    return 0


# -- worker processes ----------------------------------------------------------


def _worker_metrics_path(metrics_out: str, worker_id: int) -> Path:
    return Path(f"{metrics_out}.w{worker_id}")


def _worker_main(
    config: FleetConfig, worker_id: int, ready_event
) -> None:
    """Child-process entry: serve on an own SO_REUSEPORT socket."""
    registry = MetricsRegistry()
    try:
        routing = _origin_routing(config)
        index = fork_index_build(config.directory, routing=routing).result(
            registry
        )
        sock = reuseport_socket(config.host, config.port)
        holder: dict = {}

        def on_ready(host: str, port: int) -> None:
            logger.info(
                "serve worker %d listening pid=%d port=%d",
                worker_id,
                os.getpid(),
                port,
            )
            ready_event.set()

        try:
            asyncio.run(
                _serve(
                    index,
                    config,
                    registry,
                    sock=sock,
                    routing=routing,
                    on_ready=on_ready,
                    holder=holder,
                )
            )
        finally:
            engine = holder.get("engine")
            (engine.index if engine is not None else index).close()
    finally:
        if config.metrics_out:
            with contextlib.suppress(OSError):
                _worker_metrics_path(
                    config.metrics_out, worker_id
                ).write_text(registry.to_json(worker=worker_id))


# -- the supervisor ------------------------------------------------------------


class _WorkerSlot:
    __slots__ = ("process", "ready", "failures", "started_at")

    def __init__(self, process, ready) -> None:
        self.process = process
        self.ready = ready
        self.failures = 0
        self.started_at = time.monotonic()


def _drain_pipe(fd: int) -> None:
    with contextlib.suppress(OSError, BlockingIOError):
        os.read(fd, 4096)


def run_supervisor(config: FleetConfig) -> int:
    """Pre-fork ``config.workers`` serving processes and babysit them.

    Builds/validates the serving index once up front, in a forked
    builder (so workers start by mmapping a known-good file), resolves
    the port by binding a
    placeholder ``SO_REUSEPORT`` socket (held, never listening — the
    port stays reserved across worker restarts), forks the fleet,
    prints ``SERVE READY host port`` once every worker listens,
    restarts crashed workers with capped backoff, and on SIGTERM/SIGINT
    forwards the signal so each worker drains before exiting, then
    merges the per-worker metrics snapshots into ``metrics_out``.
    """
    registry = MetricsRegistry()
    routing = _origin_routing(config)
    try:
        index = fork_index_build(
            config.directory, routing=routing, rebuild=config.rebuild
        ).result(registry)
    except FileNotFoundError as error:
        logger.error("no segment store to serve: %s", error)
        return 2
    info = index.describe()
    index.close()
    logger.info(
        "supervisor: serving index ready (%s rows, generation %s); "
        "forking %d workers",
        info["rows"],
        info["generation"],
        config.workers,
    )
    m_restarts = registry.counter(
        "repro_serve_worker_restarts_total",
        "crashed serve workers restarted by the supervisor",
    )

    placeholder = reuseport_socket(config.host, config.port)
    host, port = placeholder.getsockname()[:2]
    worker_config = dataclasses.replace(
        config, host=host, port=port, rebuild=False
    )
    context = multiprocessing.get_context("fork")

    stop: Dict[str, Optional[int]] = {"signal": None}
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)

    def on_signal(signum, frame) -> None:
        stop["signal"] = signum
        with contextlib.suppress(OSError, BlockingIOError):
            os.write(wake_w, b"x")

    previous_handlers = {
        signum: signal.signal(signum, on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }

    def spawn(worker_id: int) -> _WorkerSlot:
        ready = context.Event()
        process = context.Process(
            target=_worker_main,
            args=(worker_config, worker_id, ready),
            name=f"repro-serve-w{worker_id}",
        )
        process.start()
        return _WorkerSlot(process, ready)

    slots = [spawn(worker_id) for worker_id in range(config.workers)]
    ready_printed = False
    ready_deadline = time.monotonic() + _READY_TIMEOUT
    exit_code = 0
    try:
        while stop["signal"] is None:
            if not ready_printed:
                if all(slot.ready.is_set() for slot in slots):
                    print(
                        f"{READY_PREFIX} {host} {port}", flush=True
                    )
                    ready_printed = True
                elif time.monotonic() > ready_deadline:
                    logger.error(
                        "serve workers not ready within %.0fs; "
                        "shutting down",
                        _READY_TIMEOUT,
                    )
                    exit_code = 1
                    break
            sentinels = [
                slot.process.sentinel for slot in slots
            ] + [wake_r]
            woken = multiprocessing.connection.wait(
                sentinels, timeout=0.5
            )
            if wake_r in woken:
                _drain_pipe(wake_r)
            if stop["signal"] is not None:
                break
            for worker_id, slot in enumerate(slots):
                if slot.process.is_alive():
                    continue
                slot.process.join(timeout=1)
                lived = time.monotonic() - slot.started_at
                failures = (
                    1
                    if lived >= _RESTART_RESET_SECONDS
                    else slot.failures + 1
                )
                delay = backoff_delay(
                    failures, _RESTART_BACKOFF_BASE, _RESTART_BACKOFF_CAP
                )
                logger.warning(
                    "serve worker %d exited code=%s after %.1fs; "
                    "restarting in %.2fs",
                    worker_id,
                    slot.process.exitcode,
                    lived,
                    delay,
                )
                m_restarts.inc()
                # Interruptible backoff: a SIGTERM mid-wait still
                # shuts the fleet down promptly.
                readable, _, _ = select.select([wake_r], [], [], delay)
                if readable:
                    _drain_pipe(wake_r)
                if stop["signal"] is not None:
                    break
                replacement = spawn(worker_id)
                replacement.failures = failures
                slots[worker_id] = replacement
    finally:
        for slot in slots:
            if slot.process.is_alive():
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(slot.process.pid, signal.SIGTERM)
        deadline = time.monotonic() + config.drain_timeout + 10.0
        for slot in slots:
            slot.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
        for slot in slots:
            if slot.process.is_alive():  # pragma: no cover - hung worker
                logger.warning(
                    "killing unresponsive serve worker pid=%d",
                    slot.process.pid,
                )
                slot.process.kill()
                slot.process.join(timeout=5)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        os.close(wake_r)
        os.close(wake_w)
        placeholder.close()
        if config.metrics_out:
            for worker_id in range(config.workers):
                partial_path = _worker_metrics_path(
                    config.metrics_out, worker_id
                )
                if not partial_path.exists():
                    continue
                try:
                    registry.merge_snapshot(
                        json.loads(partial_path.read_text())
                    )
                except (OSError, ValueError) as error:
                    logger.warning(
                        "skipping unreadable worker metrics %s: %s",
                        partial_path,
                        error,
                    )
                with contextlib.suppress(OSError):
                    partial_path.unlink()
            write_metrics(registry, config.metrics_out)
    return exit_code

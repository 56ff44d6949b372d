"""The production serving topology: pre-fork workers + live reload.

One asyncio process answers queries as fast as one CPU decodes JSON.
Past that, the serving layer scales *out*, not up: a **supervisor**
process builds (or validates) ``SERVING.rsi`` once, then forks N worker
processes that each open the same file mmap-read-only — one page-cache
copy for the whole fleet — and each bind their own ``SO_REUSEPORT``
socket to the shared port, so the kernel spreads incoming connections
across workers with no userspace proxy.  Every worker reports on its
pipe to the supervisor: ``ready`` once it listens, and its metrics
snapshot when it exits.  The supervisor prints ``SERVE READY`` once
every worker is ready, restarts exited workers with capped exponential
backoff (``repro_serve_worker_restarts_total``), propagates SIGTERM
(each worker drains in-flight requests before exiting), and on shutdown
merges the snapshot of every worker it ran, restarted ones included,
into one ``--metrics-out`` document.

The index, meanwhile, stays **live**: every worker stats
``MANIFEST.json`` once per poll and reads it only when its ``(mtime_ns,
size)`` moved (so an unchanged manifest costs one ``stat``), and when
a commit or compaction moves the segment list, one builder is elected
via an advisory ``flock`` — the winner rebuilds ``SERVING.rsi`` from
the seal-time partials, the losers block then reuse the fresh file —
and each worker atomically swaps the new :class:`ServingIndex` into its
:class:`CoalescingEngine` between event-loop ticks
(``repro_serve_index_reloads_total``).  Batches execute synchronously
within a tick, so no kernel call ever straddles a swap; the replaced
mmap stays valid until closed, so answers already in flight are safe.
A reload that fails (a damaged segment, a torn manifest) leaves the
old index answering and is retried with capped exponential backoff
until the manifest moves or the store is repaired.

No serving process ever builds an index itself.  Every build — at
start-up and on reload, in the single process, the supervisor and each
worker — runs in a child forked by :class:`IndexBuild`, which
inherits the routing table, and whose numpy temporaries (a few times
the file size) die with it, so they never set a server's peak memory.
The server waits on the child's result pipe, merges the metrics it
sends back, and maps the published file itself.  Builders and workers
alike are forked by :class:`repro.core.jobs.Forked`.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import logging
import multiprocessing.connection
import os
import signal
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.jobs import Forked, backoff_delay
from ..core.segments import MANIFEST_NAME, SegmentStore
from ..core.storage import CorpusFormatError
from ..net.routing import RoutingTable
from ..obs import MetricsRegistry, NULL_REGISTRY, write_metrics
from ..world import build_routing, preset_config
from .engine import CoalescingEngine
from .format import ServingIndex, _ensure, manifest_digest
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
    "IndexBuild",
    "IndexReloader",
    "reuseport_socket",
    "run_single",
    "run_supervisor",
]

logger = logging.getLogger("repro.serve.fleet")

#: Default seconds between manifest polls (0 disables).
DEFAULT_RELOAD_INTERVAL = 1.0

#: Default seconds in-flight requests get to flush replies on SIGTERM.
DEFAULT_DRAIN_TIMEOUT = 5.0

_RESTART_BACKOFF_BASE = 0.2
_RESTART_BACKOFF_CAP = 5.0
#: Ceiling on the wait before retrying a reload that keeps failing on
#: an unchanged manifest (the first retry waits one poll interval).
_RELOAD_BACKOFF_CAP = 5.0
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


def _build_in_child(sender, directory, routing, rebuild: bool) -> None:
    """Forked builder: ensure the index, report back, exit.

    The child opens an index only to check it for reuse; one it has
    just built it leaves to the server's own open.  The report is
    ``(metrics snapshot, error or None)``: the
    :class:`FileNotFoundError` of a missing store, or the
    :class:`CorpusFormatError` (path and offset included) of a damaged
    manifest, segment or partial.  Any other failure ends the child with
    its traceback on stderr and no report, as a kill does.
    """
    registry = MetricsRegistry()
    failure = None
    try:
        reused = _ensure(
            directory, routing, registry, rebuild, lock=True, reopen=False
        )
        if reused is not None:
            reused.close()
    except (FileNotFoundError, CorpusFormatError) as error:
        failure = error  # the input's fault: the server reports it
    with contextlib.suppress(OSError):  # the server is gone: nothing to tell
        sender.send((registry.snapshot(), failure))


class IndexBuild(Forked):
    """Fork a child that runs ``ensure_serving_index(lock=True)``, short
    of opening an index it has just built.

    The child inherits ``routing`` (and the rest of the server's state)
    instead of rebuilding it, and the build's temporaries are returned
    to the OS when it exits.  The serving processes run no threads,
    which is what makes forking them safe.  The ``flock`` election is
    unchanged — concurrent builders, one per worker, still elect one
    writer.  Only the child's report crosses the pipe.

    :meth:`result` blocks for the child's report (start-up);
    :meth:`wait` awaits it on the running loop (reload), with no
    thread.  Either way the server then merges the child's metrics into
    its own registry and maps the published file with
    :meth:`ServingIndex.open`, whose whole-file CRC check decides what
    is served.
    """

    def __init__(
        self, directory, routing=None, rebuild: bool = False
    ) -> None:
        self.directory = Path(directory)
        super().__init__(
            _build_in_child,
            self.directory,
            routing,
            rebuild,
            name="repro-serve-builder",
        )

    def result(self, metrics: MetricsRegistry) -> ServingIndex:
        """Collect the child's report and open the index it published.

        A missing store raises the child's :class:`FileNotFoundError`,
        a damaged one its :class:`CorpusFormatError`; a child that
        failed or was killed before reporting raises
        :class:`ChildProcessError` naming its exit code.
        """
        self.receiver.poll(None)  # the report, or EOF
        exitcode = self.reap()
        if not self.messages:
            raise ChildProcessError(
                f"serving index builder pid={self.process.pid} exited "
                f"with code {exitcode} before reporting"
            )
        snapshot, failure = self.messages[0]
        metrics.merge_snapshot(snapshot)
        if failure is not None:
            raise failure
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
        Cancelled, it kills the child (a build killed mid-write leaves
        only a temp file, which the next build removes).
        """
        try:
            await _readable(self.receiver.fileno())
            await _readable(self.sentinel)
        except BaseException:
            self.reap(kill=True)
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


# -- live index reload ---------------------------------------------------------


class IndexReloader:
    """Watch the manifest; hot-swap the engine's index when it moves.

    Each poll stats ``MANIFEST.json`` and stops there while its
    ``(mtime_ns, size)`` equals that of the last manifest the reloader
    acted on, so an unchanged store costs one ``stat``.  Otherwise it
    reads the manifest, and when its :func:`manifest_digest` is not the
    one the served index was derived from, a forked builder
    (:class:`IndexBuild`) rebuilds or reuses ``SERVING.rsi`` under
    the advisory build lock while queries keep flowing off the old
    snapshot; the reloader awaits its report on the loop, maps the
    file, swaps it into the engine between ticks, and closes the old
    index — whose mmap stays valid for any still-referenced view.  The
    stat is taken before the read and recorded only once the poll has
    acted, so a commit landing in between is seen by the next poll, and
    a failed or killed build swaps nothing and is retried.  :meth:`run`
    backs off a reload that keeps failing on an unchanged manifest.
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
        # No stat yet: the first poll compares the manifest with the
        # index the engine serves, so a commit that landed after that
        # index was opened (but before this reloader existed) is picked
        # up instead of being taken as already seen.
        self._seen: Optional[Tuple[int, int]] = None

    def _manifest_stat(self) -> Optional[Tuple[int, int]]:
        """The manifest's ``(mtime_ns, size)``, or None if unreadable."""
        try:
            stat = os.stat(self.directory / MANIFEST_NAME)
        except OSError:
            return None
        return stat.st_mtime_ns, stat.st_size

    async def poll_once(self) -> bool:
        """One poll; True when an index swap happened."""
        seen = self._manifest_stat()
        if seen is None or seen == self._seen:
            return False
        manifest = SegmentStore(self.directory).load_manifest()
        if manifest is None:
            return False
        swapped = manifest_digest(manifest) != self.engine.index.source_digest
        # Otherwise the file was rewritten (watermark bump, metrics
        # merge) but the segment list — hence every answer — is the same.
        if swapped:
            build = IndexBuild(self.directory, routing=self.routing)
            new_index = await build.wait(self.metrics)
            old = self.engine.swap_index(new_index)
            # Deferred one tick: any callback already queued ahead of
            # this one still sees a closeable-but-valid mapping (close()
            # keeps the mmap alive while views reference it).
            asyncio.get_running_loop().call_soon(old.close)
            self._m_reloads.inc()
            logger.info(
                "serving index reloaded: generation=%d rows=%d",
                new_index.generation,
                new_index.rows,
            )
        self._seen = seen
        return swapped

    async def run(self) -> None:
        """Poll every ``interval`` seconds forever; a failed reload logs
        and is retried with capped backoff.

        After ``k`` consecutive failures on an unchanged manifest, the
        next attempt waits ``backoff_delay(k, interval,
        _RELOAD_BACKOFF_CAP)``, so a damaged store costs one forked
        build per backoff step rather than one per poll.  A manifest
        whose ``(mtime_ns, size)`` moved since the last failure is
        polled at the next tick, and a success ends the streak.
        """
        loop = asyncio.get_running_loop()
        failures = 0
        failed_on: Optional[Tuple[int, int]] = None
        retry_at = 0.0
        while True:
            await asyncio.sleep(self.interval)
            seen = self._manifest_stat()
            if seen != failed_on:
                failures = 0
            elif failures and loop.time() < retry_at:
                continue
            try:
                await self.poll_once()
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception as error:
                failures += 1
                failed_on = seen
                delay = backoff_delay(
                    failures, self.interval, _RELOAD_BACKOFF_CAP
                )
                retry_at = loop.time() + delay
                logger.warning(
                    "serving index reload failed (retry in %.2fs): %s",
                    delay,
                    error,
                )
            else:
                failures = 0


# -- one serving process (single mode, and each worker) ------------------------


async def _serve(
    engine: CoalescingEngine,
    config: FleetConfig,
    registry: MetricsRegistry,
    *,
    routing,
    on_ready,
    sock=None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain."""
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


def _serve_process(
    config: FleetConfig,
    registry: MetricsRegistry,
    on_ready,
    *,
    reuseport: bool = False,
) -> int:
    """One serving process, alone or as a fleet worker; its exit code.

    Builds the origin routing, forks an :class:`IndexBuild`, maps the
    file it publishes once, then serves it (on an own ``SO_REUSEPORT``
    socket with ``reuseport``) until SIGTERM/SIGINT, and closes whichever
    index live reloads left current.  A missing store logs and returns 2
    without serving.
    """
    routing = _origin_routing(config)
    try:
        index = IndexBuild(
            config.directory, routing, config.rebuild
        ).result(registry)
    except FileNotFoundError as error:
        logger.error("no segment store to serve: %s", error)
        return 2
    logger.info(
        "serving index ready: %s rows=%s generation=%s origin_table=%s",
        index.path,
        index.rows,
        index.generation,
        index.has_origin_table,
    )
    engine = CoalescingEngine(index, metrics=registry)
    try:
        sock = None
        if reuseport:
            sock = reuseport_socket(config.host, config.port)
        asyncio.run(
            _serve(
                engine,
                config,
                registry,
                routing=routing,
                on_ready=on_ready,
                sock=sock,
            )
        )
    finally:
        # Whichever index live reloads left current.
        engine.index.close()
    return 0


def run_single(config: FleetConfig) -> int:
    """``repro serve`` without fan-out: one process, reload-capable."""
    registry = MetricsRegistry()

    def on_ready(host: str, port: int) -> None:
        print(f"{READY_PREFIX} {host} {port}", flush=True)

    try:
        return _serve_process(config, registry, on_ready)
    finally:
        if config.metrics_out:
            write_metrics(registry, config.metrics_out)


# -- worker processes ----------------------------------------------------------

#: What a worker sends on its pipe once it listens.
_READY = "ready"


def _worker_main(sender, config: FleetConfig, worker_id: int) -> None:
    """Forked worker: serve on an own SO_REUSEPORT socket.

    Sends :data:`_READY` on its pipe once it listens, and its registry
    snapshot when it exits (short of a kill).
    """
    registry = MetricsRegistry()

    def on_ready(host: str, port: int) -> None:
        logger.info(
            "serve worker %d listening pid=%d port=%d",
            worker_id,
            os.getpid(),
            port,
        )
        sender.send(_READY)

    try:
        code = _serve_process(config, registry, on_ready, reuseport=True)
    finally:
        with contextlib.suppress(OSError):  # the supervisor is gone
            sender.send(registry.snapshot())
    if code:
        raise SystemExit(code)


# -- the supervisor ------------------------------------------------------------


def run_supervisor(config: FleetConfig) -> int:
    """Pre-fork ``config.workers`` serving processes and babysit them.

    Builds/validates the serving index once up front, in a forked
    builder (so workers start by mmapping a known-good file), resolves
    the port by binding a placeholder ``SO_REUSEPORT`` socket (held,
    never listening — the port stays reserved across worker restarts),
    forks the fleet, prints ``SERVE READY host port`` once every worker
    has sent ``ready``, restarts exited workers with capped backoff,
    and on SIGTERM/SIGINT forwards the signal so each worker drains
    before exiting.  One wait covers every worker's pipe and sentinel
    and the signal wake-up pipe; it times out only at the next restart
    or the ready deadline.  The last snapshot of every worker it ran,
    restarted ones included, is merged into ``metrics_out``.
    """
    registry = MetricsRegistry()
    routing = _origin_routing(config)
    try:
        index = IndexBuild(
            config.directory, routing, config.rebuild
        ).result(registry)
    except FileNotFoundError as error:
        logger.error("no segment store to serve: %s", error)
        return 2
    info = index.describe()
    index.close()
    m_restarts = registry.counter(
        "repro_serve_worker_restarts_total",
        "crashed serve workers restarted by the supervisor",
    )

    placeholder = reuseport_socket(config.host, config.port)
    host, port = placeholder.getsockname()[:2]
    worker_config = dataclasses.replace(
        config, host=host, port=port, rebuild=False
    )

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
    logger.info(
        "supervisor: serving index ready (%s rows, generation %s); "
        "forking %d workers",
        info["rows"],
        info["generation"],
        config.workers,
    )

    workers: Dict[int, Forked] = {}
    # Worker id -> monotonic time of its next fork.
    due = {worker_id: 0.0 for worker_id in range(config.workers)}
    failures = [0] * config.workers
    snapshots = []
    ready_printed = False
    ready_deadline = time.monotonic() + _READY_TIMEOUT
    exit_code = 0

    def reap_exited(timeout: Optional[float]) -> List[Tuple[int, Forked]]:
        """Read what the workers sent; reap and return those that exited."""
        children = list(workers.values())
        woken = set(
            multiprocessing.connection.wait(
                [child.receiver for child in children]
                + [child.sentinel for child in children]
                + [wake_r],
                timeout,
            )
        )
        if wake_r in woken:
            os.read(wake_r, 4096)
        exited = []
        for worker_id, child in list(workers.items()):
            # End of file on the pipe: the worker closed it by exiting.
            if child.sentinel in woken or (
                child.receiver in woken and not child.receive()
            ):
                del workers[worker_id]
                child.reap()
                if child.messages and child.messages[-1] != _READY:
                    snapshots.append(child.messages[-1])
                exited.append((worker_id, child))
        return exited

    try:
        while stop["signal"] is None:
            now = time.monotonic()
            for worker_id, when in list(due.items()):
                if when <= now:
                    del due[worker_id]
                    workers[worker_id] = Forked(
                        _worker_main,
                        worker_config,
                        worker_id,
                        name=f"repro-serve-w{worker_id}",
                    )
            if not ready_printed:
                if not due and all(
                    _READY in child.messages for child in workers.values()
                ):
                    print(f"{READY_PREFIX} {host} {port}", flush=True)
                    ready_printed = True
                elif now > ready_deadline:
                    logger.error(
                        "serve workers not ready within %.0fs; "
                        "shutting down",
                        _READY_TIMEOUT,
                    )
                    exit_code = 1
                    break
            wake = list(due.values())
            if not ready_printed:
                wake.append(ready_deadline)
            for worker_id, child in reap_exited(
                max(0.0, min(wake) - now) if wake else None
            ):
                lived = time.monotonic() - child.started
                if lived >= _RESTART_RESET_SECONDS:
                    failures[worker_id] = 0
                failures[worker_id] += 1
                delay = backoff_delay(
                    failures[worker_id],
                    _RESTART_BACKOFF_BASE,
                    _RESTART_BACKOFF_CAP,
                )
                logger.warning(
                    "serve worker %d exited code=%s after %.1fs; "
                    "restarting in %.2fs",
                    worker_id,
                    child.process.exitcode,
                    lived,
                    delay,
                )
                m_restarts.inc()
                due[worker_id] = time.monotonic() + delay
    finally:
        for child in workers.values():
            child.process.terminate()
        deadline = time.monotonic() + config.drain_timeout + 10.0
        while workers and time.monotonic() < deadline:
            reap_exited(deadline - time.monotonic())
        for child in workers.values():  # pragma: no cover - hung worker
            logger.warning(
                "killing unresponsive serve worker pid=%d",
                child.process.pid,
            )
            child.reap(kill=True)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        os.close(wake_r)
        os.close(wake_w)
        placeholder.close()
        if config.metrics_out:
            for snapshot in snapshots:
                registry.merge_snapshot(snapshot)
            write_metrics(registry, config.metrics_out)
    return exit_code

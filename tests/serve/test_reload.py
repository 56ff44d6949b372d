"""Live index reload: commits land without a restart, queries never fail.

The contract under test is the serving side of the append-only store:
when ``commit()`` (or ``compact()``) moves ``MANIFEST.json``, a watcher
rebuilds ``SERVING.rsi`` under the advisory build lock and swaps it
into the engine between ticks — while a sustained query load observes
**zero** failures and answers that are always consistent with *some*
committed manifest (the old one right up to the swap, the new one
after).

Every rebuild runs in a forked builder.  Its metrics reach the
server's registry; a signal sent to it stays with it; and a builder
killed mid-write swaps nothing, leaves the old index answering, and
leaves no temp file behind once the next poll has rebuilt.
"""

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.segments import SegmentStore, SegmentedCorpusReader
from repro.obs import MetricsRegistry
from repro import api
from repro.serve import (
    SERVING_INDEX_NAME,
    CoalescingEngine,
    IndexReloader,
    ensure_serving_index,
    fork_index_build,
)

from .conftest import make_routing, write_serve_store

#: How long to wait for one reload to land (index rebuilds run in a
#: forked child; CI machines can be slow and single-core).
RELOAD_DEADLINE = 60.0


def _commit_segment(store, number):
    """Commit one new segment; returns the addresses only it contains."""
    addresses = [
        (0x2001 << 112) | (3 << 96) | (number << 64) | offset
        for offset in range(1, 6)
    ]
    corpus = AddressCorpus("serve")
    for address in addresses:
        corpus.record(address, number * 1000.0)
    meta = store.write_segment(
        corpus,
        segment_id=f"seg-live-{number:03d}",
        start_day=100 + number * 7,
        end_day=100 + (number + 1) * 7,
    )
    store.commit([meta])
    return addresses


async def _await_reload(metrics, target):
    deadline = asyncio.get_running_loop().time() + RELOAD_DEADLINE
    while (
        metrics.counter_value("repro_serve_index_reloads_total")
        < target
    ):
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"reload {target} did not land within "
                f"{RELOAD_DEADLINE}s"
            )
        await asyncio.sleep(0.02)


class TestReloadUnderLoad:
    def test_three_swaps_zero_failed_requests(self, tmp_path):
        store = write_serve_store(tmp_path, per_segment=40, segments=1)
        routing = make_routing()
        metrics = MetricsRegistry()
        baseline = sorted(
            CorpusIndex.build(
                SegmentedCorpusReader.open(tmp_path).load()
            ).addresses
        )
        index = ensure_serving_index(tmp_path, routing=routing)
        engine = CoalescingEngine(index, metrics=metrics)
        reloader = IndexReloader(
            engine,
            tmp_path,
            routing=routing,
            metrics=metrics,
            interval=0.03,
        )
        failures = []
        answered = [0]

        async def load():
            # Sustained query pressure across every swap: baseline
            # addresses must answer True under the old index and every
            # new one alike.
            while True:
                try:
                    answers = await engine.batch("contains", baseline)
                    if answers != [True] * len(baseline):
                        failures.append(("wrong answers", answers))
                    answered[0] += len(answers)
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    failures.append(("exception", repr(error)))
                await asyncio.sleep(0)

        async def scenario():
            watcher = asyncio.ensure_future(reloader.run())
            loader = asyncio.ensure_future(load())
            loop = asyncio.get_running_loop()
            try:
                for number in range(1, 4):
                    fresh = await loop.run_in_executor(
                        None, _commit_segment, store, number
                    )
                    await _await_reload(metrics, number)
                    # The freshly committed addresses are served
                    # without any restart.
                    assert await engine.batch(
                        "contains", fresh
                    ) == [True] * len(fresh)
            finally:
                for task in (watcher, loader):
                    task.cancel()
                for task in (watcher, loader):
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert failures == []
        assert answered[0] > 0
        assert (
            metrics.counter_value("repro_serve_index_reloads_total")
            == 3
        )
        assert engine.index_swaps == 3
        assert engine.describe()["index_swaps"] == 3

    def test_unchanged_manifest_never_swaps(self, tmp_path):
        write_serve_store(tmp_path, per_segment=20, segments=1)
        metrics = MetricsRegistry()
        index = ensure_serving_index(tmp_path)
        engine = CoalescingEngine(index, metrics=metrics)
        reloader = IndexReloader(
            engine, tmp_path, metrics=metrics, interval=0.01
        )

        async def scenario():
            for _ in range(5):
                assert await reloader.poll_once() is False

        try:
            asyncio.run(scenario())
        finally:
            index.close()
        assert engine.index_swaps == 0
        assert (
            metrics.counter_value("repro_serve_index_reloads_total")
            == 0
        )

    def test_commit_before_the_reloader_starts_is_served(self, tmp_path):
        """A commit between opening the index and constructing the
        reloader (the start-up window of a server, a fleet worker and
        ``api.connect``) is picked up by the first poll."""
        store = write_serve_store(tmp_path, per_segment=20, segments=1)
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        fresh = _commit_segment(store, 1)
        reloader = IndexReloader(engine, tmp_path, interval=0.01)

        async def scenario():
            assert await engine.batch("contains", fresh) == [False] * 5
            assert await reloader.poll_once() is True
            assert await engine.batch("contains", fresh) == [True] * 5
            assert await reloader.poll_once() is False

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert engine.index_swaps == 1

    def test_bad_interval_rejected(self, tmp_path):
        write_serve_store(tmp_path, per_segment=10, segments=1)
        index = ensure_serving_index(tmp_path)
        try:
            engine = CoalescingEngine(index)
            with pytest.raises(ValueError, match="interval"):
                IndexReloader(engine, tmp_path, interval=0)
        finally:
            index.close()


class TestApiConnectReload:
    def test_local_client_follows_commits(self, tmp_path):
        store = write_serve_store(tmp_path, per_segment=20, segments=1)

        async def scenario():
            client = await api.connect(
                tmp_path, reload_interval=0.03
            )
            async with client:
                fresh = _commit_segment(store, 9)
                deadline = (
                    asyncio.get_running_loop().time() + RELOAD_DEADLINE
                )
                while not all(
                    await client.contains_batch(fresh)
                ):
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "commit never became visible"
                    await asyncio.sleep(0.02)
            client.engine.index.close()

        asyncio.run(scenario())


#: How long a stalled builder waits for the SIGTERM that should end it.
STALL_SECONDS = 30.0


def _hook_index_write(monkeypatch, token, then):
    """Make the next ``SERVING.rsi`` write stop halfway through.

    In the style of ``CRASH_BUILD_SCRIPT`` (``test_format.py``): the
    store's atomic writer is patched before the builder forks, so the
    child inherits it.  The write that finds ``token`` consumes it,
    writes half the chunks to the real temp file and then calls
    ``then(pid)`` inside the builder; later writes are untouched.
    """
    real_atomic = SegmentStore._atomic_write

    def hooked(self, path, chunks):
        if path.name != SERVING_INDEX_NAME or not token.exists():
            return real_atomic(self, path, chunks)
        token.unlink()
        chunks = list(chunks)
        temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        with temp.open("wb") as stream:
            for chunk in chunks[: len(chunks) // 2]:
                stream.write(chunk)
            stream.flush()
        then(os.getpid())
        return real_atomic(self, path, chunks)

    monkeypatch.setattr(SegmentStore, "_atomic_write", hooked)


def _temp_files(directory):
    return sorted(directory.glob(f"{SERVING_INDEX_NAME}.tmp-*"))


class TestForkedBuilder:
    def test_child_metrics_reach_the_server_registry(self, tmp_path):
        store = write_serve_store(tmp_path, per_segment=30, segments=1)
        routing = make_routing()
        metrics = MetricsRegistry()
        engine = CoalescingEngine(
            ensure_serving_index(tmp_path, routing=routing)
        )
        reloader = IndexReloader(
            engine, tmp_path, routing=routing, metrics=metrics,
            interval=0.01,
        )

        async def scenario():
            for number in (1, 2):
                _commit_segment(store, number)
                assert await reloader.poll_once() is True

        try:
            asyncio.run(scenario())
            rows = engine.index.rows
        finally:
            engine.index.close()
        snapshot = metrics.snapshot()
        assert metrics.counter_value(
            "repro_serve_index_rebuilds_total", labels={"reason": "stale"}
        ) == 2
        assert metrics.counter_value("repro_serve_index_builds_total") == 2
        assert snapshot["spans"]["serve-index-build"]["count"] == 2
        assert metrics.counter_value("repro_serve_index_reloads_total") == 2
        # The second build's rows, not the first's: merging keeps a
        # gauge that already exists, so the server sets it itself.
        assert snapshot["gauges"]["repro_serve_index_rows"] == rows

    def test_missing_store_is_a_file_not_found_error(self, tmp_path):
        metrics = MetricsRegistry()
        with pytest.raises(FileNotFoundError):
            fork_index_build(tmp_path / "nope").result(metrics)

    def test_sigterm_stops_only_the_builder(self, tmp_path, monkeypatch):
        store = write_serve_store(tmp_path, per_segment=30, segments=1)
        baseline = sorted(
            CorpusIndex.build(
                SegmentedCorpusReader.open(tmp_path).load()
            ).addresses
        )
        metrics = MetricsRegistry()
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        reloader = IndexReloader(
            engine, tmp_path, metrics=metrics, interval=0.01
        )
        token = tmp_path / "stall-token"
        token.touch()
        stalled = tmp_path / "stalled-builder"
        _hook_index_write(
            monkeypatch,
            token,
            lambda pid: (stalled.write_text(str(pid)),
                         time.sleep(STALL_SECONDS)),
        )
        fresh = _commit_segment(store, 1)

        async def scenario():
            loop = asyncio.get_running_loop()
            server_stopped = asyncio.Event()
            # What _serve installs: SIGTERM drains the server.
            loop.add_signal_handler(signal.SIGTERM, server_stopped.set)
            try:
                poll = asyncio.ensure_future(reloader.poll_once())
                deadline = loop.time() + RELOAD_DEADLINE
                while not stalled.exists() or not stalled.read_text():
                    assert loop.time() < deadline, "builder never stalled"
                    await asyncio.sleep(0.01)
                (builder,) = [
                    child
                    for child in multiprocessing.active_children()
                    if child.pid == int(stalled.read_text())
                ]
                os.kill(builder.pid, signal.SIGTERM)
                with pytest.raises(ChildProcessError):
                    await poll
                assert builder.exitcode == -signal.SIGTERM
                # Time for a signal leaked through asyncio's wakeup fd
                # to be dispatched to the server's handler.
                await asyncio.sleep(0.2)
                assert not server_stopped.is_set()
                assert await engine.batch("contains", baseline) == (
                    [True] * len(baseline)
                )
                assert metrics.counter_value(
                    "repro_serve_index_reloads_total"
                ) == 0
                # The next poll builds, swaps, and sweeps the dead
                # builder's temp file.
                assert await reloader.poll_once() is True
                assert await engine.batch("contains", fresh) == (
                    [True] * len(fresh)
                )
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert _temp_files(tmp_path) == []

    def test_sigkilled_builder_keeps_old_index_then_retries(
        self, tmp_path, monkeypatch
    ):
        store = write_serve_store(tmp_path, per_segment=40, segments=1)
        routing = make_routing()
        baseline = sorted(
            CorpusIndex.build(
                SegmentedCorpusReader.open(tmp_path).load()
            ).addresses
        )
        metrics = MetricsRegistry()
        engine = CoalescingEngine(
            ensure_serving_index(tmp_path, routing=routing),
            metrics=metrics,
        )
        old_generation = engine.index.generation
        reloader = IndexReloader(
            engine, tmp_path, routing=routing, metrics=metrics,
            interval=0.01,
        )
        token = tmp_path / "kill-token"
        token.touch()
        _hook_index_write(
            monkeypatch, token, lambda pid: os.kill(pid, signal.SIGKILL)
        )
        fresh = _commit_segment(store, 1)
        failures = []
        answered = [0]

        async def load():
            while True:
                try:
                    answers = await engine.batch("contains", baseline)
                    if answers != [True] * len(baseline):
                        failures.append(("wrong answers", answers))
                    answered[0] += len(answers)
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    failures.append(("exception", repr(error)))
                await asyncio.sleep(0)

        async def scenario():
            loader = asyncio.ensure_future(load())
            try:
                with pytest.raises(
                    ChildProcessError, match=f"code {-signal.SIGKILL}"
                ):
                    await reloader.poll_once()
                assert not token.exists()  # the kill really fired
                # The killed builder left its half-written temp file;
                # the old index is still served.
                assert len(_temp_files(tmp_path)) == 1
                assert engine.index.generation == old_generation
                assert metrics.counter_value(
                    "repro_serve_index_reloads_total"
                ) == 0
                answered_before_retry = answered[0]
                assert await reloader.poll_once() is True
                assert answered[0] > answered_before_retry
                assert await engine.batch("contains", fresh) == (
                    [True] * len(fresh)
                )
            finally:
                loader.cancel()
                try:
                    await loader
                except asyncio.CancelledError:
                    pass

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert failures == []
        assert answered[0] > 0
        assert metrics.counter_value("repro_serve_index_reloads_total") == 1
        assert metrics.counter_value(
            "repro_serve_index_rebuilds_total", labels={"reason": "stale"}
        ) == 1
        assert _temp_files(tmp_path) == []

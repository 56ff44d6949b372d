"""Live index reload: commits land without a restart, queries never fail.

The contract under test is the serving side of the append-only store:
when ``commit()`` (or ``compact()``) moves ``MANIFEST.json``, a watcher
rebuilds ``SERVING.rsi`` under the advisory build lock and swaps it
into the engine between ticks — while a sustained query load observes
**zero** failures and answers that are always consistent with *some*
committed manifest (the old one right up to the swap, the new one
after).

A reload holds one index: once the swap's tick has run, the replaced
file is unmapped, and the new one holds only the pages queries touched.

A poll of an unchanged store is one ``stat``: the manifest is read
only when its ``(mtime_ns, size)`` moved, a commit racing the poll is
served by that poll or the next, and a failed build is retried.  The
watcher backs off a reload that keeps failing on an unchanged manifest
(a damaged segment forks a handful of builders, not one per poll),
polls a manifest that moved at the next tick, and serves a repaired
store within the backoff cap.

Every rebuild runs in a forked builder.  Its metrics reach the
server's registry; a signal sent to it stays with it; and a builder
killed mid-write swaps nothing, leaves the old index answering, and
leaves no temp file behind once the next poll has rebuilt.
"""

import asyncio
import logging
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import durable
from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.jobs import backoff_delay
from repro.core.segments import (
    PARTIAL_INDEX_SUFFIX,
    SegmentError,
    SegmentStore,
    SegmentedCorpusReader,
)
from repro.obs import MetricsRegistry
from repro import api
from repro.serve import fleet
from repro.serve import (
    SERVING_INDEX_NAME,
    CoalescingEngine,
    IndexBuild,
    IndexReloader,
    ensure_serving_index,
)

from .conftest import (
    HAS_SMAPS,
    make_routing,
    mapped_rss,
    write_serve_store,
    write_wide_store,
)

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


@pytest.mark.skipif(not HAS_SMAPS, reason="reads /proc/self/smaps")
class TestReloadHoldsOneIndex:
    def test_the_replaced_file_is_unmapped_and_the_new_one_not_read_in(
        self, tmp_path
    ):
        store, addresses = write_wide_store(tmp_path)
        path = tmp_path / SERVING_INDEX_NAME
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        reloader = IndexReloader(engine, tmp_path, interval=0.01)

        async def scenario():
            # Every row of the served index is queried, so it is resident.
            assert await engine.batch("contains", addresses) == (
                [True] * len(addresses)
            )
            assert mapped_rss(path)[str(path)] >= 16 * len(addresses)
            _commit_segment(store, 1)
            assert await reloader.poll_once() is True
            await asyncio.sleep(0)  # the tick that closes the old index
            return mapped_rss(tmp_path)

        try:
            mapped = asyncio.run(scenario())
        finally:
            engine.index.close()
        assert list(mapped) == [str(path)]  # no "... (deleted)" mapping
        size = path.stat().st_size
        assert mapped[str(path)] <= durable.CHECK_BUFFER_BYTES < size


def _count_manifest_reads(monkeypatch):
    """A list that gains an entry per ``SegmentStore.load_manifest``."""
    reads = []
    real = SegmentStore.load_manifest

    def counting(store):
        reads.append(store.directory)
        return real(store)

    monkeypatch.setattr(SegmentStore, "load_manifest", counting)
    return reads


def _commit_at_the_next_read(monkeypatch, store, number, *, before):
    """Make the next manifest read commit segment ``number`` just before
    (``before=True``) or just after it reads the file.  Returns the list
    the committed addresses are appended to."""
    real = SegmentStore.load_manifest
    pending = [number]
    fresh = []

    def hooked(self):
        if not pending:
            return real(self)
        pending.pop()  # consumed first: commit() reads the manifest too
        if before:
            fresh.extend(_commit_segment(store, number))
            return real(self)
        manifest = real(self)
        fresh.extend(_commit_segment(store, number))
        return manifest

    monkeypatch.setattr(SegmentStore, "load_manifest", hooked)
    return fresh


class TestPollReadsOnlyAMovedManifest:
    def _serving(self, tmp_path):
        store = write_serve_store(tmp_path, per_segment=20, segments=1)
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        return store, engine, IndexReloader(engine, tmp_path, interval=0.01)

    def test_unchanged_store_costs_no_read(self, tmp_path, monkeypatch):
        store, engine, reloader = self._serving(tmp_path)
        reads = _count_manifest_reads(monkeypatch)

        async def scenario():
            # The first poll has no stat yet: it reads once and finds
            # the served index current.
            assert await reloader.poll_once() is False
            assert len(reads) == 1
            for _ in range(50):
                assert await reloader.poll_once() is False
            assert len(reads) == 1
            # A rewrite that keeps the segment list is read once and
            # swaps nothing; then the store is unchanged again.
            store.commit([], completed_weeks=10)
            seen = len(reads)
            for _ in range(3):
                assert await reloader.poll_once() is False
            assert len(reads) == seen + 1
            # A commit is served at the next poll.
            fresh = _commit_segment(store, 1)
            assert await reloader.poll_once() is True
            assert await engine.batch("contains", fresh) == [True] * 5

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert engine.index_swaps == 1

    def test_a_commit_racing_the_poll_is_not_lost(
        self, tmp_path, monkeypatch
    ):
        store, engine, reloader = self._serving(tmp_path)

        async def race(number, *, before):
            # Move the stat without moving the segment list, so the
            # poll reads the manifest.
            store.commit([], completed_weeks=10 ** number)
            fresh = _commit_at_the_next_read(
                monkeypatch, store, number, before=before
            )
            swaps = [await reloader.poll_once(), await reloader.poll_once()]
            assert swaps == ([True, False] if before else [False, True])
            assert await engine.batch("contains", fresh) == [True] * 5

        async def scenario():
            assert await reloader.poll_once() is False
            # Landing between the poll's stat and its read, the commit
            # is in what that poll reads.
            await race(1, before=True)
            # Landing just after the read, it moved the stat the poll
            # had taken, so the next poll reads it: no poll records
            # the stat of a manifest it did not act on.
            await race(2, before=False)
            assert await reloader.poll_once() is False

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert engine.index_swaps == 2

    def test_a_failed_build_is_retried_with_the_stat_unchanged(
        self, tmp_path, monkeypatch
    ):
        store, engine, reloader = self._serving(tmp_path)
        fresh = _commit_segment(store, 1)
        manifest = tmp_path / "MANIFEST.json"
        stat = manifest.stat()
        real = fleet.IndexBuild
        attempts = []

        def fails_once(directory, routing=None):
            attempts.append(directory)
            if len(attempts) == 1:
                raise OSError("fork failed")
            return real(directory, routing=routing)

        monkeypatch.setattr(fleet, "IndexBuild", fails_once)

        async def scenario():
            with pytest.raises(OSError, match="fork failed"):
                await reloader.poll_once()
            assert await engine.batch("contains", fresh) == [False] * 5
            assert await reloader.poll_once() is True
            assert await engine.batch("contains", fresh) == [True] * 5
            assert await reloader.poll_once() is False

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert len(attempts) == 2
        after = manifest.stat()
        assert (after.st_mtime_ns, after.st_size) == (
            stat.st_mtime_ns,
            stat.st_size,
        )


#: How long the damaged-store scenario drives the watcher, and the most
#: builders it may fork meanwhile (one per poll would be about 40).
DAMAGED_SECONDS = 2.0
MAX_DAMAGED_BUILDS = 8

#: Event-loop lateness allowed on top of a scheduled poll.
TICK_SLACK = 0.25


def _flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestReloadBackoff:
    def test_a_damaged_store_backs_off_and_a_repair_is_served(
        self, tmp_path, monkeypatch
    ):
        interval = 0.05
        store = write_serve_store(tmp_path, per_segment=30, segments=1)
        baseline = sorted(
            CorpusIndex.build(
                SegmentedCorpusReader.open(tmp_path).load()
            ).addresses
        )
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        reloader = IndexReloader(
            engine, tmp_path, metrics=MetricsRegistry(), interval=interval
        )
        fresh = _commit_segment(store, 1)
        # The new segment's .seg and .idx are both damaged: every build
        # rescans the .seg and fails its CRC check.
        segment = store.segment_path(store.load_manifest().segments[-1])
        intact = {
            path: path.read_bytes()
            for path in (segment, segment.with_suffix(PARTIAL_INDEX_SUFFIX))
        }
        for path in intact:
            _flip_middle_byte(path)
        real_build = fleet.IndexBuild
        builds = []

        def counted(directory, routing=None):
            builds.append(asyncio.get_running_loop().time())
            return real_build(directory, routing=routing)

        monkeypatch.setattr(fleet, "IndexBuild", counted)
        real_poll = reloader.poll_once
        polling = []

        async def tracked():
            polling.append(True)
            try:
                return await real_poll()
            finally:
                polling.pop()

        monkeypatch.setattr(reloader, "poll_once", tracked)

        async def scenario():
            loop = asyncio.get_running_loop()
            watcher = asyncio.ensure_future(reloader.run())
            try:
                end = loop.time() + DAMAGED_SECONDS
                while loop.time() < end:
                    assert await engine.batch("contains", baseline) == (
                        [True] * len(baseline)
                    )
                    assert await engine.batch("contains", fresh) == (
                        [False] * len(fresh)
                    )
                    await asyncio.sleep(0.02)
                assert 2 <= len(builds) <= MAX_DAMAGED_BUILDS, builds
                # Repair in place, between attempts: the manifest does
                # not move, so only the backoff brings the next build.
                while polling:
                    await asyncio.sleep(0.005)
                for path, data in intact.items():
                    path.write_bytes(data)
                repaired = loop.time()
                attempts = len(builds)
                deadline = repaired + RELOAD_DEADLINE
                while await engine.batch("contains", fresh) != (
                    [True] * len(fresh)
                ):
                    assert loop.time() < deadline, "repair never served"
                    await asyncio.sleep(0.02)
                assert len(builds) == attempts + 1
                assert builds[attempts] - repaired <= (
                    fleet._RELOAD_BACKOFF_CAP + interval + TICK_SLACK
                )
            finally:
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert engine.index_swaps == 1

    def test_a_moved_manifest_is_polled_at_the_next_tick(
        self, tmp_path, monkeypatch
    ):
        interval = 0.05
        store = write_serve_store(tmp_path, per_segment=20, segments=1)
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        reloader = IndexReloader(engine, tmp_path, interval=interval)
        attempts = []

        async def poll_once():
            # Every attempt fails but the tenth.
            attempts.append(asyncio.get_running_loop().time())
            if len(attempts) != 10:
                raise OSError("damaged store")
            return False

        monkeypatch.setattr(reloader, "poll_once", poll_once)

        def delay(failures):
            return backoff_delay(
                failures, interval, fleet._RELOAD_BACKOFF_CAP
            )

        def gap(attempt):
            return attempts[attempt] - attempts[attempt - 1]

        async def until(count):
            deadline = asyncio.get_running_loop().time() + RELOAD_DEADLINE
            while len(attempts) < count:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)

        async def scenario():
            loop = asyncio.get_running_loop()
            watcher = asyncio.ensure_future(reloader.run())
            try:
                # After k failures on one manifest, the next attempt
                # waits at least backoff_delay(k): 1, 2, 4, 8 intervals.
                await until(5)
                for attempt in range(1, 5):
                    assert gap(attempt) >= delay(attempt) * 0.99, attempts
                # The next wait would be 16 intervals; a manifest that
                # moved is polled at the next tick, and its failures
                # count from one.
                store.commit([], completed_weeks=1000)
                moved = loop.time()
                await until(12)
                assert attempts[5] - moved <= interval + TICK_SLACK
                assert gap(6) <= interval + TICK_SLACK
                assert gap(9) >= delay(4) * 0.99
                # The tenth attempt succeeds, which ends the streak: the
                # next failure waits one interval, not sixteen.
                assert gap(10) <= interval + TICK_SLACK
                assert gap(11) <= interval + TICK_SLACK
            finally:
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass

        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()


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
    durable writer is patched before the builder forks, so the child
    inherits it.  The write that finds ``token`` consumes it,
    writes half the chunks to the real temp file and then calls
    ``then(pid)`` inside the builder; later writes are untouched.
    """
    real_atomic = durable.atomic_write

    def hooked(path, chunks):
        if path.name != SERVING_INDEX_NAME or not token.exists():
            return real_atomic(path, chunks)
        token.unlink()
        chunks = list(chunks)
        temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        with temp.open("wb") as stream:
            for chunk in chunks[: len(chunks) // 2]:
                stream.write(chunk)
            stream.flush()
        then(os.getpid())
        return real_atomic(path, chunks)

    monkeypatch.setattr(durable, "atomic_write", hooked)


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
            IndexBuild(tmp_path / "nope").result(metrics)

    def test_a_torn_manifest_is_reported_with_its_path(self, tmp_path):
        write_serve_store(tmp_path, per_segment=30, segments=1)
        manifest = tmp_path / "MANIFEST.json"
        manifest.write_bytes(manifest.read_bytes()[:-20])
        with pytest.raises(SegmentError) as caught:
            IndexBuild(tmp_path).result(MetricsRegistry())
        assert caught.value.path == manifest
        assert str(manifest) in str(caught.value)

    def test_a_failed_reload_logs_the_damaged_file(self, tmp_path, caplog):
        store = write_serve_store(tmp_path, per_segment=30, segments=1)
        engine = CoalescingEngine(ensure_serving_index(tmp_path))
        reloader = IndexReloader(
            engine, tmp_path, metrics=MetricsRegistry(), interval=0.01
        )
        fresh = _commit_segment(store, 1)
        # A flipped byte in the new segment's .idx and .seg: the build
        # must rescan the .seg, whose CRC check fails.
        segment = store.segment_path(store.load_manifest().segments[-1])
        for path in (segment, segment.with_suffix(PARTIAL_INDEX_SUFFIX)):
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        with pytest.raises(SegmentError) as in_process:
            ensure_serving_index(tmp_path)
        assert in_process.value.path == segment
        assert in_process.value.offset is not None

        async def scenario():
            with pytest.raises(SegmentError) as forked:
                await reloader.poll_once()
            # The child's error crossed the pipe whole.
            assert (forked.value.path, forked.value.offset) == (
                in_process.value.path,
                in_process.value.offset,
            )
            assert str(forked.value) == str(in_process.value)
            assert await engine.batch("contains", fresh) == [False] * 5
            watcher = asyncio.ensure_future(reloader.run())
            deadline = asyncio.get_running_loop().time() + RELOAD_DEADLINE
            try:
                while str(in_process.value) not in caplog.text:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
            finally:
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass

        caplog.set_level(logging.WARNING, logger="repro.serve.fleet")
        try:
            asyncio.run(scenario())
        finally:
            engine.index.close()
        assert "reload failed" in caplog.text

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

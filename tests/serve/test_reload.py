"""Live index reload: commits land without a restart, queries never fail.

The contract under test is the serving side of the append-only store:
when ``commit()`` (or ``compact()``) moves ``MANIFEST.json``, a watcher
rebuilds ``SERVING.rsi`` under the advisory build lock and swaps it
into the engine between ticks — while a sustained query load observes
**zero** failures and answers that are always consistent with *some*
committed manifest (the old one right up to the swap, the new one
after).
"""

import asyncio

import pytest

from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.segments import SegmentedCorpusReader
from repro.obs import MetricsRegistry
from repro import api
from repro.serve import (
    CoalescingEngine,
    IndexReloader,
    ensure_serving_index,
)

from .conftest import make_routing, write_serve_store

#: How long to wait for one reload to land (index rebuilds run in a
#: thread; CI machines can be slow and single-core).
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

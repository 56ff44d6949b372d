"""The coalescing query engine: scheduling changes, answers never do.

The engine's contract is that ``coalesce=True`` answers are exactly the
``coalesce=False`` answers (which are exactly the index's answers),
while concurrent callers in one event-loop tick share a single kernel
call — observable through ``batches_executed`` and the
``repro_serve_*`` metrics, which is precisely how an operator would
check coalescing is happening under real load.
"""

import asyncio

import pytest

from repro.obs import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.serve import (
    CoalescingEngine,
    QUERY_OPS,
    ServingIndex,
    ServingIndexError,
    build_serving_index,
    ensure_serving_index,
)

from .conftest import write_serve_store
from .test_format import oracle


@pytest.fixture(scope="module")
def served_index(serve_dir, routing):
    build_serving_index(serve_dir, routing=routing)
    with ServingIndex.open(serve_dir) as index:
        yield index


def run(coroutine):
    return asyncio.run(coroutine)


class TestEquivalence:
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_engine_answers_equal_oracle(
        self, served_index, ground_truth, routing, queries, coalesce
    ):
        engine = CoalescingEngine(served_index, coalesce=coalesce)
        expected = oracle(ground_truth, routing, queries)

        async def ask():
            return {
                op: await engine.batch(op, queries) for op in QUERY_OPS
            }

        answers = run(ask())
        for op in QUERY_OPS:
            assert answers[op] == expected[op], op

    def test_concurrent_singles_equal_sequential_batch(
        self, served_index, queries
    ):
        engine = CoalescingEngine(served_index)

        async def ask():
            singles = await asyncio.gather(
                *(
                    engine.query("record", query)
                    for query in queries[:64]
                )
            )
            batch = await engine.batch("record", queries[:64])
            return singles, batch

        singles, batch = run(ask())
        assert singles == batch

    def test_single_query_surface(self, served_index, queries):
        engine = CoalescingEngine(served_index)

        async def ask():
            present = queries[0]
            return (
                await engine.query("contains", present),
                await engine.query("contains", 0),
            )

        assert run(ask()) == (True, False)


class TestCoalescing:
    def test_one_tick_of_singles_is_one_kernel_call(
        self, served_index, queries
    ):
        metrics = MetricsRegistry()
        engine = CoalescingEngine(served_index, metrics=metrics)

        async def ask():
            await asyncio.gather(
                *(
                    engine.query("lifetime", query)
                    for query in queries[:64]
                )
            )

        run(ask())
        assert engine.queries_served == 64
        assert engine.batches_executed == 1
        assert (
            metrics.counter_value(
                "repro_serve_queries_total", labels={"op": "lifetime"}
            )
            == 64
        )
        assert (
            metrics.counter_value("repro_serve_batches_total") == 1
        )

    def test_uncoalesced_baseline_is_one_call_per_query(
        self, served_index, queries
    ):
        engine = CoalescingEngine(served_index, coalesce=False)

        async def ask():
            await asyncio.gather(
                *(
                    engine.query("lifetime", query)
                    for query in queries[:16]
                )
            )

        run(ask())
        assert engine.batches_executed == 16

    def test_different_ops_coalesce_separately(
        self, served_index, queries
    ):
        engine = CoalescingEngine(served_index)

        async def ask():
            await asyncio.gather(
                *(
                    engine.query("contains", query)
                    for query in queries[:8]
                ),
                *(
                    engine.query("entropy", query)
                    for query in queries[:8]
                ),
            )

        run(ask())
        assert engine.queries_served == 16
        assert engine.batches_executed == 2  # one kernel call per op

    def test_max_batch_chunks_large_merges(self, served_index, queries):
        engine = CoalescingEngine(served_index, max_batch=5)

        async def ask():
            return await engine.batch("contains", queries[:17])

        answers = run(ask())
        assert len(answers) == 17
        assert engine.batches_executed == 4  # ceil(17 / 5)

    def test_describe_reports_shape(self, served_index):
        engine = CoalescingEngine(served_index, max_batch=123)
        info = engine.describe()
        assert info["coalesce"] is True
        assert info["max_batch"] == 123
        assert info["origin_source"] == "table"
        assert info["rows"] == served_index.rows


class TestErrors:
    def test_unknown_op_rejected(self, served_index):
        engine = CoalescingEngine(served_index)

        async def ask():
            await engine.batch("does-not-exist", [1])

        with pytest.raises(ValueError, match="unknown query op"):
            run(ask())

    def test_empty_batch_is_empty(self, served_index):
        engine = CoalescingEngine(served_index)

        async def ask():
            return await engine.batch("contains", [])

        assert run(ask()) == []

    def test_bad_max_batch_rejected(self, served_index):
        with pytest.raises(ValueError, match="max_batch"):
            CoalescingEngine(served_index, max_batch=0)

    def test_bad_address_fails_only_its_caller(self, served_index, queries):
        """Bad requests coalesced with a good one fail alone: the good
        caller gets the answer it gets with ``coalesce=False``."""

        async def ask(engine):
            return await asyncio.gather(
                engine.batch("contains", [queries[0]]),
                engine.batch("contains", [1 << 128]),
                engine.query("contains", -1),
                engine.batch("contains", ["2001::1"]),
                return_exceptions=True,
            )

        for coalesce in (True, False):
            engine = CoalescingEngine(served_index, coalesce=coalesce)
            good, too_big, negative, text = run(ask(engine))
            assert good == [True]
            for failed, message in (
                (too_big, "out of range"),
                (negative, "out of range"),
                (text, "ints"),
            ):
                assert isinstance(failed, ValueError)
                assert message in str(failed)


class TestCancelledWaiters:
    def _latency_count(self, metrics, op):
        return metrics.histogram(
            "repro_serve_query_seconds",
            buckets=DEFAULT_TIME_BUCKETS,
            labels={"op": op},
        ).count

    def test_fully_cancelled_tick_touches_nothing(
        self, served_index, queries
    ):
        # A waiter cancelled between enqueue and flush gets no answer,
        # so it must contribute neither kernel work nor metrics.
        metrics = MetricsRegistry()
        engine = CoalescingEngine(served_index, metrics=metrics)

        async def scenario():
            task = asyncio.ensure_future(
                engine.batch("lifetime", queries[:8])
            )
            await asyncio.sleep(0)  # enqueued; flush not yet run
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(0)  # let the flush tick run

        run(scenario())
        assert engine.queries_served == 0
        assert engine.batches_executed == 0
        assert (
            metrics.counter_value(
                "repro_serve_queries_total", labels={"op": "lifetime"}
            )
            == 0
        )
        assert self._latency_count(metrics, "lifetime") == 0
        assert (
            metrics.counter_value("repro_serve_batches_total") == 0
        )

    def test_mixed_tick_counts_only_live_waiters(
        self, served_index, queries
    ):
        metrics = MetricsRegistry()
        engine = CoalescingEngine(served_index, metrics=metrics)

        async def scenario():
            dead = asyncio.ensure_future(
                engine.batch("contains", queries[:3])
            )
            live = asyncio.ensure_future(
                engine.batch("contains", queries[3:6])
            )
            await asyncio.sleep(0)  # both enqueued in the same tick
            dead.cancel()
            return await live

        answers = run(scenario())
        # The surviving waiter's answers are positionally its own —
        # compacting the batch must rebase slices, not shift them.
        direct = run(engine_direct(served_index, queries[3:6]))
        assert answers == direct
        assert engine.queries_served == 3
        assert engine.batches_executed == 1
        assert (
            metrics.counter_value(
                "repro_serve_queries_total", labels={"op": "contains"}
            )
            == 3
        )
        assert self._latency_count(metrics, "contains") == 1


async def engine_direct(index, addresses):
    engine = CoalescingEngine(index, coalesce=False)
    return await engine.batch("contains", addresses)


class TestIndexSwap:
    def test_swap_changes_answers_and_counts(self, tmp_path, routing):
        small = tmp_path / "small"
        grown = tmp_path / "grown"
        write_serve_store(small, per_segment=30, segments=1)
        store = write_serve_store(grown, per_segment=30, segments=1)
        extra = _commit_extra_segment(store)
        old_index = ensure_serving_index(small, routing=routing)
        new_index = ensure_serving_index(grown, routing=routing)
        try:
            engine = CoalescingEngine(old_index)

            async def scenario():
                before = await engine.batch("contains", [extra])
                # Enqueue against the old index, swap before the tick
                # flushes: the batch answers from the new snapshot, as
                # if it had arrived just after the swap.
                pending = asyncio.ensure_future(
                    engine.batch("contains", [extra])
                )
                await asyncio.sleep(0)
                returned = engine.swap_index(new_index)
                after = await pending
                return before, returned, after

            before, returned, after = run(scenario())
            assert before == [False]
            assert returned is old_index
            assert after == [True]
            assert engine.index is new_index
            assert engine.describe()["index_swaps"] == 1
        finally:
            old_index.close()
            new_index.close()


def _commit_extra_segment(store):
    """Append one fresh segment; returns an address only it contains."""
    from repro.core.corpus import AddressCorpus

    address = (0x2001 << 112) | (3 << 96) | (7 << 64) | 0xDEAD
    corpus = AddressCorpus("serve")
    corpus.record(address, 42.0)
    meta = store.write_segment(
        corpus, segment_id="seg-extra", start_day=21, end_day=28
    )
    store.commit([meta])
    return address


class TestOriginFallback:
    def test_no_table_no_resolver_raises_to_the_caller(self, tmp_path):
        write_serve_store(tmp_path, per_segment=10, segments=1)
        build_serving_index(tmp_path)
        with ServingIndex.open(tmp_path) as index:
            engine = CoalescingEngine(index)
            assert engine.describe()["origin_source"] is None

            async def ask():
                await engine.query("origin", 1)

            with pytest.raises(ServingIndexError, match="origin"):
                run(ask())

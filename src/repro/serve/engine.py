"""The asyncio query engine: coalesce concurrent lookups, answer in bulk.

A naive async server answers each query with its own binary search —
correct, but the per-query Python overhead (parse, search, reply) caps
throughput far below what the vectorized kernels can do.  The engine
below exploits a property of event loops: every query that arrives
while the loop is busy is *already concurrent*, so deferring the actual
lookup by one ``call_soon`` tick lets all of them pile into a single
batch, answered by **one**
:meth:`~repro.serve.format.ServingIndex.columnar_batch` call over the
mmap'd columns.  Each caller still awaits its own future and receives
only its own results; coalescing changes scheduling, never answers.
Requests pass :meth:`~repro.serve.wire.AddressBlock.of` (validated
and split into hi/lo u64 columns) before they join a batch, so a bad
request fails only its own caller.

Every tick computes :class:`~repro.serve.wire.ColumnarResults`;
binary-path waiters (``columnar=True``) get their slice as is, every
other waiter gets it as a plain list (``to_list()``).

Instrumentation (``repro.obs``): per-op query counters, per-op latency
histograms (enqueue to answer), batch counters and batch-size
histograms — the metrics that tell an operator whether coalescing is
actually happening under their load.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import DEFAULT_TIME_BUCKETS, MetricsRegistry, NULL_REGISTRY
from .format import ServingIndex
from .wire import (
    ADDRESS_OPS,
    AddressBlock,
    ColumnarResults,
    QueryOp,
    resolve_op,
)

__all__ = [
    "CoalescingEngine",
    "QUERY_OPS",
]

#: Names of the address-batch ops the engine runs kernels for — derived
#: from the shared :data:`~repro.serve.wire.QUERY_OP_TABLE` registry
#: (each an op of :class:`~repro.serve.format.ServingIndex`; the
#: engine answers the table's one other op, ``stats``, from
#: :meth:`CoalescingEngine.describe`).
QUERY_OPS: Tuple[str, ...] = tuple(spec.name for spec in ADDRESS_OPS)

#: Batch-size histogram buckets: how many queries one kernel call served.
_BATCH_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


class _Pending:
    """One op's accumulating batch for the current event-loop tick.

    Requests are held as ``parts`` — one
    :class:`~repro.serve.wire.AddressBlock` each — and merged only at
    flush time by :meth:`AddressBlock.concat`.
    """

    __slots__ = ("parts", "total", "waiters")

    def __init__(self) -> None:
        self.parts: List[AddressBlock] = []
        self.total = 0
        # (future, start, count, enqueued_at, columnar) — each waiter
        # owns the slice [start, start + count) of the batch results;
        # ``columnar`` marks binary-path waiters that take a
        # :class:`~repro.serve.wire.ColumnarResults` slice instead of
        # a materialized list.
        self.waiters: List[
            Tuple[asyncio.Future, int, int, float, bool]
        ] = []

    def extend(self, block: AddressBlock) -> None:
        self.parts.append(block)
        self.total += len(block)


class CoalescingEngine:
    """Serve batch queries over a :class:`ServingIndex`, coalesced.

    ``await engine.batch(op, addresses)`` returns one result per
    address.  With ``coalesce=True`` (the default) all calls issued in
    the same event-loop tick are answered by one kernel call per op;
    ``coalesce=False`` executes each call immediately — the "naive
    one-query-per-await" baseline the serving benchmark compares
    against.  ``max_batch`` chunks pathologically large merged batches
    to bound per-call latency.
    """

    def __init__(
        self,
        index: ServingIndex,
        *,
        metrics: Optional[MetricsRegistry] = None,
        coalesce: bool = True,
        max_batch: int = 8192,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        self.index = index
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.coalesce = coalesce
        self.max_batch = max_batch
        self._pending: Dict[int, _Pending] = {}
        self._flush_scheduled = False
        #: Swaps performed via :meth:`swap_index` (live index reloads).
        self.index_swaps = 0
        #: Plain counters mirrored into the registry (cheap to read in
        #: describe() without a registry snapshot).
        self.queries_served = 0
        self.batches_executed = 0
        self._m_queries = {
            op: self.metrics.counter(
                "repro_serve_queries_total",
                "queries answered by the serving engine",
                labels={"op": op},
            )
            for op in QUERY_OPS
        }
        self._m_latency = {
            op: self.metrics.histogram(
                "repro_serve_query_seconds",
                "enqueue-to-answer latency of served queries",
                buckets=DEFAULT_TIME_BUCKETS,
                labels={"op": op},
            )
            for op in QUERY_OPS
        }
        self._m_batches = self.metrics.counter(
            "repro_serve_batches_total",
            "vectorized kernel calls executed for coalesced batches",
        )
        self._m_batch_size = self.metrics.histogram(
            "repro_serve_batch_size",
            "queries answered per coalesced kernel call",
            buckets=_BATCH_BUCKETS,
        )

    def swap_index(self, index: ServingIndex) -> ServingIndex:
        """Atomically swap the serving snapshot; returns the old index.

        Batches execute synchronously inside one event-loop tick, so a
        swap can never interleave with a kernel call: batches enqueued
        before the swap but not yet flushed are answered from the new
        snapshot (exactly as if they had arrived just after it), and
        every result the old snapshot produced is already materialized
        (numpy columns copied out of the mapping, or plain Python
        objects).  The caller owns closing the returned old index; an
        mmap still referenced by a live view survives
        :meth:`ServingIndex.close` until released.
        """
        old = self.index
        self.index = index
        self.index_swaps += 1
        return old

    # -- public query surface ----------------------------------------------------

    async def batch(
        self, op, addresses: Sequence[int], *, columnar: bool = False
    ) -> List:
        """Answer ``op`` for every address (one result per address).

        ``op`` is anything the shared registry resolves — a wire name
        (``"contains"``), a wire op code (the binary server's path), or
        a :class:`~repro.serve.wire.QueryOp` itself.  Addresses pass
        :meth:`~repro.serve.wire.AddressBlock.of` here, before they join
        a coalesced batch, so a bad request raises to its own caller
        only.  ``stats``, the one op that takes no addresses, answers
        ``[self.describe()]`` whatever ``addresses`` holds.

        The answer is a plain list, or with ``columnar=True`` (the
        binary wire path) a :class:`~repro.serve.wire.ColumnarResults`
        — identical values, held as numpy columns ready for zero-loop
        RSB1 encoding.  An empty batch answers ``[]`` without touching
        the index.
        """
        spec = resolve_op(op)
        if not spec.addressed:
            return [self.describe()]
        if not len(addresses):
            return []
        block = AddressBlock.of(addresses)
        if not self.coalesce:
            started = perf_counter()
            results = self._execute_columnar(spec, block)
            self._m_latency[spec.name].observe(perf_counter() - started)
            return results if columnar else results.to_list()
        future = asyncio.get_running_loop().create_future()
        pending = self._pending.get(spec.code)
        if pending is None:
            pending = self._pending[spec.code] = _Pending()
        start = pending.total
        pending.extend(block)
        pending.waiters.append(
            (future, start, len(block), perf_counter(), columnar)
        )
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        return await future

    async def query(self, op, address: int):
        """Answer a single query (one-element :meth:`batch`)."""
        return (await self.batch(op, (address,)))[0]

    def describe(self) -> Dict[str, object]:
        """Engine + index shape (the ``stats`` op's answer)."""
        info = dict(self.index.describe())
        info["coalesce"] = self.coalesce
        info["max_batch"] = self.max_batch
        info["queries_served"] = self.queries_served
        info["batches_executed"] = self.batches_executed
        info["index_swaps"] = self.index_swaps
        info["origin_source"] = (
            "table" if self.index.has_origin_table else None
        )
        return info

    # -- execution ---------------------------------------------------------------

    def _execute_columnar(
        self, spec: QueryOp, args: AddressBlock
    ) -> ColumnarResults:
        parts = []
        for start in range(0, len(args), self.max_batch):
            chunk = args[start : start + self.max_batch]
            parts.append(self.index.columnar_batch(spec.name, chunk))
            self.batches_executed += 1
            self._m_batches.inc()
            self._m_batch_size.observe(len(chunk))
        self.queries_served += len(args)
        self._m_queries[spec.name].inc(len(args))
        return ColumnarResults.concat(parts)

    def _flush(self) -> None:
        self._flush_scheduled = False
        pending, self._pending = self._pending, {}
        for code, bucket in pending.items():
            spec = resolve_op(code)
            # A waiter whose future is already done (cancelled by a
            # vanished client, typically) gets no answer — so it must
            # contribute neither kernel work nor metrics: counting it
            # in repro_serve_queries_total or observing its
            # enqueue-to-answer "latency" would skew both.
            waiters = bucket.waiters
            live = [w for w in waiters if not w[0].done()]
            if not live:
                continue
            merged = AddressBlock.concat(bucket.parts)
            if len(live) == len(waiters):
                args = merged
            else:
                rebased = []
                pieces = []
                total = 0
                for future, start, count, enqueued, columnar in live:
                    rebased.append(
                        (future, total, count, enqueued, columnar)
                    )
                    pieces.append(merged[start : start + count])
                    total += count
                live = rebased
                args = AddressBlock.concat(pieces)
            try:
                results = self._execute_columnar(spec, args)
            except Exception as error:
                for future, _, _, _, _ in live:
                    if not future.done():
                        future.set_exception(error)
                continue
            answered = perf_counter()
            latency = self._m_latency[spec.name]
            for future, start, count, enqueued, columnar in live:
                if not future.done():
                    # Binary waiters take the columns as they are;
                    # everyone else in the same coalesced batch gets
                    # the same values as a list.
                    piece = results[start : start + count]
                    future.set_result(piece if columnar else piece.to_list())
                    latency.observe(answered - enqueued)

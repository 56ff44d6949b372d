"""Sharded, multi-process campaign execution with crash-safe resume.

The serial :meth:`NTPCampaign.run` walks every device × day in one
process; at "Clusters in the Expanse"-scale populations that is
wall-clock bound on a single core.  This module partitions the
pool-client population into shards and runs each shard in a
``ProcessPoolExecutor`` worker.

Two properties make that safe:

* **Keyed RNG** — every capture decision draws from
  ``split_rng(seed, "capture", device_id, day)``, so a device's outcomes
  never depend on which other devices were evaluated, in which order, or
  in which process.  Merging per-shard corpora therefore reproduces the
  serial corpus *exactly*, for any shard count (the invariant the
  parallel tests assert record-for-record).
* **Deterministic worlds** — a worker rebuilds the world from its
  :class:`WorldConfig` (everything is derived from ``config.seed``), so
  only the small picklable :class:`ShardSpec` crosses the process
  boundary.  On fork-based platforms the parent's already-built world is
  inherited through :data:`_WORLD_CACHE` and never rebuilt; with spawn
  each worker builds once and caches it for all subsequent windows.

Failure containment is layered on top, because a months-long campaign
*will* lose workers (OOM kills, host reboots) and disks *will* corrupt
bytes:

* A shard whose worker raises — or dies outright, breaking the process
  pool — is retried up to ``max_shard_retries`` times with capped
  exponential backoff, rebuilding the pool when it broke.  A shard that
  keeps failing degrades to **inline** execution in the parent process
  rather than aborting the whole campaign.  Shards are only ever merged
  once, whatever mix of pool/retry/inline produced them, so the
  determinism invariant survives every recovery path.  Each recovery is
  recorded on ``campaign.shard_failures`` as a :class:`ShardFailure`.
* The campaign proceeds in one-week windows.  With a
  :class:`~repro.core.segments.SegmentStore`, every shard seals its
  window into segment files and the coordinator commits them to the
  manifest, moving its completed-week watermark;
  ``resume_from_segments=True`` restarts at that watermark.  The store
  is the only persistence: without one the corpus lives in memory and
  a crash loses the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..faults.chaos import maybe_fail_shard
from ..obs import DEFAULT_SIZE_BUCKETS
from ..world.world import World
from .campaign import CampaignConfig, NTPCampaign
from .corpus import AddressCorpus
from .segments import (
    DEFAULT_SEGMENT_BYTES,
    SegmentBufferedCorpus,
    SegmentMeta,
    SegmentStore,
)

__all__ = [
    "ShardSpec",
    "ShardFailure",
    "run_shard",
    "run_shard_telemetry",
    "run_shard_segments",
    "run_campaign_parallel",
]

logger = logging.getLogger(__name__)

#: Worker-side world cache keyed by a stable digest of the world
#: config's repr, bounded to the single most recent entry — a process
#: that runs campaigns against several worlds (test suites, multi-world
#: studies) must not accumulate one fully-built world per config.
#: Fork-based executors inherit the parent's entry (primed by
#: :func:`run_campaign_parallel`); spawn-based workers populate it on
#: their first shard and reuse it across week windows.
_WORLD_CACHE: Dict[str, World] = {}


def _world_cache_key(world_config: object) -> str:
    """Stable, bounded-size cache key for a world config."""
    return hashlib.blake2b(
        repr(world_config).encode("utf-8"), digest_size=16
    ).hexdigest()


def _cache_world(key: str, world: World) -> None:
    """Install ``world`` as the process's single cached world."""
    if key not in _WORLD_CACHE:
        _WORLD_CACHE.clear()
    _WORLD_CACHE[key] = world

#: Frozen outage windows carried inside a picklable spec:
#: ``((asn, ((start, end), ...)), ...)``.
_OutageSpec = Tuple[Tuple[int, Tuple[Tuple[float, float], ...]], ...]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to run one shard of one week window."""

    world_config: object
    campaign_config: CampaignConfig
    shard_index: int
    shard_count: int
    start_week: int
    end_week: int
    outages: _OutageSpec = ()
    #: When set, the worker seals segment files into this directory and
    #: returns their manifest entries instead of a pickled corpus.
    segment_dir: Optional[str] = None
    segment_bytes: float = DEFAULT_SEGMENT_BYTES


@dataclass(frozen=True)
class ShardFailure:
    """One recovered shard failure, recorded on ``campaign.shard_failures``.

    ``action`` is ``"retried"`` when the shard was resubmitted to the
    pool and ``"inline"`` when retries were exhausted and the shard was
    recomputed in the parent process instead.  ``kind`` classifies the
    failure: ``"exception"`` (the worker raised), ``"worker-death"``
    (the worker process died, breaking the pool), or ``"timeout"`` (the
    shard overran ``shard_timeout`` and its worker was killed).
    """

    window: Tuple[int, int]
    shard_index: int
    attempt: int
    error: str
    action: str
    kind: str = "exception"


def _freeze_outages(outages: Dict[int, list]) -> _OutageSpec:
    return tuple(
        (asn, tuple((start, end) for start, end in windows))
        for asn, windows in sorted(outages.items())
    )


def _world_for(spec: ShardSpec) -> World:
    from ..world.population import build_world

    key = _world_cache_key(spec.world_config)
    world = _WORLD_CACHE.get(key)
    if world is None:
        world = build_world(spec.world_config)
        _cache_world(key, world)
    # Outages are injected after build, so they travel in the spec and
    # are re-applied here (idempotent for fork-inherited worlds).
    world.outages = {
        asn: list(windows) for asn, windows in spec.outages
    }
    return world


def _run_shard_inline(spec: ShardSpec) -> Tuple[AddressCorpus, dict]:
    """Collect one shard's week window, with no failure injection.

    Returns the shard corpus plus the shard campaign's telemetry
    snapshot, so the coordinating process can fold worker-side counters
    (queries evaluated, captures, injected faults) into its own
    registry — shard counters sum to exactly the serial campaign's.
    """
    campaign = NTPCampaign(_world_for(spec), spec.campaign_config)
    corpus = campaign.run(
        spec.start_week,
        spec.end_week,
        shard_index=spec.shard_index,
        shard_count=spec.shard_count,
    )
    return corpus, campaign.metrics.snapshot()


def run_shard(spec: ShardSpec) -> AddressCorpus:
    """Process-pool entry point: collect one shard's week window.

    Honours the ``REPRO_CHAOS_*`` failure-injection hooks (see
    :mod:`repro.faults.chaos`); the inline degradation path goes through
    :func:`_run_shard_inline` directly so a recovery run can never be
    re-killed by its own chaos configuration.
    """
    maybe_fail_shard(spec.shard_index)
    return _run_shard_inline(spec)[0]


def run_shard_telemetry(spec: ShardSpec) -> Tuple[AddressCorpus, dict]:
    """:func:`run_shard` plus the shard's metrics snapshot.

    The pool entry point :func:`run_campaign_parallel` actually submits
    — ``run_shard`` is kept for callers that only want the corpus.
    """
    maybe_fail_shard(spec.shard_index)
    return _run_shard_inline(spec)


def _run_shard_inline_segments(spec: ShardSpec) -> Tuple[List[dict], dict]:
    """Collect one shard's window, sealing segments instead of pickling.

    The shard's accumulation corpus is a :class:`SegmentBufferedCorpus`
    bounded by the spec's byte budget, so worker memory never grows with
    campaign length.  Returns the sealed segments' manifest entries (as
    small picklable JSON dicts) plus the shard campaign's telemetry
    snapshot.  Workers never touch the manifest — only the coordinator
    commits, and only after every returned segment is durably on disk;
    a retried shard regenerates byte-identical files under identical
    ids, so overwriting a dead attempt's leftovers is always safe.
    """
    if spec.segment_dir is None:
        raise ValueError("shard spec carries no segment directory")
    campaign = NTPCampaign(_world_for(spec), spec.campaign_config)
    store = SegmentStore(
        spec.segment_dir,
        name=campaign.corpus.name,
        segment_bytes=spec.segment_bytes,
        metrics=campaign.metrics,
    )
    # The context manager seals the unsealed tail on clean exit — a
    # window that never crosses the flush budget still reaches disk.
    with SegmentBufferedCorpus(
        campaign.corpus.name,
        store,
        shard_index=spec.shard_index,
        write_fault=campaign.fault_injector,
    ) as buffered:
        buffered.set_window(spec.start_week * 7, spec.end_week * 7)
        campaign.corpus = buffered
        campaign.run(
            spec.start_week,
            spec.end_week,
            shard_index=spec.shard_index,
            shard_count=spec.shard_count,
        )
    metas = [meta.to_json() for meta in buffered.take_sealed()]
    return metas, campaign.metrics.snapshot()


def run_shard_segments(spec: ShardSpec) -> Tuple[List[dict], dict]:
    """Pool entry point for segmented execution (chaos hooks honoured)."""
    maybe_fail_shard(spec.shard_index)
    return _run_shard_inline_segments(spec)


def run_campaign_parallel(
    campaign: NTPCampaign,
    *,
    workers: int = 1,
    shard_count: Optional[int] = None,
    segment_store: Optional[SegmentStore] = None,
    resume_from_segments: bool = False,
    start_week: int = 0,
    end_week: Optional[int] = None,
    max_shard_retries: int = 2,
    retry_backoff: float = 0.5,
    retry_backoff_cap: float = 30.0,
    shard_timeout: Optional[float] = None,
) -> AddressCorpus:
    """Run a campaign sharded across processes, one week window at a time.

    The result accumulates into ``campaign.corpus`` (exactly as a serial
    :meth:`NTPCampaign.run` would) and is also returned.

    * ``workers`` — process count; 1 runs in-process (no pool) but still
      commits every window to ``segment_store``.
    * ``shard_count`` — device partitions per window; defaults to
      ``workers``.  Any value yields the identical merged corpus.
    * ``segment_store`` — crash-safe persistence: every shard seals
      budget-bounded segment files instead of returning a pickled
      corpus, and the manifest is committed after each completed week,
      so neither workers nor the coordinator ever hold the whole corpus
      while collecting.  The final materialized corpus is
      bit-identical to the monolithic run for any flush budget and
      shard count.  Without a store the corpus lives only in memory.
    * ``resume_from_segments`` — continue from ``segment_store``'s
      committed manifest watermark (no corpus load needed); the
      manifest's telemetry snapshot is folded in, so counters stay
      cumulative across the resume.
    * ``max_shard_retries`` — failed shards are resubmitted this many
      times (with capped exponential backoff starting at
      ``retry_backoff`` seconds) before degrading to inline execution
      in the parent.  Every recovery is recorded on
      ``campaign.shard_failures``.
    * ``shard_timeout`` — wall-clock budget in seconds for one round of
      shard submissions.  Without it a hung worker stalls the campaign
      forever (retry logic only fires on raised exceptions and broken
      pools); with it an overrunning shard's future is cancelled, the
      pool's workers are killed and the pool rebuilt, and the attempt
      is recorded as a :class:`ShardFailure` with ``kind="timeout"``
      before the normal capped-backoff retry path.
    """
    config = campaign.config
    if end_week is None:
        end_week = config.weeks
    if not 0 <= start_week < end_week <= config.weeks:
        raise ValueError(f"bad week window: [{start_week}, {end_week})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if shard_count is None:
        shard_count = workers
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1: {shard_count}")
    if max_shard_retries < 0:
        raise ValueError(
            f"max_shard_retries must be >= 0: {max_shard_retries}"
        )
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0: {retry_backoff}")
    if retry_backoff_cap <= 0:
        raise ValueError(
            f"retry_backoff_cap must be > 0: {retry_backoff_cap}"
        )
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError(f"shard_timeout must be > 0: {shard_timeout}")
    if resume_from_segments and segment_store is None:
        raise ValueError("resume_from_segments=True needs a segment_store")

    metrics = campaign.metrics
    m_attempts = metrics.counter(
        "repro_shard_attempts_total", "shard executions submitted to the pool"
    )
    m_retries = metrics.counter(
        "repro_shard_retries_total", "failed shards resubmitted to the pool"
    )
    m_inline = metrics.counter(
        "repro_shard_inline_total",
        "shards degraded to inline execution after exhausting retries",
    )
    m_failures = metrics.counter(
        "repro_shard_failures_total",
        "recovered shard failures (matches campaign.shard_failures)",
    )
    m_rebuilds = metrics.counter(
        "repro_pool_rebuilds_total", "broken process pools rebuilt"
    )
    m_timeouts = metrics.counter(
        "repro_shard_timeouts_total",
        "shards killed for overrunning the wall-clock deadline",
    )
    m_merge = metrics.histogram(
        "repro_shard_merge_records",
        "per-shard corpus sizes at merge time",
        buckets=DEFAULT_SIZE_BUCKETS,
    )

    current_week = start_week
    if segment_store is not None:
        manifest = segment_store.load_manifest()
        if resume_from_segments:
            if manifest is None:
                raise FileNotFoundError(
                    f"no segment manifest in {segment_store.directory}"
                )
            if manifest.completed_weeks > end_week:
                raise ValueError(
                    f"segment manifest is ahead of the requested window: "
                    f"{manifest.completed_weeks} > {end_week}"
                )
            if manifest.metrics is not None:
                # Cumulative telemetry: the resumed run reports the whole
                # campaign's counters, not just the post-resume remainder.
                metrics.merge_snapshot(manifest.metrics)
            current_week = max(current_week, manifest.completed_weeks)
        elif manifest is not None and manifest.segments:
            raise ValueError(
                f"segment directory {segment_store.directory} already holds "
                "a committed manifest; pass resume_from_segments=True to "
                "continue it, or point at a fresh directory"
            )

    def windows():
        for week in range(current_week, end_week):
            yield week, week + 1

    outages = _freeze_outages(campaign.world.outages)

    if workers == 1:
        if segment_store is not None:
            # Serial segmented: the campaign accumulates into a
            # budget-bounded buffer that seals segment files as it
            # goes; each window ends with a manifest commit moving the
            # watermark, so a crash resumes at the last window edge.
            # The context manager backstops the per-window close():
            # even if a future edit drops a window's explicit seal, no
            # buffered tail outlives the campaign unsealed.
            with SegmentBufferedCorpus(
                campaign.corpus.name,
                segment_store,
                write_fault=campaign.fault_injector,
            ) as buffered:
                campaign.corpus = buffered
                for window_start, window_end in windows():
                    buffered.set_window(window_start * 7, window_end * 7)
                    with metrics.span("campaign-window"):
                        campaign.run(window_start, window_end)
                    buffered.close()
                    segment_store.commit(
                        buffered.take_sealed(),
                        completed_weeks=window_end,
                        metrics=metrics.snapshot(),
                    )
            campaign.corpus = segment_store.reader().load(buffered.name)
            return campaign.corpus
        for window_start, window_end in windows():
            with metrics.span("campaign-window"):
                campaign.run(window_start, window_end)
        return campaign.corpus

    segmented = segment_store is not None
    shard_task = run_shard_segments if segmented else run_shard_telemetry
    inline_task = (
        _run_shard_inline_segments if segmented else _run_shard_inline
    )

    def specs_for(window_start: int, window_end: int) -> List[ShardSpec]:
        return [
            ShardSpec(
                world_config=campaign.world.config,
                campaign_config=config,
                shard_index=index,
                shard_count=shard_count,
                start_week=window_start,
                end_week=window_end,
                outages=outages,
                segment_dir=(
                    str(segment_store.directory) if segmented else None
                ),
                segment_bytes=(
                    segment_store.segment_bytes
                    if segmented
                    else DEFAULT_SEGMENT_BYTES
                ),
            )
            for index in range(shard_count)
        ]

    def backoff_delay(attempt: int) -> float:
        if retry_backoff <= 0:
            return 0.0
        return min(retry_backoff_cap, retry_backoff * (2 ** (attempt - 1)))

    def collect_window(
        window_start: int, window_end: int, pool_box
    ) -> List[SegmentMeta]:
        window = (window_start, window_end)
        specs = specs_for(window_start, window_end)
        # Completed shard results keyed by shard index: a shard is
        # merged exactly once, no matter how many attempts (or which
        # execution path) produced it.
        completed: Dict[int, Tuple[object, dict]] = {}
        attempts = {index: 0 for index in range(shard_count)}
        pending = list(range(shard_count))
        while pending:
            futures = {}
            try:
                for index in pending:
                    futures[index] = pool_box[0].submit(
                        shard_task, specs[index]
                    )
                    m_attempts.inc()
            except BrokenProcessPool:
                if not futures:
                    # The pool died before this round's submissions
                    # went out (e.g. broken by the previous window);
                    # rebuild and resubmit without charging the shards
                    # an attempt.
                    pool_box[0] = _rebuild_pool(pool_box[0], workers)
                    m_rebuilds.inc()
                    continue
                # A shard submitted this round already broke the pool:
                # its future fails below and is charged as a worker
                # death; the shards not yet submitted wait, uncharged.
            unsubmitted = [index for index in pending if index not in futures]
            failed: Dict[int, Tuple[str, str]] = {}
            pool_broken = False
            timed_out = False
            deadline = (
                time.monotonic() + shard_timeout
                if shard_timeout is not None
                else None
            )
            for index in futures:
                try:
                    if deadline is None:
                        completed[index] = futures[index].result()
                    else:
                        remaining = max(0.0, deadline - time.monotonic())
                        completed[index] = futures[index].result(
                            timeout=remaining
                        )
                except FutureTimeout:
                    # The worker is hung (or starved behind one that
                    # is); cancel what we can and kill the pool below.
                    futures[index].cancel()
                    timed_out = True
                    failed[index] = (
                        "timeout",
                        f"shard overran {shard_timeout}s wall-clock "
                        "deadline; worker killed",
                    )
                    m_timeouts.inc()
                except BrokenProcessPool as error:
                    pool_broken = True
                    failed[index] = (
                        "worker-death",
                        f"worker died: {error or 'process pool broken'}",
                    )
                except Exception as error:
                    failed[index] = (
                        "exception",
                        f"{type(error).__name__}: {error}",
                    )
            if timed_out:
                # A cancelled future does not stop a running worker;
                # the hung process must die for the pool to be usable.
                pool_box[0] = _rebuild_pool(pool_box[0], workers, kill=True)
                m_rebuilds.inc()
            elif pool_broken:
                pool_box[0] = _rebuild_pool(pool_box[0], workers)
                m_rebuilds.inc()
            retry: List[int] = []
            for index in sorted(failed):
                kind, error_text = failed[index]
                attempts[index] += 1
                action = (
                    "retried"
                    if attempts[index] <= max_shard_retries
                    else "inline"
                )
                campaign.shard_failures.append(
                    ShardFailure(
                        window=window,
                        shard_index=index,
                        attempt=attempts[index],
                        error=error_text,
                        action=action,
                        kind=kind,
                    )
                )
                m_failures.inc()
                logger.warning(
                    "shard %d of window %s failed (attempt %d, %s): %s -> %s",
                    index,
                    window,
                    attempts[index],
                    kind,
                    error_text,
                    action,
                )
                if action == "retried":
                    m_retries.inc()
                    retry.append(index)
                else:
                    # Retries exhausted: contain the failure by
                    # computing the shard in this process (the chaos
                    # hooks are bypassed on this path).
                    m_inline.inc()
                    completed[index] = inline_task(specs[index])
            if retry:
                delay = backoff_delay(max(attempts[i] for i in retry))
                if delay > 0:
                    time.sleep(delay)
            pending = sorted(retry + unsubmitted)
        # Merge in sorted shard order so both the corpus and the folded
        # telemetry are independent of completion order.
        batch: List[SegmentMeta] = []
        if segmented:
            for index in sorted(completed):
                metas, shard_snapshot = completed[index]
                m_merge.observe(sum(doc["records"] for doc in metas))
                batch.extend(SegmentMeta.from_json(doc) for doc in metas)
                metrics.merge_snapshot(shard_snapshot)
        else:
            for index in sorted(completed):
                shard_corpus, shard_snapshot = completed[index]
                m_merge.observe(len(shard_corpus))
                campaign.corpus.merge(shard_corpus)
                metrics.merge_snapshot(shard_snapshot)
        return batch

    # Prime the cache so fork-based workers inherit the built world
    # instead of rebuilding it from config.
    _cache_world(_world_cache_key(campaign.world.config), campaign.world)
    pool_box = [ProcessPoolExecutor(max_workers=workers)]
    try:
        for window_start, window_end in windows():
            with metrics.span("campaign-window"):
                batch = collect_window(window_start, window_end, pool_box)
            if segmented:
                # Every segment in the batch is durably on disk (the
                # workers that produced them have returned), so naming
                # them in the manifest can never reference a torn file.
                segment_store.commit(
                    batch,
                    completed_weeks=window_end,
                    metrics=metrics.snapshot(),
                )
    finally:
        pool_box[0].shutdown()
    if segmented:
        # The parent never held shard corpora; materialize the final
        # fold from the committed manifest (bit-identical to the
        # monolithic run for any budget and shard count).
        campaign.corpus = segment_store.reader().load(campaign.corpus.name)
    return campaign.corpus


def _rebuild_pool(
    broken: ProcessPoolExecutor, workers: int, kill: bool = False
) -> ProcessPoolExecutor:
    """Replace a broken process pool with a fresh one.

    With ``kill=True`` every worker process is killed first — the path
    taken after a shard timeout, where a worker is hung rather than
    dead and ``shutdown(wait=False)`` alone would leak it.
    """
    if kill:
        for process in list(getattr(broken, "_processes", {}).values()):
            with contextlib.suppress(Exception):
                process.kill()
    broken.shutdown(wait=False)
    logger.warning("process pool broke; rebuilding with %d workers", workers)
    return ProcessPoolExecutor(max_workers=workers)

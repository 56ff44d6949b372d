"""Sharded, multi-process campaign execution with crash-safe resume.

The serial :meth:`NTPCampaign.run` walks every device × day in one
process; at "Clusters in the Expanse"-scale populations that is
wall-clock bound on a single core.  This module partitions the
pool-client population into shards and runs each shard of each week
window in its own forked child (:func:`repro.core.jobs.run_jobs`).

Two properties make that safe:

* **Keyed RNG** — every capture decision draws from
  ``split_rng(seed, "capture", device_id, day)``, so a device's outcomes
  never depend on which other devices were evaluated, in which order, or
  in which process.  Merging per-shard corpora therefore reproduces the
  serial corpus *exactly*, for any shard count (the invariant the
  parallel tests assert record-for-record).
* **Inherited worlds** — a shard is forked from the coordinator, so it
  inherits the already-built world, outages included, and builds a
  fresh :class:`NTPCampaign` on it.  Only the shard's report crosses
  the process boundary.

Every shard seals its window into segment files and reports their
manifest entries plus its telemetry snapshot; only the coordinator
commits.  The store is the caller's
:class:`~repro.core.segments.SegmentStore`, or a temporary one removed
after the run.  Either way the campaign's corpus is the store's fold of
its seal-time partials
(:meth:`~repro.core.segments.SegmentedCorpusReader.load_indexed`), held
by its index until a record is read.

Failure containment is layered on top, because a months-long campaign
*will* lose workers (OOM kills, host reboots) and disks *will* corrupt
bytes:

* A shard attempt that raises, dies or overruns its ``shard_timeout``
  is forked again up to ``max_shard_retries`` times with capped
  exponential backoff.  A shard that keeps failing is sealed **inline**
  in the parent process rather than aborting the whole campaign.
  Shards are only ever merged once, whatever mix of attempts produced
  them, so the determinism invariant survives every recovery path.
  Each recovery is recorded on ``campaign.shard_failures`` as a
  :class:`ShardFailure`.
* The campaign proceeds in one-week windows, and every window ends with
  a manifest commit that moves the store's completed-week watermark;
  with the caller's store, ``resume_from_segments=True`` restarts at
  that watermark.  The caller's store is the only persistence: without
  one a crash loses the run.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..faults.chaos import maybe_fail_shard
from ..obs import DEFAULT_SIZE_BUCKETS
from .campaign import NTPCampaign
from .corpus import AddressCorpus
from .jobs import Outcome, backoff_delay, run_jobs
from .segments import SegmentBufferedCorpus, SegmentMeta, SegmentStore

__all__ = ["ShardFailure", "run_campaign_parallel"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardFailure:
    """One recovered shard failure, recorded on ``campaign.shard_failures``.

    ``action`` is ``"retried"`` when the shard was forked again and
    ``"inline"`` when retries were exhausted and the shard was sealed in
    the parent process instead.  ``kind`` classifies the failure:
    ``"exception"`` (the shard raised), ``"worker-death"`` (its process
    died without a report), or ``"timeout"`` (the attempt overran its
    own ``shard_timeout`` deadline, counted from its fork, and was
    killed).
    """

    window: Tuple[int, int]
    shard_index: int
    attempt: int
    error: str
    action: str
    kind: str = "exception"


def _seal_shard(
    campaign: NTPCampaign,
    store: SegmentStore,
    window: Tuple[int, int],
    shard_index: int,
    shard_count: int,
) -> Tuple[List[SegmentMeta], dict]:
    """Collect one shard's week window into sealed segment files.

    Runs a fresh :class:`NTPCampaign`, with its own registry, on
    ``campaign``'s world.  Its accumulation corpus is a
    :class:`SegmentBufferedCorpus` bounded by the store's byte budget,
    so shard memory never grows with campaign length.  Returns the
    sealed segments' manifest entries plus the shard's telemetry
    snapshot.  Shards never touch the manifest; a retried shard
    regenerates byte-identical files under identical ids, so
    overwriting a dead attempt's leftovers is always safe.
    """
    start_week, end_week = window
    shard = NTPCampaign(campaign.world, campaign.config)
    writer = SegmentStore(
        store.directory,
        name=shard.corpus.name,
        segment_bytes=store.segment_bytes,
        metrics=shard.metrics,
    )
    # The context manager seals the unsealed tail on clean exit — a
    # window that never crosses the flush budget still reaches disk.
    with SegmentBufferedCorpus(
        shard.corpus.name,
        writer,
        shard_index=shard_index,
        write_fault=shard.fault_injector,
    ) as buffered:
        buffered.set_window(start_week * 7, end_week * 7)
        shard.corpus = buffered
        shard.run(
            start_week,
            end_week,
            shard_index=shard_index,
            shard_count=shard_count,
        )
    return buffered.take_sealed(), shard.metrics.snapshot()


def run_campaign_parallel(
    campaign: NTPCampaign,
    *,
    workers: int = 1,
    shard_count: Optional[int] = None,
    segment_store: Optional[SegmentStore] = None,
    resume_from_segments: bool = False,
    end_week: Optional[int] = None,
    max_shard_retries: int = 2,
    retry_backoff: float = 0.5,
    retry_backoff_cap: float = 30.0,
    shard_timeout: Optional[float] = None,
) -> AddressCorpus:
    """Run a campaign sharded across processes, one week window at a time.

    The result accumulates into ``campaign.corpus`` (exactly as a serial
    :meth:`NTPCampaign.run` would) and is also returned.

    * ``workers`` — how many shard processes run at once; 1 runs
      in-process but still commits every window to ``segment_store``.
    * ``shard_count`` — device partitions per window; defaults to
      ``workers``.  Any value yields the identical merged corpus.
    * ``segment_store`` — crash-safe persistence: the manifest is
      committed after each completed week, so the coordinator never
      holds the whole corpus while collecting.  The final folded
      corpus is bit-identical to the monolithic run for any flush
      budget and shard count.  Without a store, sharded runs seal into
      a temporary one that is removed once folded.
    * ``resume_from_segments`` — continue from ``segment_store``'s
      committed manifest watermark (no corpus load needed); the
      manifest's telemetry snapshot is folded in, so counters stay
      cumulative across the resume.
    * ``max_shard_retries`` — a failed shard is forked again this many
      times (with capped exponential backoff starting at
      ``retry_backoff`` seconds) before it is sealed inline in the
      parent.  Every recovery is recorded on ``campaign.shard_failures``.
    * ``shard_timeout`` — wall-clock budget in seconds for one shard
      attempt, counted from its fork, so time a shard spends waiting
      for a free worker is never charged to it.  Without it a hung
      shard stalls the campaign forever; with it an overrunning
      attempt is killed and recorded as a :class:`ShardFailure` with
      ``kind="timeout"`` before the normal capped-backoff retry path.
    """
    config = campaign.config
    if end_week is None:
        end_week = config.weeks
    if not 0 < end_week <= config.weeks:
        raise ValueError(f"bad week window: [0, {end_week})")
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
        "repro_shard_attempts_total", "shard attempts forked"
    )
    m_retries = metrics.counter(
        "repro_shard_retries_total", "failed shards forked again"
    )
    m_inline = metrics.counter(
        "repro_shard_inline_total",
        "shards degraded to inline execution after exhausting retries",
    )
    m_failures = metrics.counter(
        "repro_shard_failures_total",
        "recovered shard failures (matches campaign.shard_failures)",
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

    current_week = 0
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
            current_week = manifest.completed_weeks
        elif manifest is not None and manifest.segments:
            raise ValueError(
                f"segment directory {segment_store.directory} already holds "
                "a committed manifest; pass resume_from_segments=True to "
                "continue it, or point at a fresh directory"
            )

    def windows():
        for week in range(current_week, end_week):
            yield week, week + 1

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
            campaign.corpus = segment_store.reader().load_indexed(
                buffered.name
            )
            return campaign.corpus
        for window_start, window_end in windows():
            with metrics.span("campaign-window"):
                campaign.run(window_start, window_end)
        return campaign.corpus

    def collect_window(
        store: SegmentStore, window: Tuple[int, int]
    ) -> List[SegmentMeta]:
        # Completed shard reports keyed by shard index: a shard is
        # merged exactly once, no matter how many attempts (or which
        # execution path) produced it.
        completed: Dict[int, Tuple[List[SegmentMeta], dict]] = {}
        exhausted: List[int] = []

        def shard_attempt(index: int) -> Tuple[List[SegmentMeta], dict]:
            maybe_fail_shard(index)
            return _seal_shard(campaign, store, window, index, shard_count)

        def settle(outcome: Outcome) -> Optional[float]:
            index = outcome.key
            if outcome.ok:
                completed[index] = outcome.value
                return None
            if outcome.timed_out:
                kind = "timeout"
                error = (
                    f"shard overran its {shard_timeout}s wall-clock "
                    "deadline; worker killed"
                )
                m_timeouts.inc()
            elif outcome.error is not None:
                kind, error = "exception", outcome.error
            else:
                kind = "worker-death"
                error = (
                    f"worker died with exit code {outcome.exitcode} "
                    "before reporting"
                )
            retry = outcome.attempt <= max_shard_retries
            action = "retried" if retry else "inline"
            campaign.shard_failures.append(
                ShardFailure(
                    window=window,
                    shard_index=index,
                    attempt=outcome.attempt,
                    error=error,
                    action=action,
                    kind=kind,
                )
            )
            m_failures.inc()
            logger.warning(
                "shard %d of window %s failed (attempt %d, %s): %s -> %s",
                index,
                window,
                outcome.attempt,
                kind,
                error,
                action,
            )
            if not retry:
                m_inline.inc()
                exhausted.append(index)
                return None
            m_retries.inc()
            return backoff_delay(
                outcome.attempt, retry_backoff, retry_backoff_cap
            )

        run_jobs(
            range(shard_count),
            shard_attempt,
            settle,
            workers=workers,
            timeout=shard_timeout,
            started=lambda index, attempt: m_attempts.inc(),
        )
        for index in exhausted:
            # Retries exhausted: contain the failure by sealing the
            # shard in this process (the chaos hooks are bypassed).
            completed[index] = _seal_shard(
                campaign, store, window, index, shard_count
            )
        # Merge in sorted shard order so both the manifest and the
        # folded telemetry are independent of completion order.
        batch: List[SegmentMeta] = []
        for index in sorted(completed):
            metas, shard_snapshot = completed[index]
            m_merge.observe(sum(meta.records for meta in metas))
            batch.extend(metas)
            metrics.merge_snapshot(shard_snapshot)
        return batch

    scratch = None
    store = segment_store
    if store is None:
        scratch = tempfile.mkdtemp(prefix="repro-shards-")
        store = SegmentStore(scratch, name=campaign.corpus.name)
    try:
        for window in windows():
            with metrics.span("campaign-window"):
                batch = collect_window(store, window)
            # Every segment in the batch is durably on disk (the shards
            # that sealed them have reported), so naming them in the
            # manifest can never reference a torn file.
            store.commit(
                batch, completed_weeks=window[1], metrics=metrics.snapshot()
            )
        # The parent never held shard corpora; fold the committed
        # segments' partials (bit-identical to the monolithic run for
        # any budget and shard count).
        campaign.corpus = store.reader().load_indexed(campaign.corpus.name)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return campaign.corpus

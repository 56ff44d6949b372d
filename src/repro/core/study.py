"""Full-study orchestration: all three datasets over one world.

Runs the campaigns with the paper's relative timing (§3):

* **NTP collection** — weeks 0–31 (25 Jan → 31 Aug 2022);
* **IPv6 Hitlist** — weekly snapshots from week 3 (16 Feb) to week 31;
* **CAIDA routed /48** — weeks 1–10 (3 Feb → 6 Apr).

Returns the three corpora plus the service objects experiments interrogate
(the Hitlist's alias list, the campaign for backscanning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..faults.plan import FaultPlan
from ..obs import MetricsRegistry
from ..scan.caida import CAIDACampaign
from ..scan.hitlist_service import HitlistService
from ..world.clock import WEEK
from ..world.world import World
from .campaign import CampaignConfig, NTPCampaign
from .corpus import AddressCorpus
from .index import CorpusIndex
from .parallel import run_campaign_parallel
from .segments import DEFAULT_SEGMENT_BYTES, SegmentStore

__all__ = ["ExecutionOptions", "StudyConfig", "StudyResults", "run_study"]

#: Week offsets of the comparison campaigns within the study (§3).
HITLIST_FIRST_WEEK = 3
CAIDA_FIRST_WEEK = 1
CAIDA_LAST_WEEK = 10


@dataclass
class ExecutionOptions:
    """How a study *executes* — everything orthogonal to the science.

    Scale-out, persistence, resume, fault injection and telemetry live
    here, in one value, so :class:`StudyConfig` keeps only what changes
    the simulated world's observations.  The one persistence mode is a
    streaming ``segment_dir`` store: its memory footprint is bounded by
    ``segment_bytes`` however long the campaign runs, and
    ``resume_from_segments`` continues it.
    """

    #: Worker processes for the NTP collection; 1 keeps the serial path.
    workers: int = 1
    #: Segment-store directory: collection streams sealed segment files
    #: there instead of accumulating one monolithic in-memory corpus.
    segment_dir: Optional[str] = None
    #: Flush budget — a buffer is sealed into a segment file once its
    #: estimated serialized size crosses this many bytes.
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: Continue a segmented campaign from its committed manifest.
    resume_from_segments: bool = False
    #: Fault-injection plan threaded into the NTP collection; ``None``
    #: (or a zero plan) keeps the fault-free behaviour byte-identical.
    faults: Optional[FaultPlan] = None
    #: Failed shards are resubmitted this many times before degrading
    #: to inline execution.
    max_shard_retries: int = 2
    #: Wall-clock seconds one shard attempt may take, counted from its
    #: start, before it is killed and the shard retried (``None``
    #: disables the deadline).
    shard_timeout: Optional[float] = None
    #: Telemetry registry shared by every study stage (a fresh one is
    #: created per run when ``None``).
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0: {self.max_shard_retries}"
            )
        if self.segment_bytes < 1:
            raise ValueError(
                f"segment byte budget must be >= 1: {self.segment_bytes}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0: {self.shard_timeout}"
            )
        if self.resume_from_segments and self.segment_dir is None:
            raise ValueError("resume_from_segments=True needs a segment_dir")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, not {type(self.faults).__name__}"
            )


class StudyConfig:
    """Scale and seeding of a full study run.

    Science knobs (study span, seeds, model fractions) are direct
    parameters; everything about *how* the study executes travels in
    one :class:`ExecutionOptions` value::

        StudyConfig(start=EPOCH, seed=7,
                    execution=ExecutionOptions(workers=4, segment_dir="seg"))
    """

    def __init__(
        self,
        start: float,
        weeks: int = 31,
        seed: int = 0,
        hitlist_seed_fraction: float = 0.5,
        hitlist_cpe_seed_fraction: float = 0.55,
        caida_cycle_days: float = 14.0,
        full_packet_path: bool = True,
        execution: Optional[ExecutionOptions] = None,
    ) -> None:
        if weeks < CAIDA_LAST_WEEK:
            raise ValueError(
                f"study must span at least {CAIDA_LAST_WEEK} weeks"
            )
        self.start = start
        self.weeks = weeks
        self.seed = seed
        self.hitlist_seed_fraction = hitlist_seed_fraction
        self.hitlist_cpe_seed_fraction = hitlist_cpe_seed_fraction
        self.caida_cycle_days = caida_cycle_days
        self.full_packet_path = full_packet_path
        self.execution = (
            ExecutionOptions() if execution is None else execution
        )

    def __repr__(self) -> str:
        return (
            f"StudyConfig(start={self.start!r}, weeks={self.weeks}, "
            f"seed={self.seed}, execution={self.execution!r})"
        )


@dataclass
class StudyResults:
    """Everything a full study produces."""

    ntp: AddressCorpus
    hitlist: AddressCorpus
    caida: AddressCorpus
    campaign: NTPCampaign
    hitlist_service: HitlistService
    caida_campaign: CAIDACampaign
    #: The study-wide telemetry registry: every stage span, campaign
    #: counter and fault counter recorded while the study ran.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Wall-clock seconds per recorded stage span, in execution
        order (the ``--profile`` dump) — a view over :attr:`metrics`."""
        return self.metrics.span_seconds()

    def corpora(self):
        """The three datasets in the paper's Table 1 order."""
        return [self.ntp, self.hitlist, self.caida]


def run_study(
    world: World,
    config: StudyConfig,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> StudyResults:
    """Run all three campaigns against one world, then index the corpora.

    All stages share one :class:`MetricsRegistry` (``metrics``, else
    ``config.execution.metrics``, else a fresh one); telemetry never
    feeds back into any keyed-RNG decision, so a metered study is
    bit-identical to an unmetered one.

    Execution options come from ``config.execution``.
    """
    execution = config.execution
    registry = metrics if metrics is not None else execution.metrics
    if registry is None:
        registry = MetricsRegistry()
    campaign = NTPCampaign(
        world,
        CampaignConfig(
            start=config.start,
            weeks=config.weeks,
            seed=config.seed,
            full_packet_path=config.full_packet_path,
            faults=execution.faults,
        ),
        metrics=registry,
    )
    segment_store = None
    with registry.span("ntp-collection"):
        if execution.workers > 1 or execution.segment_dir:
            if execution.segment_dir is not None:
                segment_store = SegmentStore(
                    execution.segment_dir,
                    name=campaign.corpus.name,
                    segment_bytes=execution.segment_bytes,
                    metrics=registry,
                )
            ntp_corpus = run_campaign_parallel(
                campaign,
                workers=execution.workers,
                segment_store=segment_store,
                resume_from_segments=execution.resume_from_segments,
                max_shard_retries=execution.max_shard_retries,
                shard_timeout=execution.shard_timeout,
            )
        else:
            ntp_corpus = campaign.run()

    vantage_asns = sorted({vantage.asn for vantage in world.vantages})
    hitlist_service = HitlistService(
        world,
        vantage_asns[0],
        seed_fraction=config.hitlist_seed_fraction,
        cpe_seed_fraction=config.hitlist_cpe_seed_fraction,
        seed=config.seed + 1,
        metrics=registry,
    )
    with registry.span("hitlist-snapshots"):
        hitlist_history = hitlist_service.run(
            config.start + HITLIST_FIRST_WEEK * WEEK,
            config.weeks - HITLIST_FIRST_WEEK,
        )
    hitlist_corpus = AddressCorpus.from_history("ipv6-hitlist", hitlist_history)

    caida_campaign = CAIDACampaign(world, vantage_asns, seed=config.seed + 2)
    with registry.span("caida-routed-48"):
        caida_history = caida_campaign.run(
            config.start + CAIDA_FIRST_WEEK * WEEK,
            config.start + CAIDA_LAST_WEEK * WEEK,
            cycle_days=config.caida_cycle_days,
        )
    caida_corpus = AddressCorpus.from_history("caida-routed-48", caida_history)

    with registry.span("corpus-index"):
        if segment_store is not None:
            # Incremental path: fold the seal-time partial indexes
            # instead of rescanning every sealed segment the campaign
            # just wrote (repro_index_segments_reused_total counts the
            # segments answered without a re-read).
            ntp_index = segment_store.reader().build_index(
                name=ntp_corpus.name
            )
        else:
            ntp_index = CorpusIndex.build(ntp_corpus, metrics=registry)
        ntp_corpus.attach_index(ntp_index)
        for corpus in (hitlist_corpus, caida_corpus):
            corpus.attach_index(CorpusIndex.build(corpus, metrics=registry))

    return StudyResults(
        ntp=ntp_corpus,
        hitlist=hitlist_corpus,
        caida=caida_corpus,
        campaign=campaign,
        hitlist_service=hitlist_service,
        caida_campaign=caida_campaign,
        metrics=registry,
    )

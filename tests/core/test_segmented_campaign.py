"""End-to-end tests for segmented campaign execution and resume.

Acceptance invariant (ISSUE 5): a segmented campaign — any flush
budget, serial or sharded (workers 1/2/4), with or without a fault
plan — produces a corpus **bit-identical** to the monolithic in-memory
run, and a run resumed from the manifest watermark is bit-identical to
an uninterrupted one.
"""

import io

import pytest

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.parallel import run_campaign_parallel
from repro.core.segments import SegmentStore
from repro.core.storage import save_corpus_binary
from repro.faults import FaultPlan
from repro.world import CAMPAIGN_EPOCH

WEEKS = 2
FAULTS = FaultPlan(
    seed=11,
    vantage_flap_rate=0.3,
    outage_duration=6 * 3600.0,
    packet_loss=0.1,
    corruption_rate=0.05,
)


def make_campaign(world, weeks=WEEKS, **overrides):
    config = CampaignConfig(
        start=CAMPAIGN_EPOCH, weeks=weeks, seed=5, **overrides
    )
    return NTPCampaign(world, config)


def corpus_bytes(corpus) -> bytes:
    buffer = io.BytesIO()
    save_corpus_binary(corpus, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def serial_bytes(core_world):
    return corpus_bytes(make_campaign(core_world).run())


@pytest.fixture(scope="module")
def faulty_serial_bytes(core_world):
    return corpus_bytes(make_campaign(core_world, faults=FAULTS).run())


class TestSegmentedIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_reproduce_monolithic_bytes(
        self, core_world, serial_bytes, workers, tmp_path
    ):
        campaign = make_campaign(core_world)
        store = SegmentStore(tmp_path, name="ntp-pool", segment_bytes=4096)
        merged = run_campaign_parallel(
            campaign, workers=workers, segment_store=store
        )
        assert corpus_bytes(merged) == serial_bytes
        assert merged is campaign.corpus
        manifest = store.load_manifest()
        assert manifest.completed_weeks == WEEKS
        assert len(manifest.segments) > 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fault_plan_reproduces_faulty_serial_bytes(
        self, core_world, faulty_serial_bytes, workers, tmp_path
    ):
        campaign = make_campaign(core_world, faults=FAULTS)
        store = SegmentStore(tmp_path, name="ntp-pool", segment_bytes=4096)
        merged = run_campaign_parallel(
            campaign, workers=workers, segment_store=store
        )
        assert corpus_bytes(merged) == faulty_serial_bytes

    def test_flush_budget_does_not_change_bytes(
        self, core_world, serial_bytes, tmp_path
    ):
        for budget in (1, 64 * 1024 * 1024):
            store = SegmentStore(
                tmp_path / str(budget), name="ntp-pool", segment_bytes=budget
            )
            merged = run_campaign_parallel(
                make_campaign(core_world), workers=2, segment_store=store
            )
            assert corpus_bytes(merged) == serial_bytes

    def test_segment_write_faults_leave_corpus_identical(
        self, core_world, serial_bytes, tmp_path
    ):
        """segfail exercises the retry path but never changes contents."""
        plan = FaultPlan(seed=3, segment_write_failure_rate=0.4)
        assert not plan.is_zero
        campaign = make_campaign(core_world, faults=plan)
        store = SegmentStore(
            tmp_path,
            name="ntp-pool",
            segment_bytes=4096,
            metrics=campaign.metrics,
        )
        merged = run_campaign_parallel(
            campaign, workers=1, segment_store=store
        )
        assert corpus_bytes(merged) == serial_bytes
        retries = campaign.metrics.counter_value(
            "repro_segment_flush_retries_total"
        )
        assert retries > 0

    def test_fresh_run_refuses_existing_manifest(self, core_world, tmp_path):
        store = SegmentStore(tmp_path, name="ntp-pool")
        run_campaign_parallel(
            make_campaign(core_world), segment_store=store, end_week=1
        )
        with pytest.raises(ValueError, match="already holds"):
            run_campaign_parallel(
                make_campaign(core_world),
                segment_store=SegmentStore(tmp_path, name="ntp-pool"),
            )


class TestManifestResume:
    def test_resume_from_manifest_watermark(
        self, core_world, serial_bytes, tmp_path
    ):
        store = SegmentStore(tmp_path, name="ntp-pool", segment_bytes=4096)
        run_campaign_parallel(
            make_campaign(core_world),
            workers=2,
            segment_store=store,
            end_week=1,
        )
        assert store.load_manifest().completed_weeks == 1

        resumed = run_campaign_parallel(
            make_campaign(core_world),
            workers=2,
            segment_store=SegmentStore(
                tmp_path, name="ntp-pool", segment_bytes=4096
            ),
            resume_from_segments=True,
        )
        assert corpus_bytes(resumed) == serial_bytes

    def test_resume_without_manifest_raises(self, core_world, tmp_path):
        with pytest.raises(FileNotFoundError, match="no segment manifest"):
            run_campaign_parallel(
                make_campaign(core_world),
                segment_store=SegmentStore(tmp_path),
                resume_from_segments=True,
            )

    def test_serial_resume_from_manifest_watermark(
        self, core_world, serial_bytes, tmp_path
    ):
        store = SegmentStore(tmp_path, name="ntp-pool", segment_bytes=4096)
        run_campaign_parallel(
            make_campaign(core_world),
            workers=1,
            segment_store=store,
            end_week=1,
        )
        assert store.load_manifest().completed_weeks == 1

        resumed = run_campaign_parallel(
            make_campaign(core_world),
            workers=1,
            segment_store=SegmentStore(
                tmp_path, name="ntp-pool", segment_bytes=4096
            ),
            resume_from_segments=True,
        )
        assert corpus_bytes(resumed) == serial_bytes
        assert store.load_manifest().completed_weeks == WEEKS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_metrics_are_cumulative(
        self, core_world, workers, tmp_path
    ):
        # An uninterrupted run's counters are the reference; a run
        # stopped after week 1 and resumed from the manifest must report
        # the same cumulative totals, not just the post-resume remainder.
        reference = make_campaign(core_world)
        run_campaign_parallel(
            reference,
            workers=workers,
            segment_store=SegmentStore(tmp_path / "reference"),
        )

        seg_dir = tmp_path / "resumed"
        run_campaign_parallel(
            make_campaign(core_world),
            workers=workers,
            segment_store=SegmentStore(seg_dir),
            end_week=1,
        )
        resumed = make_campaign(core_world)
        merged = run_campaign_parallel(
            resumed,
            workers=workers,
            segment_store=SegmentStore(seg_dir),
            resume_from_segments=True,
        )
        assert corpus_bytes(merged) == corpus_bytes(reference.corpus)
        for name in (
            "repro_campaign_queries_total",
            "repro_campaign_captured_total",
            "repro_campaign_observations_total",
        ):
            assert resumed.metrics.counter_value(
                name
            ) == reference.metrics.counter_value(name), name

    def test_manifest_ahead_of_window_rejected(self, core_world, tmp_path):
        run_campaign_parallel(
            make_campaign(core_world), segment_store=SegmentStore(tmp_path)
        )
        with pytest.raises(ValueError, match="ahead of the requested window"):
            run_campaign_parallel(
                make_campaign(core_world),
                segment_store=SegmentStore(tmp_path),
                resume_from_segments=True,
                end_week=1,
            )

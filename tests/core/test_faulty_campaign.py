"""Tests for fault injection threaded through the collection stack.

Two invariants anchor everything:

* a **zero-fault plan is invisible** — campaigns configured with
  ``FaultPlan.none()`` produce corpora byte-identical to campaigns with
  no plan at all, and
* a **non-zero plan is deterministic** — the same seed and plan replay
  the same faults for any worker/shard count, so sharded faulty runs
  still merge to the serial faulty corpus exactly.
"""

import io

import pytest

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.parallel import run_campaign_parallel
from repro.core.storage import save_corpus_binary
from repro.faults import FaultPlan
from repro.world import CAMPAIGN_EPOCH

FAULTS = FaultPlan(
    seed=9,
    vantage_flap_rate=0.3,
    outage_duration=6 * 3600.0,
    packet_loss=0.05,
    country_loss=(("BR", 0.3),),
    corruption_rate=0.02,
)


def make_campaign(world, faults=None, weeks=2, **overrides):
    config = CampaignConfig(
        start=CAMPAIGN_EPOCH, weeks=weeks, seed=5, faults=faults, **overrides
    )
    return NTPCampaign(world, config)


def corpus_bytes(corpus):
    stream = io.BytesIO()
    save_corpus_binary(corpus, stream)
    return stream.getvalue()


@pytest.fixture(scope="module")
def clean_corpus(core_world):
    return make_campaign(core_world).run()


@pytest.fixture(scope="module")
def faulty_corpus(core_world):
    return make_campaign(core_world, faults=FAULTS).run()


class TestZeroPlanInvisibility:
    def test_none_plan_is_byte_identical_to_no_plan(
        self, core_world, clean_corpus
    ):
        campaign = make_campaign(core_world, faults=FaultPlan.none())
        assert campaign._injector is None  # fast path engaged
        assert corpus_bytes(campaign.run()) == corpus_bytes(clean_corpus)

    def test_zero_rate_plan_is_byte_identical_too(
        self, core_world, clean_corpus
    ):
        plan = FaultPlan(seed=99, country_loss=(("BR", 0.0),))
        campaign = make_campaign(core_world, faults=plan)
        assert corpus_bytes(campaign.run()) == corpus_bytes(clean_corpus)

    def test_config_rejects_non_plan(self, core_world):
        with pytest.raises(TypeError):
            make_campaign(core_world, faults="flap=0.2")


class TestFaultyDeterminism:
    def test_faulty_differs_from_clean(self, clean_corpus, faulty_corpus):
        assert corpus_bytes(faulty_corpus) != corpus_bytes(clean_corpus)
        # Faults only ever remove observations, never invent addresses.
        assert set(faulty_corpus.addresses()) <= set(clean_corpus.addresses())

    def test_serial_rerun_is_byte_identical(self, core_world, faulty_corpus):
        rerun = make_campaign(core_world, faults=FAULTS).run()
        assert corpus_bytes(rerun) == corpus_bytes(faulty_corpus)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_faulty_run_matches_serial(
        self, core_world, faulty_corpus, workers
    ):
        campaign = make_campaign(core_world, faults=FAULTS)
        merged = run_campaign_parallel(campaign, workers=workers)
        assert corpus_bytes(merged) == corpus_bytes(faulty_corpus)

    def test_shard_count_independent(self, core_world, faulty_corpus):
        campaign = make_campaign(core_world, faults=FAULTS)
        merged = run_campaign_parallel(campaign, workers=2, shard_count=5)
        assert corpus_bytes(merged) == corpus_bytes(faulty_corpus)

    def test_different_fault_seed_differs(self, core_world, faulty_corpus):
        other = FaultPlan(
            seed=10,
            vantage_flap_rate=0.3,
            outage_duration=6 * 3600.0,
            packet_loss=0.05,
            country_loss=(("BR", 0.3),),
            corruption_rate=0.02,
        )
        rerun = make_campaign(core_world, faults=other).run()
        assert corpus_bytes(rerun) != corpus_bytes(faulty_corpus)


class TestDegradation:
    def test_corruption_increments_malformed_not_raises(self, core_world):
        campaign = make_campaign(
            core_world, faults=FaultPlan(seed=9, corruption_rate=0.5)
        )
        campaign.run(0, 1)
        stats = [server.stats for server in campaign.servers.values()]
        assert sum(s.malformed + s.dropped_mode for s in stats) > 0
        # Every datagram was accounted for: served, malformed or dropped.
        for s in stats:
            assert s.requests == s.responses + s.malformed + s.dropped_mode

    def test_ablation_mode_drops_corrupted(self, core_world):
        plan = FaultPlan(seed=9, corruption_rate=0.5)
        full = make_campaign(core_world, faults=plan).run()
        ablated = make_campaign(
            core_world, faults=plan, full_packet_path=False
        ).run()
        # The ablation approximates corrupted -> dropped, so it records
        # no more than the full path (bit flips may still parse there).
        assert len(ablated) <= len(full)

    def test_total_loss_records_nothing(self, core_world):
        campaign = make_campaign(
            core_world, faults=FaultPlan(seed=9, packet_loss=1.0)
        )
        assert len(campaign.run(0, 1)) == 0

    def test_pool_rotation_filter_installed(self, core_world):
        campaign = make_campaign(core_world, faults=FAULTS)
        assert campaign.pool._rotation_filter is not None
        clean = make_campaign(core_world)
        assert clean.pool._rotation_filter is None


class TestReplay:
    def test_captured_events_replay_faulty_run(self, core_world):
        campaign = make_campaign(core_world, faults=FAULTS)
        delivered = []
        original_deliver = campaign._deliver

        def spying_deliver(client_address, when, vantage_address, datagram=None):
            original_deliver(client_address, when, vantage_address, datagram)
            server = campaign.servers[vantage_address]
            delivered.append(
                (when, client_address, vantage_address, server.stats.responses)
            )

        campaign._deliver = spying_deliver
        campaign.run(0, 1)
        # Keep only deliveries the vantage actually recorded (corrupted
        # datagrams that failed to parse were counted, not recorded).
        recorded = []
        last_responses = {}
        for when, client, vantage, responses in delivered:
            if responses > last_responses.get(vantage, 0):
                recorded.append((when, client, vantage))
            last_responses[vantage] = responses
        replayed = [
            event
            for day in range(7)
            for event in campaign.captured_events_on_day(day)
        ]
        assert sorted(recorded) == sorted(replayed)


class TestAvailabilityReporting:
    def test_no_plan_reports_full_availability(self, core_world):
        campaign = make_campaign(core_world)
        availability = campaign.vantage_availability()
        assert len(availability) == len(core_world.vantages)
        assert all(t.fraction == 1.0 for _, t in availability)
        assert all(t.ejections == 0 for _, t in availability)

    def test_flapping_shows_in_availability(self, core_world):
        campaign = make_campaign(
            core_world,
            faults=FaultPlan(
                seed=9, vantage_flap_rate=0.6, outage_duration=12 * 3600.0
            ),
            weeks=4,
        )
        availability = campaign.vantage_availability()
        assert any(t.ejections > 0 for _, t in availability)
        assert any(t.fraction < 1.0 for _, t in availability)

    def test_study_report_includes_availability(self, core_world):
        from repro.analysis.report import study_report
        from repro.core import ExecutionOptions, StudyConfig, run_study

        plan = FaultPlan(
            seed=9, vantage_flap_rate=0.5, outage_duration=12 * 3600.0
        )
        results = run_study(
            core_world,
            StudyConfig(
                start=CAMPAIGN_EPOCH,
                weeks=10,
                seed=31,
                execution=ExecutionOptions(faults=plan),
            ),
        )
        text = study_report(core_world, results)
        assert "vantage availability" in text
        assert "in DNS rotation" in text

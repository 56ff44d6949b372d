"""Tests for repro.core.parallel — sharded in-memory execution.

The load-bearing invariant: because every capture decision draws from
``split_rng(seed, "capture", device_id, day)``, partitioning the device
population across processes and merging the per-shard corpora must
reproduce the serial corpus *exactly* — same addresses, same first/last
timestamps, same observation counts — for any worker or shard count.
"""

import io

import pytest

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.corpus import AddressCorpus
from repro.core.parallel import ShardSpec, run_campaign_parallel, run_shard
from repro.core.storage import save_corpus_binary
from repro.world import CAMPAIGN_EPOCH


def make_campaign(world, weeks=2, **overrides):
    config = CampaignConfig(
        start=CAMPAIGN_EPOCH, weeks=weeks, seed=5, **overrides
    )
    return NTPCampaign(world, config)


def records(corpus):
    return dict(corpus.items())


@pytest.fixture(scope="module")
def serial_corpus(core_world):
    return make_campaign(core_world).run()


class TestShardedIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_reproduce_serial_run(
        self, core_world, serial_corpus, workers
    ):
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(campaign, workers=workers)
        assert records(merged) == records(serial_corpus)
        assert merged is campaign.corpus

    def test_shard_count_independent_of_workers(
        self, core_world, serial_corpus
    ):
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(campaign, workers=2, shard_count=5)
        assert records(merged) == records(serial_corpus)

    def test_serialized_bytes_identical(self, core_world, serial_corpus):
        # Saves are canonically ordered, so the sharded corpus is
        # bit-identical to the serial one on disk, not just record-equal.
        campaign = make_campaign(core_world)
        run_campaign_parallel(campaign, workers=4)
        serial_bytes, sharded_bytes = io.BytesIO(), io.BytesIO()
        save_corpus_binary(serial_corpus, serial_bytes)
        save_corpus_binary(campaign.corpus, sharded_bytes)
        assert serial_bytes.getvalue() == sharded_bytes.getvalue()

    def test_in_process_shards_partition_devices(
        self, core_world, serial_corpus
    ):
        # Shards computed directly (no pool) also merge to the serial run.
        merged = AddressCorpus("merged")
        for index in range(3):
            shard = make_campaign(core_world)
            shard.run(shard_index=index, shard_count=3)
            merged.merge(shard.corpus)
        assert records(merged) == records(serial_corpus)

    def test_run_shard_matches_in_process(self, core_world):
        spec = ShardSpec(
            world_config=core_world.config,
            campaign_config=CampaignConfig(
                start=CAMPAIGN_EPOCH, weeks=2, seed=5
            ),
            shard_index=0,
            shard_count=2,
            start_week=0,
            end_week=2,
        )
        worker_corpus = run_shard(spec)
        local = make_campaign(core_world)
        local.run(shard_index=0, shard_count=2)
        assert records(worker_corpus) == records(local.corpus)


class TestValidation:
    def test_bad_workers(self, core_world):
        with pytest.raises(ValueError):
            run_campaign_parallel(make_campaign(core_world), workers=0)

    def test_bad_shard_count(self, core_world):
        with pytest.raises(ValueError):
            run_campaign_parallel(
                make_campaign(core_world), workers=2, shard_count=0
            )

    def test_bad_window(self, core_world):
        with pytest.raises(ValueError):
            run_campaign_parallel(make_campaign(core_world), end_week=99)

    def test_campaign_shard_arguments(self, core_world):
        campaign = make_campaign(core_world)
        with pytest.raises(ValueError):
            campaign.run(shard_index=2, shard_count=2)
        with pytest.raises(ValueError):
            campaign.run(shard_index=-1, shard_count=2)
        with pytest.raises(ValueError):
            campaign.run(shard_count=0)

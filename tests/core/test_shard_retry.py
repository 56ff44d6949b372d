"""Tests for shard retry, backoff and crash containment in the executor.

Real failures are injected through the ``REPRO_CHAOS_*`` environment
protocol (see :mod:`repro.faults.chaos`): token files in a directory,
each consumed by one induced failure, in either ``raise`` mode (the
worker raises, exercising the retry path) or ``kill`` mode (the worker
process hard-exits, breaking the process pool and exercising rebuild
containment).  Every recovery path must still merge to the serial
corpus exactly.
"""

import io
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.parallel import ShardFailure, run_campaign_parallel
from repro.core.segments import SegmentedCorpusReader, SegmentStore
from repro.core.storage import save_corpus_binary
from repro.world import CAMPAIGN_EPOCH


def make_campaign(world, weeks=1):
    return NTPCampaign(
        world, CampaignConfig(start=CAMPAIGN_EPOCH, weeks=weeks, seed=5)
    )


def records(corpus):
    return dict(corpus.items())


def corpus_bytes(corpus) -> bytes:
    buffer = io.BytesIO()
    save_corpus_binary(corpus, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def serial_corpus(core_world):
    return make_campaign(core_world).run()


@pytest.fixture()
def chaos(tmp_path, monkeypatch):
    """Arm the chaos hooks; returns a token-dropper."""
    tokens = tmp_path / "chaos-tokens"
    tokens.mkdir()
    monkeypatch.setenv("REPRO_CHAOS_TOKENS", str(tokens))
    monkeypatch.delenv("REPRO_CHAOS_SHARD", raising=False)
    monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")

    def arm(count, mode="raise", shard=None):
        monkeypatch.setenv("REPRO_CHAOS_MODE", mode)
        if shard is not None:
            monkeypatch.setenv("REPRO_CHAOS_SHARD", str(shard))
        for index in range(count):
            (tokens / f"token-{index}").touch()
        return tokens

    return arm


class TestRaiseMode:
    def test_raised_shard_is_retried(self, core_world, serial_corpus, chaos):
        chaos(1, mode="raise")
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        assert len(campaign.shard_failures) == 1
        failure = campaign.shard_failures[0]
        assert isinstance(failure, ShardFailure)
        assert failure.action == "retried"
        assert failure.attempt == 1
        assert "ChaosInjected" in failure.error

    def test_repeated_failures_degrade_to_inline(
        self, core_world, serial_corpus, chaos
    ):
        # Plenty of tokens targeting shard 0: every pool attempt fails,
        # so after max_shard_retries the shard is recomputed inline —
        # the campaign must complete rather than abort.
        chaos(10, mode="raise", shard=0)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, max_shard_retries=1, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        actions = [f.action for f in campaign.shard_failures]
        assert actions == ["retried", "inline"]
        assert all(
            f.shard_index == 0 for f in campaign.shard_failures
        )

    def test_zero_retries_goes_straight_inline(
        self, core_world, serial_corpus, chaos
    ):
        chaos(1, mode="raise")
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, max_shard_retries=0, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        assert [f.action for f in campaign.shard_failures] == ["inline"]


class TestKillMode:
    def test_killed_worker_is_contained(
        self, core_world, serial_corpus, chaos
    ):
        # A worker hard-exiting breaks the whole ProcessPoolExecutor;
        # the executor must rebuild the pool, retry, and still produce
        # the exact serial corpus.
        chaos(1, mode="kill")
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        assert campaign.shard_failures
        assert any("worker died" in f.error for f in campaign.shard_failures)
        assert all(f.action == "retried" for f in campaign.shard_failures)

    def test_death_during_submissions_is_recorded(
        self, core_world, serial_corpus, chaos, monkeypatch
    ):
        # Shard 0's worker dies before shard 1 is submitted, so that
        # submit() already finds the pool broken: the death must still
        # be charged to shard 0, and both shards must run again.
        chaos(1, mode="kill", shard=0)
        submit = ProcessPoolExecutor.submit
        waited = []

        def submit_then_wait(pool, fn, spec):
            future = submit(pool, fn, spec)
            if not waited:
                waited.append(spec.shard_index)
                future.exception(timeout=60)  # fails once the pool broke
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_wait)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        assert [
            (f.shard_index, f.kind, f.action) for f in campaign.shard_failures
        ] == [(0, "worker-death", "retried")]

    def test_kill_with_segment_store_still_resumable(
        self, core_world, serial_corpus, chaos, tmp_path
    ):
        # The kill breaks the pool mid-window.  Retried shards rewrite
        # identical segment files and the manifest names only segments
        # whose shards returned, so the store still reaches the full
        # watermark and folds to the serial bytes.
        chaos(1, mode="kill")
        campaign = make_campaign(core_world)
        run_campaign_parallel(
            campaign,
            workers=2,
            segment_store=SegmentStore(
                tmp_path, name="ntp-pool", segment_bytes=4096
            ),
            retry_backoff=0.0,
        )
        assert any("worker died" in f.error for f in campaign.shard_failures)
        reader = SegmentedCorpusReader.open(tmp_path)
        assert reader.completed_weeks == 1
        assert corpus_bytes(reader.load()) == corpus_bytes(serial_corpus)


class TestShardFailureRecords:
    def test_clean_run_records_nothing(self, core_world, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_TOKENS", raising=False)
        campaign = make_campaign(core_world)
        run_campaign_parallel(campaign, workers=2)
        assert campaign.shard_failures == []


class TestValidation:
    def test_bad_max_shard_retries(self, core_world):
        with pytest.raises(ValueError):
            run_campaign_parallel(
                make_campaign(core_world), workers=2, max_shard_retries=-1
            )

    def test_bad_backoff(self, core_world):
        with pytest.raises(ValueError):
            run_campaign_parallel(
                make_campaign(core_world), workers=2, retry_backoff=-0.5
            )
        with pytest.raises(ValueError):
            run_campaign_parallel(
                make_campaign(core_world), workers=2, retry_backoff_cap=0.0
            )

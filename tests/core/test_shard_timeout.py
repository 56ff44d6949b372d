"""Tests for the per-shard wall-clock timeout in the executor.

A hung worker is the one failure retry logic cannot see: it never
raises and never exits, so without a deadline the campaign stalls
forever.  These tests hang a real worker through the chaos ``hang``
mode and assert the executor kills it, records the attempt as a
``kind="timeout"`` :class:`ShardFailure`, retries through the normal
capped-backoff path, and still merges the exact serial corpus.  The
deadline belongs to each attempt, so a shard that waited for a free
worker is never charged for the wait.
"""

import multiprocessing

import pytest

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.parallel import run_campaign_parallel
from repro.world import CAMPAIGN_EPOCH


def make_campaign(world, weeks=1):
    return NTPCampaign(
        world, CampaignConfig(start=CAMPAIGN_EPOCH, weeks=weeks, seed=5)
    )


def records(corpus):
    return dict(corpus.items())


@pytest.fixture(scope="module")
def serial_corpus(core_world):
    return make_campaign(core_world).run()


@pytest.fixture()
def hang_chaos(tmp_path, monkeypatch):
    """Arm the chaos hooks in hang mode; returns a token-dropper."""
    tokens = tmp_path / "chaos-tokens"
    tokens.mkdir()
    monkeypatch.setenv("REPRO_CHAOS_TOKENS", str(tokens))
    monkeypatch.setenv("REPRO_CHAOS_MODE", "hang")
    # Long enough that only the executor's deadline can end the hang,
    # short enough that a leaked worker cannot outlive the test job.
    monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "60")
    monkeypatch.delenv("REPRO_CHAOS_SHARD", raising=False)

    def arm(count, shard=None):
        if shard is not None:
            monkeypatch.setenv("REPRO_CHAOS_SHARD", str(shard))
        for index in range(count):
            (tokens / f"token-{index}").touch()
        return tokens

    return arm


class TestTimeout:
    def test_hung_shard_is_killed_and_retried(
        self, core_world, serial_corpus, hang_chaos
    ):
        hang_chaos(1, shard=0)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, shard_timeout=1.0, retry_backoff=0.0
        )
        assert records(merged) == records(serial_corpus)
        timeouts = [
            f for f in campaign.shard_failures if f.kind == "timeout"
        ]
        assert timeouts, campaign.shard_failures
        assert any(f.shard_index == 0 for f in timeouts)
        assert all(f.action == "retried" for f in timeouts)
        assert all("deadline" in f.error for f in timeouts)
        assert (
            campaign.metrics.counter_value("repro_shard_timeouts_total")
            == len(timeouts)
        )
        # The hung worker was killed and reaped.
        assert multiprocessing.active_children() == []

    def test_repeated_hangs_degrade_to_inline(
        self, core_world, serial_corpus, hang_chaos
    ):
        # Every forked attempt of shard 0 hangs; after max_shard_retries
        # the shard must be recomputed inline (chaos hooks bypassed)
        # rather than stalling or aborting the campaign.
        hang_chaos(10, shard=0)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign,
            workers=2,
            shard_timeout=1.0,
            max_shard_retries=1,
            retry_backoff=0.0,
        )
        assert records(merged) == records(serial_corpus)
        shard0 = [
            f for f in campaign.shard_failures if f.shard_index == 0
        ]
        assert [f.action for f in shard0] == ["retried", "inline"]
        assert all(f.kind == "timeout" for f in shard0)

    def test_queued_shard_is_not_charged_for_its_wait(
        self, core_world, serial_corpus, hang_chaos, monkeypatch
    ):
        # Three shards on two workers, each first attempt hanging 1.4s
        # and then raising.  Shard 2 starts only once a worker frees up,
        # about 1.4s in; its own attempt ends well inside the 2s
        # deadline, so all three failures are exceptions, not timeouts.
        # The backoff holds the retries of shards 0 and 1 back until
        # shard 2 has taken the third token.
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "1.4")
        hang_chaos(3)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign,
            workers=2,
            shard_count=3,
            shard_timeout=2.0,
            retry_backoff=0.5,
        )
        assert records(merged) == records(serial_corpus)
        assert sorted(
            (f.shard_index, f.kind, f.action)
            for f in campaign.shard_failures
        ) == [
            (0, "exception", "retried"),
            (1, "exception", "retried"),
            (2, "exception", "retried"),
        ]
        assert (
            campaign.metrics.counter_value("repro_shard_timeouts_total")
            == 0
        )

    def test_no_timeout_without_deadline_on_clean_run(
        self, core_world, serial_corpus, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS_TOKENS", raising=False)
        campaign = make_campaign(core_world)
        merged = run_campaign_parallel(
            campaign, workers=2, shard_timeout=30.0
        )
        assert records(merged) == records(serial_corpus)
        assert campaign.shard_failures == []
        assert (
            campaign.metrics.counter_value("repro_shard_timeouts_total")
            == 0
        )

    def test_failure_kinds_are_recorded(self, core_world, tmp_path,
                                        monkeypatch):
        # raise-mode chaos failures carry kind="exception" so the
        # timeout taxonomy never mislabels an ordinary crash.
        tokens = tmp_path / "raise-tokens"
        tokens.mkdir()
        (tokens / "token-0").touch()
        monkeypatch.setenv("REPRO_CHAOS_TOKENS", str(tokens))
        monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")
        monkeypatch.delenv("REPRO_CHAOS_SHARD", raising=False)
        campaign = make_campaign(core_world)
        run_campaign_parallel(campaign, workers=2, retry_backoff=0.0)
        assert campaign.shard_failures
        assert all(
            f.kind == "exception" for f in campaign.shard_failures
        )


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_bad_shard_timeout(self, core_world, bad):
        with pytest.raises(ValueError, match="shard_timeout"):
            run_campaign_parallel(
                make_campaign(core_world), workers=2, shard_timeout=bad
            )

    def test_execution_options_validate_shard_timeout(self):
        from repro.core.study import ExecutionOptions

        with pytest.raises(ValueError, match="shard_timeout"):
            ExecutionOptions(shard_timeout=-2.0)
        assert ExecutionOptions(shard_timeout=5.0).shard_timeout == 5.0

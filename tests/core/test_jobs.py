"""Tests for repro.core.jobs — the one fork step and the supervisor.

Campaign shards and matrix cells both run on :func:`run_jobs`; their own
suites drive it through the chaos hooks.  These tests pin the
supervisor's neutral contract directly: what each kind of ending looks
like as an :class:`Outcome`, requeueing after the settle function's
delay, the worker cap, and that no child outlives the call.  They also
pin the :class:`Forked` handle every child is forked by: messages
arrive in order, a reap never blocks on a pipe a grandchild holds, and
a signal sent to a child reaches it whatever handler its parent runs.
"""

import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait

import pytest

from repro.core.jobs import Forked, backoff_delay, run_jobs


def run_all(keys, work, **kwargs):
    outcomes = {}

    def settle(outcome):
        outcomes[outcome.key] = outcome

    run_jobs(keys, work, settle, **kwargs)
    return outcomes


class TestOutcomes:
    def test_each_ending_is_reported_neutrally(self):
        # A nested function: it reaches the child only because the
        # child is forked, never pickled.
        def work(key):
            if key == "return":
                return {"doubled": 21 * 2}
            if key == "raise":
                raise ValueError("boom")
            if key == "exit":
                os._exit(3)
            if key == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)

        keys = ["return", "raise", "exit", "sigkill", "hang"]
        outcomes = run_all(keys, work, workers=len(keys), timeout=2.0)
        assert sorted(outcomes) == sorted(keys)

        returned = outcomes["return"]
        assert returned.ok and returned.value == {"doubled": 42}
        assert returned.attempt == 1

        raised = outcomes["raise"]
        assert not raised.ok
        assert raised.error == "ValueError: boom"
        assert raised.exitcode is None and not raised.timed_out

        assert outcomes["exit"].exitcode == 3
        assert outcomes["exit"].error is None
        assert outcomes["sigkill"].exitcode == -signal.SIGKILL

        hung = outcomes["hang"]
        assert hung.timed_out and hung.exitcode is None
        assert 2.0 <= hung.seconds < 30
        assert multiprocessing.active_children() == []


class TestScheduling:
    def test_settle_requeues_after_its_delay(self, tmp_path):
        marker = tmp_path / "failed-once"

        def work(key):
            if not marker.exists():
                marker.touch()
                raise RuntimeError("first attempt fails")
            return key

        events = []

        def settle(outcome):
            events.append(("settled", outcome.attempt, time.monotonic()))
            return 0.3 if not outcome.ok else None

        run_jobs(
            ["job"],
            work,
            settle,
            started=lambda key, attempt: events.append(
                ("started", attempt, time.monotonic())
            ),
        )
        assert [(kind, attempt) for kind, attempt, _ in events] == [
            ("started", 1),
            ("settled", 1),
            ("started", 2),
            ("settled", 2),
        ]
        assert events[2][2] - events[1][2] >= 0.3

    def test_at_most_workers_children_run_at_once(self):
        peak = []

        def started(key, attempt):
            peak.append(len(multiprocessing.active_children()))

        run_jobs(
            range(6),
            lambda key: time.sleep(0.2),
            lambda outcome: None,
            workers=2,
            started=started,
        )
        assert len(peak) == 6
        assert max(peak) == 2

    def test_an_error_in_the_parent_kills_and_reaps_children(self):
        def work(key):
            if key == "hang":
                time.sleep(60)

        def settle(outcome):
            raise RuntimeError(f"settle failed for {outcome.key}")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="settle failed for quick"):
            run_jobs(["hang", "quick"], work, settle, workers=2)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_jobs([1], lambda key: key, lambda outcome: None, workers=0)


class TestForked:
    def test_messages_arrive_in_order(self):
        def target(sender, count):
            for number in range(count):
                sender.send({"number": number})

        child = Forked(target, 5, name="repro-test-messages")
        assert wait([child.sentinel], 30) == [child.sentinel]
        assert child.reap() == 0
        assert child.messages == [{"number": n} for n in range(5)]

    def test_a_child_that_dies_unreported_yields_its_exit_code(self):
        child = Forked(lambda sender: os._exit(7), name="repro-test-exit")
        assert wait([child.sentinel], 30) == [child.sentinel]
        assert child.reap() == 7
        assert child.messages == []

    def test_a_grandchild_holding_the_pipe_does_not_block_the_reap(self):
        def target(sender):
            grandchild = os.fork()
            if grandchild == 0:  # inherits the write end, and keeps it
                time.sleep(60)
                os._exit(0)
            sender.send(grandchild)

        child = Forked(target, name="repro-test-grandchild")
        # Not join(timeout) or the sentinel: the grandchild holds both.
        assert child.receiver.poll(30)
        start = time.monotonic()
        try:
            assert child.reap() == 0
            assert time.monotonic() - start < 5
        finally:
            for grandchild in child.messages:
                os.kill(grandchild, signal.SIGKILL)
        assert len(child.messages) == 1


class TestGrandchildren:
    """A child that dies while a child it forked through :class:`Forked`
    still runs is seen dead at once: the grandchild does not hold the
    child's report pipe open."""

    GRANDCHILD_SECONDS = 10

    def test_a_job_killed_while_its_child_runs_settles_at_once(
        self, tmp_path
    ):
        pid_file = tmp_path / "grandchild.pid"

        def work(key):
            grandchild = Forked(
                lambda sender: time.sleep(self.GRANDCHILD_SECONDS),
                name="repro-test-grandchild",
            )
            pid_file.write_text(str(grandchild.process.pid))
            os.kill(os.getpid(), signal.SIGKILL)

        start = time.monotonic()
        try:
            outcomes = run_all(["job"], work, timeout=30.0)
            seconds = time.monotonic() - start
        finally:
            if pid_file.exists():
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
        assert outcomes["job"].exitcode == -signal.SIGKILL
        assert seconds < 2

    def test_a_child_that_exits_while_its_child_runs_is_seen_at_once(self):
        def target(sender):
            grandchild = Forked(
                lambda sender: time.sleep(self.GRANDCHILD_SECONDS),
                name="repro-test-grandchild",
            )
            sender.send(grandchild.process.pid)
            os._exit(0)

        child = Forked(target, name="repro-test-early-exit")
        start = time.monotonic()
        try:
            # Read the grandchild's pid, then wait for end of file.
            while child.receive():
                assert wait([child.receiver], 30)
            seconds = time.monotonic() - start
            assert child.reap() == 0
        finally:
            for grandchild in child.messages:
                os.kill(grandchild, signal.SIGKILL)
        assert len(child.messages) == 1
        assert seconds < 2


class TestSignals:
    def test_sigterm_reaches_a_child_despite_the_parents_handler(self):
        caught = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: caught.append(signum)
        )

        def started(key, attempt):
            # At once, before the child can have reset anything.
            for child in multiprocessing.active_children():
                if child.name == "repro-job-sleeper":
                    os.kill(child.pid, signal.SIGTERM)

        try:
            outcomes = run_all(
                ["sleeper"],
                lambda key: time.sleep(60),
                timeout=3.0,
                started=started,
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        sleeper = outcomes["sleeper"]
        assert sleeper.exitcode == -signal.SIGTERM
        assert not sleeper.timed_out
        assert caught == []


@pytest.mark.parametrize(
    "attempt, base, cap, expected",
    [
        (1, 0.5, 30.0, 0.5),
        (2, 0.5, 30.0, 1.0),
        (3, 0.5, 30.0, 2.0),
        (10, 0.5, 30.0, 30.0),
        (1, 0.0, 30.0, 0.0),
    ],
)
def test_backoff_delay(attempt, base, cap, expected):
    assert backoff_delay(attempt, base, cap) == expected

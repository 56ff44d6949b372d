"""One-shot work in forked children: the one process supervisor.

Campaign shards (:func:`repro.core.parallel.run_campaign_parallel`) and
scenario-matrix cells (:func:`repro.matrix.run_matrix`) both run on
:func:`run_jobs`.  Every attempt of a job is its own child process, so a
child that raises, dies or hangs takes down only that attempt:

* children are forked with the explicit ``fork`` context, so each one
  inherits the parent's state (a built world, say) instead of rebuilding
  it; the parent must run no threads while it forks;
* at most ``workers`` children run at once, and each attempt has its own
  deadline, counted from its fork;
* the parent waits on the children's result pipes and sentinels with
  :func:`multiprocessing.connection.wait`, with no thread and no poll
  interval: a report is read as soon as its pipe is readable, then the
  child is reaped;
* every finished attempt is handed to the caller's ``settle`` function as
  a neutral :class:`Outcome`; the caller names the failure in its own
  terms and may requeue the job after :func:`backoff_delay`.

On any exception the supervisor kills and reaps its children before
re-raising, so no child outlives the call.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Hashable, Iterable, List, Optional

__all__ = ["Outcome", "backoff_delay", "run_jobs"]


@dataclass(frozen=True)
class Outcome:
    """How one attempt of one job ended.

    Exactly one of these holds: ``timed_out`` (the supervisor killed the
    child at its deadline); ``error`` (the job raised; the text is
    ``"<type>: <message>"``); ``exitcode`` (the child died without a
    report, ``-9`` for a SIGKILL); or the job returned ``value``.
    """

    key: Hashable
    attempt: int
    seconds: float
    value: object = None
    error: Optional[str] = None
    exitcode: Optional[int] = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.timed_out and self.error is None and self.exitcode is None
        )


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Capped exponential delay before retrying a failed ``attempt``.

    ``attempt`` is 1-based: the first retry waits ``base`` seconds, each
    later one twice the previous, never more than ``cap``.
    """
    if base <= 0:
        return 0.0
    return min(cap, base * 2 ** (attempt - 1))


@dataclass
class _Queued:
    key: Hashable
    attempt: int
    not_before: float


@dataclass
class _Child:
    key: Hashable
    attempt: int
    process: multiprocessing.process.BaseProcess
    receiver: multiprocessing.connection.Connection
    started: float
    deadline: Optional[float]


def _child_main(work, key, sender) -> None:
    """Forked child: run one attempt and report it on the pipe.

    Anything other than an :class:`Exception` (a kill, ``SystemExit``)
    ends the child with no report, which the parent sees as its exit
    code.
    """
    try:
        report = (work(key), None)
    except Exception as error:
        report = (None, f"{type(error).__name__}: {error}")
    sender.send(report)


def run_jobs(
    keys: Iterable[Hashable],
    work: Callable[[Hashable], object],
    settle: Callable[[Outcome], Optional[float]],
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    started: Optional[Callable[[Hashable, int], None]] = None,
) -> None:
    """Run ``work(key)`` for every key, each attempt in a forked child.

    Keys start in the order given.  Each attempt's :class:`Outcome` goes
    to ``settle`` in the parent, which returns ``None`` when the job is
    done, or the seconds to wait before its next attempt.
    ``started(key, attempt)`` runs in the parent after each fork.
    ``timeout`` is each attempt's wall-clock budget in seconds; an
    attempt that overruns it is killed with SIGKILL.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    context = multiprocessing.get_context("fork")
    queue = [_Queued(key, 1, 0.0) for key in keys]
    running: List[_Child] = []

    def launch(item: _Queued) -> None:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_main,
            args=(work, item.key, sender),
            name=f"repro-job-{item.key}",
        )
        try:
            process.start()
        except BaseException:
            receiver.close()
            raise
        finally:
            sender.close()
        now = time.monotonic()
        running.append(
            _Child(
                key=item.key,
                attempt=item.attempt,
                process=process,
                receiver=receiver,
                started=now,
                deadline=None if timeout is None else now + timeout,
            )
        )
        if started is not None:
            started(item.key, item.attempt)

    def finish(child: _Child, *, killed: bool) -> None:
        report = None
        try:
            if killed:
                child.process.kill()
            # poll() first: after a sentinel wake-up a grandchild may
            # still hold the write end open, and recv() would block.
            elif child.receiver.poll():
                report = child.receiver.recv()
        except EOFError:  # the child died before reporting
            pass
        finally:
            child.receiver.close()
        child.process.join()
        running.remove(child)
        value, error = (None, None) if report is None else report
        outcome = Outcome(
            key=child.key,
            attempt=child.attempt,
            seconds=time.monotonic() - child.started,
            value=value,
            error=error,
            exitcode=(
                child.process.exitcode
                if report is None and not killed
                else None
            ),
            timed_out=killed,
        )
        child.process.close()
        delay = settle(outcome)
        if delay is not None:
            queue.append(
                _Queued(child.key, child.attempt + 1, time.monotonic() + delay)
            )

    try:
        while queue or running:
            now = time.monotonic()
            for item in [item for item in queue if item.not_before <= now]:
                if len(running) >= workers:
                    break
                queue.remove(item)
                launch(item)
            wake = [
                child.deadline
                for child in running
                if child.deadline is not None
            ]
            if len(running) < workers:
                wake.extend(item.not_before for item in queue)
            ready = set(
                wait(
                    [child.receiver for child in running]
                    + [child.process.sentinel for child in running],
                    max(0.0, min(wake) - time.monotonic()) if wake else None,
                )
            )
            now = time.monotonic()
            for child in list(running):
                if child.receiver in ready or child.process.sentinel in ready:
                    finish(child, killed=False)
                elif child.deadline is not None and now >= child.deadline:
                    finish(child, killed=True)
    except BaseException:
        for child in running:
            child.process.kill()
            child.process.join()
            child.receiver.close()
        raise

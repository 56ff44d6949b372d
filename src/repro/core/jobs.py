"""Work in forked children: one fork step, and the one-shot supervisor.

:class:`Forked` is the one place the package forks a child: campaign
shards and scenario-matrix cells (both through :func:`run_jobs`),
serving-index builders and serving-fleet workers
(:mod:`repro.serve.fleet`).  It forks with the explicit ``fork``
context, so the child inherits the parent's state (a built world, a
routing table) instead of rebuilding it; the parent must run no threads
while it forks.  The child reports on a one-way pipe, and starts with
the default SIGINT and SIGTERM actions and no wakeup fd, so a handler
inherited from the parent never catches a signal meant for the child.
A grandchild forked through :class:`Forked` closes the write end of its
parent's report pipe that the fork handed it, so the grandparent reads
end of file as soon as the parent dies, whatever the grandchild is
still doing.

:func:`run_jobs` runs one-shot jobs, each attempt in its own child, so a
child that raises, dies or hangs takes down only that attempt:

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
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Dict, Hashable, Iterable, List, Optional

__all__ = ["Forked", "Outcome", "backoff_delay", "run_jobs"]

_CHILD_DEFAULT_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: The report-pipe write end this process was handed by :class:`Forked`
#: (``None`` in a process that was not forked by it).
_sender = None


def _forked_main(mask, target, sender, args) -> None:
    """Forked child: close the report pipe inherited from a parent that
    was itself forked, default SIGINT/SIGTERM, no wakeup fd, then run.

    Holding the parent's write end would keep that pipe open after the
    parent dies, so its own parent would see the death only when this
    child exits.
    """
    global _sender
    if _sender is not None:
        _sender.close()
    _sender = sender
    signal.set_wakeup_fd(-1)
    for signum in _CHILD_DEFAULT_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    target(sender, *args)


class Forked:
    """One child forked with the ``fork`` context, reporting on a pipe.

    The child runs ``target(sender, *args)``, ``sender`` being the write
    end of a one-way pipe; what it sends lands, in order, in
    :attr:`messages`.  The parent waits on :attr:`receiver` and
    :attr:`sentinel`.  ``started`` is the monotonic time of the fork.
    """

    def __init__(
        self, target: Callable[..., None], *args, name: str
    ) -> None:
        context = multiprocessing.get_context("fork")
        self.receiver, sender = context.Pipe(duplex=False)
        # Blocked until the child has its default actions back, so a
        # signal sent right after the fork is neither lost nor caught
        # by a handler the child inherited.
        mask = signal.pthread_sigmask(
            signal.SIG_BLOCK, _CHILD_DEFAULT_SIGNALS
        )
        try:
            self.process = context.Process(
                target=_forked_main,
                args=(mask, target, sender, args),
                name=name,
            )
            self.process.start()
        except BaseException:
            self.receiver.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            sender.close()
        self.sentinel = self.process.sentinel
        self.started = time.monotonic()
        self.messages: List[object] = []

    def receive(self) -> bool:
        """Move every message that has arrived into :attr:`messages`.

        Blocks only to finish a message that has begun to arrive.
        False at end of file: the child, and anything it forked other
        than through :class:`Forked`, closed the write end.
        """
        try:
            while self.receiver.poll():
                self.messages.append(self.receiver.recv())
        except EOFError:
            return False
        return True

    def reap(self, *, kill: bool = False) -> Optional[int]:
        """Read what the child sent (or SIGKILL it), join it, return its
        exit code.  Call it once the pipe or sentinel is ready.

        The read polls first: after the child exits, a grandchild may
        still hold the write end open, and ``recv()`` would block.
        """
        try:
            if kill:
                self.process.kill()
            else:
                self.receive()
        finally:
            self.receiver.close()
        self.process.join()
        return self.process.exitcode


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


def _attempt_main(sender, work, key) -> None:
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
    queue = [_Queued(key, 1, 0.0) for key in keys]
    running: Dict[Forked, _Queued] = {}

    def launch(item: _Queued) -> None:
        child = Forked(
            _attempt_main, work, item.key, name=f"repro-job-{item.key}"
        )
        running[child] = item
        if started is not None:
            started(item.key, item.attempt)

    def finish(child: Forked, *, killed: bool) -> None:
        item = running.pop(child)
        exitcode = child.reap(kill=killed)
        value, error = child.messages[0] if child.messages else (None, None)
        outcome = Outcome(
            key=item.key,
            attempt=item.attempt,
            seconds=time.monotonic() - child.started,
            value=value,
            error=error,
            exitcode=None if child.messages or killed else exitcode,
            timed_out=killed,
        )
        delay = settle(outcome)
        if delay is not None:
            queue.append(
                _Queued(item.key, item.attempt + 1, time.monotonic() + delay)
            )

    try:
        while queue or running:
            now = time.monotonic()
            for item in [item for item in queue if item.not_before <= now]:
                if len(running) >= workers:
                    break
                queue.remove(item)
                launch(item)
            wake = (
                []
                if timeout is None
                else [child.started + timeout for child in running]
            )
            if len(running) < workers:
                wake.extend(item.not_before for item in queue)
            ready = set(
                wait(
                    [child.receiver for child in running]
                    + [child.sentinel for child in running],
                    max(0.0, min(wake) - time.monotonic()) if wake else None,
                )
            )
            now = time.monotonic()
            for child in list(running):
                if child.receiver in ready or child.sentinel in ready:
                    finish(child, killed=False)
                elif timeout is not None and now >= child.started + timeout:
                    finish(child, killed=True)
    except BaseException:
        for child in running:
            child.reap(kill=True)
        raise

"""Environment-driven process chaos for forked shards and matrix cells.

The retry/containment machinery in :mod:`repro.core.parallel` and
:mod:`repro.matrix.runner` needs a way to make the real child that runs
a shard or cell attempt really raise, die or hang, including inside a
``repro`` command that no test can monkeypatch.  This module reads a
small environment protocol at shard (or cell) entry:

* ``REPRO_CHAOS_TOKENS`` — a directory of token files; each triggered
  failure atomically consumes one token, so the number of files placed
  there is exactly the number of failures injected;
* ``REPRO_CHAOS_SHARD`` — only shards with this index fail (optional;
  default: any shard);
* ``REPRO_CHAOS_MODE`` — ``"raise"`` (default) raises
  :class:`ChaosInjected` inside the child, exercising the exception
  path; ``"kill"`` hard-exits the child before it reports, exercising
  crash containment; ``"hang"`` makes the child sleep (for
  ``REPRO_CHAOS_HANG_SECONDS``, default one hour), exercising the
  per-attempt deadline and the kill of a hung child.

With no environment set this is a no-op costing one ``os.environ``
lookup.  The CI chaos job and ``tests/core/test_shard_retry.py`` drive
it; the inline-degradation fallback in the parent process deliberately
bypasses it (a chaos kill must never take down the coordinating
process).
"""

from __future__ import annotations

import os
import time

__all__ = ["ChaosInjected", "maybe_fail_shard"]

#: Exit status of a chaos-killed child (distinctive in failure records).
KILL_STATUS = 17

#: Default sleep of a hang-mode worker: long enough that any realistic
#: deadline fires first, short enough that an orphaned worker does not
#: outlive a CI job.
DEFAULT_HANG_SECONDS = 3600.0


class ChaosInjected(RuntimeError):
    """Raised inside a worker when a chaos token is consumed in raise mode."""


def maybe_fail_shard(shard_index: int) -> None:
    """Consume one chaos token and fail, if the environment says so."""
    directory = os.environ.get("REPRO_CHAOS_TOKENS")
    if not directory:
        return
    target = os.environ.get("REPRO_CHAOS_SHARD")
    if target is not None and shard_index != int(target):
        return
    try:
        tokens = sorted(os.listdir(directory))
    except FileNotFoundError:
        return
    for token in tokens:
        try:
            os.unlink(os.path.join(directory, token))
        except FileNotFoundError:
            continue  # another worker claimed it first
        mode = os.environ.get("REPRO_CHAOS_MODE", "raise")
        if mode == "kill":
            os._exit(KILL_STATUS)
        if mode == "hang":
            deadline = time.monotonic() + float(
                os.environ.get(
                    "REPRO_CHAOS_HANG_SECONDS", DEFAULT_HANG_SECONDS
                )
            )
            # Sleep in short slices so a terminate() (as opposed to a
            # hard kill) still takes effect promptly.
            while time.monotonic() < deadline:
                time.sleep(0.05)
            raise ChaosInjected(
                f"chaos token {token!r} hung shard {shard_index} until "
                "its deadline"
            )
        raise ChaosInjected(
            f"chaos token {token!r} consumed by shard {shard_index}"
        )

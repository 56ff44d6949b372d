"""Unified observability: metrics registry + lightweight span tracing.

The paper's seven-month campaign lived on operational visibility —
pool-monitor scores, per-vantage capture rates, weekly snapshot sizes.
:mod:`repro.obs` is the substrate the reproduction reports the same
signals through: a dependency-free registry of counters, gauges and
histograms (fixed deterministic bucket boundaries), plus span timing
driven by any monotonic clock (``time.perf_counter`` by default, a
:class:`repro.world.clock.SimClock` where simulation time is the truth).

The invariant everything else leans on: **recording telemetry never
perturbs keyed-RNG determinism**.  Metrics draw no randomness and feed
none back, so a campaign run with a live registry produces a corpus
bit-identical to one run with :data:`NULL_REGISTRY` (test-pinned, like
``FaultPlan.none()``).
"""

import logging
from pathlib import Path
from typing import Union

from .registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_REGISTRY,
    SpanStats,
)

__all__ = [
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "SpanStats",
    "write_metrics",
]

logger = logging.getLogger(__name__)


def write_metrics(registry: MetricsRegistry, path: Union[str, Path]) -> None:
    """Export ``registry`` to ``path``: the JSON snapshot by default, the
    Prometheus text exposition for ``.prom``/``.txt`` paths.

    Published atomically (:func:`repro.core.durable.atomic_write`), in
    UTF-8 with ``\n`` line endings, so a reader sees the last complete
    export, never a torn one."""
    # Imported here, not at module level: loading repro.obs must not
    # load repro.core.
    from ..core import durable

    target = Path(path)
    if target.suffix in {".prom", ".txt"}:
        text = registry.render_prometheus()
    else:
        text = registry.to_json()
    durable.atomic_write(target, [text.encode("utf-8")])
    logger.info("metrics written to %s", target)

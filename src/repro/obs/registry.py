"""The metrics registry: counters, gauges, histograms and spans.

Prometheus-shaped but dependency-free.  A registry owns metric
*families* (one per name); a family owns one instrument per label set.
Everything is plain Python arithmetic — no I/O, no randomness, no
global state — so instrumented hot loops stay deterministic and cheap.

Three export surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict, the
  form carried in a segment store's ``MANIFEST.json`` and written by
  the CLI's ``--metrics-out`` (following the ``benchmarks/jsonout.py``
  flat-JSON conventions);
* :meth:`MetricsRegistry.merge_snapshot` — the inverse: fold a snapshot
  back in, summing counters/histograms/spans, so resumed campaigns and
  worker processes report *cumulative* telemetry;
* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format, for scraping or eyeballing.

Histogram bucket boundaries are **fixed at creation** (defaults below)
— never derived from observed data — so two runs of the same workload
always land observations in structurally identical buckets and
snapshots merge without resampling.
"""

from __future__ import annotations

import json
import re
import time
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanStats",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
]

#: Deterministic duration boundaries (seconds): micro-benchmarks through
#: multi-minute campaign windows.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Deterministic magnitude boundaries (counts/sizes): decades from 1 to 10M.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_LabelItems = Tuple[Tuple[str, str], ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"bad metric name: {name!r}")
    return name


def _label_items(labels: Optional[Mapping[str, str]]) -> _LabelItems:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"bad label name: {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def _render_labels(items: _LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in items
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _series_key(name: str, items: _LabelItems) -> str:
    """The snapshot key of one instrument: ``name`` or ``name{k="v"}``."""
    return name + _render_labels(items)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up: {amount!r}")
        self.value += amount


class Gauge:
    """A value that goes up and down (current pool size, score, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram over fixed boundaries.

    ``counts[i]`` is the number of observations ``<= boundaries[i]``
    exclusive of earlier buckets (i.e. per-bucket, not cumulative —
    rendering cumulates); the final slot counts the ``+Inf`` overflow.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Tuple[float, ...]) -> None:
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        ordered = tuple(float(b) for b in boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"bucket boundaries must strictly increase: {boundaries!r}"
            )
        self.boundaries = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, boundary in enumerate(self.boundaries):
            if value <= boundary:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class SpanStats:
    """Accumulated timings of one span name."""

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds


class _Family:
    """One metric name: its kind, help text and per-label instruments."""

    __slots__ = ("name", "kind", "help", "boundaries", "instruments")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        boundaries: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.boundaries = boundaries
        self.instruments: Dict[_LabelItems, object] = {}


class _SpanHandle:
    """Context manager recording one span duration on exit."""

    __slots__ = ("_registry", "_name", "_clock", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str, clock) -> None:
        self._registry = registry
        self._name = name
        self._clock = clock
        self._t0 = None

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.record_span(self._name, self._clock() - self._t0)


class MetricsRegistry:
    """A namespace of metric families plus span timings.

    ``clock`` is the default span clock — any zero-argument callable
    returning monotonically non-decreasing seconds.  Pass a
    ``SimClock``-backed lambda where simulation time is the meaningful
    axis; the default is :func:`time.perf_counter` (wall clock).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._families: Dict[str, _Family] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._clock = clock

    # -- instrument access ---------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        boundaries: Optional[Tuple[float, ...]] = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(_check_name(name), kind, help_text, boundaries)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if kind == "histogram" and family.boundaries != boundaries:
            raise ValueError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Get or create the counter ``name`` (for one label set)."""
        family = self._family(name, "counter", help_text)
        items = _label_items(labels)
        instrument = family.instruments.get(items)
        if instrument is None:
            instrument = Counter()
            family.instruments[items] = instrument
        return instrument  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """Get or create the gauge ``name`` (for one label set)."""
        family = self._family(name, "gauge", help_text)
        items = _label_items(labels)
        instrument = family.instruments.get(items)
        if instrument is None:
            instrument = Gauge()
            family.instruments[items] = instrument
        return instrument  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_SIZE_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` with fixed ``buckets``."""
        boundaries = tuple(float(b) for b in buckets)
        family = self._family(name, "histogram", help_text, boundaries)
        items = _label_items(labels)
        instrument = family.instruments.get(items)
        if instrument is None:
            instrument = Histogram(boundaries)
            family.instruments[items] = instrument
        return instrument  # type: ignore[return-value]

    # -- spans ---------------------------------------------------------------

    def span(
        self, name: str, clock: Optional[Callable[[], float]] = None
    ) -> _SpanHandle:
        """Time a ``with`` block under ``name`` (accumulating stats)."""
        _check_name(name.replace("-", "_"))
        return _SpanHandle(self, name, clock or self._clock)

    def record_span(self, name: str, seconds: float) -> None:
        """Record one span duration directly (spans accumulate)."""
        stats = self._spans.get(name)
        if stats is None:
            stats = SpanStats()
            self._spans[name] = stats
        stats.record(seconds)

    def span_seconds(self) -> Dict[str, float]:
        """Total recorded seconds per span name, in first-seen order."""
        return {name: stats.total for name, stats in self._spans.items()}

    # -- export / import -----------------------------------------------------

    def _series(self) -> Iterator[Tuple[_Family, _LabelItems, object]]:
        for family in self._families.values():
            for items, instrument in family.instruments.items():
                yield family, items, instrument

    def counter_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Current value of a counter series (0 when never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0
        instrument = family.instruments.get(_label_items(labels))
        return 0 if instrument is None else instrument.value

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every series and span."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for family, items, instrument in self._series():
            key = _series_key(family.name, items)
            if family.kind == "counter":
                counters[key] = instrument.value
            elif family.kind == "gauge":
                gauges[key] = instrument.value
            else:
                histograms[key] = {
                    "buckets": list(instrument.boundaries),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
        spans = {
            name: {"count": s.count, "total": s.total, "max": s.max}
            for name, s in self._spans.items()
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
        }

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold a prior :meth:`snapshot` in, summing cumulative series.

        Counters, histogram buckets and span stats add; gauges take the
        snapshot's value only when the series does not exist here yet
        (a gauge is a *current* reading — the live one wins).  Series
        names carry their rendered labels, so a merged registry reports
        exactly the union of both runs.
        """
        for key, value in snapshot.get("counters", {}).items():
            self._restored_counter(key).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, items = _parse_series_key(key)
            family = self._family(name, "gauge", "")
            if items not in family.instruments:
                gauge = Gauge()
                gauge.set(value)
                family.instruments[items] = gauge
        for key, dump in snapshot.get("histograms", {}).items():
            name, items = _parse_series_key(key)
            boundaries = tuple(float(b) for b in dump["buckets"])
            histogram = self.histogram(
                name, buckets=boundaries, labels=dict(items)
            )
            if len(dump["counts"]) != len(histogram.counts):
                raise ValueError(
                    f"histogram {key!r} snapshot has "
                    f"{len(dump['counts'])} buckets, registry has "
                    f"{len(histogram.counts)}"
                )
            for index, count in enumerate(dump["counts"]):
                histogram.counts[index] += count
            histogram.sum += dump["sum"]
            histogram.count += dump["count"]
        for name, dump in snapshot.get("spans", {}).items():
            stats = self._spans.get(name)
            if stats is None:
                stats = SpanStats()
                self._spans[name] = stats
            stats.count += dump["count"]
            stats.total += dump["total"]
            if dump["max"] > stats.max:
                stats.max = dump["max"]

    def _restored_counter(self, key: str) -> Counter:
        name, items = _parse_series_key(key)
        return self.counter(name, labels=dict(items))

    def to_json(self, **extra: object) -> str:
        """The snapshot as a JSON document (sorted keys, trailing newline).

        Follows the ``benchmarks/jsonout.py`` conventions: a flat
        top-level with the producing interpreter's version plus the
        snapshot sections; ``extra`` keys land at the top level.
        """
        import platform

        document: Dict[str, object] = {
            "format": "repro-metrics-v1",
            "python": platform.python_version(),
        }
        document.update(extra)
        document.update(self.snapshot())
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (spans as summaries)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for items in sorted(family.instruments):
                instrument = family.instruments[items]
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_render_labels(items)} {instrument.value}"
                    )
                    continue
                cumulative = 0
                for boundary, count in zip(
                    instrument.boundaries, instrument.counts
                ):
                    cumulative += count
                    bucket_items = items + (("le", repr(boundary)),)
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_items)} "
                        f"{cumulative}"
                    )
                inf_items = items + (("le", "+Inf"),)
                lines.append(
                    f"{name}_bucket{_render_labels(inf_items)} "
                    f"{instrument.count}"
                )
                labels = _render_labels(items)
                lines.append(f"{name}_sum{labels} {instrument.sum}")
                lines.append(f"{name}_count{labels} {instrument.count}")
        for span_name in sorted(self._spans):
            stats = self._spans[span_name]
            metric = "repro_span_" + span_name.replace("-", "_") + "_seconds"
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_sum {stats.total}")
            lines.append(f"{metric}_count {stats.count}")
        return "\n".join(lines) + "\n"


def _parse_series_key(key: str) -> Tuple[str, _LabelItems]:
    """Invert :func:`_series_key` for snapshot import."""
    brace = key.find("{")
    if brace < 0:
        return key, ()
    name = key[:brace]
    body = key[brace + 1 : key.rindex("}")]
    items = []
    for part in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', body):
        label, value = part
        value = (
            value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
        )
        items.append((label, value))
    return name, tuple(items)


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()
    value = 0
    sum = 0.0
    count = 0
    boundaries: Tuple[float, ...] = ()
    counts: List[int] = []

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullMetricsRegistry(MetricsRegistry):
    """A registry that records nothing — the "metrics off" position.

    Instrumented code paths need no conditionals: they talk to this
    exactly as to a live registry.  The determinism test pins that a
    campaign wired to a live registry produces a corpus bit-identical
    to one wired here.
    """

    def counter(self, name, help_text="", labels=None):
        return _NULL_INSTRUMENT

    def gauge(self, name, help_text="", labels=None):
        return _NULL_INSTRUMENT

    def histogram(self, name, help_text="", buckets=DEFAULT_SIZE_BUCKETS,
                  labels=None):
        return _NULL_INSTRUMENT

    def span(self, name, clock=None):
        return _NULL_SPAN

    def record_span(self, name, seconds):
        pass

    def merge_snapshot(self, snapshot):
        pass


#: Shared no-op registry for "metrics off".
NULL_REGISTRY = NullMetricsRegistry()

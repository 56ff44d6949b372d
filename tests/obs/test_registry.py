"""Unit tests for the dependency-free metrics registry."""

import json
import os

import pytest

from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    write_metrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "things")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter_value("repro_things_total") == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_things_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_get_or_create_is_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") is registry.counter(
            "repro_x_total"
        )

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        br = registry.counter("repro_x_total", labels={"country": "BR"})
        de = registry.counter("repro_x_total", labels={"country": "DE"})
        br.inc(3)
        de.inc(1)
        assert registry.counter_value(
            "repro_x_total", labels={"country": "BR"}
        ) == 3
        assert registry.counter_value(
            "repro_x_total", labels={"country": "DE"}
        ) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_bad_name_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_pool_size")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_buckets_are_fixed_and_deterministic(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_sizes", buckets=DEFAULT_SIZE_BUCKETS
        )
        for value in (0.5, 1.0, 5.0, 50_000.0, 99_999_999.0):
            histogram.observe(value)
        # 0.5 and 1.0 land in the first (<=1) bucket, 5.0 in <=10,
        # 50k in <=100k, the huge value in the +Inf overflow slot.
        assert histogram.counts[0] == 2
        assert histogram.counts[1] == 1
        assert histogram.counts[5] == 1
        assert histogram.counts[-1] == 1
        assert histogram.count == 5

    def test_histogram_rebuckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_sizes", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_sizes", buckets=(1.0, 3.0))

    def test_default_buckets_strictly_increase(self):
        for buckets in (DEFAULT_TIME_BUCKETS, DEFAULT_SIZE_BUCKETS):
            assert list(buckets) == sorted(set(buckets))


class TestSpans:
    def test_span_uses_registry_clock(self):
        ticks = iter([10.0, 13.5, 20.0, 21.0])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.span("stage-one"):
            pass
        with registry.span("stage-one"):
            pass
        assert registry.span_seconds() == {"stage-one": 4.5}

    def test_span_seconds_preserves_execution_order(self):
        registry = MetricsRegistry()
        registry.record_span("b-stage", 1.0)
        registry.record_span("a-stage", 2.0)
        assert list(registry.span_seconds()) == ["b-stage", "a-stage"]


class TestSnapshotRoundTrip:
    def _populated(self):
        ticks = iter([0.0, 2.0])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        registry.counter("repro_x_total").inc(7)
        registry.counter("repro_x_total", labels={"country": "BR"}).inc(2)
        registry.gauge("repro_level").set(3)
        registry.histogram("repro_sizes", buckets=(1.0, 10.0)).observe(5.0)
        with registry.span("stage"):
            pass
        return registry

    def test_snapshot_is_json_serializable(self):
        snapshot = self._populated().snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["counters"]["repro_x_total"] == 7
        assert parsed["counters"]['repro_x_total{country="BR"}'] == 2
        assert parsed["spans"]["stage"]["total"] == 2.0

    def test_merge_sums_counters_histograms_spans(self):
        first = self._populated()
        second = self._populated()
        second.merge_snapshot(first.snapshot())
        assert second.counter_value("repro_x_total") == 14
        assert second.counter_value(
            "repro_x_total", labels={"country": "BR"}
        ) == 4
        histogram = second.histogram("repro_sizes", buckets=(1.0, 10.0))
        assert histogram.count == 2
        assert histogram.sum == 10.0
        assert second.span_seconds()["stage"] == 4.0

    def test_merge_into_empty_registry_restores_everything(self):
        snapshot = self._populated().snapshot()
        empty = MetricsRegistry()
        empty.merge_snapshot(snapshot)
        assert empty.snapshot() == snapshot

    def test_merge_keeps_live_gauge(self):
        live = MetricsRegistry()
        live.gauge("repro_level").set(9)
        live.merge_snapshot(self._populated().snapshot())
        # The live (current) reading wins over the snapshot's.
        assert live.gauge("repro_level").value == 9


class TestExport:
    def test_to_json_has_version_and_sorted_keys(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc()
        document = json.loads(registry.to_json(scale="tiny"))
        assert document["format"] == "repro-metrics-v1"
        assert document["scale"] == "tiny"
        assert "python" in document
        assert document["counters"]["repro_x_total"] == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things counted").inc(3)
        registry.histogram("repro_sizes", buckets=(1.0, 10.0)).observe(5.0)
        registry.record_span("stage-one", 1.5)
        text = registry.render_prometheus()
        assert "# HELP repro_x_total things counted" in text
        assert "# TYPE repro_x_total counter" in text
        assert "repro_x_total 3" in text
        # Buckets render cumulatively, with the +Inf overflow.
        assert 'repro_sizes_bucket{le="1.0"} 0' in text
        assert 'repro_sizes_bucket{le="10.0"} 1' in text
        assert 'repro_sizes_bucket{le="+Inf"} 1' in text
        assert "repro_sizes_count 1" in text
        assert "repro_span_stage_one_seconds_sum 1.5" in text


class TestWriteMetrics:
    @pytest.mark.parametrize("name", ["m.json", "m.prom"])
    def test_writes_utf8_with_newline_endings(self, tmp_path, name):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things — counted").inc()
        write_metrics(registry, tmp_path / name)
        data = (tmp_path / name).read_bytes()
        text = (
            registry.render_prometheus()
            if name.endswith(".prom")
            else registry.to_json()
        )
        assert data == text.encode("utf-8")
        assert b"\r\n" not in data
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_a_write_failing_midway_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "m.json"
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc()
        write_metrics(registry, target)
        previous = target.read_bytes()
        registry.counter("repro_x_total").inc(41)

        def fail(fd):
            raise OSError("device lost mid-write")

        # The new bytes are in the temp file; the publish never happens.
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="mid-write"):
            write_metrics(registry, target)
        assert target.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestNullRegistry:
    def test_null_registry_records_nothing(self):
        registry = NullMetricsRegistry()
        registry.counter("repro_x_total").inc(5)
        registry.gauge("repro_level").set(2)
        registry.histogram("repro_sizes").observe(1.0)
        with registry.span("stage"):
            pass
        registry.record_span("stage", 3.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }
        assert registry.counter_value("repro_x_total") == 0

    def test_shared_null_registry_is_a_null_registry(self):
        assert isinstance(NULL_REGISTRY, NullMetricsRegistry)

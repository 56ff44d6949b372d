"""The ``RSI1`` serving index: round-trip fidelity and failure model.

Pinned contracts:

* **serving == in-process** — every batch query answers bit-identically
  to a cold :class:`CorpusIndex` over the folded corpus plus
  :meth:`RoutingTable.origin_asn`, for small and large batches alike.
* **torn is never served** — any flipped byte, truncation or missing
  footer fails the whole-file CRC at open; :func:`ensure_serving_index`
  then rebuilds from the ``.idx`` partials, including after a SIGKILL
  mid-(non-atomic)-write, and the real builder's atomic replace means a
  SIGKILL during *its* write can never tear the published file.  The
  check reads the file one buffer at a time, and a flip on either side
  of every buffer boundary of a twelve-buffer index is refused.
* **only queried pages are resident** — right after the open, the
  mapping holds no more than one check buffer's worth of the file; the
  pages a query touches are what it holds afterwards.
* **zero-copy** — with every sealed ``.seg`` deleted, the index still
  opens and answers identically: queries touch only ``SERVING.rsi``.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.core.durable import CHECK_BUFFER_BYTES, TRAILER_SIZE
from repro.core.kernels import NO_MAC
from repro.core.segments import SegmentStore
from repro.obs import MetricsRegistry
from repro.serve import (
    SERVING_INDEX_NAME,
    IndexBuild,
    ServingIndex,
    ServingIndexError,
    build_serving_index,
    ensure_serving_index,
    manifest_digest,
)

from .conftest import (
    HAS_SMAPS,
    mapped_rss,
    write_serve_store,
    write_wide_store,
)


def oracle(gt, routing, queries):
    """Expected per-query answers from the in-process index + routing."""
    row_of = {address: row for row, address in enumerate(gt.addresses)}
    s48 = {address >> 80 for address in gt.addresses}
    s64 = {address >> 64 for address in gt.addresses}
    expected = {
        "record": [],
        "lifetime": [],
        "entropy": [],
        "features": [],
        "contains": [],
        "slash48": [],
        "slash64": [],
        "origin": [],
    }
    for query in queries:
        row = row_of.get(query)
        if row is None:
            for op in ("record", "lifetime", "entropy", "features"):
                expected[op].append(None)
        else:
            expected["record"].append(
                (gt.first[row], gt.last[row], gt.counts[row])
            )
            expected["lifetime"].append(gt.last[row] - gt.first[row])
            expected["entropy"].append(gt.entropies[row])
            mac = gt.macs[row]
            expected["features"].append(
                (
                    gt.entropies[row],
                    gt.pattern_codes[row],
                    None if mac == NO_MAC else mac,
                )
            )
        expected["contains"].append(row is not None)
        expected["slash48"].append(query >> 80 in s48)
        expected["slash64"].append(query >> 64 in s64)
        expected["origin"].append(routing.origin_asn(query))
    return expected


def assert_index_matches(index, gt, routing, queries):
    expected = oracle(gt, routing, queries)
    assert index.record_batch(queries) == expected["record"]
    assert index.lifetime_batch(queries) == expected["lifetime"]
    assert index.entropy_batch(queries) == expected["entropy"]
    assert index.features_batch(queries) == expected["features"]
    assert index.contains_batch(queries) == expected["contains"]
    assert index.slash48_batch(queries) == expected["slash48"]
    assert index.slash64_batch(queries) == expected["slash64"]
    assert index.origin_batch(queries) == expected["origin"]


class TestRoundTrip:
    def test_serving_answers_equal_in_process_index(
        self, serve_dir, ground_truth, routing, queries
    ):
        build_serving_index(serve_dir, routing=routing)
        with ServingIndex.open(serve_dir) as index:
            assert_index_matches(index, ground_truth, routing, queries)

    def test_header_and_describe_shape(
        self, serve_dir, ground_truth, routing
    ):
        build_serving_index(serve_dir, routing=routing)
        with ServingIndex.open(serve_dir) as index:
            assert index.rows == len(ground_truth.addresses)
            assert index.slash48_count == len(
                {a >> 80 for a in ground_truth.addresses}
            )
            assert index.slash64_count == len(
                {a >> 64 for a in ground_truth.addresses}
            )
            assert index.has_origin_table
            info = index.describe()
            assert info["rows"] == index.rows
            assert info["has_origin_table"] is True
            assert info["generation"] == index.generation
            assert info["path"].endswith(SERVING_INDEX_NAME)

    def test_small_batches_use_the_scalar_path(
        self, serve_dir, ground_truth, routing, queries
    ):
        """One- and two-query batches answer identically to big ones."""
        build_serving_index(serve_dir, routing=routing)
        expected = oracle(ground_truth, routing, queries)
        with ServingIndex.open(serve_dir) as index:
            for i, query in enumerate(queries[:24]):
                assert index.record_batch([query]) == [
                    expected["record"][i]
                ]
                assert index.origin_batch([query]) == [
                    expected["origin"][i]
                ]

    def test_bad_addresses_rejected(self, serve_dir, routing):
        build_serving_index(serve_dir, routing=routing)
        with ServingIndex.open(serve_dir) as index:
            with pytest.raises(ValueError, match="out of range"):
                index.contains_batch([-1])
            with pytest.raises(ValueError, match="out of range"):
                index.contains_batch([1 << 128])
            with pytest.raises(ValueError, match="ints"):
                index.contains_batch(["2001::1"])

    def test_empty_store_serves_all_misses(self, tmp_path):
        store = SegmentStore(tmp_path, name="empty")
        store.commit([], completed_weeks=0)
        build_serving_index(tmp_path)
        with ServingIndex.open(tmp_path) as index:
            assert index.rows == 0
            assert index.record_batch([0, 1, 1 << 100]) == [
                None,
                None,
                None,
            ]
            assert index.contains_batch([5]) == [False]
            assert index.slash64_batch([5]) == [False]

    def test_origin_without_table_raises(self, tmp_path):
        write_serve_store(tmp_path, per_segment=10, segments=1)
        build_serving_index(tmp_path)
        with ServingIndex.open(tmp_path) as index:
            assert not index.has_origin_table
            with pytest.raises(ServingIndexError, match="origin table"):
                index.origin_batch([1])


class TestFailureModel:
    def test_flipped_byte_detected(self, tmp_path, routing):
        write_serve_store(tmp_path, per_segment=20, segments=2)
        path = build_serving_index(tmp_path, routing=routing)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ServingIndexError, match="CRC"):
            ServingIndex.open(tmp_path)

    def test_truncation_detected(self, tmp_path, routing):
        write_serve_store(tmp_path, per_segment=20, segments=2)
        path = build_serving_index(tmp_path, routing=routing)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(ServingIndexError):
            ServingIndex.open(tmp_path)

    def test_stub_file_detected(self, tmp_path):
        write_serve_store(tmp_path, per_segment=5, segments=1)
        (tmp_path / SERVING_INDEX_NAME).write_bytes(b"RSI1")
        with pytest.raises(ServingIndexError, match="truncated"):
            ServingIndex.open(tmp_path)

    def test_bad_magic_detected(self, tmp_path, routing):
        write_serve_store(tmp_path, per_segment=5, segments=1)
        path = build_serving_index(tmp_path, routing=routing)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ServingIndexError, match="magic"):
            ServingIndex.open(tmp_path)

    def test_missing_index_is_file_not_found(self, tmp_path):
        write_serve_store(tmp_path, per_segment=5, segments=1)
        with pytest.raises(FileNotFoundError):
            ServingIndex.open(tmp_path)

    def test_torn_index_rebuilt_never_served(self, tmp_path, routing):
        """A torn file is refused, then transparently rebuilt."""
        write_serve_store(tmp_path, per_segment=30, segments=2)
        metrics = MetricsRegistry()
        path = build_serving_index(tmp_path, routing=routing)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        index = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        try:
            assert (
                metrics.counter_value(
                    "repro_serve_index_rebuilds_total",
                    labels={"reason": "torn"},
                )
                == 1
            )
            # The rebuilt file round-trips and carried the generation on.
            assert index.generation >= 2
            assert index.contains_batch([0]) == [False]
        finally:
            index.close()


@pytest.fixture(scope="module")
def wide_index(tmp_path_factory):
    """A published index twelve check buffers long, its bytes and its
    addresses."""
    directory = tmp_path_factory.mktemp("wide-store")
    _, addresses = write_wide_store(directory)
    path = build_serving_index(directory)
    return path, path.read_bytes(), addresses


def _buffer_edges(size):
    """The first byte after the 64-byte header, both sides of every
    check-buffer boundary and the last body byte of a ``size``-byte
    index."""
    body = size - TRAILER_SIZE
    edges = {64, body - 1}
    for boundary in range(CHECK_BUFFER_BYTES, body, CHECK_BUFFER_BYTES):
        edges |= {boundary - 1, boundary}
    return sorted(edges)


class TestBoundedCheck:
    def test_the_wide_index_ends_inside_its_fifth_or_later_buffer(
        self, wide_index
    ):
        _, data, _ = wide_index
        body = len(data) - TRAILER_SIZE
        assert body > 4 * CHECK_BUFFER_BYTES
        assert body % CHECK_BUFFER_BYTES  # the last buffer is partial
        assert len(_buffer_edges(len(data))) == 2 + 2 * (
            body // CHECK_BUFFER_BYTES
        )

    def test_a_bit_flip_at_every_buffer_edge_is_refused(
        self, wide_index, tmp_path
    ):
        _, data, _ = wide_index
        torn = tmp_path / SERVING_INDEX_NAME
        served = []
        for offset in _buffer_edges(len(data)):
            damaged = bytearray(data)
            damaged[offset] ^= 0x01
            torn.write_bytes(damaged)
            try:
                ServingIndex.open(torn).close()
            except ServingIndexError as error:
                assert "CRC mismatch" in error.reason
            else:
                served.append(offset)
        assert served == []

    def test_a_file_cut_by_one_buffer_is_refused(self, wide_index, tmp_path):
        _, data, _ = wide_index
        torn = tmp_path / SERVING_INDEX_NAME
        torn.write_bytes(data[:-CHECK_BUFFER_BYTES])
        with pytest.raises(ServingIndexError, match="trailer magic"):
            ServingIndex.open(torn)

    def test_the_intact_index_answers_every_row(self, wide_index):
        path, _, addresses = wide_index
        with ServingIndex.open(path) as index:
            assert index.rows == len(addresses)
            assert index.contains_batch(addresses) == [True] * len(addresses)

    @pytest.mark.skipif(not HAS_SMAPS, reason="reads /proc/self/smaps")
    def test_open_maps_no_more_than_a_buffer_and_queries_fault_in_rows(
        self, wide_index
    ):
        path, _, addresses = wide_index
        with ServingIndex.open(path) as index:
            opened = mapped_rss(path)
            assert list(opened) == [str(path)]
            assert opened[str(path)] <= CHECK_BUFFER_BYTES
            index.record_batch(addresses)
            # record reads addr_hi, addr_lo, first, last and counts:
            # every page of five 8-byte columns.
            assert mapped_rss(path)[str(path)] >= 5 * 8 * len(addresses)
        assert mapped_rss(path) == {}


CRASH_COPY_SCRIPT = """
import os, signal, sys
from repro.serve import build_serving_index

directory, cut = sys.argv[1], int(sys.argv[2])
path = build_serving_index(directory)
data = path.read_bytes()
# A non-atomic copier (rsync --inplace, cp) dying mid-copy: write the
# first `cut` bytes straight over the published file, then SIGKILL.
with open(path, "wb") as stream:
    stream.write(data[:cut])
    stream.flush()
    os.fsync(stream.fileno())
    os.kill(os.getpid(), signal.SIGKILL)
"""

CRASH_BUILD_SCRIPT = """
import os, signal, sys
import repro.core.durable as durable
from repro.serve import build_serving_index

directory = sys.argv[1]

def dying_atomic(path, chunks):
    # Die inside the temp-file write, before os.replace: the crash
    # window of the real builder, which streams the file as chunks.
    chunks = list(chunks)
    with open(str(path) + ".tmp-crash", "wb") as stream:
        for chunk in chunks[: len(chunks) // 2]:
            stream.write(chunk)
        stream.flush()
        os.fsync(stream.fileno())
    os.kill(os.getpid(), signal.SIGKILL)

durable.atomic_write = dying_atomic
build_serving_index(directory)
"""


class TestCrashSafety:
    @pytest.mark.parametrize("cut_fraction", [0.2, 0.6, 0.95])
    def test_sigkill_mid_copy_leaves_detectable_tear(
        self, tmp_path, routing, cut_fraction
    ):
        write_serve_store(tmp_path, per_segment=40, segments=2)
        probe = build_serving_index(tmp_path)
        cut = int(len(probe.read_bytes()) * cut_fraction)
        probe.unlink()
        process = subprocess.run(
            [
                sys.executable,
                "-c",
                CRASH_COPY_SCRIPT,
                str(tmp_path),
                str(cut),
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(__file__))
            ),
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        # The tear is detected, never served...
        with pytest.raises(ServingIndexError):
            ServingIndex.open(tmp_path)
        # ...and ensure_serving_index rebuilds from the .idx partials.
        metrics = MetricsRegistry()
        index = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        try:
            assert metrics.counter_value(
                "repro_serve_index_rebuilds_total",
                labels={"reason": "torn"},
            ) == 1
            assert index.has_origin_table
            assert index.rows > 0
        finally:
            index.close()

    def test_sigkill_inside_the_builder_cannot_tear(
        self, tmp_path, routing
    ):
        """The atomic replace means the published file is old or new,
        never half-written."""
        write_serve_store(tmp_path, per_segment=40, segments=2)
        build_serving_index(tmp_path, routing=routing)
        before = (tmp_path / SERVING_INDEX_NAME).read_bytes()
        process = subprocess.run(
            [sys.executable, "-c", CRASH_BUILD_SCRIPT, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(__file__))
            ),
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        # The published index is untouched and still validates.
        assert (tmp_path / SERVING_INDEX_NAME).read_bytes() == before
        ServingIndex.open(tmp_path).close()


class TestEnsure:
    def test_reuse_then_stale_after_commit(
        self, tmp_path, ground_truth, routing
    ):
        store = write_serve_store(tmp_path, per_segment=30, segments=2)
        metrics = MetricsRegistry()
        first = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        generation = first.generation
        digest = first.source_digest
        first.close()
        assert (
            metrics.counter_value(
                "repro_serve_index_rebuilds_total",
                labels={"reason": "missing"},
            )
            == 1
        )

        second = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        assert second.generation == generation  # reused, not rebuilt
        second.close()
        assert (
            metrics.counter_value("repro_serve_index_reused_total") == 1
        )

        # A new committed segment changes the manifest digest: stale.
        from repro.core.corpus import AddressCorpus

        extra = AddressCorpus("serve")
        new_address = (0x2001 << 112) | (3 << 96) | 0xABCDEF
        extra.record(new_address, 42.0)
        meta = store.write_segment(
            extra, segment_id="seg-extra", start_day=14, end_day=21
        )
        store.commit([meta], completed_weeks=3)
        assert manifest_digest(store.load_manifest()) != digest

        third = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        try:
            assert third.generation == generation + 1
            assert (
                metrics.counter_value(
                    "repro_serve_index_rebuilds_total",
                    labels={"reason": "stale"},
                )
                == 1
            )
            assert third.contains_batch([new_address]) == [True]
        finally:
            third.close()

    def test_rebuild_when_routing_demands_origin_table(
        self, tmp_path, routing
    ):
        write_serve_store(tmp_path, per_segment=10, segments=1)
        metrics = MetricsRegistry()
        bare = ensure_serving_index(tmp_path, metrics=metrics)
        assert not bare.has_origin_table
        bare.close()
        upgraded = ensure_serving_index(
            tmp_path, routing=routing, metrics=metrics
        )
        try:
            assert upgraded.has_origin_table
            assert (
                metrics.counter_value(
                    "repro_serve_index_rebuilds_total",
                    labels={"reason": "no-origin-table"},
                )
                == 1
            )
        finally:
            upgraded.close()

    def test_forced_rebuild(self, tmp_path):
        write_serve_store(tmp_path, per_segment=10, segments=1)
        first = ensure_serving_index(tmp_path)
        generation = first.generation
        first.close()
        second = ensure_serving_index(tmp_path, rebuild=True)
        try:
            assert second.generation == generation + 1
        finally:
            second.close()

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="MANIFEST"):
            ensure_serving_index(tmp_path)

    def test_a_mistyped_directory_is_not_created(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ensure_serving_index(tmp_path / "typo")
        with pytest.raises(FileNotFoundError):
            ensure_serving_index(tmp_path / "typo" / "sub", lock=True)
        with pytest.raises(FileNotFoundError):
            IndexBuild(tmp_path / "nope").result(MetricsRegistry())
        assert list(tmp_path.iterdir()) == []


class TestZeroCopy:
    def test_queries_survive_segment_deletion(
        self, tmp_path, routing
    ):
        """Proof the serving path reads no sealed ``.seg`` payload."""
        write_serve_store(tmp_path, per_segment=60, segments=3)
        from repro.core.index import CorpusIndex
        from repro.core.segments import SegmentedCorpusReader

        gt = CorpusIndex.build(
            SegmentedCorpusReader.open(tmp_path).load()
        )
        queries = sorted(gt.addresses) + [0, (1 << 128) - 1]
        build_serving_index(tmp_path, routing=routing)

        removed = 0
        for segment in tmp_path.glob("*.seg"):
            segment.unlink()
            removed += 1
        assert removed > 0

        with ServingIndex.open(tmp_path) as index:
            assert_index_matches(index, gt, routing, queries)

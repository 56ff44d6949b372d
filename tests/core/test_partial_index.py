"""Properties of the incremental (partial-index) analysis path.

Three contracts, each pinned bit-for-bit:

* **fold == rebuild** — folding seal-time partial indexes through
  :meth:`CorpusIndex.from_partials` produces the exact index a cold
  :meth:`CorpusIndex.build` over the merged corpus would, including
  empty segments, single-address segments and duplicate addresses
  spanning segment boundaries.
* **zero re-reads** — an indexed analysis over a committed store folds
  partials only; no sealed ``.seg`` file is opened (proved both by the
  reuse/rescan counters and by deleting every segment file outright).
* **partials are pure accelerators** — a missing, torn or stale ``.idx``
  silently falls back to rescanning the segment, never changing what
  analysis observes.

The vectorized kernels behind all of this must also agree with the
scalar reference functions: :func:`~repro.core.kernels.iid_features`
and the :mod:`repro.addr` functions it calls.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.addr.eui64 import mac_to_iid
from repro.addr.ipv6 import with_iid
from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex, PartialIndexColumns
from repro.core.segments import (
    PARTIAL_INDEX_SUFFIX,
    SegmentStore,
    SegmentedCorpusReader,
)
from repro.obs import MetricsRegistry

# Few /64s and a tiny IID pool: duplicate addresses across segments are
# the common case, not a lucky draw.
BLOCKS = [(0x2001 << 112) | (block << 96) for block in range(1, 4)]
MACS = [0x0011_22_00_00_00 + n for n in range(4)]

IIDS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=0xFF),
    st.sampled_from(MACS).map(mac_to_iid),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

sighting = st.tuples(
    st.sampled_from(BLOCKS),
    st.integers(min_value=0, max_value=2),  # /48 selector
    st.integers(min_value=0, max_value=1),  # /64 selector
    IIDS,
    st.floats(min_value=0.0, max_value=3e7, allow_nan=False),
)

# A store: several segments, each possibly empty or single-address.
segment_lists = st.lists(
    st.lists(sighting, min_size=0, max_size=25), min_size=1, max_size=6
)


def build_corpus(name, events):
    corpus = AddressCorpus(name)
    for block, s48, s64, iid, when in events:
        corpus.record(with_iid(block | (s48 << 80) | (s64 << 64), iid), when)
    return corpus


def write_store(directory, segments, metrics=None):
    """Seal ``segments`` (one corpus each) and commit them all."""
    store = SegmentStore(directory, name="prop", metrics=metrics)
    metas = []
    for number, events in enumerate(segments):
        corpus = build_corpus("prop", events)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"seg-{number:03d}",
                start_day=number * 7,
                end_day=(number + 1) * 7,
            )
        )
    store.commit(metas, completed_weeks=len(segments))
    return store


def assert_bit_identical(folded, rebuilt):
    """Every column, aggregate and emission *order* matches exactly."""
    assert folded.addresses == rebuilt.addresses
    for column, dtype in PartialIndexColumns.COLUMN_SPEC:
        left, right = getattr(folded, column), getattr(rebuilt, column)
        assert isinstance(left, np.ndarray), column
        assert left.dtype == right.dtype, column
        assert left.dtype.newbyteorder("<") == np.dtype(dtype), column
        assert left.tobytes() == right.tobytes(), column
    # Sets and mappings compared in iteration order too; float
    # aggregates through struct.pack: bit-for-bit, not approximately.
    assert list(folded.slash48_set()) == list(rebuilt.slash48_set())
    assert list(folded.slash64_set()) == list(rebuilt.slash64_set())
    assert list(folded.slash64_address_counts().items()) == list(
        rebuilt.slash64_address_counts().items()
    )
    assert list(folded.eui64_rows().items()) == list(
        rebuilt.eui64_rows().items()
    )
    assert _packed(folded.lifetimes()) == _packed(rebuilt.lifetimes())
    assert list(folded.iid_intervals().items()) == list(
        rebuilt.iid_intervals().items()
    )
    assert _packed_map(folded.iid_entropies()) == _packed_map(
        rebuilt.iid_entropies()
    )
    assert folded.eui64_mac_intervals() == rebuilt.eui64_mac_intervals()


def _packed(values):
    return struct.pack(f"<{len(values)}d", *values)


def _packed_map(mapping):
    return [(key, struct.pack("<d", value)) for key, value in mapping.items()]


class TestFoldEqualsRebuild:
    @settings(max_examples=40, deadline=None)
    @given(segments=segment_lists)
    def test_fold_equals_cold_rebuild(self, segments, tmp_path_factory):
        directory = tmp_path_factory.mktemp("store")
        store = write_store(directory, segments)
        reader = store.reader()
        folded = reader.build_index()
        # The reference: a cold full-scan rebuild over the corpus the
        # reader materializes from the same sealed segments.
        rebuilt = CorpusIndex.build(reader.load())
        assert_bit_identical(folded, rebuilt)

    def test_empty_segments_fold(self, tmp_path):
        store = write_store(tmp_path, [[], [], []])
        folded = store.reader().build_index()
        assert folded.addresses == []
        assert_bit_identical(folded, CorpusIndex.build(AddressCorpus("prop")))

    def test_single_address_segments_fold(self, tmp_path):
        segments = [
            [(BLOCKS[0], 0, 0, 5, 1.0)],
            [(BLOCKS[1], 1, 0, mac_to_iid(MACS[0]), 2.0)],
            [(BLOCKS[0], 0, 0, 5, 3.0)],  # duplicate across the boundary
        ]
        store = write_store(tmp_path, segments)
        folded = store.reader().build_index()
        rebuilt = CorpusIndex.build(store.reader().load())
        assert_bit_identical(folded, rebuilt)
        address = with_iid(BLOCKS[0], 5)
        row = folded.addresses.index(address)
        assert folded.first[row] == 1.0
        assert folded.last[row] == 3.0
        assert folded.counts[row] == 2

    @settings(max_examples=25, deadline=None)
    @given(segments=segment_lists)
    def test_load_indexed_equals_load(self, segments, tmp_path_factory):
        directory = tmp_path_factory.mktemp("store")
        reader = write_store(directory, segments).reader()
        indexed = reader.load_indexed()
        assert indexed.index is not None
        assert dict(indexed.items()) == dict(reader.load().items())


class TestZeroSegmentRereads:
    def _store(self, tmp_path, registry):
        segments = [
            [(BLOCKS[b], s, 0, iid, float(day))
             for iid in (0, 7, mac_to_iid(MACS[0]))
             for day, (b, s) in enumerate([(0, 0), (1, 1), (2, 0)])]
            for b in range(3) for s in range(2)
        ]
        return write_store(tmp_path, segments, metrics=registry), segments

    def test_indexed_analysis_reads_no_segments(self, tmp_path):
        registry = MetricsRegistry()
        store, segments = self._store(tmp_path, registry)
        reader = store.reader()
        reader.build_index()
        reused = registry.counter_value("repro_index_segments_reused_total")
        assert reused == len(segments) > 0
        assert (
            registry.counter_value("repro_index_segments_rescanned_total")
            == 0
        )

    def test_indexed_load_survives_deleted_segments(self, tmp_path):
        # The strongest possible zero-reread proof: after every .seg is
        # deleted, the partial-index path still reproduces the corpus.
        registry = MetricsRegistry()
        store, segments = self._store(tmp_path, registry)
        expected = dict(store.reader().load().items())
        for meta in store.reader().segments():
            store.segment_path(meta).unlink()
        corpus = SegmentedCorpusReader.open(
            tmp_path, metrics=registry
        ).load_indexed()
        assert dict(corpus.items()) == expected
        assert corpus.index is not None


class TestPartialFallback:
    def _one_segment_store(self, tmp_path, registry):
        return write_store(
            tmp_path, [[(BLOCKS[0], 0, 0, 5, 1.0)]], metrics=registry
        )

    def _folded(self, store, registry):
        folded = store.reader().build_index()
        return (
            folded,
            registry.counter_value("repro_index_segments_reused_total"),
            registry.counter_value("repro_index_segments_rescanned_total"),
        )

    def test_missing_partial_falls_back_to_rescan(self, tmp_path):
        registry = MetricsRegistry()
        store = self._one_segment_store(tmp_path, registry)
        meta = store.reader().segments()[0]
        store.partial_index_path(meta).unlink()
        folded, reused, rescanned = self._folded(store, registry)
        assert (reused, rescanned) == (0, 1)
        assert_bit_identical(folded, CorpusIndex.build(store.load_segment(meta)))

    def test_corrupt_partial_falls_back_to_rescan(self, tmp_path):
        registry = MetricsRegistry()
        store = self._one_segment_store(tmp_path, registry)
        meta = store.reader().segments()[0]
        path = store.partial_index_path(meta)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        folded, reused, rescanned = self._folded(store, registry)
        assert (reused, rescanned) == (0, 1)
        assert_bit_identical(folded, CorpusIndex.build(store.load_segment(meta)))

    def test_stale_partial_from_older_generation_is_rejected(self, tmp_path):
        # A partial bound to a previous seal of the segment id (different
        # checksum) must not be trusted for the rewritten segment.
        registry = MetricsRegistry()
        store = SegmentStore(tmp_path, name="prop", metrics=registry)
        first = store.write_segment(
            build_corpus("prop", [(BLOCKS[0], 0, 0, 5, 1.0)]),
            segment_id="seg-000", start_day=0, end_day=7,
        )
        stale = store.partial_index_path(first).read_bytes()
        second = store.write_segment(
            build_corpus("prop", [(BLOCKS[1], 0, 0, 6, 2.0)]),
            segment_id="seg-000", start_day=0, end_day=7,
        )
        store.partial_index_path(second).write_bytes(stale)
        store.commit([second], completed_weeks=1)
        folded, reused, rescanned = self._folded(store, registry)
        assert (reused, rescanned) == (0, 1)
        assert folded.addresses == [with_iid(BLOCKS[1], 6)]

    def test_partial_roundtrip(self, tmp_path):
        corpus = build_corpus(
            "prop",
            [(BLOCKS[0], 0, 0, 5, 1.0), (BLOCKS[1], 1, 1, 9, 2.0)],
        )
        partial = PartialIndexColumns.from_corpus(corpus)
        clone = PartialIndexColumns.from_payload(
            partial.to_payload(), len(partial)
        )
        for name, _ in PartialIndexColumns.COLUMN_SPEC:
            assert (
                getattr(clone, name).tobytes()
                == getattr(partial, name).tobytes()
            ), name

    def test_partial_suffix_is_public(self, tmp_path):
        store = self._one_segment_store(tmp_path, MetricsRegistry())
        meta = store.reader().segments()[0]
        assert store.partial_index_path(meta).suffix == PARTIAL_INDEX_SUFFIX


U64_EDGES = st.sampled_from(
    [1, (1 << 32) - 1, 1 << 32, 1 << 63, (1 << 63) + 1, (1 << 64) - 1]
)


class TestFoldCountRange:
    """The record fold sums counts exactly: it raises ``OverflowError``
    exactly when some address's Python-int sum passes uint64, and
    otherwise returns those sums (numpy's uint64 sum wraps silently)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(
                    U64_EDGES,
                    st.integers(min_value=1, max_value=(1 << 64) - 1),
                ),
            ),
            max_size=12,
        )
    )
    def test_sums_are_exact_or_raise(self, rows):
        totals = {}
        for address, count in rows:
            totals[address] = totals.get(address, 0) + count
        columns = (
            np.zeros(len(rows), dtype=np.uint64),
            np.array([address for address, _ in rows], dtype=np.uint64),
            np.zeros(len(rows)),
            np.zeros(len(rows)),
            np.array([count for _, count in rows], dtype=np.uint64),
        )
        if any(total >= 1 << 64 for total in totals.values()):
            with pytest.raises(OverflowError):
                kernels.sorted_record_fold(*columns)
        else:
            *_, lo, _, _, counts = kernels.sorted_record_fold(*columns)
            assert lo.tolist() == sorted(totals)
            assert counts.tolist() == [totals[key] for key in sorted(totals)]

    def test_a_sum_that_wraps_past_its_largest_term_raises(self):
        # 3 * 2**63 wraps to 2**63, no smaller than any term: a check
        # that compares the wrapped sum with the terms misses it.
        columns = (
            np.zeros(3, dtype=np.uint64),
            np.zeros(3, dtype=np.uint64),
            np.zeros(3),
            np.zeros(3),
            np.full(3, 1 << 63, dtype=np.uint64),
        )
        with pytest.raises(OverflowError):
            kernels.sorted_record_fold(*columns)


class TestKernelOracleEquivalence:
    """The vectorized kernels equal the scalar reference functions."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(IIDS, min_size=0, max_size=60))
    def test_feature_columns_match_scalar(self, iids):
        entropies, codes, macs = kernels.iid_feature_columns(
            np.array(iids, dtype=np.uint64)
        )
        expected = [kernels.iid_features(iid) for iid in iids]
        assert entropies.tobytes() == np.array(
            [entropy for entropy, _, _ in expected], dtype=np.float64
        ).tobytes()
        assert codes.tobytes() == bytes(code for _, code, _ in expected)
        assert macs.tobytes() == np.array(
            [mac for _, _, mac in expected], dtype=np.uint64
        ).tobytes()
        # One row per IID (each in its own /64, so IIDs may repeat): the
        # index's entropy map is keyed in first-occurrence order.
        corpus = AddressCorpus("iids")
        for row, iid in enumerate(iids):
            corpus.record((row << 64) | iid, 0.0)
        first_seen = {}
        for iid, (entropy, _, _) in zip(iids, expected):
            first_seen.setdefault(iid, entropy)
        assert _packed_map(
            CorpusIndex.build(corpus).iid_entropies()
        ) == _packed_map(first_seen)

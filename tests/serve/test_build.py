"""Building ``SERVING.rsi``: pinned bytes, bounded memory, the fold's tie rule.

Pinned contracts:

* **the RSI1 bytes do not move** — the sha256 of a freshly built index
  (generation 1) is fixed for three stores: the shared serving store
  with and without an origin table, and an empty committed store.
* **the sealed bytes do not move** — the sha256 of every ``.seg``
  segment and ``.idx`` partial the shared serving store seals is fixed.
* **bounded memory** — the build's traced peak stays within four times
  the size of the file it writes.
* **ties fold like ``AddressCorpus.merge``** — when two segments tie at
  a signed zero, ``from_partials``, ``CorpusIndex.build`` over the
  merged corpus and the served record all keep the *earlier* segment's
  value (``-0.0 == 0.0``, so values are compared as packed bytes).
* **serving builds no world** — ``repro serve --scale`` bakes the
  preset's origin table from its routing table alone, and answers
  origins as the full world's routing table does.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro import cli
from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.segments import SegmentStore
from repro.serve import ServingIndex, build_serving_index
from repro.world import WorldBuilder, build_world, preset_config

from .conftest import make_routing, write_serve_store

PINNED_SHA256 = {
    "routed": "75f1eb81304e372c65bd9f906a1c43c06bef75bd58498ef982278b02a23c0cbc",
    "bare": "08a897233182918d844b0dcb6e2824764e83dea4f91370d33df790b79cd61afb",
    "empty": "0bc267ee9ed1505ec4f165f605f3df947886fe857414ec0abe34461c4af70463",
}


#: sha256 of each file :func:`write_serve_store` seals.
PINNED_SEALED_SHA256 = {
    "seg-000.seg": "330bb898dfd3818213a6fe27411414838962dccf3a076bc42f15b332f992e3e5",
    "seg-000.idx": "83b090c8281bda430dba19304eb897eccff377639e1c8530ebf83c23c8cba52b",
    "seg-001.seg": "bc333748c311c878047df941da92b435fc7eb233083ffd6b12902de523888e5c",
    "seg-001.idx": "adf9ef2883c771633bfe636ad279dece7061121e84e0e88c8650fff37254daf4",
    "seg-002.seg": "dfef69a4eab2222c1be39d7b8828d647241204a3207d6e95c94457831abe998e",
    "seg-002.idx": "063c10704ec5036e141a203c9ccdb7c1464edd27e7748891f6069f027e34254f",
}


def test_sealed_segment_and_partial_bytes_are_pinned(tmp_path):
    write_serve_store(tmp_path)
    sealed = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path.suffix in (".seg", ".idx")
    }
    assert sealed == PINNED_SEALED_SHA256


@pytest.mark.parametrize("store,digest", sorted(PINNED_SHA256.items()))
def test_rsi1_bytes_are_pinned(tmp_path, store, digest):
    if store == "empty":
        SegmentStore(tmp_path, name="empty").commit([], completed_weeks=0)
        path = build_serving_index(tmp_path)
    else:
        write_serve_store(tmp_path)
        routing = make_routing() if store == "routed" else None
        path = build_serving_index(tmp_path, routing=routing)
    with ServingIndex.open(path) as index:
        assert index.generation == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_build_peak_memory_within_four_file_sizes(tmp_path):
    write_serve_store(tmp_path, per_segment=10000, segments=3)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        path = build_serving_index(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size, (peak, path.stat().st_size)


def test_serve_scale_builds_no_world(tmp_path, monkeypatch):
    reference = build_world(preset_config("tiny", seed=3)).routing
    # One address inside every announcement, and two in no announced
    # space, so the origin table has both kinds of answer to give.
    addresses = [
        item.prefix.network | 1 for item in reference.routed_prefixes()
    ] + [0x3FFF << 112, (1 << 128) - 1]
    corpus = AddressCorpus("origins")
    for address in addresses:
        corpus.record(address, 0.0)
    store = SegmentStore(tmp_path, name="origins")
    meta = store.write_segment(
        corpus, segment_id="seg-0", start_day=0, end_day=7
    )
    store.commit([meta], completed_weeks=1)

    def no_world(self):
        raise AssertionError("repro serve built a world")

    monkeypatch.setattr(WorldBuilder, "build", no_world)
    argv = ["serve", str(tmp_path), "--scale", "tiny", "--seed", "3"]
    assert cli.main(argv + ["--build-only"]) == 0
    want = [reference.origin_asn(address) for address in addresses]
    assert None not in want[:-2] and want[-2:] == [None, None]
    with ServingIndex.open(tmp_path) as index:
        assert index.has_origin_table
        assert index.origin_batch(addresses) == want


TIES = [(-0.0, +0.0), (+0.0, -0.0), (+0.0, +0.0)]
ADDRESS = (0x2001 << 112) | (1 << 96) | 0x1234


def packed(value):
    return struct.pack("<d", value)


def tie_columns(column, earlier, later):
    """(first, last) per sighting: tied in ``column``, distinct in the
    other, so only the tie decides what the fold keeps."""
    if column == "first":
        return [(earlier, 10.0), (later, 11.0)]
    return [(-10.0, earlier), (-11.0, later)]


@pytest.mark.parametrize("earlier,later", TIES)
@pytest.mark.parametrize("column", ["first", "last"])
class TestSignedZeroTies:
    def test_fold_rebuild_and_served_keep_the_earlier_zero(
        self, tmp_path, column, earlier, later
    ):
        store = SegmentStore(tmp_path, name="ties")
        metas = []
        for number, (first, last) in enumerate(
            tie_columns(column, earlier, later)
        ):
            corpus = AddressCorpus("ties")
            corpus.record_interval(ADDRESS, first, last)
            metas.append(
                store.write_segment(
                    corpus,
                    segment_id=f"seg-{number}",
                    start_day=7 * number,
                    end_day=7 * number + 7,
                )
            )
        store.commit(metas, completed_weeks=2)
        build_serving_index(tmp_path)

        folded = store.reader().build_index()
        rebuilt = CorpusIndex.build(store.reader().load())
        want = packed(earlier)
        assert packed(getattr(folded, column)[0]) == want
        assert packed(getattr(rebuilt, column)[0]) == want
        assert folded.first.tobytes() == rebuilt.first.tobytes()
        assert folded.last.tobytes() == rebuilt.last.tobytes()
        with ServingIndex.open(tmp_path) as index:
            # One batch on each side of the search kernel's size cut.
            for batch in ([ADDRESS], [ADDRESS] * 8):
                for first, last, count in index.record_batch(batch):
                    served = first if column == "first" else last
                    assert packed(served) == want
                    assert count == 4

    def test_iid_intervals_keep_the_earlier_zero(
        self, column, earlier, later
    ):
        sightings = tie_columns(column, earlier, later)
        intervals = kernels.interval_map(
            np.array([5, 5], dtype=np.uint64),
            np.array([first for first, _ in sightings]),
            np.array([last for _, last in sightings]),
        )
        low, high = intervals[5]
        assert packed(low if column == "first" else high) == packed(earlier)


def test_count_past_uint64_builds_no_index(tmp_path):
    """The serving build folds like every reader: two segments that each
    count 2**63 sightings of ``::5`` raise the typed error instead of
    serving a wrapped count of 0, and no ``SERVING.rsi`` is written."""
    store = SegmentStore(tmp_path, name="busy")
    metas = []
    for number in range(2):
        corpus = AddressCorpus("busy")
        corpus.record_interval(5, 1.0, 2.0, 1 << 63)
        corpus.record_interval(7, 1.0, 2.0, 1)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"seg-{number}",
                start_day=7 * number,
                end_day=7 * number + 7,
            )
        )
    store.commit(metas, completed_weeks=2)
    with pytest.raises(ValueError) as excinfo:
        build_serving_index(tmp_path, routing=make_routing())
    assert str(excinfo.value) == (
        "observation count 18,446,744,073,709,551,616 of ::5 exceeds the "
        "uint64 range of binary format v2"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "MANIFEST.json", "seg-0.idx", "seg-0.seg", "seg-1.idx", "seg-1.seg"
    ]

"""The columnar seal writes the bytes of the per-record reference.

``save_corpus_binary`` and ``SegmentStore.write_segment`` pack a corpus
from one sorted set of numpy columns; ``tests/naive_seal.py`` sorts with
``sorted(items())`` and packs record by record.  Over drawn corpora the
``.bin``, ``.seg`` and ``.idx`` bytes (and the manifest entry) must be
equal.  The draws reach the edges a columnar pack can get wrong: the
lowest and highest address, addresses sharing one 64-bit half, signed
zeros, subnormal and extreme floats, counts of 1 and 2**64-1, an empty
corpus and non-ASCII names.

Compaction seals the fold of the segments' partials; its ``.seg`` and
``.idx`` must be the reference encoding of ``AddressCorpus.merge`` over
the same ``.seg`` files, in manifest order, whatever the segment layout
and whether a partial had to be rescanned.  Only runs of adjacent small
segments fold, each in its run's place: with segments committed out of
day order and a large one between small ones, tied zeros keep the sign
the manifest order gave them.
"""

import io
import sys
import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.corpus import AddressCorpus
from repro.core.segments import (
    SEGMENT_OVERHEAD_BYTES,
    SegmentBufferedCorpus,
    SegmentStore,
)
from repro.core.storage import BINARY_RECORD_BYTES, save_corpus_binary
from repro.obs import MetricsRegistry

from .. import naive_seal as naive

TOP = (1 << 64) - 1

# Few distinct halves per corpus, so addresses share a ``hi`` with a
# different ``lo`` and a ``lo`` with a different ``hi``.
HALVES = st.one_of(
    st.sampled_from([0, 1, 1 << 63, TOP]),
    st.integers(min_value=0, max_value=TOP),
)

TIMES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, sys.float_info.min, sys.float_info.max]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)

COUNTS = st.one_of(
    st.sampled_from([1, TOP]),
    st.integers(min_value=1, max_value=TOP),
)

NAMES = st.one_of(
    st.sampled_from(["hitlist", "hitlist été ✓", "\U0001f310"]),
    st.text(
        st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\r\n"
        ),
        min_size=1,
        max_size=12,
    ),
)


@st.composite
def corpora(draw):
    """A corpus whose records arrive in drawn, not address, order."""
    his = draw(st.lists(HALVES, min_size=1, max_size=4, unique=True))
    los = draw(st.lists(HALVES, min_size=1, max_size=4, unique=True))
    addresses = draw(
        st.lists(
            st.tuples(st.sampled_from(his), st.sampled_from(los)).map(
                lambda halves: (halves[0] << 64) | halves[1]
            ),
            unique=True,
            max_size=16,
        )
    )
    corpus = AddressCorpus(draw(NAMES))
    for address in addresses:
        first, last = sorted(draw(st.tuples(TIMES, TIMES)))
        corpus.record_interval(address, first, last, draw(COUNTS))
    return corpus


def edge_corpus():
    """Every edge at once, inserted in descending address order."""
    corpus = AddressCorpus("hitlist été")
    records = [
        ((TOP << 64) | TOP, -0.0, 0.0, TOP),
        ((TOP << 64) | 1, 5e-324, sys.float_info.max, 1),
        ((1 << 64) | TOP, -sys.float_info.max, -0.0, 2),
        ((1 << 64) | 1, sys.float_info.min, 1.5, TOP),
        (TOP, 0.0, 0.0, 1),
        (0, -5e-324, 5e-324, 7),
    ]
    for address, first, last, count in records:
        corpus.record_interval(address, first, last, count)
    return corpus


class TestSealIdentity:
    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora())
    @example(corpus=edge_corpus())
    @example(corpus=AddressCorpus("empty"))
    def test_save_corpus_binary_matches_per_record_writer(self, corpus):
        stream = io.BytesIO()
        written = save_corpus_binary(corpus, stream)
        assert written == len(corpus)
        assert stream.getvalue() == naive.corpus_bytes(corpus)

    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora(), start_day=st.integers(0, 1000))
    @example(corpus=edge_corpus(), start_day=0)
    @example(corpus=AddressCorpus("empty"), start_day=0)
    def test_segment_and_partial_match_per_record_writer(
        self, corpus, start_day, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("seal")
        store = SegmentStore(directory, name="seal")
        meta = store.write_segment(
            corpus, segment_id="s", start_day=start_day, end_day=start_day + 7
        )
        segment = naive.segment_bytes(corpus, start_day, start_day + 7)
        segment_crc = zlib.crc32(segment[:-8])
        assert (directory / "s.seg").read_bytes() == segment
        assert (directory / "s.idx").read_bytes() == (
            naive.partial_index_bytes(corpus, segment_crc)
        )
        assert (meta.records, meta.size_bytes, meta.crc32) == (
            len(corpus),
            len(segment),
            segment_crc,
        )


#: Few addresses, so they repeat across segments.
POOL = [0, 5, (1 << 64) | 5, (TOP << 64) | TOP]

#: Mostly zeros of either sign, so folded extremes tie.
TIED_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([-0.0, 5e-324, -1.0, 1.0]),
)

#: ``(window, address, first, last, count)``; records are fed window by
#: window.
RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(POOL),
        st.tuples(TIED_TIMES, TIED_TIMES).map(sorted),
        st.integers(min_value=1, max_value=1 << 40),
    ).map(lambda r: (r[0], r[1], r[2][0], r[2][1], r[3])),
    min_size=1,
    max_size=24,
)


def _sealed_layout(directory, records, per_segment, registry):
    """Feed ``records`` through a buffer that seals every
    ``per_segment`` distinct addresses (1: a one-record budget)."""
    store = SegmentStore(
        directory,
        name="seal",
        segment_bytes=SEGMENT_OVERHEAD_BYTES
        + per_segment * BINARY_RECORD_BYTES,
        metrics=registry,
    )
    buffered = SegmentBufferedCorpus("seal", store)
    for window in sorted({record[0] for record in records}):
        buffered.set_window(7 * window, 7 * window + 7)
        for record_window, address, first, last, count in records:
            if record_window == window:
                buffered.record_interval(address, first, last, count)
    buffered.close()
    store.commit(buffered.take_sealed(), completed_weeks=3)
    return store


def _damage(store, meta, how):
    path = store.partial_index_path(meta)
    if how == "delete":
        path.unlink()
    elif how == "flip":
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))


#: Rows that make a segment large: none is in ``POOL``.
FILLER = [(2 << 64) | n for n in range(40)]

#: ``(address, first, last, count)`` rows of one small segment.
SMALL_ROWS = st.lists(
    st.tuples(
        st.sampled_from(POOL),
        st.tuples(TIED_TIMES, TIED_TIMES).map(sorted),
        st.integers(min_value=1, max_value=1 << 40),
    ).map(lambda r: (r[0], r[1][0], r[1][1], r[2])),
    min_size=1,
    max_size=3,
)


@st.composite
def commit_layouts(draw):
    """Segments in commit order, each ``(start_day, rows, large)``: the
    day ranges are a drawn permutation, and a large segment (one that
    also holds :data:`FILLER`) always sits between two small ones."""
    large = draw(st.lists(st.booleans(), max_size=4))
    at = draw(st.integers(min_value=0, max_value=len(large)))
    large[at:at] = [False, True, False]
    days = draw(st.permutations(range(len(large))))
    return [
        (7 * day, draw(SMALL_ROWS), big) for day, big in zip(days, large)
    ]


def _committed(directory, layout):
    store = SegmentStore(directory, name="seal")
    metas = []
    for number, (start_day, rows, large) in enumerate(layout):
        corpus = AddressCorpus("seal")
        for address, first, last, count in rows:
            corpus.record_interval(address, first, last, count)
        if large:
            for address in FILLER:
                corpus.record(address, 1.0)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"s{number}",
                start_day=start_day,
                end_day=start_day + 7,
            )
        )
    store.commit(metas, completed_weeks=len(layout))
    return store


def _merged(store, metas):
    merged = AddressCorpus("seal")
    for meta in metas:
        merged.merge(store.load_segment(meta))
    return merged


class TestCompactionIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        records=RECORDS,
        per_segment=st.sampled_from([1, 2, 3, 24]),
        damage=st.sampled_from([None, "delete", "flip"]),
        victim=st.integers(min_value=0, max_value=23),
    )
    # A -0.0 sighting after a +0.0 one of the same address, each its own
    # segment: the fold keeps the first of the tied zeros, in manifest
    # order, for both ends of the interval.
    @example(
        records=[(0, 5, 0.0, 0.0, 1), (0, 5, -0.0, -0.0, 1)],
        per_segment=1,
        damage=None,
        victim=0,
    )
    @example(
        records=[
            (0, 5, -0.0, 0.0, 1),
            (1, 5, 0.0, -0.0, 2),
            (1, 0, -0.0, -0.0, 3),
        ],
        per_segment=1,
        damage="flip",
        victim=1,
    )
    def test_compacted_files_encode_the_merge_of_the_segments(
        self, records, per_segment, damage, victim, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("compact")
        registry = MetricsRegistry()
        store = _sealed_layout(directory, records, per_segment, registry)
        metas = store.load_manifest().segments
        expected = store.reader().load()
        _damage(store, metas[victim % len(metas)], damage)
        before = sorted(path.name for path in directory.iterdir())

        manifest = store.compact(small_bytes=float("inf"))

        if len(metas) < 2:
            assert manifest.segments == metas
            assert sorted(p.name for p in directory.iterdir()) == before
            return
        [meta] = manifest.segments
        start = min(m.start_day for m in metas)
        end = max(m.end_day for m in metas)
        segment = naive.segment_bytes(expected, start, end)
        crc = zlib.crc32(segment[:-8])
        assert (directory / "compact-0001.seg").read_bytes() == segment
        assert (directory / "compact-0001.idx").read_bytes() == (
            naive.partial_index_bytes(expected, crc)
        )
        assert (meta.start_day, meta.end_day, meta.records, meta.crc32) == (
            start,
            end,
            len(expected),
            crc,
        )
        assert sorted(p.name for p in directory.iterdir()) == [
            "MANIFEST.json",
            "compact-0001.idx",
            "compact-0001.seg",
        ]
        assert registry.counter_value(
            "repro_index_segments_rescanned_total"
        ) == (0 if damage is None else 1)

    # The repro of the out-of-day-order tie: ``a`` (days 14-21, large)
    # sees ``::5`` first at 0.0, then ``b`` (days 0-7) at -0.0 and
    # ``c`` (days 7-14) elsewhere.  Folding ``b`` and ``c`` must not
    # move them before ``a``.
    @example(
        layout=[
            (14, [(5, 0.0, 0.0, 1)], True),
            (0, [(5, -0.0, -0.0, 1)], False),
            (7, [(0, 1.0, 1.0, 1)], False),
        ]
    )
    # Small segments on both sides of a large one: only the adjacent
    # run folds, so ``::5`` keeps the large segment's -0.0.
    @example(
        layout=[
            (0, [(0, 1.0, 1.0, 1)], False),
            (7, [(5, -0.0, -0.0, 1)], True),
            (14, [(5, 0.0, 0.0, 1)], False),
            (21, [(0, 2.0, 2.0, 1)], False),
        ]
    )
    @settings(max_examples=60, deadline=None)
    @given(layout=commit_layouts())
    def test_adjacent_small_runs_fold_in_place(
        self, layout, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("order")
        store = _committed(directory, layout)
        metas = store.load_manifest().segments
        threshold = min(
            meta.size_bytes
            for meta, (_, _, large) in zip(metas, layout)
            if large
        )
        expected = naive.corpus_bytes(store.reader().load())
        # Each maximal run of two or more small segments, with the
        # manifest position it starts at and the merge of its segments.
        runs = []
        for position, meta in enumerate(metas):
            if meta.size_bytes >= threshold:
                continue
            if runs and runs[-1][0] + len(runs[-1][1]) == position:
                runs[-1][1].append(meta)
            else:
                runs.append((position, [meta]))
        runs = [
            (position, run, _merged(store, run))
            for position, run in runs
            if len(run) > 1
        ]

        manifest = store.compact(small_bytes=threshold)

        reader = store.reader()
        assert naive.corpus_bytes(reader.load()) == expected
        assert naive.corpus_bytes(reader.load_indexed()) == expected
        want = list(metas)
        for number, (position, run, _) in reversed(list(enumerate(runs, 1))):
            want[position : position + len(run)] = [f"compact-{number:04d}"]
        assert [
            meta if meta in metas else meta.segment_id
            for meta in manifest.segments
        ] == want
        assert manifest.compactions == len(runs)
        for number, (_, run, merged) in enumerate(runs, 1):
            [meta] = [
                meta
                for meta in manifest.segments
                if meta.segment_id == f"compact-{number:04d}"
            ]
            start = min(m.start_day for m in run)
            end = max(m.end_day for m in run)
            segment = naive.segment_bytes(merged, start, end)
            crc = zlib.crc32(segment[:-8])
            assert (meta.start_day, meta.end_day) == (start, end)
            assert store.segment_path(meta).read_bytes() == segment
            assert store.partial_index_path(meta).read_bytes() == (
                naive.partial_index_bytes(merged, crc)
            )
        assert sorted(p.name for p in directory.glob("*.seg")) == sorted(
            meta.file for meta in manifest.segments
        )

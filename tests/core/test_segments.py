"""Tests for repro.core.segments — the streaming segment store.

The load-bearing invariant: a corpus record is ``[first, last, count]``
and the per-address fold (min/max/sum) is associative and commutative,
so *any* segmentation of the observation stream — per record, per
4 KiB, one giant segment, or a compacted mix — must load back a corpus
byte-identical to the monolithic in-memory one.  On top of that, the
manifest must never reference a torn segment, whatever instant a crash
lands on.
"""

import io
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corpus import AddressCorpus
from repro.core.segments import (
    DEFAULT_SEGMENT_BYTES,
    MANIFEST_NAME,
    Manifest,
    SegmentBufferedCorpus,
    SegmentError,
    SegmentMeta,
    SegmentStore,
    SegmentedCorpusReader,
)
from repro.core.storage import save_corpus_binary

# Flush budgets the property test pins: every record its own segment,
# a small page, and effectively infinite (one segment for everything).
THRESHOLDS = [1, 4096, 2 ** 62]

OBSERVATIONS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=(1 << 128) - 1),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
    min_size=0,
    max_size=120,
)


def corpus_bytes(corpus) -> bytes:
    buffer = io.BytesIO()
    save_corpus_binary(corpus, buffer)
    return buffer.getvalue()


def monolithic(observations) -> AddressCorpus:
    corpus = AddressCorpus("prop")
    for address, when in observations:
        corpus.record(address, when)
    return corpus


class TestFlushThresholdEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(observations=OBSERVATIONS)
    def test_any_flush_budget_loads_back_identical(
        self, observations, tmp_path_factory
    ):
        reference = corpus_bytes(monolithic(observations))
        for threshold in THRESHOLDS:
            directory = tmp_path_factory.mktemp("seg")
            store = SegmentStore(
                directory, name="prop", segment_bytes=threshold
            )
            buffered = SegmentBufferedCorpus("prop", store)
            buffered.set_window(0, 7)
            for address, when in observations:
                buffered.record(address, when)
            buffered.seal()
            store.commit(buffered.take_sealed(), completed_weeks=1)
            loaded = store.reader().load("prop")
            assert corpus_bytes(loaded) == reference, (
                f"threshold {threshold} diverged"
            )

    def test_one_record_budget_seals_per_mutation(self, tmp_path):
        store = SegmentStore(tmp_path, segment_bytes=1)
        buffered = SegmentBufferedCorpus("tiny", store)
        buffered.set_window(0, 7)
        for n in range(5):
            buffered.record(100 + n, float(n))
        assert len(buffered.sealed) == 5
        assert len(buffered) == 0


class TestSegmentStore:
    def test_commit_rejects_duplicate_segment_ids(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = AddressCorpus("dup")
        corpus.record(1, 0.0)
        meta = store.write_segment(
            corpus, segment_id="a", start_day=0, end_day=7
        )
        store.commit([meta])
        with pytest.raises(ValueError, match="already committed"):
            store.commit([meta])

    def test_watermark_is_monotonic(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.commit([], completed_weeks=4)
        store.commit([], completed_weeks=2)
        assert store.load_manifest().completed_weeks == 4

    def test_reader_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SegmentedCorpusReader.open(tmp_path)

    def test_manifest_round_trips_through_json(self, tmp_path):
        store = SegmentStore(tmp_path, name="rt")
        corpus = AddressCorpus("rt")
        corpus.record(42, 1.5)
        meta = store.write_segment(
            corpus, segment_id="d0", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1, metrics={"counters": {}})
        manifest = Manifest.from_json(
            json.loads((tmp_path / MANIFEST_NAME).read_text())
        )
        assert manifest.segments == [meta]
        assert manifest.completed_weeks == 1
        assert manifest.total_records == 1

    def test_rejects_foreign_manifest_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"format": "other"}')
        store = SegmentStore(tmp_path)
        with pytest.raises(SegmentError, match="manifest"):
            store.load_manifest()

    def test_unreferenced_files_are_ignored(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = AddressCorpus("c")
        corpus.record(7, 0.0)
        committed = store.write_segment(
            corpus, segment_id="live", start_day=0, end_day=7
        )
        # An orphan from a crashed attempt: on disk, never committed.
        store.write_segment(
            corpus, segment_id="orphan", start_day=0, end_day=7
        )
        store.commit([committed], completed_weeks=1)
        reader = store.reader()
        assert [meta.segment_id for meta in reader.segments()] == ["live"]
        assert len(reader.load()) == 1


class TestIntegrityDetection:
    def _one_committed_segment(self, tmp_path):
        store = SegmentStore(tmp_path, name="x")
        corpus = AddressCorpus("x")
        for n in range(10):
            corpus.record(1000 + n, float(n))
        meta = store.write_segment(
            corpus, segment_id="seg", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        return store, meta

    def test_truncated_segment_raises_naming_file(self, tmp_path):
        store, meta = self._one_committed_segment(tmp_path)
        path = store.segment_path(meta)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(SegmentError) as excinfo:
            store.load_segment(meta)
        assert str(path) in str(excinfo.value)

    def test_bitflipped_segment_raises_crc_mismatch(self, tmp_path):
        store, meta = self._one_committed_segment(tmp_path)
        path = store.segment_path(meta)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SegmentError, match="CRC"):
            store.load_segment(meta)

    def test_missing_segment_raises(self, tmp_path):
        store, meta = self._one_committed_segment(tmp_path)
        store.segment_path(meta).unlink()
        with pytest.raises(SegmentError, match="missing segment"):
            store.load_segment(meta)

    def test_manifest_mismatch_detected(self, tmp_path):
        store, meta = self._one_committed_segment(tmp_path)
        lying = SegmentMeta(
            segment_id=meta.segment_id,
            file=meta.file,
            start_day=meta.start_day,
            end_day=meta.end_day,
            records=meta.records + 1,
            size_bytes=meta.size_bytes,
            crc32=meta.crc32,
        )
        with pytest.raises(SegmentError, match="manifest says"):
            store.load_segment(lying)


class TestCountOverflow:
    def test_count_beyond_uint64_raises_and_writes_nothing(self, tmp_path):
        corpus = AddressCorpus("busy")
        # Two offenders, the higher address inserted first.
        corpus.record_interval((1 << 128) - 1, 1.0, 2.0, (1 << 64) + 5)
        corpus.record_interval(0x20010DB8 << 96 | 9, 1.0, 2.0, 1 << 64)
        corpus.record_interval(7, 1.0, 2.0, 3)
        store = SegmentStore(tmp_path, name="busy")
        with pytest.raises(ValueError) as excinfo:
            store.write_segment(
                corpus, segment_id="s", start_day=0, end_day=7
            )
        assert str(excinfo.value) == (
            "observation count 18,446,744,073,709,551,616 of 2001:db8::9 "
            "exceeds the uint64 range of binary format v2"
        )
        written = [
            path.name
            for path in tmp_path.iterdir()
            if path.suffix in (".seg", ".idx") or ".tmp-" in path.name
        ]
        assert written == []


def _overflowing_store(directory):
    """Three segments whose summed counts pass uint64 at ``::5`` (2**64)
    and ``::9`` (2**64), ``::9`` met first in manifest order."""
    store = SegmentStore(directory, name="busy")
    layout = [
        {9: 1 << 63},
        {5: 1 << 63, 9: 1 << 63, 7: 3},
        {5: 1 << 63},
    ]
    metas = []
    for number, counts in enumerate(layout):
        corpus = AddressCorpus("busy")
        for address, count in counts.items():
            corpus.record_interval(address, 1.0, 2.0, count)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"s{number}",
                start_day=7 * number,
                end_day=7 * number + 7,
            )
        )
    store.commit(metas, completed_weeks=len(metas))
    return store


FOLD_OVERFLOW = (
    "observation count 18,446,744,073,709,551,616 of ::5 exceeds the "
    "uint64 range of binary format v2"
)


class TestFoldCountOverflow:
    """Every fold of a store checks its summed counts: past uint64 it
    raises the seal's typed error naming the lowest address, never a
    wrapped count."""

    def test_partial_fold_raises_the_typed_error(self, tmp_path):
        reader = _overflowing_store(tmp_path).reader()
        for fold in (reader.load_indexed, reader.build_index):
            with pytest.raises(ValueError) as excinfo:
                fold()
            assert str(excinfo.value) == FOLD_OVERFLOW

    def test_seg_reference_keeps_the_exact_sum_and_its_index_raises(
        self, tmp_path
    ):
        corpus = _overflowing_store(tmp_path).reader().load()
        assert corpus.observation_count(5) == 1 << 64
        assert corpus.observation_count(9) == 1 << 64
        with pytest.raises(ValueError) as excinfo:
            corpus.index
        assert str(excinfo.value) == FOLD_OVERFLOW

    def test_compaction_raises_and_writes_nothing(self, tmp_path):
        store = _overflowing_store(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        manifest = (tmp_path / MANIFEST_NAME).read_bytes()
        with pytest.raises(ValueError) as excinfo:
            store.compact(small_bytes=float("inf"))
        assert str(excinfo.value) == FOLD_OVERFLOW
        assert sorted(path.name for path in tmp_path.iterdir()) == before
        assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest


class TestReadersCreateNothing:
    def test_a_failed_open_leaves_no_directory(self, tmp_path):
        missing = tmp_path / "typo2" / "sub"
        with pytest.raises(FileNotFoundError):
            SegmentedCorpusReader.open(missing)
        assert SegmentStore(missing).load_manifest() is None
        assert list(tmp_path.iterdir()) == []

    def test_writes_create_the_directory(self, tmp_path):
        sealed = SegmentStore(tmp_path / "a" / "sealed")
        corpus = AddressCorpus("c")
        corpus.record(3, 0.0)
        sealed.write_segment(corpus, segment_id="s", start_day=0, end_day=7)
        assert sorted(p.name for p in sealed.directory.iterdir()) == [
            "s.idx", "s.seg"
        ]
        committed = SegmentStore(tmp_path / "b" / "committed")
        committed.commit([], completed_weeks=1)
        assert committed.load_manifest().completed_weeks == 1


class TestCompaction:
    def test_compaction_preserves_bytes_and_prunes_files(self, tmp_path):
        store = SegmentStore(tmp_path, name="c", segment_bytes=1)
        buffered = SegmentBufferedCorpus("c", store)
        buffered.set_window(0, 7)
        for n in range(30):
            buffered.record(5000 + (n % 11), float(n))
        buffered.seal()
        store.commit(buffered.take_sealed(), completed_weeks=1)
        before = corpus_bytes(store.reader().load("c"))
        segment_count = len(store.load_manifest().segments)
        assert segment_count > 1

        manifest = store.compact(small_bytes=DEFAULT_SEGMENT_BYTES)
        assert len(manifest.segments) == 1
        assert manifest.segments[0].segment_id == "compact-0001"
        after = corpus_bytes(SegmentedCorpusReader.open(tmp_path).load("c"))
        assert after == before
        live = {meta.file for meta in manifest.segments}
        on_disk = {p.name for p in tmp_path.glob("*.seg")}
        assert on_disk == live

    def test_compaction_noop_below_two_small_segments(self, tmp_path):
        store = SegmentStore(tmp_path, name="c")
        corpus = AddressCorpus("c")
        corpus.record(9, 0.0)
        meta = store.write_segment(
            corpus, segment_id="only", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        manifest = store.compact()
        assert [m.segment_id for m in manifest.segments] == ["only"]
        assert manifest.compactions == 0


CRASH_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from repro.core.corpus import AddressCorpus
    from repro.core.segments import SegmentBufferedCorpus, SegmentStore

    directory = sys.argv[1]
    kill_after = int(sys.argv[2])
    store = SegmentStore(directory, name="crash", segment_bytes=1)

    sealed = 0
    original = store.write_segment

    def counting(*args, **kwargs):
        global sealed
        meta = original(*args, **kwargs)
        sealed += 1
        if sealed >= kill_after:
            # This segment just became durable (but is not yet on
            # buffered.sealed); commit everything durable so far, then
            # die *instantly* (no cleanup, no atexit) while later
            # buffered records are still unflushed.
            store.commit(
                buffered.take_sealed() + [meta], completed_weeks=1
            )
            os.kill(os.getpid(), 9)
        return meta

    store.write_segment = counting
    buffered = SegmentBufferedCorpus("crash", store)
    buffered.set_window(0, 7)
    for n in range(50):
        buffered.record(7000 + n, float(n))
    """
)


class TestCrashSafety:
    @pytest.mark.parametrize("kill_after", [1, 3, 7])
    def test_manifest_never_references_a_torn_segment(
        self, tmp_path, kill_after
    ):
        """SIGKILL mid-campaign: whatever was committed must verify."""
        process = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT, str(tmp_path), str(kill_after)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        reader = SegmentedCorpusReader.open(tmp_path)
        metas = reader.segments()
        assert len(metas) == kill_after
        # Every referenced segment loads and CRC-verifies; the fold is
        # exactly the records that had been sealed when the process died.
        loaded = reader.load()
        assert len(loaded) == kill_after
        assert reader.completed_weeks == 1

    def test_tail_sealed_on_clean_exit(self, tmp_path):
        """A buffer below the flush budget still reaches disk on exit.

        This was a data-loss bug: a campaign ending before the buffer
        crossed the byte budget silently dropped its unsealed tail.
        """
        store = SegmentStore(tmp_path, segment_bytes=1 << 20)
        with SegmentBufferedCorpus("tail", store) as buffered:
            buffered.set_window(0, 7)
            for n in range(10):
                buffered.record(9000 + n, float(n))
            assert buffered.estimated_bytes() < store.segment_bytes
            assert buffered.sealed == []
        assert len(buffered.sealed) == 1
        store.commit(buffered.take_sealed(), completed_weeks=1)
        assert len(SegmentedCorpusReader(store).load()) == 10

    def test_close_is_idempotent(self, tmp_path):
        store = SegmentStore(tmp_path, segment_bytes=1 << 20)
        buffered = SegmentBufferedCorpus("tail", store)
        buffered.set_window(0, 7)
        buffered.record(1, 0.0)
        assert buffered.close() is not None
        assert buffered.close() is None
        assert len(buffered.sealed) == 1

    def test_crash_ordering_tail_not_sealed_on_error(self, tmp_path):
        """On an in-flight error the tail stays unsealed by design.

        Sealing during exception unwind could mask the original error
        and persist records no commit will ever account for; recovery
        instead restarts from the manifest watermark.  The committed
        prefix must stay fully readable.
        """
        store = SegmentStore(tmp_path, segment_bytes=1 << 20)
        with pytest.raises(RuntimeError, match="mid-campaign"):
            with SegmentBufferedCorpus("tail", store) as buffered:
                buffered.set_window(0, 7)
                for n in range(10):
                    buffered.record(9000 + n, float(n))
                buffered.close()
                store.commit(buffered.take_sealed(), completed_weeks=1)
                buffered.set_window(7, 14)
                buffered.record(77, 8.0)
                raise RuntimeError("mid-campaign")
        # The second window's record died with the process state…
        assert buffered.sealed == []
        assert [p.name for p in tmp_path.glob("*.seg")] == [
            "d00000-00007-s000-0000.seg"
        ]
        # …and the committed week-1 prefix is untouched and verifies.
        reader = SegmentedCorpusReader(store)
        assert reader.completed_weeks == 1
        assert len(reader.load()) == 10

    def test_interrupted_write_leaves_no_temp_files(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = AddressCorpus("t")
        corpus.record(3, 0.0)
        meta = store.write_segment(
            corpus, segment_id="t", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []


class TestManifestCache:
    """Every manifest read parses the file on disk: a commit, an
    external rewrite, a deletion and a corruption are seen by the next
    read of any store, and a returned manifest is the caller's own."""

    def _committed_store(self, tmp_path, records=4):
        store = SegmentStore(tmp_path)
        corpus = AddressCorpus("cache")
        for n in range(records):
            corpus.record(100 + n, float(n))
        meta = store.write_segment(
            corpus, segment_id="one", start_day=0, end_day=7
        )
        store.commit([meta], completed_weeks=1)
        return store

    def test_commit_invalidates_for_other_readers(self, tmp_path):
        store = self._committed_store(tmp_path)
        before = store.load_manifest()
        extra = AddressCorpus("cache")
        extra.record(999, 1.0)
        meta = store.write_segment(
            extra, segment_id="two", start_day=7, end_day=14
        )
        store.commit([meta], completed_weeks=2)
        after = SegmentStore(tmp_path).load_manifest()
        assert len(before.segments) == 1
        assert len(after.segments) == 2
        assert after.completed_weeks == 2

    def test_external_rewrite_invalidates(self, tmp_path):
        store = self._committed_store(tmp_path)
        store.load_manifest()
        # Another process rewrites the manifest (different bytes).
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["completed_weeks"] = 9
        blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        os.utime(tmp_path / MANIFEST_NAME)  # ensure a stat change
        (tmp_path / MANIFEST_NAME).write_text(blob)
        assert store.load_manifest().completed_weeks == 9

    def test_returned_manifest_is_mutation_safe(self, tmp_path):
        store = self._committed_store(tmp_path)
        first = store.load_manifest()
        first.segments.append(first.segments[0])
        first.completed_weeks = 99
        second = store.load_manifest()
        assert len(second.segments) == 1
        assert second.completed_weeks == 1

    def test_deletion_drops_the_entry(self, tmp_path):
        store = self._committed_store(tmp_path)
        store.load_manifest()
        (tmp_path / MANIFEST_NAME).unlink()
        assert store.load_manifest() is None

    def test_corrupt_manifest_not_cached(self, tmp_path):
        store = self._committed_store(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SegmentError, match="unreadable"):
            store.load_manifest()
        with pytest.raises(SegmentError, match="unreadable"):
            store.load_manifest()  # still failing: the error was not cached

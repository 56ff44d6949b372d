"""The durable-file layer (:mod:`repro.core.durable`) under failure.

Three contracts, each over every file the layer publishes:

* **a failed write changes nothing** — when the fsync of a writer's
  temp file raises, the ``OSError`` propagates, the previous bytes stay
  in place (``MATRIX.json.1`` too) and no ``*.tmp-*`` file is left; a
  writer SIGKILLed mid-write leaves its temp file only until the
  directory's next segment-store commit;
* **the bytes do not move** — sha256 of ``save_corpus``'s ``.bin`` and
  ``.csv`` output and of ``save_manifest``'s ``MATRIX.json`` for one
  fixed input, computed before the writers shared one implementation;
* **one integrity table** — five kinds of damage to each of the three
  sealed formats (RPS1 segments, RPI1 partials, RSI1 serving indexes):
  each is detected by its loader, naming the file, and recovered from
  wherever the format has a second source;
* **one bounded check** — :meth:`Seal.check` reads bytes and an open
  file alike through one buffer of at most
  :data:`~repro.core.durable.CHECK_BUFFER_BYTES`, retries short reads,
  and calls a file that ends early truncated.
"""

import errno
import hashlib
import io
import os
import random
import signal
import zlib

import numpy as np
import pytest

from repro.core import durable
from repro.core.corpus import AddressCorpus
from repro.core.segments import SegmentError, SegmentStore
from repro.core.storage import save_corpus
from repro.matrix import MATRIX_NAME, execute_cell
from repro.matrix.manifest import CellRecord, MatrixManifest, save_manifest
from repro.matrix.spec import CellSpec
from repro.obs import MetricsRegistry
from repro.serve import (
    SERVING_INDEX_NAME,
    ServingIndex,
    ServingIndexError,
    build_serving_index,
    ensure_serving_index,
)

BASE = 0x2001_0DB8 << 96


def _corpus(extra=0):
    """A fixed corpus with a non-ASCII name, plus ``extra`` records."""
    corpus = AddressCorpus("hitlist été ✓")
    corpus.record_interval(BASE | 1, 1.5, 1234567.125, 3)
    corpus.record((0x2A02 << 112) | (0xFFFE << 40) | 7, 0.1)
    corpus.record_interval(1, 86400.0, 7 * 86400.0 + 1e-3, 2**40)
    for n in range(extra):
        corpus.record(BASE | (n << 64) | 0xABC, float(n))
    return corpus


def _matrix_manifest(seconds=0.5):
    return MatrixManifest(
        spec_digest="0123456789abcdef0123456789abcdef",
        spec={"presets": ["tiny"], "seeds": [0, 1], "weeks": [1]},
        cells={
            "c0000-aaaaaaaa": CellRecord(
                cell_id="c0000-aaaaaaaa",
                label="tiny faults=none weeks=1 seed=0 — café",
                params={"preset": "tiny", "seed": 0},
                status="ok",
                attempts=1,
                digest="ab" * 32,
                records=1234,
                seconds=seconds,
            ),
            "c0001-bbbbbbbb": CellRecord(
                cell_id="c0001-bbbbbbbb",
                label="tiny faults=none weeks=1 seed=1",
                params={"preset": "tiny", "seed": 1},
                status="timeout",
                attempts=2,
                kind="timeout",
                error="cell overran its 1.0s wall-clock deadline",
            ),
            "c0002-cccccccc": CellRecord(
                cell_id="c0002-cccccccc",
                label="galactic seed=0",
                params={"preset": "galactic"},
                status="rejected",
                reasons=("unknown preset 'galactic'",),
            ),
        },
    )


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- a failed write changes nothing -----------------------------------------
#
# Each row sets up a directory whose target file already holds a
# previous generation, and returns (target, paths whose bytes must
# survive, the write that will fail).


def _save_corpus(suffix):
    def setup(directory):
        target = directory / f"c.corpus{suffix}"
        save_corpus(_corpus(extra=3), target)
        return target, [target], lambda: save_corpus(_corpus(), target)

    return setup


def _write_segment(suffix):
    def setup(directory):
        store = SegmentStore(directory, name="c")
        store.write_segment(
            _corpus(extra=3), segment_id="s", start_day=0, end_day=7
        )
        target = directory / f"s{suffix}"
        return target, [target], lambda: store.write_segment(
            _corpus(), segment_id="s", start_day=0, end_day=7
        )

    return setup


def _commit(directory):
    store = SegmentStore(directory, name="c")
    first = store.write_segment(
        _corpus(), segment_id="a", start_day=0, end_day=7
    )
    store.commit([first], completed_weeks=1)
    second = store.write_segment(
        _corpus(extra=2), segment_id="b", start_day=7, end_day=14
    )
    target = store.manifest_path
    return target, [target], lambda: store.commit(
        [second], completed_weeks=2
    )


def _save_manifest(directory):
    target = directory / MATRIX_NAME
    save_manifest(_matrix_manifest(seconds=0.25), target)
    save_manifest(_matrix_manifest(seconds=0.5), target)
    rotated = directory / f"{MATRIX_NAME}.1"
    return target, [target, rotated], lambda: save_manifest(
        _matrix_manifest(seconds=0.75), target
    )


#: Smallest world that still builds (as in tests/matrix/test_runner.py).
MICRO = (
    ("n_cellular_subscribers", 20),
    ("n_home_networks", 30),
    ("n_hosting_networks", 6),
)


def _execute_cell(directory):
    cell = CellSpec(
        index=0,
        preset="tiny",
        overrides=MICRO,
        faults=None,
        weeks=1,
        workers=1,
        seed=0,
    )
    target = directory / "RESULT.json"
    target.write_text('{"previous": true}\n')
    return target, [target], lambda: execute_cell(cell, directory)


def _build_serving_index(directory):
    store = SegmentStore(directory, name="c")
    meta = store.write_segment(
        _corpus(), segment_id="a", start_day=0, end_day=7
    )
    store.commit([meta], completed_weeks=1)
    target = build_serving_index(directory)
    return target, [target], lambda: build_serving_index(directory)


WRITERS = [
    pytest.param(_save_corpus(".bin"), id="save_corpus-bin"),
    pytest.param(_save_corpus(".csv"), id="save_corpus-csv"),
    pytest.param(_write_segment(".seg"), id="write_segment-seg"),
    pytest.param(_write_segment(".idx"), id="write_segment-idx"),
    pytest.param(_commit, id="commit-MANIFEST.json"),
    pytest.param(_save_manifest, id="save_manifest-MATRIX.json"),
    pytest.param(_execute_cell, id="execute_cell-RESULT.json"),
    pytest.param(_build_serving_index, id="build_serving_index-SERVING.rsi"),
]


def _fail_fsync_of(monkeypatch, target):
    """Make the fsync of ``target``'s temp file raise ``EIO``."""
    real_fsync = os.fsync

    def fsync(fd):
        for temp in target.parent.glob(f"{target.name}.tmp-*"):
            if os.path.samestat(os.fstat(fd), temp.stat()):
                raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


@pytest.mark.parametrize("setup", WRITERS)
def test_failed_write_keeps_old_file_and_leaves_no_temp_file(
    tmp_path, monkeypatch, setup
):
    target, kept, write = setup(tmp_path)
    before = {path: path.read_bytes() for path in kept}
    _fail_fsync_of(monkeypatch, target)
    with pytest.raises(OSError, match="injected fsync failure"):
        write()
    assert {path: path.read_bytes() for path in kept} == before
    assert sorted(tmp_path.rglob("*.tmp-*")) == []


def _killed_mid_write(store, fsyncs_before_kill, write):
    """Run ``write(store)`` in a forked child that SIGKILLs itself in
    fsync number ``fsyncs_before_kill + 1``: that temp file is written
    but never published.  Returns the dead child's pid."""
    pid = os.fork()
    if pid == 0:
        try:
            real_fsync = os.fsync
            calls = []

            def fsync(fd):
                calls.append(fd)
                if len(calls) > fsyncs_before_kill:
                    os.kill(os.getpid(), signal.SIGKILL)
                real_fsync(fd)

            os.fsync = fsync
            write(store)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL
    return pid


def _seal_s1(store):
    store.write_segment(_corpus(), segment_id="s1", start_day=0, end_day=7)


@pytest.mark.parametrize(
    "name,fsyncs_before_kill,write",
    [
        pytest.param("s1.seg", 0, _seal_s1, id="seg"),
        pytest.param("s1.idx", 1, _seal_s1, id="idx"),
        pytest.param(
            "MANIFEST.json", 0, lambda store: store.commit([]), id="manifest"
        ),
    ],
)
def test_commit_removes_temp_files_of_killed_writers(
    tmp_path, name, fsyncs_before_kill, write
):
    store = SegmentStore(tmp_path, name="c")
    pid = _killed_mid_write(store, fsyncs_before_kill, write)
    assert [p.name for p in tmp_path.glob("*.tmp-*")] == [f"{name}.tmp-{pid}"]
    # A live writer's temp file (this process's) must survive.
    live = tmp_path / f"s3.seg.tmp-{os.getpid()}"
    live.write_bytes(b"still being written")
    meta = store.write_segment(
        _corpus(), segment_id="s2", start_day=7, end_day=14
    )
    store.commit([meta], completed_weeks=2)
    assert [p.name for p in tmp_path.glob("*.tmp-*")] == [live.name]


# -- the bytes do not move --------------------------------------------------

@pytest.mark.parametrize(
    "name,digest",
    [
        (
            "c.corpus.bin",
            "e9e0e36f4c0a9d4fe7e6d4407bffb233be545114dfa894a3ec58a5c9332a6e83",
        ),
        (
            "c.corpus.csv",
            "63ca86fed015883868f108f253aba3acf5aa40a6d3e312858559e0a7974ebc9a",
        ),
    ],
)
def test_save_corpus_bytes_are_pinned(tmp_path, name, digest):
    save_corpus(_corpus(), tmp_path / name)
    assert _sha256(tmp_path / name) == digest


def test_save_manifest_bytes_are_pinned(tmp_path):
    path = save_manifest(_matrix_manifest(), tmp_path / MATRIX_NAME)
    assert _sha256(path) == (
        "0e8ca53eaab70a1713fb31ec9787a06a241eba3058a62386628fbe7dca526377"
    )


# -- one integrity table for the three seals --------------------------------


def _sealed_store(directory):
    """One committed segment, its partial and a serving index."""
    store = SegmentStore(directory, name="sealed")
    meta = store.write_segment(
        _corpus(extra=40), segment_id="seg", start_day=0, end_day=7
    )
    store.commit([meta], completed_weeks=1)
    build_serving_index(directory)
    return store, meta


def _rps1(store, meta):
    """A segment has no second source: the load raises, and that is all."""
    return (
        store.segment_path(meta),
        lambda: store.load_segment(meta),
        SegmentError,
        lambda: None,
    )


def _rpi1(store, meta):
    """A partial's loss costs a rescan of its segment, same columns."""
    sealed = store.load_partial_index(meta)

    def recovered():
        metrics = MetricsRegistry()
        reopened = SegmentStore(store.directory, metrics=metrics)
        [partial] = list(reopened.iter_partial_indexes([meta]))
        assert metrics.counter_value(
            "repro_index_segments_rescanned_total"
        ) == 1
        for name, _ in partial.COLUMN_SPEC:
            assert np.array_equal(
                getattr(partial, name), getattr(sealed, name)
            )

    return (
        store.partial_index_path(meta),
        lambda: store.load_partial_index(meta),
        SegmentError,
        recovered,
    )


def _rsi1(store, meta):
    """A torn serving index is never served: it is rebuilt as "torn"."""
    path = store.directory / SERVING_INDEX_NAME

    def recovered():
        metrics = MetricsRegistry()
        with ensure_serving_index(store.directory, metrics=metrics) as index:
            assert index.rows == meta.records
        assert metrics.counter_value(
            "repro_serve_index_rebuilds_total", labels={"reason": "torn"}
        ) == 1

    # ServingIndex.open closes its mmap when the check raises; a view the
    # check kept would turn that into a BufferError.
    return path, lambda: ServingIndex.open(path), ServingIndexError, recovered


def _flip_body_byte(data):
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF
    return bytes(flipped)


@pytest.mark.parametrize(
    "sealed",
    [
        pytest.param(_rps1, id="RPS1"),
        pytest.param(_rpi1, id="RPI1"),
        pytest.param(_rsi1, id="RSI1"),
    ],
)
class TestSealIntegrity:
    def test_four_byte_stub(self, tmp_path, sealed):
        self.detects(tmp_path, sealed, lambda data: data[:4], "truncated")

    def test_last_five_bytes_cut(self, tmp_path, sealed):
        self.detects(tmp_path, sealed, lambda data: data[:-5], "magic")

    def test_head_magic_changed(self, tmp_path, sealed):
        self.detects(
            tmp_path, sealed, lambda data: b"XXXX" + data[4:], "magic"
        )

    def test_trailer_magic_changed(self, tmp_path, sealed):
        self.detects(
            tmp_path,
            sealed,
            lambda data: data[:-8] + b"XXXX" + data[-4:],
            "magic",
        )

    def test_body_byte_flipped(self, tmp_path, sealed):
        self.detects(tmp_path, sealed, _flip_body_byte, "CRC")

    @staticmethod
    def detects(tmp_path, sealed, damage, word):
        path, load, error, recovered = sealed(*_sealed_store(tmp_path))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error) as excinfo:
            load()
        # The reason alone: the message's path holds the test's name.
        assert word in excinfo.value.reason
        assert str(path) in str(excinfo.value)
        recovered()


# -- one bounded check ------------------------------------------------------

_TEST_SEAL = durable.Seal(
    b"TST1", b"TSTF", "big", 16, "test file", SegmentError
)


class _ShortReads(io.FileIO):
    """A file whose reads return at most 4093 bytes, as a pipe or a
    network filesystem may, and whose ``size`` (when set) is what a seek
    to its end reports, as for a file cut after it was sized."""

    size = None
    largest = 0

    def readinto(self, buffer):
        self.largest = max(self.largest, len(buffer))
        with memoryview(buffer) as view:
            return super().readinto(view[:4093])

    def seek(self, offset, whence=os.SEEK_SET):
        position = super().seek(offset, whence)
        if whence == os.SEEK_END and self.size is not None:
            return self.size
        return position


def _test_file(directory, body_bytes):
    """A sealed test file whose body (after a 16-byte header) spans
    ``body_bytes`` of random bytes."""
    sealed = b"TST1" + bytes(12) + random.Random(5).randbytes(body_bytes)
    sealed += b"TSTF" + zlib.crc32(sealed).to_bytes(4, "big")
    path = directory / "t.tst"
    path.write_bytes(sealed)
    return path, sealed


class TestBoundedCheck:
    BODY = 4 * durable.CHECK_BUFFER_BYTES + 1000

    def test_the_buffer_is_at_most_256_kib(self):
        assert 0 < durable.CHECK_BUFFER_BYTES <= 256 * 1024

    def test_bytes_and_a_file_check_alike(self, tmp_path):
        path, sealed = _test_file(tmp_path, self.BODY)
        body = len(sealed) - durable.TRAILER_SIZE
        assert _TEST_SEAL.check(sealed, path) == body
        with _ShortReads(path) as stream:
            assert _TEST_SEAL.check(stream, path) == body
            assert stream.largest == durable.CHECK_BUFFER_BYTES

    def test_short_reads_reach_the_last_byte(self, tmp_path):
        path, sealed = _test_file(tmp_path, self.BODY)
        damaged = bytearray(sealed)
        damaged[-durable.TRAILER_SIZE - 1] ^= 0x01
        path.write_bytes(damaged)
        with _ShortReads(path) as stream:
            with pytest.raises(SegmentError, match="CRC mismatch"):
                _TEST_SEAL.check(stream, path)

    def test_a_file_that_ends_before_its_size_is_truncated(self, tmp_path):
        path, sealed = _test_file(tmp_path, self.BODY)
        with _ShortReads(path) as stream:
            # The trailer read gets four bytes, then the end of the file.
            stream.size = len(sealed) + 4
            with pytest.raises(SegmentError) as excinfo:
                _TEST_SEAL.check(stream, path)
        assert excinfo.value.reason == (
            f"test file truncated: no byte at offset {len(sealed)}"
        )
        assert excinfo.value.offset == len(sealed)

"""Streaming segment store: corpus persistence that scales with time.

The paper's headline artifact is a 7.9B-address corpus accumulated
*passively over seven months* — the corpus outlives any single process
and outgrows any single machine's RAM long before the campaign ends.
A monolithic pipeline (one in-memory :class:`AddressCorpus`, rewritten
whole to disk to survive a crash) would bound campaign length by
memory, not by hardware.  This module inverts that: collection **flushes
sealed, append-only segment files** as soon as an in-memory buffer
crosses a byte budget, and a small atomically-replaced manifest is the
single source of truth about which segments make up the corpus.

Three invariants carry the design:

* **Fold equivalence** — a corpus record is ``[first, last, count]``
  and folding two records for the same address (min/max/sum) is
  associative and commutative.  However the observation stream is cut
  into segments — per record, per 4 KiB, per week window, per shard —
  folding every segment back together reproduces the monolithic
  in-memory corpus *bit-identically* (the property tests pin all of
  serial, sharded and compacted layouts against one monolithic run).
* **Sealed segments are immutable** — a segment file is written to a
  sibling temp file, fsynced, then atomically renamed into place, and
  carries a CRC32 footer (both from :mod:`repro.core.durable`).  A crash mid-flush leaves at most a stray
  temp file; the manifest can never reference a torn segment because
  it is only rewritten (atomically, via :func:`os.replace`) *after*
  its segments are durably on disk.
* **The manifest is the corpus** — ``MANIFEST.json`` records every
  live segment's id, day range, address count, byte size and checksum
  plus the campaign's completed-week watermark and a cumulative
  telemetry snapshot.  Readers ignore any file the manifest does not
  name (orphans from crashed attempts are harmless), resume restarts
  from the watermark without materializing anything, and
  :meth:`SegmentStore.compact` folds runs of adjacent small segments
  into bigger ones in place, without changing what any reader
  observes.  Only writes create the directory: opening a store, a
  reader or its manifest creates nothing.

Segment files reuse the binary corpus **v2** record layout
(:mod:`repro.core.storage`) behind a small day-range header::

    RPS1 | uint32 start_day | uint32 end_day | RPC2 corpus | RPSF crc32

``crc32`` covers every prior byte of the file.

Every seal additionally persists a **partial index** next to the
segment (same stem, ``.idx`` suffix): the segment's
:class:`~repro.core.index.PartialIndexColumns`, CRC-footed like the
segment itself and bound to it by the segment's checksum::

    RPI1 | uint32 segment_crc32 | uint64 rows | columns | RPIF crc32

A seal sorts its corpus's index columns once
(:meth:`~repro.core.index.PartialIndexColumns.from_corpus`): the
``.seg`` records are five of those columns packed as one big-endian
structured array, and the ``.idx`` holds all eight, so both files share
one canonical address order.

Reading a committed store is one fold of those partials
(:func:`~repro.core.index.fold_partials`, fed by
:meth:`SegmentStore.iter_partial_indexes`): the analysis index
(:meth:`SegmentedCorpusReader.build_index`), the folded corpus
(:meth:`SegmentedCorpusReader.load_indexed`), the serving index and
compaction all come from it **without re-reading any sealed segment**
(DESIGN.md §12).  Partials are pure accelerators: a missing or corrupt
``.idx`` only costs a rescan of its segment (counted by
``repro_index_segments_rescanned_total``), never correctness.
:meth:`SegmentedCorpusReader.load` is the other read, the reference the
fold is tested against: it merges the ``.seg`` files themselves.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..obs import DEFAULT_SIZE_BUCKETS, MetricsRegistry, NULL_REGISTRY
from . import durable
from .corpus import AddressCorpus
from .index import CorpusIndex, PartialIndexColumns, fold_partials
from .storage import (
    BINARY_RECORD_BYTES,
    CorpusFormatError,
    binary_v2_chunks,
    load_corpus_binary,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "MANIFEST_NAME",
    "PARTIAL_INDEX_SUFFIX",
    "Manifest",
    "SegmentError",
    "SegmentMeta",
    "SegmentStore",
    "SegmentBufferedCorpus",
    "SegmentedCorpusReader",
]

#: Default flush budget: a buffered shard seals a segment once its
#: estimated serialized size crosses this many bytes (~100k records).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: The manifest file name inside a segment directory.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest schema identifier (DESIGN.md §11).
MANIFEST_FORMAT = "repro-segments-v1"

#: Suffix of sealed segment files.
SEGMENT_SUFFIX = ".seg"

#: Suffix of per-segment partial index files.
PARTIAL_INDEX_SUFFIX = ".idx"

#: Conservative per-segment overhead used by the flush estimator
#: (header + corpus header + footer); exactness does not matter, only
#: determinism — the same record stream always seals at the same points.
SEGMENT_OVERHEAD_BYTES = 64

#: Times a fault-injected segment write is retried before giving up.
MAX_SEGMENT_WRITE_RETRIES = 3


class SegmentError(CorpusFormatError):
    """A segment file or manifest is torn, corrupt, or inconsistent."""


#: A segment's header is its magic and two uint32 day bounds; a
#: partial's is its magic, the segment's crc32 and a uint64 row count.
_SEGMENT_SEAL = durable.Seal(
    b"RPS1", b"RPSF", "big", 12, "segment", SegmentError
)
_PARTIAL_SEAL = durable.Seal(
    b"RPI1", b"RPIF", "big", 16, "partial index", SegmentError
)


@dataclass(frozen=True)
class SegmentMeta:
    """One sealed segment, exactly as the manifest records it."""

    segment_id: str
    file: str
    start_day: int
    end_day: int
    records: int
    size_bytes: int
    crc32: int

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.segment_id,
            "file": self.file,
            "start_day": self.start_day,
            "end_day": self.end_day,
            "records": self.records,
            "bytes": self.size_bytes,
            "crc32": f"{self.crc32:#010x}",
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "SegmentMeta":
        try:
            return cls(
                segment_id=str(doc["id"]),
                file=str(doc["file"]),
                start_day=int(doc["start_day"]),
                end_day=int(doc["end_day"]),
                records=int(doc["records"]),
                size_bytes=int(doc["bytes"]),
                crc32=int(str(doc["crc32"]), 16),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SegmentError(f"bad segment manifest entry: {error}") from error


@dataclass
class Manifest:
    """The manifest document: the authoritative index of live segments."""

    name: str
    completed_weeks: int = 0
    segments: List[SegmentMeta] = field(default_factory=list)
    #: Cumulative telemetry snapshot at the last commit (or ``None``),
    #: so a resumed campaign reports whole-campaign counters.
    metrics: Optional[Dict[str, object]] = None
    #: Completed compaction generations (ids new compactions draw from).
    compactions: int = 0

    @property
    def total_records(self) -> int:
        """Records across all segments (>= distinct addresses)."""
        return sum(meta.records for meta in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(meta.size_bytes for meta in self.segments)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "completed_weeks": self.completed_weeks,
            "compactions": self.compactions,
            "segments": [meta.to_json() for meta in self.segments],
            "metrics": self.metrics,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "Manifest":
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            raise SegmentError(
                f"not a {MANIFEST_FORMAT} manifest: "
                f"format={doc.get('format') if isinstance(doc, dict) else doc!r}"
            )
        metrics = doc.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            raise SegmentError("manifest metrics block is not a JSON object")
        return cls(
            name=str(doc.get("name") or "corpus"),
            completed_weeks=int(doc.get("completed_weeks", 0)),
            segments=[
                SegmentMeta.from_json(entry) for entry in doc.get("segments", ())
            ],
            metrics=metrics,
            compactions=int(doc.get("compactions", 0)),
        )


class SegmentStore:
    """One segment directory: sealed segment files plus their manifest.

    Worker processes use a store purely as a **segment writer** (they
    never touch the manifest — only the coordinating process commits);
    the coordinator additionally owns :meth:`commit`, :meth:`compact`
    and :meth:`reader`.  All writes are atomic
    (:func:`repro.core.durable.atomic_write`), so any instant of crash
    leaves the previous manifest and every committed segment intact.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        name: str = "corpus",
        segment_bytes: float = DEFAULT_SEGMENT_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_bytes < 1:
            raise ValueError(
                f"segment byte budget must be >= 1: {segment_bytes}"
            )
        self.directory = Path(directory)
        self.name = name
        self.segment_bytes = segment_bytes
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self._m_flushed = self.metrics.counter(
            "repro_segments_flushed_total", "segment files sealed"
        )
        self._m_flush_retries = self.metrics.counter(
            "repro_segment_flush_retries_total",
            "segment flushes retried after an injected write fault",
        )
        self._m_compacted = self.metrics.counter(
            "repro_segments_compacted_total",
            "small segments folded away by compaction",
        )
        self._m_commits = self.metrics.counter(
            "repro_manifest_commits_total", "manifest replacements"
        )
        self._m_bytes = self.metrics.histogram(
            "repro_segment_bytes",
            "sealed segment file sizes in bytes",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_partials = self.metrics.counter(
            "repro_index_partials_written_total",
            "per-segment partial indexes sealed",
        )
        self._m_index_reused = self.metrics.counter(
            "repro_index_segments_reused_total",
            "sealed segments indexed from their partial index (no rescan)",
        )
        self._m_index_rescanned = self.metrics.counter(
            "repro_index_segments_rescanned_total",
            "sealed segments rescanned for a missing or invalid partial index",
        )

    # -- paths -------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def segment_path(self, meta: SegmentMeta) -> Path:
        return self.directory / meta.file

    def partial_index_path(self, meta: SegmentMeta) -> Path:
        return self.directory / f"{meta.segment_id}{PARTIAL_INDEX_SUFFIX}"

    # -- manifest ----------------------------------------------------------------

    def load_manifest(self) -> Optional[Manifest]:
        """The committed manifest, read and parsed on every call, or
        ``None`` when none exists yet."""
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return Manifest.from_json(json.loads(raw))
        except (json.JSONDecodeError, SegmentError) as error:
            raise SegmentError(
                f"unreadable segment manifest: {error}",
                path=self.manifest_path,
            ) from error

    def commit(
        self,
        new_segments: List[SegmentMeta],
        *,
        completed_weeks: Optional[int] = None,
        metrics: Optional[Dict[str, object]] = None,
    ) -> Manifest:
        """Atomically append segments (and move the progress watermark).

        Compaction, the one rewrite of the segment list, goes through
        :meth:`compact` instead.  The completed week watermark is
        monotonic — a commit can never move it backwards.  Only call
        this after every segment in ``new_segments`` is durably on disk:
        the ordering is what makes "the manifest never references a
        torn segment" a structural property rather than a hope.  Each
        commit then deletes the temp files that writers killed
        mid-write left in the directory
        (:func:`repro.core.durable.remove_dead_writers_temp_files`).
        """
        manifest = self.load_manifest()
        if manifest is None:
            manifest = Manifest(name=self.name)
        live = {meta.segment_id for meta in manifest.segments}
        for meta in new_segments:
            if meta.segment_id in live:
                raise ValueError(
                    f"segment {meta.segment_id!r} is already committed"
                )
            manifest.segments.append(meta)
        if completed_weeks is not None:
            if completed_weeks < 0:
                raise ValueError(
                    f"bad completed week count: {completed_weeks}"
                )
            manifest.completed_weeks = max(
                manifest.completed_weeks, completed_weeks
            )
        if metrics is not None:
            manifest.metrics = metrics
        self._write_manifest(manifest)
        self._m_commits.inc()
        durable.remove_dead_writers_temp_files(self.directory)
        return manifest

    def _write_manifest(self, manifest: Manifest) -> None:
        blob = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        durable.atomic_write(self.manifest_path, [blob.encode("utf-8")])

    # -- segment I/O -------------------------------------------------------------

    def write_segment(
        self,
        corpus: AddressCorpus,
        *,
        segment_id: str,
        start_day: int,
        end_day: int,
    ) -> SegmentMeta:
        """Seal one segment file; returns its manifest entry.

        The file is not part of the corpus until a later
        :meth:`commit` names it — rewriting the same ``segment_id``
        (a retried shard) atomically overwrites the previous attempt
        with identical bytes, so overwrites are always safe.

        Each seal also persists the segment's partial index (same stem,
        ``.idx``) so later analysis folds it instead of rescanning the
        segment.  Both files come from one sort of ``corpus``'s index
        columns (:meth:`~repro.core.index.PartialIndexColumns.from_corpus`):
        the ``.seg`` records are five of them packed big-endian, the
        ``.idx`` holds all eight.  A count beyond uint64 raises
        ``ValueError`` before either file is written.  The
        partial is written *after* the segment: at any crash instant
        the ``.idx`` on disk matches a durable ``.seg`` (or is absent,
        which merely costs a rescan).
        """
        if not 0 <= start_day < end_day <= 0xFFFFFFFF:
            raise ValueError(f"bad segment day range: [{start_day}, {end_day})")
        if "/" in segment_id or segment_id.startswith("."):
            raise ValueError(f"bad segment id: {segment_id!r}")
        return self._seal(
            corpus.name,
            # One sort feeds both files.
            PartialIndexColumns.from_corpus(corpus),
            segment_id=segment_id,
            start_day=start_day,
            end_day=end_day,
        )

    def _seal(
        self,
        name: str,
        partial: PartialIndexColumns,
        *,
        segment_id: str,
        start_day: int,
        end_day: int,
    ) -> SegmentMeta:
        """Seal ``partial``'s records (ascending address order) as the
        ``.seg`` of ``segment_id``, then ``partial`` as its ``.idx``."""
        chunks = [
            _SEGMENT_SEAL.head_magic
            + start_day.to_bytes(4, "big")
            + end_day.to_bytes(4, "big"),
            *binary_v2_chunks(name, partial),
        ]
        size = sum(len(chunk) for chunk in chunks) + durable.TRAILER_SIZE
        filename = f"{segment_id}{SEGMENT_SUFFIX}"
        self.directory.mkdir(parents=True, exist_ok=True)
        crc = _SEGMENT_SEAL.write(self.directory / filename, chunks)
        self._m_flushed.inc()
        self._m_bytes.observe(size)
        self._write_partial_index(segment_id, partial, crc)
        return SegmentMeta(
            segment_id=segment_id,
            file=filename,
            start_day=start_day,
            end_day=end_day,
            records=len(partial),
            size_bytes=size,
            crc32=crc,
        )

    def _write_partial_index(
        self,
        segment_id: str,
        partial: PartialIndexColumns,
        segment_crc: int,
    ) -> None:
        """Seal the segment's partial index next to its ``.seg`` file."""
        header = (
            _PARTIAL_SEAL.head_magic
            + segment_crc.to_bytes(4, "big")
            + len(partial).to_bytes(8, "big")
        )
        _PARTIAL_SEAL.write(
            self.directory / f"{segment_id}{PARTIAL_INDEX_SUFFIX}",
            [header, partial.to_payload()],
        )
        self._m_partials.inc()

    def load_partial_index(self, meta: SegmentMeta) -> PartialIndexColumns:
        """Load and integrity-check one segment's partial index.

        Raises ``FileNotFoundError`` when the partial was never written
        and :class:`SegmentError` when it is torn, corrupt, or belongs
        to a different generation of the segment (checksum binding) —
        in every case the caller falls back to rescanning the segment
        itself, so partials can never change what analysis observes.
        """
        path = self.partial_index_path(meta)
        data = path.read_bytes()
        body = _PARTIAL_SEAL.check(data, path)
        segment_crc = int.from_bytes(data[4:8], "big")
        if segment_crc != meta.crc32:
            raise SegmentError(
                f"partial index is bound to segment checksum "
                f"{segment_crc:#010x}, manifest says {meta.crc32:#010x}",
                path=path,
            )
        rows = int.from_bytes(data[8:16], "big")
        if rows != meta.records:
            raise SegmentError(
                f"partial index holds {rows} rows, manifest says "
                f"{meta.records} records",
                path=path,
            )
        try:
            # A view: the columns read the file's one buffer in place.
            return PartialIndexColumns.from_payload(
                memoryview(data)[_PARTIAL_SEAL.header_size : body], rows
            )
        except ValueError as error:
            raise SegmentError(str(error), path=path) from error

    def load_segment(self, meta: SegmentMeta) -> AddressCorpus:
        """Load and integrity-check one committed segment.

        Raises :class:`SegmentError` naming the file when the segment is
        torn (truncated), corrupt (CRC mismatch) or does not match its
        manifest entry.
        """
        path = self.segment_path(meta)
        try:
            data = path.read_bytes()
        except FileNotFoundError as error:
            raise SegmentError(
                f"manifest references a missing segment {meta.segment_id!r}",
                path=path,
            ) from error
        body = _SEGMENT_SEAL.check(data, path)
        try:
            corpus = load_corpus_binary(
                io.BytesIO(memoryview(data)[_SEGMENT_SEAL.header_size : body])
            )
        except CorpusFormatError as error:
            raise SegmentError(error.reason, path=path, offset=error.offset) from error
        start_day = int.from_bytes(data[4:8], "big")
        end_day = int.from_bytes(data[8:12], "big")
        if (start_day, end_day) != (meta.start_day, meta.end_day):
            raise SegmentError(
                f"segment day range [{start_day}, {end_day}) does not match "
                f"its manifest entry [{meta.start_day}, {meta.end_day})",
                path=path,
            )
        if len(corpus) != meta.records:
            raise SegmentError(
                f"segment holds {len(corpus)} records, manifest says "
                f"{meta.records}",
                path=path,
            )
        stored_crc = int.from_bytes(data[-4:], "big")
        if stored_crc != meta.crc32:
            raise SegmentError(
                f"segment checksum {stored_crc:#010x} does not match its "
                f"manifest entry {meta.crc32:#010x}",
                path=path,
            )
        return corpus

    def iter_partial_indexes(
        self, metas: Iterable[SegmentMeta]
    ) -> Iterator[PartialIndexColumns]:
        """One partial index per segment of ``metas``, in their order.

        Sourced from the seal-time ``.idx`` files where possible
        (counted by ``repro_index_segments_reused_total``); a segment
        whose partial is missing or fails its integrity checks is
        rescanned and summarized on the fly
        (``repro_index_segments_rescanned_total``), so the result is
        identical either way.  Partials are loaded as the iteration
        reaches them, so a consumer that stacks them as they come holds
        one at a time.
        """
        for meta in metas:
            try:
                partial = self.load_partial_index(meta)
                self._m_index_reused.inc()
            except (FileNotFoundError, SegmentError):
                partial = PartialIndexColumns.from_corpus(
                    self.load_segment(meta)
                )
                self._m_index_rescanned.inc()
            yield partial

    # -- reading and compaction --------------------------------------------------

    def reader(self) -> "SegmentedCorpusReader":
        """A reader over the committed manifest."""
        return SegmentedCorpusReader(self)

    def compact(
        self, *, small_bytes: Optional[float] = None
    ) -> Manifest:
        """Fold small segments together; observable corpus is unchanged.

        Each maximal run of two or more adjacent segments smaller than
        ``small_bytes`` (default: the store's flush budget), in manifest
        order, is folded per address (min first / max last / summed
        count) by the fold every reader applies
        (:func:`~repro.core.index.fold_partials`), and the folded
        columns, already in ascending address order, are sealed as one
        consolidated segment and partial spanning the run's combined day
        range, which takes the run's place in the manifest.  A ``.seg``
        is read only to rescan a missing or bad partial.  The fold is
        associative but not commutative: of two tied extremes (``0.0``
        and ``-0.0``) it keeps the first in manifest order.  Folding
        only adjacent runs in place keeps that order, so the
        materialized corpus after compaction is bit-identical to before
        (test-pinned); a summed count beyond uint64 in any run raises
        ``ValueError`` before any file is written.  Crash-safe: the
        consolidated segments are durably written *before* the manifest
        swap, and the obsolete files are unlinked only after it; a crash
        in between leaves harmless orphans.
        """
        manifest = self.load_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no manifest to compact at {self.manifest_path}"
            )
        threshold = self.segment_bytes if small_bytes is None else small_bytes
        # The manifest cut into the runs to fold and lone segments.
        groups = []
        for small, group in itertools.groupby(
            manifest.segments, key=lambda meta: meta.size_bytes < threshold
        ):
            group = list(group)
            if small and len(group) > 1:
                groups.append(group)
            else:
                groups += [[meta] for meta in group]
        runs = [group for group in groups if len(group) > 1]
        if not runs:
            return manifest
        with self.metrics.span("segment-compaction"):
            # Every run is folded before any file is written.
            folds = iter(
                [
                    fold_partials(
                        self.iter_partial_indexes(run),
                        sum(meta.records for meta in run),
                    )[1]
                    for run in runs
                ]
            )
            segments = []
            for group in groups:
                if len(group) > 1:
                    manifest.compactions += 1
                    group = [
                        self._seal(
                            manifest.name,
                            next(folds),
                            segment_id=f"compact-{manifest.compactions:04d}",
                            start_day=min(meta.start_day for meta in group),
                            end_day=max(meta.end_day for meta in group),
                        )
                    ]
                segments += group
            manifest.segments = segments
            self._write_manifest(manifest)
            self._m_commits.inc()
            self._m_compacted.inc(sum(len(run) for run in runs))
            for meta in itertools.chain.from_iterable(runs):
                with contextlib.suppress(FileNotFoundError):
                    self.segment_path(meta).unlink()
                with contextlib.suppress(FileNotFoundError):
                    self.partial_index_path(meta).unlink()
        return manifest


class SegmentBufferedCorpus(AddressCorpus):
    """An :class:`AddressCorpus` whose memory footprint is the budget.

    Drop-in for a campaign's accumulation corpus: recording folds into
    the in-memory buffer exactly as before, but once the buffer's
    estimated serialized size crosses the store's byte budget the
    buffer is sealed into a segment file and cleared.  Sealing points
    are a pure function of the record stream and the budget, so a
    retried shard regenerates byte-identical segments under identical
    ids.

    ``write_fault`` is an optional
    :class:`~repro.faults.injector.FaultInjector`; each seal asks it
    :meth:`fails_segment_write` first and retries (counting
    ``repro_segment_flush_retries_total``) up to
    :data:`MAX_SEGMENT_WRITE_RETRIES` times, so injected storage
    faults exercise the durability path deterministically.
    """

    def __init__(
        self,
        name: str,
        store: SegmentStore,
        *,
        shard_index: int = 0,
        write_fault=None,
    ) -> None:
        super().__init__(name)
        self.store = store
        self.shard_index = shard_index
        self.write_fault = write_fault
        self._window: Optional[Tuple[int, int]] = None
        self._sequence = 0
        #: Segments sealed since the last :meth:`take_sealed`.
        self.sealed: List[SegmentMeta] = []

    # -- window bookkeeping ------------------------------------------------------

    def set_window(self, start_day: int, end_day: int) -> None:
        """Declare the day range subsequent records belong to.

        Any buffered records from a previous window are sealed first so
        no segment ever spans a window boundary (resume restarts at a
        window edge).
        """
        if not 0 <= start_day < end_day:
            raise ValueError(f"bad window day range: [{start_day}, {end_day})")
        if self._window is not None and len(self):
            self.seal()
        self._window = (start_day, end_day)
        self._sequence = 0

    # -- recording (budget-gated) ------------------------------------------------

    def record(self, address: int, when: float) -> None:
        super().record(address, when)
        self._maybe_seal()

    def record_interval(
        self, address: int, first: float, last: float, count: int = 2
    ) -> None:
        super().record_interval(address, first, last, count)
        self._maybe_seal()

    def merge(self, other) -> None:
        super().merge(other)
        self._maybe_seal()

    def estimated_bytes(self) -> int:
        """Deterministic size estimate of the buffer's segment file."""
        return SEGMENT_OVERHEAD_BYTES + len(self) * BINARY_RECORD_BYTES

    def _maybe_seal(self) -> None:
        if self._window is not None and (
            self.estimated_bytes() >= self.store.segment_bytes
        ):
            self.seal()

    # -- sealing -----------------------------------------------------------------

    def seal(self) -> Optional[SegmentMeta]:
        """Flush the buffer to a sealed segment file; no-op when empty."""
        if not len(self):
            return None
        if self._window is None:
            raise RuntimeError(
                "segment buffer has records but no day window; call "
                "set_window() before recording"
            )
        start_day, end_day = self._window
        segment_id = (
            f"d{start_day:05d}-{end_day:05d}"
            f"-s{self.shard_index:03d}-{self._sequence:04d}"
        )
        attempt = 0
        while True:
            if self.write_fault is not None and self.write_fault.fails_segment_write(
                self.shard_index, start_day, self._sequence, attempt
            ):
                attempt += 1
                if attempt > MAX_SEGMENT_WRITE_RETRIES:
                    raise OSError(
                        f"segment {segment_id!r} write failed "
                        f"{attempt} times (injected storage fault)"
                    )
                self.store._m_flush_retries.inc()
                continue
            break
        with self.store.metrics.span("segment-flush"):
            meta = self.store.write_segment(
                self,
                segment_id=segment_id,
                start_day=start_day,
                end_day=end_day,
            )
        self.sealed.append(meta)
        self._sequence += 1
        self._records.clear()
        self._index = None
        return meta

    def take_sealed(self) -> List[SegmentMeta]:
        """Sealed-since-last-call segment metas (commit batch)."""
        sealed, self.sealed = self.sealed, []
        return sealed

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> Optional[SegmentMeta]:
        """Seal any buffered tail records; idempotent.

        A campaign that ends (or a window that closes) before the
        buffer crosses the flush budget would otherwise silently drop
        its unsealed tail — the records existed only in memory.  Call
        this (or use the corpus as a context manager) before committing
        the final batch.  Returns the tail's segment meta, or ``None``
        when the buffer was already empty.
        """
        if len(self):
            return self.seal()
        return None

    def __enter__(self) -> "SegmentBufferedCorpus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Seal the tail only on a clean exit: after an error the buffer
        # may be mid-window, and sealing here would both mask the
        # original exception (if the seal itself fails) and persist
        # records the campaign never accounted for.  Crash recovery
        # instead restarts from the manifest watermark, which only ever
        # names fully committed windows.
        if exc_type is None:
            self.close()


class SegmentedCorpusReader:
    """Read view over a committed segment store.

    Holds the manifest read at open.  :meth:`build_index` and
    :meth:`load_indexed` fold the segments' seal-time partials (the one
    read path analysis, serving and compaction share); :meth:`load`
    merges the ``.seg`` files themselves, the reference the fold is
    tested against.
    """

    def __init__(self, store: SegmentStore) -> None:
        self._store = store
        manifest = store.load_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no segment manifest at {store.manifest_path}"
            )
        self.manifest = manifest

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "SegmentedCorpusReader":
        """Open the segment store rooted at ``directory``.

        ``metrics`` (optional) receives the store's telemetry —
        including the ``repro_index_segments_reused_total`` /
        ``…_rescanned_total`` counters the incremental indexing path
        increments.
        """
        return cls(SegmentStore(directory, metrics=metrics))

    # -- manifest-level views ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def completed_weeks(self) -> int:
        return self.manifest.completed_weeks

    def segments(self) -> List[SegmentMeta]:
        return list(self.manifest.segments)

    # -- the .seg reference ------------------------------------------------------

    def load(self, name: Optional[str] = None) -> AddressCorpus:
        """Merge every ``.seg`` file, CRC-verified, into a new corpus, in
        manifest order.

        The reference read: it shares no code with the partial fold
        (:meth:`load_indexed`), so tests and benchmarks compare the two.
        Every call reads the segments again.
        """
        folded = AddressCorpus(name or self.manifest.name)
        for meta in self.manifest.segments:
            folded.merge(self._store.load_segment(meta))
        return folded

    # -- the partial fold --------------------------------------------------------

    def build_index(self, name: Optional[str] = None) -> CorpusIndex:
        """Fold the partial indexes into a full :class:`CorpusIndex`.

        This is the incremental analysis path: when every segment's
        seal-time partial is intact, **no sealed segment file is
        re-read** — the index comes entirely from the ``.idx``
        summaries, bit-identical to ``CorpusIndex.build`` over
        :meth:`load` (property-test pinned).  The partials stream into
        columns sized from the manifest, one partial held at a time.
        """
        with self._store.metrics.span("index-fold"):
            return CorpusIndex.from_partials(
                name or self.manifest.name,
                self._store.iter_partial_indexes(self.manifest.segments),
                self.manifest.total_records,
            )

    def load_indexed(self, name: Optional[str] = None) -> AddressCorpus:
        """The folded corpus, held by its index alone.

        The corpus is the :meth:`build_index` fold, read without a
        single ``.seg`` file when the partials are intact: ``len()``,
        ``.index`` and every aggregate read its columns, and the first
        record-level read or mutation builds the record store from them
        in row order, the record order :meth:`load` produces, so the two
        corpora are bit-identical.
        """
        return AddressCorpus._from_index(self.build_index(name=name))

    def __repr__(self) -> str:
        return (
            f"SegmentedCorpusReader({self.manifest.name!r}, "
            f"{len(self.manifest.segments)} segments, "
            f"{self.manifest.total_records:,} records, "
            f"weeks={self.manifest.completed_weeks})"
        )

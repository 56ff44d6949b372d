"""The ``RSI1`` on-disk serving index: mmap-opened, zero-copy, CRC-sealed.

A segment store answers analytical queries by folding its seal-time
``.idx`` partials into an in-process :class:`~repro.core.CorpusIndex` —
fine for one analysis run, wasteful for a fleet of serving workers that
each re-fold (and each hold) the same columns.  The serving index
materializes the folded, **query-ordered** columns once, on disk, next
to ``MANIFEST.json``:

``SERVING.rsi`` layout (all integers little-endian)::

    header (64 bytes):
        magic            b"RSI1"
        version          u16
        flags            u16   bit 0: origin table present
        rows             u64   address rows
        n48              u64   distinct /48 keys
        n64              u64   distinct /64 keys
        n_origins        u64   flattened LPM intervals
        generation       u64   bumped on every rebuild
        source_digest    u32   CRC over the manifest's segment list
        (12 zero bytes reserved)
    columns, 8-byte aligned, rows sorted by (addr_hi, addr_lo):
        addr_hi, addr_lo          u64 x rows
        first, last               f64 x rows
        counts                    u64 x rows
        entropies                 f64 x rows
        macs                      u64 x rows
        codes                     u8  x rows (zero-padded to 8)
        slash48 keys              u64 x n48   (sorted hi-half & /48 mask)
        slash64 keys              u64 x n64   (sorted hi halves)
        origin starts hi, lo      u64 x n_origins (sorted interval starts)
        origin asns               u32 x n_origins (0 = unrouted; padded)
    footer (8 bytes):
        magic            b"RSIF"
        crc32            u32 over every preceding byte

Readers :func:`mmap.mmap` the file read-only and wrap the column runs in
``numpy.frombuffer`` views — no deserialization, so N worker processes
share one page-cache copy.  The whole-file CRC check at open means a
torn file (a crash mid-copy, a partial rsync) is *detected and
refused*, never served; rebuilds write a temp file and ``os.replace``
it, so an already-mmapped reader keeps its old inode — a consistent
snapshot — while new opens see the new generation.

The origin table is the routing table's own flattened form
(:meth:`~repro.net.routing.RoutingTable.origin_columns`): disjoint
half-open intervals, so longest-prefix match is "rightmost interval
start <= address", one composite binary search.
"""

from __future__ import annotations

import contextlib
import mmap
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # POSIX advisory locking for multi-process builder election
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from ..core import durable
from ..core import kernels as _kernels
from ..core.index import PartialIndexColumns
from ..core.segments import (
    MANIFEST_NAME,
    Manifest,
    SegmentStore,
)
from ..core.storage import CorpusFormatError
from ..obs import MetricsRegistry, NULL_REGISTRY

__all__ = [
    "ColumnarResults",
    "SERVING_INDEX_NAME",
    "SERVING_LOCK_NAME",
    "ServingIndex",
    "ServingIndexError",
    "build_serving_index",
    "ensure_serving_index",
    "le_bytes",
    "manifest_digest",
    "manifest_fingerprint",
    "pack_uvarint",
    "serving_build_lock",
    "unpack_uvarint",
]

#: File name of the serving index inside a segment directory.
SERVING_INDEX_NAME = "SERVING.rsi"

#: Advisory lock file electing one builder among concurrent workers.
SERVING_LOCK_NAME = "SERVING.rsi.lock"

_VERSION = 1
_FLAG_ORIGIN_TABLE = 1

_HEADER = struct.Struct("<4sHHQQQQQI12x")
_HEADER_SIZE = _HEADER.size  # 64

_U64_MASK = (1 << 64) - 1
_ADDRESS_SPACE = 1 << 128
_SLASH48_HI_MASK = 0xFFFFFFFFFFFF0000

_BIG_ENDIAN = sys.byteorder == "big"


class ServingIndexError(CorpusFormatError):
    """A serving index file is torn, corrupt, or inconsistent."""


_SEAL = durable.Seal(
    b"RSI1", b"RSIF", "little", _HEADER_SIZE, "serving index",
    ServingIndexError,
)


# -- shared binary-format helpers (RSI1 files and RSB1 wire frames) ------------


def pack_uvarint(value: int) -> bytes:
    """LEB128-style unsigned varint (7 value bits per byte, MSB = more)."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negatives: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def unpack_uvarint(data, offset: int = 0) -> Tuple[int, int]:
    """Decode one uvarint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data) or shift > 63:
            raise ValueError("truncated or oversized uvarint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def manifest_digest(manifest: Manifest) -> int:
    """CRC32 binding a serving index to the exact segment list it serves.

    Derived from every segment's (id, crc32, records) in id order, so
    commits, compactions and imports all change it — a reused index is
    provably derived from the manifest next to it.
    """
    lines = "\n".join(
        f"{meta.segment_id}:{meta.crc32:#010x}:{meta.records}"
        for meta in sorted(
            manifest.segments, key=lambda meta: meta.segment_id
        )
    )
    return zlib.crc32(lines.encode("utf-8")) & 0xFFFFFFFF


def manifest_fingerprint(
    directory: Union[str, Path],
) -> Optional[Tuple[int, int, int]]:
    """``(mtime_ns, size, digest)`` of a directory's committed manifest.

    The cheap change detector live reload polls on: the stat pair
    catches any rewrite (commits replace the file atomically, which
    always changes the stat), and the digest — computed from the cached
    manifest parse, so an unchanged file costs one ``stat`` — is what
    actually decides whether the *segment list* the serving index was
    derived from moved.  ``None`` when no manifest exists (yet).
    """
    directory = Path(directory)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    manifest_path = directory / MANIFEST_NAME
    try:
        stat = manifest_path.stat()
    except OSError:
        return None
    manifest = SegmentStore(directory).load_manifest()
    if manifest is None:  # pragma: no cover - deleted between stats
        return None
    return (stat.st_mtime_ns, stat.st_size, manifest_digest(manifest))


@contextlib.contextmanager
def serving_build_lock(directory: Union[str, Path]):
    """Advisory exclusive lock electing one serving-index builder.

    N workers noticing the same manifest change race to rebuild; the
    ``flock`` holder builds while the others block here, then find a
    fresh index whose digest already matches and reuse it.  The lock
    file lives next to ``SERVING.rsi`` (never inside it — the index is
    atomically replaced).  On platforms without ``fcntl`` the lock
    degrades to a no-op, which is safe for single-process serving.
    """
    directory = Path(directory)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    with (directory / SERVING_LOCK_NAME).open("a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def le_bytes(column: array) -> bytes:
    """Little-endian bytes of an :mod:`array` column, host order aside."""
    if _BIG_ENDIAN:  # pragma: no cover - no big-endian CI platform
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _pad8(size: int) -> int:
    return (-size) % 8


def _split_addresses(addresses: Sequence[int]) -> Tuple:
    """Hi/lo u64 ndarray halves of a batch of addresses, range-checked.

    A batch that arrives pre-split — an
    :class:`~repro.serve.wire.AddressBlock` wrapping a decoded RSB1
    request payload — short-circuits to its existing ``hi``/``lo``
    columns: zero copies, zero per-int validation (every 16-byte wire
    address is range-valid by construction).
    """
    hi = getattr(addresses, "hi", None)
    if hi is not None:
        return hi, addresses.lo
    q_hi: List[int] = []
    q_lo: List[int] = []
    for address in addresses:
        if not isinstance(address, int) or isinstance(address, bool):
            raise ValueError(
                f"addresses must be ints, not {type(address).__name__}"
            )
        if not 0 <= address < _ADDRESS_SPACE:
            raise ValueError(f"address out of range: {address:#x}")
        q_hi.append(address >> 64)
        q_lo.append(address & _U64_MASK)
    return np.array(q_hi, dtype=np.uint64), np.array(q_lo, dtype=np.uint64)


class ColumnarResults:
    """Column-major batch answers: what every serving op computes.

    One numpy array per reply column (family-specific order, see below)
    plus a boolean ``mask`` for families where results can be None, with
    masked-out entries **zeroed** — exactly the RSB1 reply payload
    layout, so :func:`repro.serve.wire.encode_reply` is one ``tobytes``
    per column and byte-identical to encoding the materialized list.

    Behaves enough like a list for the engine to slice coalesced
    batches per waiter: ``len()``, integer indexing (materializes one
    Python value) and slicing (a columnar sub-view).  :meth:`to_list`
    materializes the whole batch into the plain Python values the
    ``*_batch`` methods and JSON replies carry.

    Column order per family: ``bool`` → ``(flags,)`` (np.bool\\_);
    ``f64opt`` → ``(values,)``; ``record`` → ``(first, last, counts)``;
    ``features`` → ``(entropies, codes, macs)`` (result-tuple order, a
    stored ``NO_MAC`` meaning "no MAC"); ``asn`` → ``(asns,)`` (u4,
    0 meaning None).
    """

    __slots__ = ("family", "mask", "columns")

    def __init__(self, family: str, mask, columns: Tuple) -> None:
        self.family = family
        self.mask = mask
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, item):
        if isinstance(item, slice):
            mask = None if self.mask is None else self.mask[item]
            return ColumnarResults(
                self.family,
                mask,
                tuple(column[item] for column in self.columns),
            )
        family = self.family
        if family == "bool":
            return bool(self.columns[0][item])
        if family == "asn":
            return int(self.columns[0][item]) or None
        if not self.mask[item]:
            return None
        if family == "f64opt":
            return float(self.columns[0][item])
        if family == "record":
            first, last, counts = self.columns
            return (
                float(first[item]),
                float(last[item]),
                int(counts[item]),
            )
        entropies, codes, macs = self.columns
        mac = int(macs[item])
        return (
            float(entropies[item]),
            int(codes[item]),
            None if mac == _kernels.NO_MAC else mac,
        )

    def __iter__(self):
        return iter(self.to_list())

    def to_list(self) -> List:
        """The batch as a list of plain Python values (None for misses)."""
        family = self.family
        if family == "bool":
            return self.columns[0].tolist()
        if family == "asn":
            return [asn or None for asn in self.columns[0].tolist()]
        mask = self.mask.tolist()
        if family == "f64opt":
            return [
                value if hit else None
                for hit, value in zip(mask, self.columns[0].tolist())
            ]
        if family == "record":
            first, last, counts = (c.tolist() for c in self.columns)
            return [
                (first[i], last[i], counts[i]) if hit else None
                for i, hit in enumerate(mask)
            ]
        entropies, codes, macs = (c.tolist() for c in self.columns)
        no_mac = _kernels.NO_MAC
        return [
            (
                entropies[i],
                codes[i],
                None if macs[i] == no_mac else macs[i],
            )
            if hit
            else None
            for i, hit in enumerate(mask)
        ]

    @classmethod
    def concat(cls, parts: Sequence["ColumnarResults"]):
        """Concatenate chunked results (the engine's max_batch split)."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        mask = (
            None
            if first.mask is None
            else np.concatenate([part.mask for part in parts])
        )
        columns = tuple(
            np.concatenate([part.columns[i] for part in parts])
            for i in range(len(first.columns))
        )
        return cls(first.family, mask, columns)


def _peek_generation(path: Path) -> int:
    """Best-effort previous generation, 0 when unreadable.

    Reads only the fixed header so even a torn file (valid header, torn
    columns) still carries its generation forward — readers distinguish
    rebuilds by a strictly growing number.
    """
    try:
        with path.open("rb") as stream:
            head = stream.read(_HEADER_SIZE)
    except OSError:
        return 0
    if len(head) != _HEADER_SIZE:
        return 0
    try:
        magic, version, _, _, _, _, _, generation, _ = _HEADER.unpack(head)
    except struct.error:  # pragma: no cover - fixed-size read
        return 0
    if magic != _SEAL.head_magic or version != _VERSION:
        return 0
    return generation


def _file_chunks(header: bytes, columns) -> Iterator:
    """An RSI1 file's bytes before its trailer, chunk by chunk.

    Yields the packed header, then each ``(values, dtype)`` column as
    one little-endian run followed by its zero padding to 8 bytes.
    """
    yield header
    for values, dtype in columns:
        run = np.ascontiguousarray(values, dtype=dtype)
        yield run
        yield bytes(_pad8(run.nbytes))


def build_serving_index(
    directory: Union[str, Path],
    *,
    routing=None,
    metrics: Optional[MetricsRegistry] = None,
) -> Path:
    """Derive ``SERVING.rsi`` from a segment store's ``.idx`` partials.

    Stacks the seal-time partial indexes one at a time (re-reading
    **zero** sealed ``.seg`` payloads while the partials are intact)
    into columns sized from the manifest, folds them in one sorted numpy
    pass (:func:`repro.core.kernels.sorted_record_fold`), and writes
    the flattened intervals of ``routing`` (a
    :class:`~repro.net.routing.RoutingTable`) as the LPM origin table
    when given.
    The header, each column and the CRC footer are then streamed
    through the durable writer — the file is never assembled in
    memory — replacing any previous index, bumping its generation and
    stamping the manifest digest it was derived from.  Returns the
    index path.
    """
    registry = NULL_REGISTRY if metrics is None else metrics
    directory = Path(directory)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    store = SegmentStore(directory, metrics=registry)
    # One manifest decides both the rows stacked and the digest stamped.
    reader = store.reader()
    manifest = reader.manifest
    with registry.span("serve-index-build"):
        hi, lo, first, last, counts, entropies, codes, macs = (
            PartialIndexColumns.stack(
                reader.iter_partial_indexes(), manifest.total_records
            )
        )
        source, hi, lo, first, last, counts = _kernels.sorted_record_fold(
            hi, lo, first, last, counts
        )
        size = len(source)
        slash48 = np.unique(hi & np.uint64(_SLASH48_HI_MASK))
        slash64 = np.unique(hi)

        flags = 0
        origin_hi = origin_lo = origin_asn = ()
        if routing is not None:
            origin_hi, origin_lo, origin_asn = routing.origin_columns()
            flags |= _FLAG_ORIGIN_TABLE

        path = directory / SERVING_INDEX_NAME
        header = _HEADER.pack(
            _SEAL.head_magic,
            _VERSION,
            flags,
            size,
            len(slash48),
            len(slash64),
            len(origin_asn),
            _peek_generation(path) + 1,
            manifest_digest(manifest),
        )
        # (values, on-disk dtype) in file order; each run is padded to
        # 8 bytes, which only the u8 codes and u32 ASNs ever need.
        columns = (
            (hi, "<u8"),
            (lo, "<u8"),
            (first, "<f8"),
            (last, "<f8"),
            (counts, "<u8"),
            (entropies[source], "<f8"),
            (macs[source], "<u8"),
            (codes[source], "u1"),
            (slash48, "<u8"),
            (slash64, "<u8"),
            (origin_hi, "<u8"),
            (origin_lo, "<u8"),
            (origin_asn, "<u4"),
        )
        _SEAL.write(path, _file_chunks(header, columns))
    registry.counter(
        "repro_serve_index_builds_total", "serving index builds"
    ).inc()
    registry.gauge(
        "repro_serve_index_rows", "rows in the last built serving index"
    ).set(size)
    return path


class ServingIndex:
    """A read-only, mmap-backed view over one ``SERVING.rsi`` file.

    Open with :meth:`open` (or :func:`ensure_serving_index`).  All query
    methods are batch-shaped, because the serving engine's whole point
    is answering many concurrent lookups with one vectorized binary
    search (:func:`repro.core.kernels.pair_searchsorted_array`).
    :meth:`columnar_batch` is the one implementation of every op; the
    ``*_batch`` methods are its answers as plain Python lists.  The mmap
    means the columns are never copied into the process: the kernel page
    cache is shared across every worker serving the same file.
    """

    def __init__(
        self,
        path: Path,
        stream,
        mapped: mmap.mmap,
        header: Tuple[int, ...],
    ) -> None:
        self.path = path
        self._stream = stream
        self._mm = mapped
        (
            self.flags,
            self.rows,
            self.slash48_count,
            self.slash64_count,
            self.origin_intervals,
            self.generation,
            self.source_digest,
        ) = header

        offset = _HEADER_SIZE
        self._hi, offset = self._view(offset, self.rows, "<u8")
        self._lo, offset = self._view(offset, self.rows, "<u8")
        self._first, offset = self._view(offset, self.rows, "<f8")
        self._last, offset = self._view(offset, self.rows, "<f8")
        self._counts, offset = self._view(offset, self.rows, "<u8")
        self._entropies, offset = self._view(offset, self.rows, "<f8")
        self._macs, offset = self._view(offset, self.rows, "<u8")
        self._codes, offset = self._view(offset, self.rows, "u1")
        offset += _pad8(self.rows)
        self._slash48, offset = self._view(offset, self.slash48_count, "<u8")
        self._slash64, offset = self._view(offset, self.slash64_count, "<u8")
        self._origin_hi, offset = self._view(
            offset, self.origin_intervals, "<u8"
        )
        self._origin_lo, offset = self._view(
            offset, self.origin_intervals, "<u8"
        )
        self._origin_asn, offset = self._view(
            offset, self.origin_intervals, "<u4"
        )
        offset += _pad8(4 * self.origin_intervals)
        if offset + durable.TRAILER_SIZE != len(mapped):
            raise ServingIndexError(
                "serving index size disagrees with its header counts",
                path=path,
                offset=offset,
            )

    # -- opening -----------------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ServingIndex":
        """Map and validate a serving index.

        ``path`` is the ``.rsi`` file, its segment directory, or that
        directory's ``MANIFEST.json``.  The whole file is CRC-checked
        against the ``RSIF`` footer before any query — a torn or
        truncated index raises :class:`ServingIndexError` (and is never
        served); a missing one raises :class:`FileNotFoundError`.
        """
        path = Path(path)
        if path.name == MANIFEST_NAME:
            path = path.parent
        if path.is_dir():
            path = path / SERVING_INDEX_NAME
        stream = path.open("rb")
        try:
            try:
                mapped = mmap.mmap(
                    stream.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as error:
                raise ServingIndexError(
                    f"unmappable serving index: {error}", path=path
                ) from error
            try:
                return cls._validate(path, stream, mapped)
            except BaseException:
                mapped.close()
                raise
        except BaseException:
            stream.close()
            raise

    @classmethod
    def _validate(
        cls, path: Path, stream, mapped: mmap.mmap
    ) -> "ServingIndex":
        _SEAL.check(mapped, path)
        (
            _,
            version,
            flags,
            rows,
            n48,
            n64,
            n_origins,
            generation,
            digest,
        ) = _HEADER.unpack_from(mapped, 0)
        if version != _VERSION:
            raise ServingIndexError(
                f"unsupported serving index version {version}",
                path=path,
                offset=4,
            )
        return cls(
            path,
            stream,
            mapped,
            (flags, rows, n48, n64, n_origins, generation, digest),
        )

    # -- column views ------------------------------------------------------------

    def _view(self, offset: int, count: int, dtype: str):
        end = offset + np.dtype(dtype).itemsize * count
        if end + durable.TRAILER_SIZE > len(self._mm):
            raise ServingIndexError(
                "serving index columns overrun the file",
                path=self.path,
                offset=offset,
            )
        column = np.frombuffer(
            self._mm, dtype=dtype, count=count, offset=offset
        )
        return column, end

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping (queries are invalid afterwards)."""
        for attr in (
            "_hi", "_lo", "_first", "_last", "_counts", "_entropies",
            "_macs", "_codes", "_slash48", "_slash64", "_origin_hi",
            "_origin_lo", "_origin_asn",
        ):
            setattr(self, attr, None)
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - a caller kept a view
            pass
        self._stream.close()

    def __enter__(self) -> "ServingIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def has_origin_table(self) -> bool:
        return bool(self.flags & _FLAG_ORIGIN_TABLE)

    def describe(self) -> Dict[str, object]:
        """Shape summary (the ``stats`` query answer)."""
        return {
            "path": str(self.path),
            "rows": self.rows,
            "slash48s": self.slash48_count,
            "slash64s": self.slash64_count,
            "origin_intervals": self.origin_intervals,
            "has_origin_table": self.has_origin_table,
            "generation": self.generation,
            "source_digest": f"{self.source_digest:#010x}",
        }

    # -- batch queries -----------------------------------------------------------

    def _columnar_rows(self, qh, ql, count: int):
        """(row-index, hit) ndarrays; misses index row 0 with hit False."""
        if not self.rows:
            zeros = np.zeros(count, dtype=np.int64)
            return zeros, np.zeros(count, dtype=bool)
        pos = _kernels.pair_searchsorted_array(
            self._hi, self._lo, qh, ql, "left"
        )
        clipped = np.minimum(pos, self.rows - 1)
        hit = (
            (pos < self.rows)
            & (self._hi[clipped] == qh)
            & (self._lo[clipped] == ql)
        )
        return np.where(hit, pos, 0), hit

    def _columnar_gather(self, hit, rows_idx, column, zero):
        if not self.rows:
            return np.zeros(len(hit), dtype=column.dtype)
        return np.where(hit, column[rows_idx], zero)

    def _columnar_member(self, column, probes):
        size = len(column)
        if not size:
            return np.zeros(len(probes), dtype=bool)
        positions = np.searchsorted(column, probes)
        found = positions < size
        clipped = np.where(found, positions, 0)
        found &= column[clipped] == probes
        return found

    def columnar_batch(
        self, op: str, addresses: Sequence[int]
    ) -> ColumnarResults:
        """Column-major answers for ``op``: the one implementation of
        every serving op.

        No per-item Python objects: searchsorted rows, fancy-indexed
        columns, a hit mask — ready for one-``tobytes``-per-column RSB1
        encoding (see :class:`ColumnarResults`).  An empty batch gives
        empty columns; ``origin`` on an index built without an origin
        table raises :class:`ServingIndexError`.
        """
        count = len(addresses)
        qh, ql = _split_addresses(addresses)
        if op in ("slash48", "slash64"):
            if op == "slash48":
                probes = qh & np.uint64(_SLASH48_HI_MASK)
                column = self._slash48
            else:
                probes = qh
                column = self._slash64
            return ColumnarResults(
                "bool", None, (self._columnar_member(column, probes),)
            )
        if op == "origin":
            if not self.has_origin_table:
                raise ServingIndexError(
                    "serving index was built without an origin table; "
                    "rebuild with routing= to serve origin queries",
                    path=self.path,
                )
            positions = _kernels.pair_searchsorted_array(
                self._origin_hi, self._origin_lo, qh, ql, "right"
            )
            # The table always starts at (0, 0): positions >= 1.
            return ColumnarResults(
                "asn", None, (self._origin_asn[positions - 1],)
            )
        rows_idx, hit = self._columnar_rows(qh, ql, count)
        if op == "contains":
            return ColumnarResults("bool", None, (hit,))
        gather = self._columnar_gather
        if op == "lifetime":
            if not self.rows:
                values = np.zeros(count)
            else:
                values = np.where(
                    hit, self._last[rows_idx] - self._first[rows_idx], 0.0
                )
            return ColumnarResults("f64opt", hit, (values,))
        if op == "entropy":
            return ColumnarResults(
                "f64opt",
                hit,
                (gather(hit, rows_idx, self._entropies, 0.0),),
            )
        if op == "record":
            return ColumnarResults(
                "record",
                hit,
                (
                    gather(hit, rows_idx, self._first, 0.0),
                    gather(hit, rows_idx, self._last, 0.0),
                    gather(hit, rows_idx, self._counts, 0),
                ),
            )
        if op == "features":
            return ColumnarResults(
                "features",
                hit,
                (
                    gather(hit, rows_idx, self._entropies, 0.0),
                    gather(hit, rows_idx, self._codes, 0),
                    gather(hit, rows_idx, self._macs, 0),
                ),
            )
        raise ValueError(f"unknown columnar op {op!r}")

    def record_batch(
        self, addresses: Sequence[int]
    ) -> List[Optional[Tuple[float, float, int]]]:
        """``(first, last, count)`` per address, None when absent."""
        return self.columnar_batch("record", addresses).to_list()

    def lifetime_batch(
        self, addresses: Sequence[int]
    ) -> List[Optional[float]]:
        """``last - first`` per address, None when absent."""
        return self.columnar_batch("lifetime", addresses).to_list()

    def entropy_batch(
        self, addresses: Sequence[int]
    ) -> List[Optional[float]]:
        """Normalized IID entropy per address, None when absent."""
        return self.columnar_batch("entropy", addresses).to_list()

    def features_batch(
        self, addresses: Sequence[int]
    ) -> List[Optional[Tuple[float, int, Optional[int]]]]:
        """``(entropy, pattern_code, mac-or-None)`` per address."""
        return self.columnar_batch("features", addresses).to_list()

    def contains_batch(self, addresses: Sequence[int]) -> List[bool]:
        """Whether each address has a row."""
        return self.columnar_batch("contains", addresses).to_list()

    def slash48_batch(self, addresses: Sequence[int]) -> List[bool]:
        """Whether each address's /48 holds any corpus address."""
        return self.columnar_batch("slash48", addresses).to_list()

    def slash64_batch(self, addresses: Sequence[int]) -> List[bool]:
        """Whether each address's /64 holds any corpus address."""
        return self.columnar_batch("slash64", addresses).to_list()

    def origin_batch(
        self, addresses: Sequence[int]
    ) -> List[Optional[int]]:
        """LPM origin ASN per address from the flattened origin table."""
        return self.columnar_batch("origin", addresses).to_list()


def ensure_serving_index(
    directory: Union[str, Path],
    *,
    routing=None,
    metrics: Optional[MetricsRegistry] = None,
    rebuild: bool = False,
    lock: bool = False,
) -> ServingIndex:
    """Open the directory's serving index, (re)building it when needed.

    An existing index is reused only when it validates (CRC), its
    stamped :func:`manifest_digest` matches the manifest actually next
    to it, and it has an origin table whenever ``routing`` demands one —
    otherwise (missing, torn, stale after commits/compaction, or
    ``rebuild=True``) a fresh index is derived from the ``.idx``
    partials and atomically swapped in.  A torn index is therefore
    *never served*.

    ``routing`` is a routing table, as :func:`build_serving_index`
    takes it; :func:`repro.world.build_routing` makes a preset's table
    without building its world.  With ``lock=True`` the whole
    check-or-build runs under :func:`serving_build_lock`, so concurrent
    workers reacting to one manifest change elect a single builder: the
    winner rebuilds, the losers block on the lock and then reuse the
    fresh index.  The lock holder first removes the temp files of
    writers that died mid-write in the directory, a builder's each as
    large as the index
    (:func:`repro.core.durable.remove_dead_writers_temp_files`).
    """
    directory = Path(directory)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    if lock:
        with serving_build_lock(directory):
            durable.remove_dead_writers_temp_files(directory)
            return ensure_serving_index(
                directory,
                routing=routing,
                metrics=metrics,
                rebuild=rebuild,
            )
    registry = NULL_REGISTRY if metrics is None else metrics
    store = SegmentStore(directory, metrics=registry)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} in {directory} to serve"
        )
    reason = "requested" if rebuild else None
    if reason is None:
        try:
            index = ServingIndex.open(directory)
        except FileNotFoundError:
            reason = "missing"
        except ServingIndexError:
            reason = "torn"
        else:
            if index.source_digest != manifest_digest(manifest):
                index.close()
                reason = "stale"
            elif routing is not None and not index.has_origin_table:
                index.close()
                reason = "no-origin-table"
            else:
                registry.counter(
                    "repro_serve_index_reused_total",
                    "serving indexes reused as found on disk",
                ).inc()
                return index
    registry.counter(
        "repro_serve_index_rebuilds_total",
        "serving indexes rebuilt from segment partials",
        labels={"reason": reason},
    ).inc()
    build_serving_index(directory, routing=routing, metrics=registry)
    return ServingIndex.open(directory)

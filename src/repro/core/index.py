"""Single-pass columnar corpus index.

The paper's entire analysis section (§4–§5) is aggregate queries over one
7.9B-address corpus.  Re-walking the corpus once per figure — and
resolving the origin of every address once per consumer — makes analysis
cost O(figures × addresses).  The right shape is the opposite: resolve
each structural property of an address exactly once, resolve each row's
origin once, and let every figure and table read precomputed columns.

The heavy per-IID work (entropy, pattern class, MAC extraction) and the
column folds live in :mod:`repro.core.kernels`, vectorized with numpy and
bit-identical to the scalar reference functions.
An index is built once — by one scan of a corpus
(:meth:`CorpusIndex.build`) or by one fold of seal-time
:class:`PartialIndexColumns`, one per segment
(:meth:`CorpusIndex.from_partials`, no segment rescan) — and is never
patched: a corpus that changes drops its index.  :func:`fold_partials`
is the one fold of a segment store's partials: analysis, the serving
index and compaction all call it.

Two classes implement that:

* :class:`CorpusIndex` — a one-pass columnar materialization of an
  :class:`~repro.core.corpus.AddressCorpus`: eight row-aligned numpy
  columns in the ``.idx`` row layout (the address as ``hi``/``lo`` u64
  halves, first/last/count, normalized IID entropy, structural pattern
  code and extracted EUI-64 MAC), plus lazily-memoized aggregate views
  (prefix sets, lifetimes, IID intervals, per-MAC groupings, per-row
  origins) shared by every consumer.  The IID is ``lo``, the /64 key is
  ``hi`` and the /48 key is ``hi`` with its low 16 bits cleared.
* :class:`PartialIndexColumns` — an index's eight columns sorted by
  address (:meth:`PartialIndexColumns.from_corpus`): the rows a seal
  packs into a segment's records and persists next to it, and a saved
  corpus's records; any set of partials folds associatively into a
  full :class:`CorpusIndex`.

Aggregate views hand out Python ints, floats, lists and dicts, never
numpy scalars: ``np.uint64`` fails :func:`json.dumps`, and the ``repr``
of ``np.float64`` differs from a float's.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..addr.ipv6 import IID_MASK, format_address
from ..addr.patterns import STRUCTURAL_CODES
from . import kernels as _kernels
from .kernels import NO_MAC

__all__ = [
    "CorpusIndex",
    "PartialIndexColumns",
    "NO_MAC",
    "STRUCTURAL_CODES",
    "fold_partials",
]

#: The /48 key of an address, as a mask over its ``hi`` half.
_SLASH48_HI_MASK = np.uint64(0xFFFF_FFFF_FFFF_0000)

_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF

_RECORD_DTYPE = np.dtype(
    [("first", "<f8"), ("last", "<f8"), ("counts", "<u8")]
)


def _raise_count_overflow(counts: Iterable[Tuple[int, int]]) -> None:
    """Raise the typed error for the lowest address among ``(address,
    exact count)`` pairs whose count exceeds uint64; return if none does."""
    too_large = [pair for pair in counts if pair[1] > _U64_MAX]
    if too_large:
        address, count = min(too_large)
        raise ValueError(
            f"observation count {count:,} of {format_address(address)} "
            "exceeds the uint64 range of binary format v2"
        ) from None


def _record_columns(corpus):
    """``(addresses, hi, lo, first, last, counts)`` in ``corpus`` record
    order, from one scan: the address list and five ndarrays.

    A count beyond the uint64 column raises ``ValueError`` naming the
    lowest such address.
    """
    size = len(corpus)
    addresses: List[int] = []
    keep = addresses.append

    def records():
        for address, record in corpus.items():
            keep(address)
            yield record

    try:
        table = np.fromiter(records(), dtype=_RECORD_DTYPE, count=size)
    except OverflowError:
        _raise_count_overflow(
            (address, count) for address, (_, _, count) in corpus.items()
        )
        raise
    hi = np.fromiter(
        (address >> 64 for address in addresses), dtype="<u8", count=size
    )
    lo = np.fromiter(
        (address & IID_MASK for address in addresses), dtype="<u8", count=size
    )
    return (
        addresses,
        hi,
        lo,
        *(np.ascontiguousarray(table[name]) for name in _RECORD_DTYPE.names),
    )


def fold_partials(
    partials: Iterable["PartialIndexColumns"], rows: int
) -> Tuple[np.ndarray, "PartialIndexColumns"]:
    """Fold partials into one partial with a row per address, ascending.

    ``partials`` is any iterable of partials holding ``rows`` rows in
    all, stacked as drawn (:meth:`PartialIndexColumns.stack`), so a lazy
    one — a segment store's
    :meth:`~repro.core.segments.SegmentStore.iter_partial_indexes` —
    never has every partial in memory.  Rows sharing an address fold to
    ``(min first, max last, summed count)``, keeping the first of tied
    values in fold order as ``AddressCorpus.merge`` does
    (:func:`~repro.core.kernels.sorted_record_fold`); the feature
    columns are read at the address's first row.  Returns that row per
    address (``source``, in fold order) and the folded partial.  A
    summed count beyond uint64 raises ``ValueError`` naming the lowest
    such address.
    """
    hi, lo, first, last, counts, entropies, codes, macs = (
        PartialIndexColumns.stack(partials, rows)
    )
    try:
        source, *records = _kernels.sorted_record_fold(
            hi, lo, first, last, counts
        )
    except OverflowError:
        totals: Dict[int, int] = {}
        for high, low, count in zip(hi.tolist(), lo.tolist(), counts.tolist()):
            address = (high << 64) | low
            totals[address] = totals.get(address, 0) + count
        _raise_count_overflow(totals.items())
        raise
    return source, PartialIndexColumns(
        *records, entropies[source], codes[source], macs[source]
    )


def _distinct_rows(keys):
    """First row and row count of each distinct value of ``keys``, in
    first-occurrence order."""
    _, first, sizes = np.unique(keys, return_index=True, return_counts=True)
    emit = np.argsort(first)
    return first[emit], sizes[emit]


class CorpusIndex:
    """One-pass columnar materialization of an address corpus.

    Build once per corpus (``CorpusIndex.build(corpus)``), then
    every figure/table consumer reads shared columns and memoized
    aggregates instead of re-scanning the corpus.  Rows are in corpus
    record order, so order-sensitive derivations (per-MAC address lists,
    lifetime vectors) are exactly equal to their naive per-consumer
    recomputations.

    The columns are the :attr:`PartialIndexColumns.COLUMN_SPEC` eight,
    as ndarrays.  Aggregate accessors return internal memoized objects;
    treat them as read-only (``AddressCorpus`` delegation hands out
    copies).
    """

    __slots__ = (
        "name",
        "hi",
        "lo",
        "first",
        "last",
        "counts",
        "entropies",
        "pattern_codes",
        "macs",
        "build_seconds",
        "_addresses",
        "_slash48_set",
        "_slash64_set",
        "_slash64_counts",
        "_lifetimes",
        "_iid_intervals",
        "_iid_entropies",
        "_eui64_rows",
        "_eui64_intervals",
        "_row_origins",
    )

    def __init__(
        self,
        name: str,
        hi: np.ndarray,
        lo: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
        counts: np.ndarray,
        entropies: np.ndarray,
        pattern_codes: np.ndarray,
        macs: np.ndarray,
        build_seconds: float = 0.0,
        addresses: Optional[List[int]] = None,
    ) -> None:
        columns = (hi, lo, first, last, counts, entropies, pattern_codes, macs)
        if addresses is not None:
            columns += (addresses,)
        if any(len(column) != len(hi) for column in columns):
            raise ValueError("index columns must have equal lengths")
        self.name = name
        self.hi = hi
        self.lo = lo
        self.first = first
        self.last = last
        self.counts = counts
        self.entropies = entropies
        self.pattern_codes = pattern_codes
        self.macs = macs
        self.build_seconds = build_seconds
        self._addresses = addresses
        self._slash48_set: Optional[Set[int]] = None
        self._slash64_set: Optional[Set[int]] = None
        self._slash64_counts: Optional[Dict[int, int]] = None
        self._lifetimes: Optional[List[float]] = None
        self._iid_intervals: Optional[Dict[int, Tuple[float, float]]] = None
        self._iid_entropies: Optional[Dict[int, float]] = None
        self._eui64_rows: Optional[Dict[int, List[int]]] = None
        self._eui64_intervals: Optional[Dict[int, Tuple[float, float]]] = None
        self._row_origins: Dict[Callable, List[Optional[int]]] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, corpus, metrics=None) -> "CorpusIndex":
        """Materialize all columns from ``corpus`` with a full scan.

        This is the cold path: one pass over every record.  Analysis
        over a segmented corpus should prefer
        :meth:`from_partials` (via
        :meth:`~repro.core.segments.SegmentedCorpusReader.build_index`),
        which folds seal-time partial indexes instead of rescanning.
        ``metrics`` is an optional
        :class:`~repro.obs.MetricsRegistry`; each full scan increments
        ``repro_index_full_rebuilds_total`` so rebuild churn is
        observable.
        """
        t0 = time.perf_counter()
        addresses, hi, lo, first, last, counts = _record_columns(corpus)
        # Entropy, pattern class and MAC extraction depend only on the
        # IID column: one vectorized pass over the distinct IIDs.
        index = cls(
            corpus.name,
            hi,
            lo,
            first,
            last,
            counts,
            *_kernels.iid_feature_columns(lo),
            addresses=addresses,
        )
        index.build_seconds = time.perf_counter() - t0
        if metrics is not None:
            metrics.counter(
                "repro_index_full_rebuilds_total",
                "corpus indexes built by a full record scan",
            ).inc()
        return index

    @classmethod
    def from_partials(
        cls,
        name: str,
        partials: Iterable["PartialIndexColumns"],
        rows: int,
    ) -> "CorpusIndex":
        """Fold per-segment partial indexes into one full index.

        ``partials`` is any iterable of partials holding ``rows`` rows
        in all, folded by :func:`fold_partials`.  Output rows are in
        first-occurrence order across ``partials`` — exactly the record
        order of the corpus
        :meth:`~repro.core.segments.SegmentedCorpusReader.load`
        materializes from the same segments.  The result is therefore
        bit-identical to ``CorpusIndex.build`` over that folded corpus
        (property-test pinned) without re-reading any segment file.
        """
        t0 = time.perf_counter()
        source, folded = fold_partials(partials, rows)
        # The merged corpus meets each address first at its group's first
        # input row, so its record order is the argsort of those rows.
        emit = np.argsort(source)
        index = cls(
            name,
            *(
                getattr(folded, column)[emit]
                for column, _ in PartialIndexColumns.COLUMN_SPEC
            ),
        )
        index.build_seconds = time.perf_counter() - t0
        return index

    def __len__(self) -> int:
        return len(self.hi)

    @property
    def addresses(self) -> List[int]:
        """128-bit addresses in row order (a memoized list of ints)."""
        if self._addresses is None:
            self._addresses = [
                (high << 64) | low
                for high, low in zip(self.hi.tolist(), self.lo.tolist())
            ]
        return self._addresses

    # -- memoized aggregate views ------------------------------------------------

    def slash48_set(self) -> Set[int]:
        """Distinct /48 prefix keys (shared memoized set)."""
        if self._slash48_set is None:
            keys = self.hi & _SLASH48_HI_MASK
            rows, _ = _distinct_rows(keys)
            self._slash48_set = {key << 64 for key in keys[rows].tolist()}
        return self._slash48_set

    def slash64_set(self) -> Set[int]:
        """Distinct /64 prefix keys (shared memoized set)."""
        if self._slash64_set is None:
            self._slash64_set = set(self.slash64_address_counts())
        return self._slash64_set

    def slash64_address_counts(self) -> Dict[int, int]:
        """Address count per distinct /64 (shared memoized mapping)."""
        if self._slash64_counts is None:
            rows, sizes = _distinct_rows(self.hi)
            self._slash64_counts = {
                key << 64: size
                for key, size in zip(self.hi[rows].tolist(), sizes.tolist())
            }
        return self._slash64_counts

    def lifetimes(self) -> List[float]:
        """Per-address lifetimes in row order (shared memoized list)."""
        if self._lifetimes is None:
            self._lifetimes = (self.last - self.first).tolist()
        return self._lifetimes

    def iid_intervals(self) -> Dict[int, Tuple[float, float]]:
        """Per-IID union sighting intervals (shared memoized mapping)."""
        if self._iid_intervals is None:
            self._iid_intervals = _kernels.interval_map(
                self.lo, self.first, self.last
            )
        return self._iid_intervals

    def iid_entropies(self) -> Dict[int, float]:
        """Normalized entropy per distinct IID, in first-occurrence order
        (shared memoized mapping)."""
        if self._iid_entropies is None:
            rows, _ = _distinct_rows(self.lo)
            self._iid_entropies = dict(
                zip(self.lo[rows].tolist(), self.entropies[rows].tolist())
            )
        return self._iid_entropies

    def _eui64_row_numbers(self) -> np.ndarray:
        """Rows whose IID embeds a MAC, ascending."""
        return np.flatnonzero(self.macs != np.uint64(NO_MAC))

    def eui64_rows(self) -> Dict[int, List[int]]:
        """Embedded MAC → row indices, in row order (shared memoized)."""
        if self._eui64_rows is None:
            rows = self._eui64_row_numbers()
            macs = self.macs[rows]
            order, starts = _kernels._sorted_groups(macs)
            grouped = rows[order].tolist()
            bounds = starts.tolist() + [len(grouped)]
            keys = macs[order[starts]].tolist()
            # Groups ascend by MAC; emit them in first-occurrence order.
            self._eui64_rows = {
                keys[group]: grouped[bounds[group]:bounds[group + 1]]
                for group in np.argsort(order[starts]).tolist()
            }
        return self._eui64_rows

    def eui64_mac_addresses(self) -> Dict[int, List[int]]:
        """Embedded MAC → addresses exposing it (fresh lists)."""
        addresses = self.addresses
        return {
            mac: [addresses[row] for row in rows]
            for mac, rows in self.eui64_rows().items()
        }

    def eui64_mac_intervals(self) -> Dict[int, Tuple[float, float]]:
        """Embedded MAC → union sighting interval over its addresses."""
        if self._eui64_intervals is None:
            rows = self._eui64_row_numbers()
            self._eui64_intervals = _kernels.interval_map(
                self.macs[rows], self.first[rows], self.last[rows]
            )
        return self._eui64_intervals

    def rows_in_window(self, start: float, end: float) -> List[int]:
        """Rows whose sighting interval intersects ``[start, end)``."""
        return np.flatnonzero(
            (self.first < end) & (self.last >= start)
        ).tolist()

    # -- origin aggregation -------------------------------------------------------

    def row_origins(
        self, origin: Callable[[int], Optional[int]]
    ) -> List[Optional[int]]:
        """Origin ASN of every row, in row order (``None`` for unrouted).

        Resolved once per ``origin`` callable — equal bound methods share
        one view — and memoized with the index (shared list; read-only).
        ``origin`` must answer the same for the index's lifetime.
        """
        view = self._row_origins.get(origin)
        if view is None:
            view = [origin(address) for address in self.addresses]
            self._row_origins[origin] = view
        return view

    def asn_counts(self, origin: Callable[[int], Optional[int]]) -> Counter:
        """Address count per origin ASN (``None`` for unrouted), keys in
        first-occurrence row order."""
        return Counter(self.row_origins(origin))

    def asn_set(self, origin: Callable[[int], Optional[int]]) -> Set[int]:
        """Distinct origin ASNs (unrouted addresses are skipped)."""
        return {
            asn for asn in self.row_origins(origin) if asn is not None
        }

    def __repr__(self) -> str:
        return f"CorpusIndex({self.name!r}, {len(self):,} rows)"


class PartialIndexColumns:
    """Per-segment partial index: seal-time columns ready to fold.

    One instance summarizes one sealed segment's corpus in the eight
    :attr:`COLUMN_SPEC` columns, in ascending address order: the
    address split into 64-bit halves, first/last/count, and the per-row
    derived columns (entropy, pattern code, MAC) that are pure functions
    of the IID.  The low address half **is** the IID, so no separate IID
    column is stored.  Folding any set of partials with
    :meth:`CorpusIndex.from_partials` reproduces ``CorpusIndex.build``
    over the folded segments bit-for-bit.

    The columnar payload (:meth:`to_payload`) is the byte layout the
    segment store persists next to each ``.seg`` file; columns are
    little-endian on disk regardless of host byte order.  Framing (the
    ``RPI1``/``RPIF`` magic and CRC footer) is owned by
    :mod:`repro.core.segments`.
    """

    __slots__ = (
        "hi",
        "lo",
        "first",
        "last",
        "counts",
        "entropies",
        "pattern_codes",
        "macs",
    )

    #: The eight columns of a partial and of a :class:`CorpusIndex`, in
    #: serialized order, with their on-disk numpy dtypes.
    COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
        ("hi", "<u8"),
        ("lo", "<u8"),
        ("first", "<f8"),
        ("last", "<f8"),
        ("counts", "<u8"),
        ("entropies", "<f8"),
        ("pattern_codes", "u1"),
        ("macs", "<u8"),
    )

    def __init__(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
        counts: np.ndarray,
        entropies: np.ndarray,
        pattern_codes: np.ndarray,
        macs: np.ndarray,
    ) -> None:
        columns = (hi, lo, first, last, counts, entropies, pattern_codes, macs)
        if any(len(column) != len(hi) for column in columns):
            raise ValueError("partial index columns must have equal lengths")
        self.hi = hi
        self.lo = lo
        self.first = first
        self.last = last
        self.counts = counts
        self.entropies = entropies
        self.pattern_codes = pattern_codes
        self.macs = macs

    def __len__(self) -> int:
        return len(self.lo)

    @classmethod
    def from_corpus(cls, corpus) -> "PartialIndexColumns":
        """``corpus.index``'s columns in ascending address order: the one
        route from a corpus's records to sorted columns.

        A seal packs these rows into the segment's records and persists
        them as its partial, and a save writes them as the corpus's
        records, so a partial built from the in-memory buffer at seal
        time and one rebuilt from the sealed file are identical, and
        the fold's first-occurrence order matches a segment-by-segment
        merge of the files on disk.  A count beyond the uint64 column
        raises ``ValueError`` naming the first such address in address
        order.
        """
        index = corpus.index
        order = np.lexsort((index.lo, index.hi))
        return cls(
            *(getattr(index, name)[order] for name, _ in cls.COLUMN_SPEC)
        )

    @classmethod
    def stack(cls, partials: Iterable["PartialIndexColumns"], rows: int):
        """Stack partials' columns, one ndarray per :attr:`COLUMN_SPEC`
        column.

        ``partials`` is any iterable of partials holding ``rows`` rows in
        all; each is copied into columns allocated once, at that size,
        and may be dropped as soon as the next is drawn — so a lazy
        iterable never has every partial in memory beside the stacked
        columns.  Rows are in fold order: partial by partial, each in
        its own row order.
        """
        columns = tuple(
            np.empty(rows, dtype=dtype) for _, dtype in cls.COLUMN_SPEC
        )
        offset = 0
        for part in partials:
            end = offset + len(part)
            for column, (name, _) in zip(columns, cls.COLUMN_SPEC):
                column[offset:end] = getattr(part, name)
            offset = end
        # Rows past ``rows`` fail to broadcast above; rows short of it
        # would leave uninitialized values in the columns.
        if offset != rows:
            raise ValueError(
                f"partials hold {offset} rows, not the {rows} given"
            )
        return columns

    def to_payload(self) -> bytes:
        """Serialize all columns (little-endian, :attr:`COLUMN_SPEC` order)."""
        return b"".join(
            getattr(self, name).astype(dtype, copy=False).tobytes()
            for name, dtype in self.COLUMN_SPEC
        )

    @classmethod
    def payload_size(cls, rows: int) -> int:
        """Exact byte length of a ``rows``-row payload."""
        return rows * sum(
            np.dtype(dtype).itemsize for _, dtype in cls.COLUMN_SPEC
        )

    @classmethod
    def from_payload(cls, data, rows: int) -> "PartialIndexColumns":
        """Inverse of :meth:`to_payload` for a known row count.

        The columns are read-only views over ``data`` (any buffer), not
        copies.
        """
        if len(data) != cls.payload_size(rows):
            raise ValueError(
                f"partial index payload is {len(data)} bytes; "
                f"{rows} rows need {cls.payload_size(rows)}"
            )
        columns = []
        offset = 0
        for _, dtype in cls.COLUMN_SPEC:
            column = np.frombuffer(
                data, dtype=dtype, count=rows, offset=offset
            )
            columns.append(column)
            offset += column.nbytes
        return cls(*columns)

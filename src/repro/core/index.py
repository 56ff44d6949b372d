"""Single-pass columnar corpus index with cached LPM origin resolution.

The paper's entire analysis section (§4–§5) is aggregate queries over one
7.9B-address corpus.  Re-walking the corpus once per figure — and walking
the 128-bit routing trie once per address per consumer — makes analysis
cost O(figures × addresses × trie-depth).  Addresses cluster under few
prefixes ("Clusters in the Expanse"; this paper's /48- and /64-level
aggregation), so the right shape is the opposite: resolve each structural
property of an address exactly once, resolve origin once per distinct
/64, and let every figure and table read precomputed columns.

The heavy per-IID work (entropy, pattern class, MAC extraction) and the
column folds live in :mod:`repro.core.kernels`, vectorized with numpy and
bit-identical to the scalar reference functions.
An index is built once — by one scan of a corpus
(:meth:`CorpusIndex.build`) or by one fold of seal-time
:class:`PartialIndexColumns`, one per segment
(:meth:`CorpusIndex.from_partials`, no segment rescan) — and is never
patched: a corpus that changes drops its index.

Three classes implement that:

* :class:`CorpusIndex` — a one-pass columnar materialization of an
  :class:`~repro.core.corpus.AddressCorpus`: eight row-aligned numpy
  columns in the ``.idx`` row layout (the address as ``hi``/``lo`` u64
  halves, first/last/count, normalized IID entropy, structural pattern
  code and extracted EUI-64 MAC), plus lazily-memoized aggregate views
  (prefix sets, lifetimes, IID intervals, per-MAC groupings, origin-AS
  counts) shared by every consumer.  The IID is ``lo``, the /64 key is
  ``hi`` and the /48 key is ``hi`` with its low 16 bits cleared.
* :class:`PartialIndexColumns` — one sealed segment's columnar summary,
  built at seal time and persisted next to the segment; any set of
  partials folds associatively into a full :class:`CorpusIndex`.
* :class:`CachedOrigins` — a longest-prefix-match memoizer: origin ASN
  is computed once per distinct /64 rather than once per address per
  consumer.  **Correctness condition**: all addresses of a /64 share an
  origin only when no announcement *longer* than /64 intersects that
  /64.  Any announcement with length > 64 is wholly contained in a
  single /64, so the resolver precomputes that "hot" /64 set and falls
  back to per-address LPM inside it.

Aggregate views hand out Python ints, floats, lists and dicts, never
numpy scalars: ``np.uint64`` fails :func:`json.dumps`, and the ``repr``
of ``np.float64`` differs from a float's.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..addr.ipv6 import IID_MASK, PREFIX_MASK
from ..addr.patterns import STRUCTURAL_CODES
from . import kernels as _kernels
from .kernels import NO_MAC

__all__ = [
    "CachedOrigins",
    "CorpusIndex",
    "PartialIndexColumns",
    "NO_MAC",
    "STRUCTURAL_CODES",
]

#: The /48 key of an address, as a mask over its ``hi`` half.
_SLASH48_HI_MASK = np.uint64(0xFFFF_FFFF_FFFF_0000)

_RECORD_DTYPE = np.dtype(
    [("first", "<f8"), ("last", "<f8"), ("counts", "<u8")]
)


def _record_columns(corpus):
    """``(addresses, hi, lo, first, last, counts)`` in ``corpus`` record
    order, from one scan: the address list and five ndarrays."""
    size = len(corpus)
    addresses: List[int] = []
    keep = addresses.append

    def records():
        for address, record in corpus.items():
            keep(address)
            yield record

    table = np.fromiter(records(), dtype=_RECORD_DTYPE, count=size)
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


def _distinct_rows(keys):
    """First row and row count of each distinct value of ``keys``, in
    first-occurrence order."""
    _, first, sizes = np.unique(keys, return_index=True, return_counts=True)
    emit = np.argsort(first)
    return first[emit], sizes[emit]


class CachedOrigins:
    """Memoizing origin-ASN resolver: one LPM walk per distinct /64.

    Wraps any ``address -> Optional[int]`` origin callable (a
    :meth:`~repro.net.routing.RoutingTable.origin_asn` bound method,
    ``world.ipv6_origin_asn``, …).  Lookups inside a /64 that contains
    no announcement longer than /64 are answered from a per-/64 cache;
    lookups inside "hot" /64s (those containing a longer-than-/64
    announcement) always fall back to the wrapped per-address LPM, so
    the resolver is exactly equivalent to the callable it wraps.
    """

    __slots__ = ("_origin", "_cache", "_hot", "lpm_calls")

    def __init__(
        self,
        origin: Callable[[int], Optional[int]],
        long_prefixes: Iterable = (),
    ) -> None:
        self._origin = origin
        self._cache: Dict[int, Optional[int]] = {}
        # Any prefix longer than /64 fixes all 64 high bits, so it lies
        # inside exactly one /64 — that /64 can never be memoized.
        self._hot: Set[int] = {
            prefix.network & PREFIX_MASK
            for prefix in long_prefixes
            if prefix.length > 64
        }
        #: Wrapped-LPM invocations actually performed (profiling aid).
        self.lpm_calls = 0

    @classmethod
    def from_routing_table(cls, table) -> "CachedOrigins":
        """Wrap a :class:`~repro.net.routing.RoutingTable`."""
        return cls(
            table.origin_asn,
            (routed.prefix for routed in table.routed_prefixes()),
        )

    @classmethod
    def from_world(cls, world) -> "CachedOrigins":
        """Wrap a world's IPv6 origin lookup and its routing table."""
        return cls(
            world.ipv6_origin_asn,
            (routed.prefix for routed in world.routing.routed_prefixes()),
        )

    @property
    def hot_slash64s(self) -> Set[int]:
        """/64 keys containing an announcement more specific than /64."""
        return self._hot

    def __call__(self, address: int) -> Optional[int]:
        """Origin ASN of ``address`` (memoized per /64 where sound)."""
        key = address & PREFIX_MASK
        if key in self._hot:
            self.lpm_calls += 1
            return self._origin(address)
        try:
            return self._cache[key]
        except KeyError:
            self.lpm_calls += 1
            asn = self._origin(address)
            self._cache[key] = asn
            return asn

    def slash64_origin(self, key: int) -> Optional[int]:
        """Origin shared by every address of a non-hot /64 ``key``.

        ``key`` must be a /64 prefix key (low 64 bits zero) that is not
        hot; calling this for a hot /64 raises, because its addresses do
        not share a single origin.
        """
        if key in self._hot:
            raise ValueError(
                f"/64 {key:#x} contains a longer-than-/64 announcement; "
                "resolve its addresses individually"
            )
        return self(key)

    def cache_info(self) -> Dict[str, int]:
        """Cache shape for profiling: distinct /64s, hot /64s, LPM calls."""
        return {
            "cached_slash64s": len(self._cache),
            "hot_slash64s": len(self._hot),
            "lpm_calls": self.lpm_calls,
        }


class CorpusIndex:
    """One-pass columnar materialization of an address corpus.

    Build once per corpus (``CorpusIndex.build(corpus, origins)``), then
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
        "origins",
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
        origins: Optional[CachedOrigins] = None,
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
        self.origins = origins
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

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        corpus,
        origins: Optional[CachedOrigins] = None,
        metrics=None,
    ) -> "CorpusIndex":
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
            origins=origins,
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
        origins: Optional[CachedOrigins] = None,
    ) -> "CorpusIndex":
        """Fold per-segment partial indexes into one full index.

        ``partials`` is any iterable of partials holding ``rows`` rows
        in all; each is stacked as it is drawn
        (:meth:`PartialIndexColumns.stack`), so a lazy iterable never
        has every partial in memory.  The record fold is the
        associative, commutative ``(min first, max last, summed
        count)`` every reader applies, and output rows are in
        first-occurrence order across ``partials`` — exactly the
        record order of the corpus
        :meth:`~repro.core.segments.SegmentedCorpusReader.load`
        materializes from the same segments.  The result is therefore
        bit-identical to ``CorpusIndex.build`` over that folded corpus
        (property-test pinned) without re-reading any segment file.
        """
        t0 = time.perf_counter()
        hi, lo, first, last, counts, entropies, codes, macs = (
            PartialIndexColumns.stack(partials, rows)
        )
        source, hi, lo, first, last, counts = _kernels.sorted_record_fold(
            hi, lo, first, last, counts
        )
        # The merged corpus meets each address first at its group's first
        # input row, so its record order is the argsort of those rows.
        emit = np.argsort(source)
        source = source[emit]
        index = cls(
            name,
            hi[emit],
            lo[emit],
            first[emit],
            last[emit],
            counts[emit],
            entropies[source],
            codes[source],
            macs[source],
            origins=origins,
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

    def asn_counts(
        self, origin: Optional[Callable[[int], Optional[int]]] = None
    ) -> Counter:
        """Address count per origin ASN (``None`` for unrouted).

        With a :class:`CachedOrigins` resolver (the attached one by
        default) the tally runs over *distinct /64s* instead of
        addresses, resolving each non-hot /64 exactly once; hot /64s
        (containing a longer-than-/64 announcement) are resolved
        per-address, preserving exact equivalence with the naive loop.
        """
        resolver = self.origins if origin is None else origin
        if resolver is None:
            raise ValueError("no origin resolver attached or supplied")
        counts: Counter = Counter()
        if isinstance(resolver, CachedOrigins):
            hot = resolver.hot_slash64s
            per_slash64 = self.slash64_address_counts()
            live_hot = hot.intersection(per_slash64) if hot else ()
            for key, n in per_slash64.items():
                if key in live_hot:
                    continue
                counts[resolver.slash64_origin(key)] += n
            if live_hot:
                hot_hi = np.array(
                    sorted(key >> 64 for key in live_hot), dtype=np.uint64
                )
                addresses = self.addresses
                for row in np.flatnonzero(np.isin(self.hi, hot_hi)).tolist():
                    counts[resolver(addresses[row])] += 1
        else:
            for address in self.addresses:
                counts[resolver(address)] += 1
        return counts

    def asn_set(
        self, origin: Optional[Callable[[int], Optional[int]]] = None
    ) -> Set[int]:
        """Distinct origin ASNs (unrouted addresses are skipped)."""
        return {
            asn for asn in self.asn_counts(origin) if asn is not None
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
        """Summarize a (segment's) corpus.

        Rows are in ascending address order — the canonical record
        order :func:`~repro.core.storage.save_corpus_binary` serializes
        — so a partial built from the in-memory buffer at seal time and
        one rebuilt from the sealed file are identical, and the fold's
        first-occurrence order matches a segment-by-segment merge of
        the files on disk.
        """
        _, hi, lo, first, last, counts = _record_columns(corpus)
        order = np.lexsort((lo, hi))
        lo = lo[order]
        return cls(
            hi[order],
            lo,
            first[order],
            last[order],
            counts[order],
            *_kernels.iid_feature_columns(lo),
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

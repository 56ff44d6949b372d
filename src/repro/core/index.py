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
An index is **incrementally maintainable**: corpus appends call
:meth:`CorpusIndex.observe` to update columns in place instead of
invalidating the index, and a segmented corpus is indexed by folding
seal-time :class:`PartialIndexColumns` (one per segment) with
:meth:`CorpusIndex.from_partials` — no segment rescan.

Three classes implement that:

* :class:`CorpusIndex` — a one-pass columnar materialization of an
  :class:`~repro.core.corpus.AddressCorpus`: parallel columns for
  address, first/last/count, /48 key, /64 key, IID, normalized IID
  entropy, structural pattern class and extracted EUI-64 MAC, plus
  lazily-memoized aggregate views (prefix sets, lifetimes, IID
  intervals, per-MAC groupings, origin-AS counts) shared by every
  consumer.
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

Columns use :mod:`array` storage where the element width permits
(timestamps, counts, 64-bit IIDs/MACs, entropy, pattern codes); 128-bit
addresses and prefix keys stay in plain lists.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import sys

from ..addr.ipv6 import IID_MASK, PREFIX_MASK
from ..addr.patterns import (
    AddressCategory,
    CATEGORY_BY_CODE,
    STRUCTURAL_CODES,
)
from . import kernels as _kernels
from .kernels import NO_MAC

__all__ = [
    "CachedOrigins",
    "CorpusIndex",
    "PartialIndexColumns",
    "NO_MAC",
    "STRUCTURAL_CODES",
]

_SLASH48_MASK = ~((1 << 80) - 1)

_BIG_ENDIAN = sys.byteorder == "big"


def _column_le_bytes(column: array) -> bytes:
    """Serialize an :mod:`array` column as little-endian bytes."""
    if _BIG_ENDIAN:  # pragma: no cover - no big-endian CI platform
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _column_from_le(typecode: str, data: bytes) -> array:
    """Deserialize a little-endian byte run into an :mod:`array` column."""
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover
        column.byteswap()
    return column


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

    Aggregate accessors return internal memoized objects; treat them as
    read-only (``AddressCorpus`` delegation hands out copies).
    """

    __slots__ = (
        "name",
        "addresses",
        "first",
        "last",
        "counts",
        "slash48s",
        "slash64s",
        "iids",
        "entropies",
        "pattern_codes",
        "macs",
        "origins",
        "build_seconds",
        "_slash48_set",
        "_slash64_set",
        "_slash64_counts",
        "_lifetimes",
        "_iid_intervals",
        "_iid_entropies",
        "_eui64_rows",
        "_eui64_intervals",
        "_row_of",
    )

    def __init__(
        self,
        name: str,
        addresses: List[int],
        first: array,
        last: array,
        counts: array,
        slash48s: List[int],
        slash64s: List[int],
        iids: array,
        entropies: array,
        pattern_codes: array,
        macs: array,
        origins: Optional[CachedOrigins] = None,
        build_seconds: float = 0.0,
    ) -> None:
        size = len(addresses)
        for column in (first, last, counts, slash48s, slash64s, iids,
                       entropies, pattern_codes, macs):
            if len(column) != size:
                raise ValueError("index columns must have equal lengths")
        self.name = name
        self.addresses = addresses
        self.first = first
        self.last = last
        self.counts = counts
        self.slash48s = slash48s
        self.slash64s = slash64s
        self.iids = iids
        self.entropies = entropies
        self.pattern_codes = pattern_codes
        self.macs = macs
        self.origins = origins
        self.build_seconds = build_seconds
        self._slash48_set: Optional[Set[int]] = None
        self._slash64_set: Optional[Set[int]] = None
        self._slash64_counts: Optional[Dict[int, int]] = None
        self._lifetimes: Optional[List[float]] = None
        self._iid_intervals: Optional[Dict[int, Tuple[float, float]]] = None
        self._iid_entropies: Optional[Dict[int, float]] = None
        self._eui64_rows: Optional[Dict[int, List[int]]] = None
        self._eui64_intervals: Optional[Dict[int, Tuple[float, float]]] = None
        self._row_of: Optional[Dict[int, int]] = None

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
        import time

        t0 = time.perf_counter()
        size = len(corpus)
        addresses: List[int] = []
        first = array("d", bytes(8 * size))
        last = array("d", bytes(8 * size))
        counts = array("Q", bytes(8 * size))
        slash48s: List[int] = []
        slash64s: List[int] = []
        iids = array("Q", bytes(8 * size))
        add_address = addresses.append
        add_slash48 = slash48s.append
        add_slash64 = slash64s.append
        row = 0
        for address, (first_seen, last_seen, count) in corpus.items():
            add_address(address)
            first[row] = first_seen
            last[row] = last_seen
            counts[row] = count
            add_slash48(address & _SLASH48_MASK)
            add_slash64(address & PREFIX_MASK)
            iids[row] = address & IID_MASK
            row += 1
        # Entropy, pattern class and MAC extraction depend only on the
        # IID column — computed by the vectorized kernels (one pass over
        # the distinct IIDs, numpy when available).
        entropies, pattern_codes, macs, iid_entropies = (
            _kernels.iid_feature_columns(iids)
        )
        index = cls(
            corpus.name,
            addresses,
            first,
            last,
            counts,
            slash48s,
            slash64s,
            iids,
            entropies,
            pattern_codes,
            macs,
            origins=origins,
        )
        index._iid_entropies = iid_entropies
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
        partials: Sequence["PartialIndexColumns"],
        origins: Optional[CachedOrigins] = None,
    ) -> "CorpusIndex":
        """Fold per-segment partial indexes into one full index.

        The record fold is the associative, commutative ``(min first,
        max last, summed count)`` every reader applies, and output rows
        are in first-occurrence order across ``partials`` — exactly the
        record order of the corpus
        :meth:`~repro.core.segments.SegmentedCorpusReader.load`
        materializes from the same segments.  The result is therefore
        bit-identical to ``CorpusIndex.build`` over that folded corpus
        (property-test pinned) without re-reading any segment file.
        """
        import time

        t0 = time.perf_counter()
        (
            addresses,
            first,
            last,
            counts,
            entropies,
            pattern_codes,
            macs,
        ) = _kernels.fold_record_columns(partials)
        slash48s = [address & _SLASH48_MASK for address in addresses]
        slash64s = [address & PREFIX_MASK for address in addresses]
        iids = array("Q", bytes(8 * len(addresses)))
        for row, address in enumerate(addresses):
            iids[row] = address & IID_MASK
        index = cls(
            name,
            addresses,
            first,
            last,
            counts,
            slash48s,
            slash64s,
            iids,
            entropies,
            pattern_codes,
            macs,
            origins=origins,
        )
        index.build_seconds = time.perf_counter() - t0
        return index

    # -- append-aware delta maintenance ----------------------------------------

    def _rows(self) -> Dict[int, int]:
        """Address → row mapping (built lazily, maintained by appends)."""
        if self._row_of is None:
            self._row_of = {
                address: row for row, address in enumerate(self.addresses)
            }
        return self._row_of

    def observe(
        self, address: int, first_seen: float, last_seen: float, count: int
    ) -> None:
        """Apply one record mutation in place: the append-aware path.

        ``(first_seen, last_seen, count)`` is the address's record
        *after* the mutation (the corpus's fold already applied).  A new
        address appends a row — derived columns computed via the same
        kernels a rebuild uses — and an existing address overwrites its
        row.  Materialized aggregate memos are updated in place with the
        same min/max folds a rebuild applies, so an index maintained by
        ``observe`` stays bit-identical to a freshly built one
        (property-test pinned).  Unmaterialized memos stay lazy.
        """
        row = self._rows().get(address)
        if row is not None:
            self.first[row] = first_seen
            self.last[row] = last_seen
            self.counts[row] = count
            if self._lifetimes is not None:
                self._lifetimes[row] = last_seen - first_seen
            if self._iid_intervals is not None:
                self._touch_interval(
                    self._iid_intervals, self.iids[row], first_seen, last_seen
                )
            if self._eui64_intervals is not None:
                mac = self.macs[row]
                if mac != NO_MAC:
                    self._touch_interval(
                        self._eui64_intervals, mac, first_seen, last_seen
                    )
            return
        row = len(self.addresses)
        self._row_of[address] = row
        slash48 = address & _SLASH48_MASK
        slash64 = address & PREFIX_MASK
        iid = address & IID_MASK
        entropy, code, mac = _kernels.iid_features(iid)
        if (
            self._iid_entropies is not None
            and iid not in self._iid_entropies
        ):
            self._iid_entropies[iid] = entropy
        self.addresses.append(address)
        self.first.append(first_seen)
        self.last.append(last_seen)
        self.counts.append(count)
        self.slash48s.append(slash48)
        self.slash64s.append(slash64)
        self.iids.append(iid)
        self.entropies.append(entropy)
        self.pattern_codes.append(code)
        self.macs.append(mac)
        if self._slash48_set is not None:
            self._slash48_set.add(slash48)
        if self._slash64_set is not None:
            self._slash64_set.add(slash64)
        if self._slash64_counts is not None:
            self._slash64_counts[slash64] = (
                self._slash64_counts.get(slash64, 0) + 1
            )
        if self._lifetimes is not None:
            self._lifetimes.append(last_seen - first_seen)
        if self._iid_intervals is not None:
            self._touch_interval(
                self._iid_intervals, iid, first_seen, last_seen
            )
        if mac != NO_MAC:
            if self._eui64_rows is not None:
                rows = self._eui64_rows.get(mac)
                if rows is None:
                    self._eui64_rows[mac] = [row]
                else:
                    rows.append(row)
            if self._eui64_intervals is not None:
                self._touch_interval(
                    self._eui64_intervals, mac, first_seen, last_seen
                )

    @staticmethod
    def _touch_interval(
        intervals: Dict[int, Tuple[float, float]],
        key: int,
        first_seen: float,
        last_seen: float,
    ) -> None:
        """Fold one sighting interval into a memoized interval mapping."""
        existing = intervals.get(key)
        if existing is None:
            intervals[key] = (first_seen, last_seen)
            return
        lo, hi = existing
        if first_seen < lo:
            lo = first_seen
        if last_seen > hi:
            hi = last_seen
        intervals[key] = (lo, hi)

    def __len__(self) -> int:
        return len(self.addresses)

    def structural_category(self, row: int) -> AddressCategory:
        """The row's structural pattern class (no IPv4-embedding verdict)."""
        return CATEGORY_BY_CODE[self.pattern_codes[row]]

    # -- memoized aggregate views ------------------------------------------------

    def slash48_set(self) -> Set[int]:
        """Distinct /48 prefix keys (shared memoized set)."""
        if self._slash48_set is None:
            self._slash48_set = set(self.slash48s)
        return self._slash48_set

    def slash64_set(self) -> Set[int]:
        """Distinct /64 prefix keys (shared memoized set)."""
        if self._slash64_set is None:
            self._slash64_set = set(self.slash64s)
        return self._slash64_set

    def slash64_address_counts(self) -> Dict[int, int]:
        """Address count per distinct /64 (shared memoized mapping)."""
        if self._slash64_counts is None:
            counts: Dict[int, int] = {}
            for key in self.slash64s:
                counts[key] = counts.get(key, 0) + 1
            self._slash64_counts = counts
        return self._slash64_counts

    def lifetimes(self) -> List[float]:
        """Per-address lifetimes in row order (shared memoized list)."""
        if self._lifetimes is None:
            self._lifetimes = _kernels.lifetime_column(self.first, self.last)
        return self._lifetimes

    def iid_intervals(self) -> Dict[int, Tuple[float, float]]:
        """Per-IID union sighting intervals (shared memoized mapping)."""
        if self._iid_intervals is None:
            self._iid_intervals = _kernels.iid_interval_map(
                self.iids, self.first, self.last
            )
        return self._iid_intervals

    def iid_entropies(self) -> Dict[int, float]:
        """Normalized entropy per distinct IID (shared memoized mapping)."""
        if self._iid_entropies is None:
            entropies = self.entropies
            self._iid_entropies = {
                iid: entropies[row] for row, iid in enumerate(self.iids)
            }
        return self._iid_entropies

    def entropy_samples(self) -> Sequence[float]:
        """Per-address normalized IID entropy, row order (the Fig. 1 input)."""
        return self.entropies

    def eui64_rows(self) -> Dict[int, List[int]]:
        """Embedded MAC → row indices, in row order (shared memoized)."""
        if self._eui64_rows is None:
            groups: Dict[int, List[int]] = {}
            for row, mac in enumerate(self.macs):
                if mac == NO_MAC:
                    continue
                rows = groups.get(mac)
                if rows is None:
                    groups[mac] = [row]
                else:
                    rows.append(row)
            self._eui64_rows = groups
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
            first = self.first
            last = self.last
            self._eui64_intervals = {
                mac: (
                    min(first[row] for row in rows),
                    max(last[row] for row in rows),
                )
                for mac, rows in self.eui64_rows().items()
            }
        return self._eui64_intervals

    def rows_in_window(self, start: float, end: float) -> List[int]:
        """Rows whose sighting interval intersects ``[start, end)``."""
        first = self.first
        last = self.last
        return [
            row
            for row in range(len(self.addresses))
            if first[row] < end and last[row] >= start
        ]

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
                for row, key in enumerate(self.slash64s):
                    if key in live_hot:
                        counts[resolver(self.addresses[row])] += 1
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

    One instance summarizes one sealed segment's corpus: record columns
    (address split into 64-bit halves, first/last/count) plus the
    per-row derived columns (``entropies``/``codes``/``macs``) that are
    pure functions of the IID, in the segment's record order.  The low
    address half **is** the IID, so no separate IID column is stored.
    Folding any set of partials with
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
        "codes",
        "macs",
    )

    #: Serialized column order and typecodes.
    COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
        ("hi", "Q"),
        ("lo", "Q"),
        ("first", "d"),
        ("last", "d"),
        ("counts", "Q"),
        ("entropies", "d"),
        ("codes", "B"),
        ("macs", "Q"),
    )

    def __init__(
        self,
        hi: array,
        lo: array,
        first: array,
        last: array,
        counts: array,
        entropies: array,
        codes: array,
        macs: array,
    ) -> None:
        size = len(hi)
        for column in (lo, first, last, counts, entropies, codes, macs):
            if len(column) != size:
                raise ValueError(
                    "partial index columns must have equal lengths"
                )
        self.hi = hi
        self.lo = lo
        self.first = first
        self.last = last
        self.counts = counts
        self.entropies = entropies
        self.codes = codes
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
        size = len(corpus)
        hi = array("Q", bytes(8 * size))
        lo = array("Q", bytes(8 * size))
        first = array("d", bytes(8 * size))
        last = array("d", bytes(8 * size))
        counts = array("Q", bytes(8 * size))
        row = 0
        for address, (first_seen, last_seen, count) in sorted(corpus.items()):
            hi[row] = address >> 64
            lo[row] = address & IID_MASK
            first[row] = first_seen
            last[row] = last_seen
            counts[row] = count
            row += 1
        entropies, codes, macs, _ = _kernels.iid_feature_columns(lo)
        return cls(hi, lo, first, last, counts, entropies, codes, macs)

    def to_payload(self) -> bytes:
        """Serialize all columns (little-endian, :data:`COLUMN_SPEC` order)."""
        return b"".join(
            _column_le_bytes(getattr(self, name))
            for name, _ in self.COLUMN_SPEC
        )

    @classmethod
    def payload_size(cls, rows: int) -> int:
        """Exact byte length of a ``rows``-row payload."""
        return sum(
            rows * array(typecode).itemsize
            for _, typecode in cls.COLUMN_SPEC
        )

    @classmethod
    def from_payload(cls, data: bytes, rows: int) -> "PartialIndexColumns":
        """Inverse of :meth:`to_payload` for a known row count."""
        if len(data) != cls.payload_size(rows):
            raise ValueError(
                f"partial index payload is {len(data)} bytes; "
                f"{rows} rows need {cls.payload_size(rows)}"
            )
        columns = []
        offset = 0
        for _, typecode in cls.COLUMN_SPEC:
            width = rows * array(typecode).itemsize
            columns.append(
                _column_from_le(typecode, data[offset:offset + width])
            )
            offset += width
        return cls(*columns)

"""Address corpora: the primary data structure of the study.

An :class:`AddressCorpus` accumulates sightings of addresses — from the
passive NTP servers, or imported from an active campaign's history — and
answers the aggregate questions the paper's analyses ask: how many
addresses, in which ASes and /48s, seen when, for how long, with which
IIDs.

Storage is deliberately compact (one ``[first, last, count]`` record per
address): the paper itself compacts raw request logs the same way, and
the ablation bench (DESIGN.md §6) quantifies why.

For analysis workloads a corpus can carry a columnar
:class:`~repro.core.index.CorpusIndex` (see :meth:`AddressCorpus.build_index`);
while one is attached, the aggregate accessors below answer from its
memoized columns instead of re-scanning the records.  An index is never
patched: any mutation (:meth:`AddressCorpus.record`,
:meth:`AddressCorpus.record_interval`, :meth:`AddressCorpus.merge`)
drops it, and the next analysis builds or folds a fresh one.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..addr.eui64 import extract_mac
from ..addr.ipv6 import iid_of, slash48_of, slash64_of

__all__ = ["AddressCorpus"]


class AddressCorpus:
    """A deduplicated set of observed addresses with sighting intervals."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("corpus needs a name")
        # Newlines (or other line separators) in the name would corrupt
        # the one-line text header the storage layer writes.
        if "\n" in name or "\r" in name:
            raise ValueError(
                f"corpus name must not contain line breaks: {name!r}"
            )
        self.name = name
        # address -> [first_seen, last_seen, observation_count]
        self._records: Dict[int, List[float]] = {}
        # Columnar index over the records; None until built, and reset
        # to None by every mutation.
        self._index = None

    # -- columnar index ------------------------------------------------------

    @property
    def index(self):
        """The attached :class:`CorpusIndex`, or ``None``."""
        return self._index

    def build_index(self, metrics=None):
        """Build, attach and return a columnar index over the records.

        ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry`
        on which the full scan is counted
        (``repro_index_full_rebuilds_total``).
        """
        from .index import CorpusIndex

        self._index = CorpusIndex.build(self, metrics=metrics)
        return self._index

    def attach_index(self, index) -> None:
        """Attach a prebuilt index (must match this corpus's size).

        The index answers the aggregate accessors until the corpus is
        next mutated, which drops it.
        """
        if index is not None and len(index) != len(self._records):
            raise ValueError(
                f"index has {len(index)} rows for {len(self._records)} records"
            )
        self._index = index

    # -- recording -----------------------------------------------------------

    def record(self, address: int, when: float) -> None:
        """Record one sighting of ``address`` at ``when``."""
        if not math.isfinite(when):
            raise ValueError(f"non-finite sighting timestamp: {when!r}")
        record = self._records.get(address)
        if record is None:
            record = [when, when, 1]
            self._records[address] = record
        else:
            if when < record[0]:
                record[0] = when
            if when > record[1]:
                record[1] = when
            record[2] += 1
        self._index = None

    def record_interval(
        self, address: int, first: float, last: float, count: int = 2
    ) -> None:
        """Import a pre-compacted sighting interval (from scan histories)."""
        # NaN must be rejected explicitly: ``last < first`` is False for
        # NaN operands, so it would slip past the ordering guard below.
        if not (math.isfinite(first) and math.isfinite(last)):
            raise ValueError(
                f"non-finite interval timestamps: {first!r}, {last!r}"
            )
        if last < first:
            raise ValueError("interval ends before it starts")
        if count < 1:
            raise ValueError("count must be >= 1")
        record = self._records.get(address)
        if record is None:
            record = [first, last, count]
            self._records[address] = record
        else:
            record[0] = min(record[0], first)
            record[1] = max(record[1], last)
            record[2] += count
        self._index = None

    @classmethod
    def from_history(
        cls, name: str, history: Dict[int, Tuple[float, float]]
    ) -> "AddressCorpus":
        """Build a corpus from a ``{address: (first, last)}`` history."""
        corpus = cls(name)
        for address, (first, last) in history.items():
            count = 1 if last == first else 2
            corpus.record_interval(address, first, last, count)
        return corpus

    def merge(self, other: "AddressCorpus") -> None:
        """Fold another corpus's records into this one.

        Records inside an :class:`AddressCorpus` were validated when
        they were first recorded, so the merge skips the per-record
        :meth:`record_interval` re-validation and manipulates the
        record store directly — the hot path when a sharded campaign
        folds worker snapshots back together.
        """
        self._index = None
        if not isinstance(other, AddressCorpus):
            for address, (first, last, count) in other.items():
                self.record_interval(address, first, last, count)
            return
        records = self._records
        if not records:
            # Bulk copy: list copies keep the two corpora independent.
            self._records = {
                address: record.copy()
                for address, record in other._records.items()
            }
            return
        for address, record in other._records.items():
            mine = records.get(address)
            if mine is None:
                records[address] = record.copy()
            else:
                if record[0] < mine[0]:
                    mine[0] = record[0]
                if record[1] > mine[1]:
                    mine[1] = record[1]
                mine[2] += record[2]

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, address: int) -> bool:
        return address in self._records

    def addresses(self) -> Iterator[int]:
        """All distinct addresses."""
        return iter(self._records)

    def items(self) -> Iterator[Tuple[int, Tuple[float, float, int]]]:
        """All ``(address, (first, last, count))`` pairs."""
        for address, record in self._records.items():
            yield address, (record[0], record[1], record[2])

    def first_seen(self, address: int) -> float:
        """First sighting time of ``address``."""
        return self._records[address][0]

    def last_seen(self, address: int) -> float:
        """Last sighting time of ``address``."""
        return self._records[address][1]

    def lifetime(self, address: int) -> float:
        """Observed lifetime: last minus first sighting (0 if seen once)."""
        record = self._records[address]
        return record[1] - record[0]

    def observation_count(self, address: int) -> int:
        """Number of recorded sightings of ``address``."""
        return int(self._records[address][2])

    # -- aggregates --------------------------------------------------------------

    def lifetimes(self) -> List[float]:
        """Observed lifetimes of all addresses (Fig. 2a input)."""
        if self._index is not None:
            return list(self._index.lifetimes())
        return [record[1] - record[0] for record in self._records.values()]

    def slash48_set(self) -> Set[int]:
        """Distinct /48 prefixes covering the corpus."""
        if self._index is not None:
            return set(self._index.slash48_set())
        return {slash48_of(address) for address in self._records}

    def slash64_set(self) -> Set[int]:
        """Distinct /64 prefixes covering the corpus."""
        if self._index is not None:
            return set(self._index.slash64_set())
        return {slash64_of(address) for address in self._records}

    def asn_set(
        self, origin: Callable[[int], Optional[int]]
    ) -> Set[int]:
        """Distinct origin ASNs (unrouted addresses are skipped)."""
        if self._index is not None:
            return self._index.asn_set(origin)
        asns = set()
        for address in self._records:
            asn = origin(address)
            if asn is not None:
                asns.add(asn)
        return asns

    def asn_counts(
        self, origin: Callable[[int], Optional[int]]
    ) -> Counter:
        """Address count per origin ASN (``None`` for unrouted)."""
        if self._index is not None:
            return self._index.asn_counts(origin)
        counts: Counter = Counter()
        for address in self._records:
            counts[origin(address)] += 1
        return counts

    def addresses_in_window(self, start: float, end: float) -> Iterator[int]:
        """Addresses whose sighting interval intersects ``[start, end)``."""
        for address, record in self._records.items():
            if record[0] < end and record[1] >= start:
                yield address

    def common_addresses(self, other: "AddressCorpus") -> Set[int]:
        """Addresses present in both corpora."""
        if len(other) < len(self):
            small, large = other, self
        else:
            small, large = self, other
        return {
            address for address in small.addresses() if address in large
        }

    # -- IID-level views -----------------------------------------------------------

    def iid_intervals(self) -> Dict[int, Tuple[float, float]]:
        """Per-IID sighting intervals across all addresses (Fig. 2b)."""
        if self._index is not None:
            return dict(self._index.iid_intervals())
        intervals: Dict[int, List[float]] = {}
        for address, record in self._records.items():
            iid = iid_of(address)
            existing = intervals.get(iid)
            if existing is None:
                intervals[iid] = [record[0], record[1]]
            else:
                existing[0] = min(existing[0], record[0])
                existing[1] = max(existing[1], record[1])
        return {
            iid: (interval[0], interval[1])
            for iid, interval in intervals.items()
        }

    def eui64_addresses(self) -> Iterator[int]:
        """Addresses whose IID carries the EUI-64 marker."""
        index = self._index
        if index is not None:
            from .index import NO_MAC

            rows = np.flatnonzero(index.macs != np.uint64(NO_MAC))
            addresses = index.addresses
            for row in rows.tolist():
                yield addresses[row]
            return
        for address in self._records:
            if extract_mac(address) is not None:
                yield address

    def eui64_mac_addresses(self) -> Dict[int, List[int]]:
        """Embedded MAC → list of addresses exposing it (§5 input)."""
        if self._index is not None:
            return self._index.eui64_mac_addresses()
        by_mac: Dict[int, List[int]] = defaultdict(list)
        for address in self._records:
            mac = extract_mac(address)
            if mac is not None:
                by_mac[mac].append(address)
        return dict(by_mac)

    def __repr__(self) -> str:
        return f"AddressCorpus({self.name!r}, {len(self):,} addresses)"

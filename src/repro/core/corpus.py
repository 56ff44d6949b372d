"""Address corpora: the primary data structure of the study.

An :class:`AddressCorpus` accumulates sightings of addresses — from the
passive NTP servers, or imported from an active campaign's history — and
answers the aggregate questions the paper's analyses ask: how many
addresses, in which ASes and /48s, seen when, for how long, with which
IIDs.

Storage is deliberately compact (one ``[first, last, count]`` record per
address): the paper itself compacts raw request logs the same way, and
the ablation bench (DESIGN.md §6) quantifies why.

Every aggregate accessor below answers from the corpus's columnar
:class:`~repro.core.index.CorpusIndex` (:attr:`AddressCorpus.index`),
built and attached on first read or attached prebuilt by a fold.  An
index is never patched: any mutation (:meth:`AddressCorpus.record`,
:meth:`AddressCorpus.record_interval`, :meth:`AddressCorpus.merge`)
drops it, and the next read builds a fresh one.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .index import NO_MAC, CorpusIndex

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
        # Columnar index over the records; None until first read, and
        # reset to None by every mutation.
        self._index: Optional[CorpusIndex] = None

    # -- columnar index ------------------------------------------------------

    @property
    def index(self) -> CorpusIndex:
        """The columnar :class:`CorpusIndex` over the records.

        Built by one scan and attached on first read, unless a prebuilt
        one was attached (:meth:`attach_index`); every aggregate below
        reads it.
        """
        if self._index is None:
            self._index = CorpusIndex.build(self)
        return self._index

    def attach_index(self, index: CorpusIndex) -> None:
        """Attach a prebuilt index (must match this corpus's size).

        The index answers the aggregate accessors until the corpus is
        next mutated, which drops it.
        """
        if len(index) != len(self._records):
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
        return list(self.index.lifetimes())

    def slash48_set(self) -> Set[int]:
        """Distinct /48 prefixes covering the corpus."""
        return set(self.index.slash48_set())

    def slash64_set(self) -> Set[int]:
        """Distinct /64 prefixes covering the corpus."""
        return set(self.index.slash64_set())

    def asn_set(
        self, origin: Callable[[int], Optional[int]]
    ) -> Set[int]:
        """Distinct origin ASNs (unrouted addresses are skipped)."""
        return self.index.asn_set(origin)

    def asn_counts(
        self, origin: Callable[[int], Optional[int]]
    ) -> Counter:
        """Address count per origin ASN (``None`` for unrouted)."""
        return self.index.asn_counts(origin)

    def addresses_in_window(self, start: float, end: float) -> Iterator[int]:
        """Addresses whose sighting interval intersects ``[start, end)``."""
        index = self.index
        addresses = index.addresses
        return (addresses[row] for row in index.rows_in_window(start, end))

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
        return dict(self.index.iid_intervals())

    def eui64_addresses(self) -> Iterator[int]:
        """Addresses whose IID carries the EUI-64 marker."""
        index = self.index
        addresses = index.addresses
        rows = np.flatnonzero(index.macs != np.uint64(NO_MAC))
        return (addresses[row] for row in rows.tolist())

    def eui64_mac_addresses(self) -> Dict[int, List[int]]:
        """Embedded MAC → list of addresses exposing it (§5 input)."""
        return self.index.eui64_mac_addresses()

    def __repr__(self) -> str:
        return f"AddressCorpus({self.name!r}, {len(self):,} addresses)"

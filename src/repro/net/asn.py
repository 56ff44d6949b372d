"""Autonomous System records and ASdb-style categorization.

The paper classifies the ASes its addresses originate from using ASdb
(Ziv et al., IMC 2021): a two-level taxonomy of business categories.  The
headline finding (§4.1) is that 14% of the NTP corpus originates from the
"Phone Provider" ISP subtype versus only 2% of the IPv6 Hitlist — i.e. the
passive corpus is much richer in mobile clients.

This module defines the category taxonomy subset the analyses need, the
per-AS record, and a registry with the aggregation queries used by the
Table 1 narrative (AS counts, per-category address tallies).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

__all__ = [
    "ASCategory",
    "ISPSubtype",
    "ASRecord",
    "ASRegistry",
]


class ASCategory(Enum):
    """ASdb layer-1 business categories (subset used by the paper)."""

    COMPUTER_IT = "Computer and Information Technology"
    ISP = "Internet Service Provider (ISP)"
    CONTENT = "Media, Publishing, and Broadcasting"
    EDUCATION = "Education and Research"
    FINANCE = "Finance and Insurance"
    GOVERNMENT = "Government and Public Administration"
    OTHER = "Other"


class ISPSubtype(Enum):
    """ASdb layer-2 subtypes for the ISP category."""

    FIXED_LINE = "Fixed Line ISP"
    PHONE_PROVIDER = "Phone Provider"
    SATELLITE = "Satellite ISP"
    HOSTING = "Hosting and Cloud Provider"
    NONE = "None"


@dataclass(frozen=True)
class ASRecord:
    """One Autonomous System: number, name, home country, business type."""

    asn: int
    name: str
    country: str
    category: ASCategory = ASCategory.ISP
    subtype: ISPSubtype = ISPSubtype.NONE

    def __post_init__(self) -> None:
        if not 0 < self.asn < (1 << 32):
            raise ValueError(f"ASN out of range: {self.asn}")
        if len(self.country) != 2 or not self.country.isupper():
            raise ValueError(
                f"country must be an ISO-3166-1 alpha-2 code: {self.country!r}"
            )

    @property
    def is_phone_provider(self) -> bool:
        """True for the mobile-carrier subtype the paper highlights."""
        return (
            self.category is ASCategory.ISP
            and self.subtype is ISPSubtype.PHONE_PROVIDER
        )


class ASRegistry:
    """Registry of :class:`ASRecord` with the paper's aggregate queries."""

    def __init__(self) -> None:
        self._records: Dict[int, ASRecord] = {}

    def register(self, record: ASRecord) -> None:
        """Add a record; re-registering an ASN is an error."""
        if record.asn in self._records:
            raise ValueError(f"AS{record.asn} already registered")
        self._records[record.asn] = record

    def lookup(self, asn: int) -> Optional[ASRecord]:
        """The record for ``asn``, or ``None``."""
        return self._records.get(asn)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, asn: int) -> bool:
        return asn in self._records

    def __iter__(self) -> Iterator[ASRecord]:
        return iter(self._records.values())

    def category_of(self, asn: int) -> Optional[ASCategory]:
        """Business category of ``asn``, or ``None`` when unknown."""
        record = self._records.get(asn)
        return None if record is None else record.category

    def category_counts(self, asns: Iterable[int]) -> Counter:
        """Tally occurrences per category over a stream of ASNs.

        Unknown ASNs count under ``None``.  Feed one ASN per *address* to
        reproduce the paper's per-category address fractions.
        """
        counts: Counter = Counter()
        for asn in asns:
            counts[self.category_of(asn)] += 1
        return counts

    def phone_provider_fraction(
        self, asn_counts: Mapping[Optional[int], int]
    ) -> float:
        """Fraction of addresses in Phone Provider ASes, from per-ASN
        address counts (``None`` counts unrouted addresses).

        The paper reports 14% for the NTP corpus vs 2% for the Hitlist.
        Raises ``ValueError`` when the counts sum to zero.
        """
        total = sum(asn_counts.values())
        if total == 0:
            raise ValueError("cannot compute a fraction of zero addresses")
        phone = 0
        for asn, count in asn_counts.items():
            record = self._records.get(asn)
            if record is not None and record.is_phone_provider:
                phone += count
        return phone / total

    def countries(self) -> Tuple[str, ...]:
        """Distinct home countries across all registered ASes, sorted."""
        return tuple(sorted({record.country for record in self._records.values()}))

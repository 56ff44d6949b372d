"""Routed-prefix tables: address → origin AS.

Two tables back every origin lookup in the reproduction: an IPv6 table
(which announced prefix covers this address, and which AS originates it)
and an IPv4 table (needed only to validate IPv4-embedded IIDs, §4.3).

A table is a :class:`~repro.net.prefixes.PrefixMap` from announced
prefixes to origin ASNs, so a lookup is one binary search over its
flattened intervals.  The serving index (``SERVING.rsi``) stores the
same intervals (:meth:`RoutingTable.origin_columns`).

The IPv6 table also exposes the routed-prefix enumeration the CAIDA
routed-/48 campaign starts from.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .prefixes import Prefix, PrefixMap

__all__ = ["RoutingTable", "RoutedPrefix"]

_U64_MASK = (1 << 64) - 1


class RoutedPrefix:
    """One announcement: a prefix and the AS that originates it."""

    __slots__ = ("prefix", "asn")

    def __init__(self, prefix: Prefix, asn: int) -> None:
        if not 0 < asn < (1 << 32):
            raise ValueError(f"ASN out of range: {asn}")
        self.prefix = prefix
        self.asn = asn

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoutedPrefix):
            return NotImplemented
        return self.prefix == other.prefix and self.asn == other.asn

    def __hash__(self) -> int:
        return hash((self.prefix, self.asn))

    def __repr__(self) -> str:
        return f"RoutedPrefix({self.prefix}, AS{self.asn})"


class RoutingTable:
    """Longest-prefix-match table from addresses to origin ASNs.

    >>> from repro.net.prefixes import parse_prefix
    >>> table = RoutingTable()
    >>> table.announce(parse_prefix("2001:db8::/32"), 64496)
    >>> table.origin_asn(0x2001_0DB8 << 96 | 1)
    64496
    """

    def __init__(self, width: int = 128) -> None:
        # Insertion order is the announcement order the routed-/48
        # enumeration relies on.
        self._origins: PrefixMap[int] = PrefixMap(width)

    @property
    def width(self) -> int:
        """Address width (128 for IPv6, 32 for IPv4)."""
        return self._origins.width

    def announce(self, prefix: Prefix, asn: int) -> None:
        """Install an origin announcement for ``prefix``.

        More- and less-specific announcements may coexist; lookups return
        the most specific.  Re-announcing the exact prefix from a
        different AS replaces the previous origin (as a newer BGP update
        would) and moves the prefix to the end of the announcement order.
        """
        RoutedPrefix(prefix, asn)  # validates the ASN range
        self._origins.insert(prefix, asn)

    def origin_asn(self, address: int) -> Optional[int]:
        """Origin AS of the most specific covering prefix, or ``None``."""
        return self._origins.lookup(address)

    def origin_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The flattened table as ``(starts_hi, starts_lo, asns)``.

        Each interval start split into its high and low 64 bits, beside
        its origin (0 = unrouted): the columns the serving index stores
        and searches.
        """
        starts, asns = self._origins.intervals()
        return (
            [start >> 64 for start in starts],
            [start & _U64_MASK for start in starts],
            [asn or 0 for asn in asns],
        )

    def routed_prefixes(self) -> Iterator[RoutedPrefix]:
        """All announcements in announcement order.

        This is the seed list for the CAIDA routed-/48 splitting step.
        """
        return iter(
            [RoutedPrefix(prefix, asn) for prefix, asn in self._origins.items()]
        )

    def __len__(self) -> int:
        return len(self._origins)

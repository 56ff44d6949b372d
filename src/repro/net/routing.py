"""Routed-prefix tables: address → origin AS.

Two tables back every origin lookup in the reproduction: an IPv6 table
(which announced prefix covers this address, and which AS originates it)
and an IPv4 table (needed only to validate IPv4-embedded IIDs, §4.3).

A table keeps its announcements and answers longest-prefix match from
one flattened form of them (:func:`flatten_origin_table`): sorted,
disjoint intervals, each carrying the origin of every address in it, so
a lookup is one binary search for the rightmost interval start at or
below the address.  The serving index (``SERVING.rsi``) stores the same
intervals (:meth:`RoutingTable.origin_columns`).

The IPv6 table also exposes the routed-prefix enumeration the CAIDA
routed-/48 campaign starts from.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .prefixes import Prefix

__all__ = ["RoutingTable", "RoutedPrefix", "flatten_origin_table"]

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


def flatten_origin_table(
    routed: Iterable[RoutedPrefix], width: int = 128
) -> Tuple[List[int], List[int]]:
    """Flatten announcements to disjoint longest-prefix-match intervals.

    ``routed`` iterates :class:`RoutedPrefix` objects of ``width``-bit
    prefixes.  Returns ``(starts, asns)``: interval starts sorted
    ascending from 0, each interval running to the next start, and
    ``asns[i]`` the origin of every address in interval ``i`` (0 =
    unrouted — valid ASNs are positive).  Adjacent intervals never share
    an ASN.  The answer for any address is the entry at the rightmost
    start <= address; nesting is resolved here, once, by a sweep over
    the prefixes sorted by (network, length).
    """
    entries = sorted(
        (
            (item.prefix.network, item.prefix.length, item.asn)
            for item in routed
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    # Sweep: entering a prefix opens its interval; leaving it restores
    # whatever shorter prefix still covers the space (or unrouted).
    boundaries: List[Tuple[int, int]] = [(0, 0)]
    stack: List[Tuple[int, int]] = []  # (end_exclusive, asn)
    for network, length, asn in entries:
        end = network + (1 << (width - length))
        while stack and stack[-1][0] <= network:
            popped_end, _ = stack.pop()
            boundaries.append((popped_end, stack[-1][1] if stack else 0))
        boundaries.append((network, asn))
        stack.append((end, asn))
    while stack:
        popped_end, _ = stack.pop()
        boundaries.append((popped_end, stack[-1][1] if stack else 0))

    # Same-start boundaries: the later entry (the more specific prefix
    # entered at that address) wins.  Then merge equal-ASN runs.  A
    # prefix ending at the top of the address space ends past every
    # address: drop that boundary.
    space = 1 << width
    deduped: List[List[int]] = []
    for start, asn in boundaries:
        if start >= space:
            continue
        if deduped and deduped[-1][0] == start:
            deduped[-1][1] = asn
        else:
            deduped.append([start, asn])
    starts: List[int] = []
    asns: List[int] = []
    for start, asn in deduped:
        if asns and asns[-1] == asn:
            continue
        starts.append(start)
        asns.append(asn)
    return starts, asns


class RoutingTable:
    """Longest-prefix-match table from addresses to origin ASNs.

    >>> from repro.net.prefixes import parse_prefix
    >>> table = RoutingTable()
    >>> table.announce(parse_prefix("2001:db8::/32"), 64496)
    >>> table.origin_asn(0x2001_0DB8 << 96 | 1)
    64496
    """

    def __init__(self, width: int = 128) -> None:
        if width not in (32, 128):
            raise ValueError(f"unsupported address width: {width}")
        self._width = width
        self._space = 1 << width
        # Keyed by prefix so re-announcement is O(1); insertion order is
        # the announcement order the routed-/48 enumeration relies on.
        self._announcements: Dict[Prefix, RoutedPrefix] = {}
        # (starts, asns) from flatten_origin_table; None after announce.
        self._intervals: Optional[Tuple[List[int], List[int]]] = None

    @property
    def width(self) -> int:
        """Address width (128 for IPv6, 32 for IPv4)."""
        return self._width

    def announce(self, prefix: Prefix, asn: int) -> None:
        """Install an origin announcement for ``prefix``.

        More- and less-specific announcements may coexist; lookups return
        the most specific.  Re-announcing the exact prefix from a
        different AS replaces the previous origin (as a newer BGP update
        would) and moves the prefix to the end of the announcement order.
        """
        if prefix.width != self._width:
            raise ValueError(
                f"prefix width {prefix.width} != table width {self._width}"
            )
        routed = RoutedPrefix(prefix, asn)  # validates the ASN range
        self._announcements.pop(prefix, None)
        self._announcements[prefix] = routed
        self._intervals = None

    def _flattened(self) -> Tuple[List[int], List[int]]:
        """The intervals, flattened once after the last announcement."""
        if self._intervals is None:
            self._intervals = flatten_origin_table(
                self._announcements.values(), self._width
            )
        return self._intervals

    def origin_asn(self, address: int) -> Optional[int]:
        """Origin AS of the most specific covering prefix, or ``None``."""
        if not 0 <= address < self._space:
            raise ValueError(f"address out of range: {address:#x}")
        starts, asns = self._intervals or self._flattened()
        return asns[bisect_right(starts, address) - 1] or None

    def is_routed(self, address: int) -> bool:
        """True when some announcement covers ``address``."""
        return self.origin_asn(address) is not None

    def origin_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The flattened table as ``(starts_hi, starts_lo, asns)``.

        Each interval start split into its high and low 64 bits, beside
        its origin (0 = unrouted): the columns the serving index stores
        and searches.
        """
        starts, asns = self._flattened()
        return (
            [start >> 64 for start in starts],
            [start & _U64_MASK for start in starts],
            list(asns),
        )

    def routed_prefixes(self) -> Iterator[RoutedPrefix]:
        """All announcements in announcement order.

        This is the seed list for the CAIDA routed-/48 splitting step.
        """
        return iter(list(self._announcements.values()))

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes currently originated by ``asn``."""
        return [
            routed.prefix
            for routed in self._announcements.values()
            if routed.asn == asn
        ]

    def items(self) -> Iterator[Tuple[Prefix, int]]:
        """All ``(prefix, asn)`` pairs in address order."""
        return iter(
            [
                (prefix, routed.asn)
                for prefix, routed in sorted(self._announcements.items())
            ]
        )

    def __len__(self) -> int:
        return len(self._announcements)

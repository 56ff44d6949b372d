"""Prefixes and longest-prefix matching.

The numbering substrate everything else stands on: routing
(:mod:`repro.net.routing`), geolocation (:mod:`repro.net.geodb`) and
the Hitlist's alias list all ask "which stored prefix covers this
address?", and all answer it from one :class:`PrefixMap`: prefixes
mapped to values, flattened after the last insert into sorted, disjoint
intervals, so a lookup is one binary search.  The map is generic over
the address width (IPv6 128, IPv4 32).  :class:`LinearPrefixTable`, a
linear scan with the same lookup, is its independent reference in the
tests and the LPM ablation bench (DESIGN.md §6).
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from typing import (
    Dict,
    Generic,
    ItemsView,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

__all__ = [
    "Prefix",
    "parse_prefix",
    "parse_ipv4_prefix",
    "PrefixMap",
    "LinearPrefixTable",
]

V = TypeVar("V")


class Prefix:
    """An immutable ``network/length`` pair with containment tests.

    ``network`` must have all host bits clear; the constructor enforces
    this so two equal prefixes are always structurally identical.
    """

    __slots__ = ("network", "length", "width")

    def __init__(self, network: int, length: int, width: int = 128) -> None:
        if width not in (32, 128):
            raise ValueError(f"unsupported address width: {width}")
        if not 0 <= length <= width:
            raise ValueError(f"prefix length out of range: {length}")
        host_bits = width - length
        if network & ((1 << host_bits) - 1):
            raise ValueError(
                f"host bits set in network {network:#x}/{length}"
            )
        if not 0 <= network < (1 << width):
            raise ValueError(f"network out of range: {network:#x}")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "width", width)

    def __setattr__(self, name, value):
        raise AttributeError("Prefix is immutable")

    def contains(self, address: int) -> bool:
        """True when ``address`` lies inside this prefix."""
        shift = self.width - self.length
        return (address >> shift) == (self.network >> shift)

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or more specific than this."""
        return other.length >= self.length and self.contains(other.network)

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Enumerate the constituent prefixes of the given longer length.

        This is the CAIDA routed-/48 "split each /32-or-shorter prefix
        into /48s" operation.  Raises for ``length`` shorter than ours.
        """
        if length < self.length:
            raise ValueError(
                f"cannot split /{self.length} into shorter /{length}"
            )
        if length > self.width:
            raise ValueError(f"length exceeds width: {length}")
        step = 1 << (self.width - length)
        count = 1 << (length - self.length)
        for index in range(count):
            yield Prefix(self.network + index * step, length, self.width)

    @property
    def first_address(self) -> int:
        """Numerically lowest address inside the prefix."""
        return self.network

    @property
    def last_address(self) -> int:
        """Numerically highest address inside the prefix."""
        return self.network | ((1 << (self.width - self.length)) - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (
            self.network == other.network
            and self.length == other.length
            and self.width == other.width
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)

    def __hash__(self) -> int:
        return hash((self.network, self.length, self.width))

    def __str__(self) -> str:
        if self.width == 128:
            return f"{ipaddress.IPv6Address(self.network)}/{self.length}"
        return f"{ipaddress.IPv4Address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"


def parse_prefix(text: str) -> Prefix:
    """Parse ``2001:db8::/32`` into an IPv6 :class:`Prefix`."""
    network = ipaddress.IPv6Network(text, strict=True)
    return Prefix(int(network.network_address), network.prefixlen, 128)


def parse_ipv4_prefix(text: str) -> Prefix:
    """Parse ``192.0.2.0/24`` into an IPv4 :class:`Prefix`."""
    network = ipaddress.IPv4Network(text, strict=True)
    return Prefix(int(network.network_address), network.prefixlen, 32)


def _flatten(
    items: Iterable[Tuple[Prefix, V]], width: int
) -> Tuple[List[int], List[Optional[V]]]:
    """Flatten ``(prefix, value)`` pairs to disjoint LPM intervals.

    Returns ``(starts, values)``: interval starts sorted ascending from
    0, each interval running to the next start, and ``values[i]`` the
    value of the most specific prefix covering every address in
    interval ``i`` (``None`` where no prefix covers it).  Adjacent
    intervals never hold equal values.  The answer for any address is
    the entry at the rightmost start <= address; nesting is resolved
    here, once, by a sweep over the prefixes sorted by (network, length).
    """
    entries = sorted(
        ((prefix.network, prefix.length, value) for prefix, value in items),
        key=lambda entry: (entry[0], entry[1]),
    )
    # Sweep: entering a prefix opens its interval; leaving it restores
    # whatever shorter prefix still covers the space (or None).
    boundaries: List[Tuple[int, Optional[V]]] = [(0, None)]
    stack: List[Tuple[int, V]] = []  # (end_exclusive, value)
    for network, length, value in entries:
        while stack and stack[-1][0] <= network:
            popped_end, _ = stack.pop()
            boundaries.append((popped_end, stack[-1][1] if stack else None))
        boundaries.append((network, value))
        stack.append((network + (1 << (width - length)), value))
    while stack:
        popped_end, _ = stack.pop()
        boundaries.append((popped_end, stack[-1][1] if stack else None))

    # Same-start boundaries: the later entry (the more specific prefix
    # entered at that address) wins.  Then merge equal-value runs.  A
    # prefix ending at the top of the address space ends past every
    # address: drop that boundary.
    space = 1 << width
    deduped: List[Tuple[int, Optional[V]]] = []
    for start, value in boundaries:
        if start >= space:
            continue
        if deduped and deduped[-1][0] == start:
            deduped[-1] = (start, value)
        else:
            deduped.append((start, value))
    starts: List[int] = []
    values: List[Optional[V]] = []
    for start, value in deduped:
        if values and values[-1] == value:
            continue
        starts.append(start)
        values.append(value)
    return starts, values


class PrefixMap(Generic[V]):
    """Prefixes mapped to values, answered by longest-prefix match.

    Lookups bisect the map's flattened intervals, computed once after
    the last insert.

    >>> table = PrefixMap()
    >>> table.insert(parse_prefix("2001:db8::/32"), "doc")
    >>> table.insert(parse_prefix("2001:db8:1::/48"), "lab")
    >>> table.lookup(int(ipaddress.IPv6Address("2001:db8:1::1")))
    'lab'
    >>> table.lookup(int(ipaddress.IPv6Address("2001:db9::1"))) is None
    True
    >>> table.intervals()[1]
    [None, 'doc', 'lab', 'doc', None]
    """

    def __init__(self, width: int = 128) -> None:
        if width not in (32, 128):
            raise ValueError(f"unsupported address width: {width}")
        self._width = width
        self._space = 1 << width
        # Insertion order is kept: a re-insert moves the prefix to the end.
        self._values: Dict[Prefix, V] = {}
        self._intervals: Optional[Tuple[List[int], List[Optional[V]]]] = None

    @property
    def width(self) -> int:
        """Address width in bits (32 or 128)."""
        return self._width

    def insert(self, prefix: Prefix, value: V) -> None:
        """Map ``prefix`` to ``value``, replacing any earlier value."""
        if prefix.width != self._width:
            raise ValueError(
                f"prefix width {prefix.width} != map width {self._width}"
            )
        self._values.pop(prefix, None)
        self._values[prefix] = value
        self._intervals = None

    def intervals(self) -> Tuple[List[int], List[Optional[V]]]:
        """``(starts, values)`` as flattened after the last insert."""
        if self._intervals is None:
            self._intervals = _flatten(self._values.items(), self._width)
        return self._intervals

    def lookup(self, address: int) -> Optional[V]:
        """Value of the most specific covering prefix, or ``None``."""
        if not 0 <= address < self._space:
            raise ValueError(f"address out of range: {address:#x}")
        starts, values = self._intervals or self.intervals()
        return values[bisect_right(starts, address) - 1]

    def items(self) -> ItemsView[Prefix, V]:
        """All ``(prefix, value)`` pairs in insertion order."""
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._values


class LinearPrefixTable(Generic[V]):
    """Linear-scan prefix table with the same lookup interface.

    The independent reference :class:`PrefixMap` is checked against in
    the tests and timed against in the LPM ablation bench; correct but
    O(n) per lookup.
    """

    def __init__(self, width: int = 128) -> None:
        self._width = width
        self._entries: List[Tuple[Prefix, V]] = []

    def insert(self, prefix: Prefix, value: V, replace: bool = True) -> None:
        """Append or replace an entry for ``prefix``."""
        if prefix.width != self._width:
            raise ValueError("width mismatch")
        for index, (existing, _) in enumerate(self._entries):
            if existing == prefix:
                if not replace:
                    raise KeyError(f"prefix already present: {prefix}")
                self._entries[index] = (prefix, value)
                return
        self._entries.append((prefix, value))

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Scan all entries, keep the longest that covers ``address``."""
        best: Optional[Tuple[Prefix, V]] = None
        for prefix, value in self._entries:
            if prefix.contains(address):
                if best is None or prefix.length > best[0].length:
                    best = (prefix, value)
        return best

    def lookup(self, address: int) -> Optional[V]:
        """Value of the most-specific covering prefix, or ``None``."""
        match = self.longest_match(address)
        return None if match is None else match[1]

    def __len__(self) -> int:
        return len(self._entries)

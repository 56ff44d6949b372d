"""Binary prefix trie with longest-prefix matching.

The numbering substrate everything else stands on: geolocation
(:mod:`repro.net.geodb`) and alias lists need "which stored prefix covers
this address?" answered quickly.  The trie is generic over the address
width (IPv6 128, IPv4 32).  Routing tables (:mod:`repro.net.routing`)
answer origin lookups from flattened intervals instead; the trie and the
linear-scan baseline with the same interface (:class:`LinearPrefixTable`)
are their independent references in the tests and the LPM ablation
bench (DESIGN.md §6).
"""

from __future__ import annotations

import ipaddress
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = [
    "Prefix",
    "parse_prefix",
    "parse_ipv4_prefix",
    "PrefixTrie",
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


class _TrieNode:
    __slots__ = ("children", "value", "occupied")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.value = None
        self.occupied = False


class PrefixTrie(Generic[V]):
    """Binary trie mapping prefixes to values with longest-prefix match.

    >>> trie = PrefixTrie()
    >>> trie.insert(parse_prefix("2001:db8::/32"), "doc")
    >>> trie.longest_match(int(ipaddress.IPv6Address("2001:db8::1")))
    (Prefix('2001:db8::/32'), 'doc')
    """

    def __init__(self, width: int = 128) -> None:
        if width not in (32, 128):
            raise ValueError(f"unsupported address width: {width}")
        self._width = width
        self._root = _TrieNode()
        self._size = 0

    @property
    def width(self) -> int:
        """Address width in bits (32 or 128)."""
        return self._width

    def _walk_to(self, prefix: Prefix, create: bool) -> Optional[_TrieNode]:
        if prefix.width != self._width:
            raise ValueError(
                f"prefix width {prefix.width} != trie width {self._width}"
            )
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (self._width - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    return None
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node

    def insert(self, prefix: Prefix, value: V, replace: bool = True) -> None:
        """Map ``prefix`` to ``value``.

        With ``replace=False`` an already-occupied prefix raises
        ``KeyError`` instead of being overwritten.
        """
        node = self._walk_to(prefix, create=True)
        assert node is not None
        if node.occupied and not replace:
            raise KeyError(f"prefix already present: {prefix}")
        if not node.occupied:
            self._size += 1
        node.occupied = True
        node.value = value

    def exact(self, prefix: Prefix) -> V:
        """Value stored at exactly ``prefix``; raises ``KeyError`` if absent."""
        node = self._walk_to(prefix, create=False)
        if node is None or not node.occupied:
            raise KeyError(f"prefix not present: {prefix}")
        return node.value

    def remove(self, prefix: Prefix) -> V:
        """Remove and return the value at exactly ``prefix``.

        Interior nodes are left in place (removal is rare in our
        workloads); raises ``KeyError`` when the prefix is absent.
        """
        node = self._walk_to(prefix, create=False)
        if node is None or not node.occupied:
            raise KeyError(f"prefix not present: {prefix}")
        value = node.value
        node.occupied = False
        node.value = None
        self._size -= 1
        return value

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Most-specific covering prefix and its value, or ``None``."""
        if not 0 <= address < (1 << self._width):
            raise ValueError(f"address out of range: {address:#x}")
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node.occupied:
            best = (0, node.value)
        for depth in range(self._width):
            bit = (address >> (self._width - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.occupied:
                best = (depth + 1, node.value)
        if best is None:
            return None
        length, value = best
        shift = self._width - length
        network = (address >> shift) << shift
        return Prefix(network, length, self._width), value

    def lookup(self, address: int) -> Optional[V]:
        """Value of the most-specific covering prefix, or ``None``."""
        match = self.longest_match(address)
        return None if match is None else match[1]

    def covering(self, address: int) -> Iterator[Tuple[Prefix, V]]:
        """All stored prefixes covering ``address``, shortest first."""
        if not 0 <= address < (1 << self._width):
            raise ValueError(f"address out of range: {address:#x}")
        node = self._root
        if node.occupied:
            yield Prefix(0, 0, self._width), node.value
        network = 0
        for depth in range(self._width):
            bit = (address >> (self._width - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return
            network = (network << 1) | bit
            if node.occupied:
                length = depth + 1
                yield (
                    Prefix(network << (self._width - length), length, self._width),
                    node.value,
                )

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All stored ``(prefix, value)`` pairs, in address order."""
        stack = [(self._root, 0, 0)]
        while stack:
            node, network, depth = stack.pop()
            if node.occupied:
                yield (
                    Prefix(network << (self._width - depth), depth, self._width),
                    node.value,
                )
            # Push right before left so left pops first (address order).
            right = node.children[1]
            if right is not None:
                stack.append((right, (network << 1) | 1, depth + 1))
            left = node.children[0]
            if left is not None:
                stack.append((left, network << 1, depth + 1))

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._walk_to(prefix, create=False)
        return node is not None and node.occupied


class LinearPrefixTable(Generic[V]):
    """Linear-scan prefix table with the same lookup interface.

    Exists purely as the baseline for the LPM ablation bench; correct but
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

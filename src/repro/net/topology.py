"""AS-level topology with router-interface addressing.

Active topology discovery (Yarrp, the CAIDA campaign, the Hitlist's
traceroute component) observes *router interface addresses* along
AS-level forwarding paths.  This module models:

* :class:`ASTopology` — an undirected AS graph with deterministic
  shortest-path forwarding (BFS with sorted-neighbor tie-breaking, parent
  maps cached per source, since measurement campaigns trace from a small
  set of vantage ASes to many targets);
* :class:`RouterAddressPlan` — the infrastructure addressing plan: each
  AS owns an infrastructure /48 from which one /64 per inter-AS link is
  carved, with operator-style low-byte IIDs (``::1``) — which is why
  traceroute-derived datasets skew so heavily toward low-entropy
  addresses (paper Fig. 1, CAIDA curve);
* :func:`preferential_attachment_topology` — a deterministic scale-free
  graph generator for the world model.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .prefixes import Prefix

__all__ = [
    "ASTopology",
    "RouterAddressPlan",
    "preferential_attachment_topology",
]


class ASTopology:
    """Undirected AS-level graph with deterministic shortest paths."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, List[int]] = {}
        self._parent_cache: Dict[int, Dict[int, Optional[int]]] = {}

    def add_as(self, asn: int) -> None:
        """Add an AS with no links (idempotent)."""
        if asn not in self._adjacency:
            self._adjacency[asn] = []
            self._parent_cache.clear()

    def add_link(self, a: int, b: int) -> None:
        """Add an undirected link between two ASes (idempotent)."""
        if a == b:
            raise ValueError(f"self-link on AS{a}")
        self.add_as(a)
        self.add_as(b)
        if b not in self._adjacency[a]:
            self._adjacency[a].append(b)
            self._adjacency[a].sort()
            self._adjacency[b].append(a)
            self._adjacency[b].sort()
            self._parent_cache.clear()

    def neighbors(self, asn: int) -> Tuple[int, ...]:
        """Sorted neighbor ASNs of ``asn``."""
        return tuple(self._adjacency.get(asn, ()))

    def ases(self) -> Tuple[int, ...]:
        """All ASNs in insertion order."""
        return tuple(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, asn: int) -> bool:
        return asn in self._adjacency

    def _parents_from(self, source: int) -> Dict[int, Optional[int]]:
        cached = self._parent_cache.get(source)
        if cached is not None:
            return cached
        if source not in self._adjacency:
            raise KeyError(f"unknown AS{source}")
        parents: Dict[int, Optional[int]] = {source: None}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for asn in frontier:
                for neighbor in self._adjacency[asn]:
                    if neighbor not in parents:
                        parents[neighbor] = asn
                        next_frontier.append(neighbor)
            frontier = next_frontier
        self._parent_cache[source] = parents
        return parents

    def path(self, source: int, destination: int) -> Optional[List[int]]:
        """Shortest AS path from ``source`` to ``destination``, inclusive.

        Deterministic: neighbor lists are kept sorted so BFS tie-breaking
        is stable.  Returns ``None`` when the ASes are disconnected.
        """
        if destination not in self._adjacency:
            raise KeyError(f"unknown AS{destination}")
        parents = self._parents_from(source)
        if destination not in parents:
            return None
        path = [destination]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    def distance(self, source: int, destination: int) -> Optional[int]:
        """Hop count between two ASes, or ``None`` when disconnected."""
        path = self.path(source, destination)
        return None if path is None else len(path) - 1

    def is_connected(self) -> bool:
        """True when every AS is reachable from the first-added AS."""
        if not self._adjacency:
            return True
        source = next(iter(self._adjacency))
        return len(self._parents_from(source)) == len(self._adjacency)


class RouterAddressPlan:
    """Deterministic router-interface addressing over an AS topology.

    Each AS contributes an *infrastructure /48*; link ``k`` (in sorted
    neighbor order) of that AS gets the ``k``-th /64 of the /48, and the
    router interface facing the neighbor takes the operator-memorable IID
    ``::1`` — the "Low Byte" pattern that dominates traceroute-derived
    hitlists (paper §4.3).
    """

    def __init__(
        self, topology: ASTopology, infra_prefixes: Dict[int, Prefix]
    ) -> None:
        for asn, prefix in infra_prefixes.items():
            if prefix.length > 48:
                raise ValueError(
                    f"infrastructure prefix of AS{asn} longer than /48: {prefix}"
                )
        self._topology = topology
        self._infra = infra_prefixes

    def interface_address(self, asn: int, neighbor: int) -> Optional[int]:
        """Address of ``asn``'s router interface facing ``neighbor``.

        ``None`` when the AS has no infrastructure prefix (stub networks
        whose border router is numbered by their provider).
        """
        prefix = self._infra.get(asn)
        if prefix is None:
            return None
        neighbors = self._topology.neighbors(asn)
        try:
            link_index = neighbors.index(neighbor)
        except ValueError:
            raise KeyError(f"AS{asn} has no link to AS{neighbor}") from None
        # k-th /64 of the infrastructure /48, IID ::1.
        return prefix.network | (link_index << 64) | 1

    def hop_addresses(self, path: Sequence[int]) -> List[Optional[int]]:
        """Router addresses revealed by tracing along an AS path.

        Hop ``i`` (for ``i >= 1``) is the ingress interface of AS
        ``path[i]``, i.e. the interface facing ``path[i-1]`` — matching
        which source address a real router would use in its ICMPv6
        Time-Exceeded reply.  The first AS (the vantage itself) emits no
        hop.  Entries are ``None`` for ASes without infrastructure space.
        """
        addresses: List[Optional[int]] = []
        for previous, current in zip(path, path[1:]):
            addresses.append(self.interface_address(current, previous))
        return addresses

    def all_interface_addresses(self) -> Dict[int, List[int]]:
        """Every planned interface address, grouped by owning AS."""
        result: Dict[int, List[int]] = {}
        for asn in self._topology.ases():
            addresses = []
            for neighbor in self._topology.neighbors(asn):
                address = self.interface_address(asn, neighbor)
                if address is not None:
                    addresses.append(address)
            if addresses:
                result[asn] = addresses
        return result


def preferential_attachment_topology(
    asns: Sequence[int], rng: random.Random, links_per_as: int = 2
) -> ASTopology:
    """Grow a scale-free AS graph by preferential attachment.

    The first ``links_per_as + 1`` ASes form a clique; each subsequent AS
    attaches to ``links_per_as`` distinct existing ASes chosen with
    probability proportional to their current degree.  Deterministic for
    a given ``rng`` state and input order.  The result is connected,
    which BFS-based tracing relies on.
    """
    if links_per_as < 1:
        raise ValueError("links_per_as must be >= 1")
    if len(set(asns)) != len(asns):
        raise ValueError("duplicate ASNs")
    topology = ASTopology()
    if not asns:
        return topology
    seed_count = min(len(asns), links_per_as + 1)
    for asn in asns[:seed_count]:
        topology.add_as(asn)
    for i in range(seed_count):
        for j in range(i + 1, seed_count):
            topology.add_link(asns[i], asns[j])
    # Degree-weighted endpoint pool (classic Barabási–Albert trick).
    endpoint_pool: List[int] = []
    for asn in asns[:seed_count]:
        endpoint_pool.extend([asn] * max(1, len(topology.neighbors(asn))))
    for asn in asns[seed_count:]:
        targets: set = set()
        while len(targets) < min(links_per_as, len(topology)):
            targets.add(endpoint_pool[rng.randrange(len(endpoint_pool))])
        for target in sorted(targets):
            topology.add_link(asn, target)
            endpoint_pool.append(target)
            endpoint_pool.append(asn)
    return topology

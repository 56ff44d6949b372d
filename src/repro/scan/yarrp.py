"""Yarrp analogue: stateless randomized traceroute.

Yarrp (Beverly 2016) traces to many targets by randomly permuting
(target, TTL) probes and reconstructing paths from the ICMPv6
Time-Exceeded replies, avoiding per-flow state.  Against the simulated
world a trace follows the AS-level forwarding path from the vantage AS
to the target's origin AS; each transit AS reveals the ingress router
interface of its hop (when it has infrastructure space), and the final
hop is the target itself if it answers an Echo Request.

Traceroute is what gives the CAIDA-style datasets their router-heavy,
low-IID-entropy composition (paper Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..world.rng import split_rng
from ..world.world import World

__all__ = ["TraceResult", "Yarrp"]


@dataclass(frozen=True)
class TraceResult:
    """One reconstructed trace."""

    target: int
    hops: Tuple[Optional[int], ...]  # per-hop router addresses (None = no reply)
    destination_reached: bool

    @property
    def responsive_hops(self) -> Tuple[int, ...]:
        """Hop addresses that actually replied."""
        return tuple(hop for hop in self.hops if hop is not None)


class Yarrp:
    """Stateless traceroute engine bound to a vantage AS."""

    def __init__(self, world: World, source_asn: int, seed: int = 0) -> None:
        if source_asn not in world.topology:
            raise ValueError(f"vantage AS{source_asn} not in topology")
        self._world = world
        self._source_asn = source_asn
        self._seed = seed

    @property
    def source_asn(self) -> int:
        """The vantage AS traces originate from."""
        return self._source_asn

    def trace(self, target: int, when: float) -> TraceResult:
        """Trace to one target; returns hop addresses and reachability."""
        world = self._world
        target_asn = world.routing.origin_asn(target)
        if target_asn is None or target_asn not in world.topology:
            return TraceResult(target=target, hops=(), destination_reached=False)
        path = world.topology.path(self._source_asn, target_asn)
        if path is None:
            return TraceResult(target=target, hops=(), destination_reached=False)
        hops = tuple(world.router_plan.hop_addresses(path))
        response = world.probe(target, when)
        return TraceResult(
            target=target,
            hops=hops,
            destination_reached=response is not None,
        )

    def trace_many(
        self, targets: Iterable[int], when: float
    ) -> Iterator[TraceResult]:
        """Trace a randomized permutation of the target list.

        The permutation mirrors Yarrp's randomized probing; results are
        yielded in probe order.
        """
        target_list = list(dict.fromkeys(targets))
        rng = split_rng(self._seed, "yarrp", self._source_asn)
        rng.shuffle(target_list)
        for target in target_list:
            yield self.trace(target, when)

    def discovered_addresses(
        self, targets: Iterable[int], when: float
    ) -> Set[int]:
        """All addresses revealed by tracing: hops plus reached targets."""
        discovered: Set[int] = set()
        for result in self.trace_many(targets, when):
            discovered.update(result.responsive_hops)
            if result.destination_reached:
                discovered.add(result.target)
        return discovered

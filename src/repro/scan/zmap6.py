"""ZMap6 analogue: stateless, high-rate, single-packet probing.

Mirrors the behaviour that matters for the paper's campaigns: a target
list is probed once per protocol in randomized order with no per-target
state (responses are matched by address), duplicate targets are sent
only once, and per-scan statistics mirror ZMap's hit-rate summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..obs import MetricsRegistry, NULL_REGISTRY
from ..world.rng import derive_seed, split_rng
from ..world.world import World
from .icmpv6 import EchoMessage, parse_message
from .probes import ProbeResult, Protocol, probe_once

__all__ = ["ScanStats", "ZMap6"]


@dataclass
class ScanStats:
    """Counters for one scan invocation."""

    sent: int = 0
    responsive: int = 0
    duplicates_suppressed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of sent probes that elicited a response."""
        return self.responsive / self.sent if self.sent else 0.0


class ZMap6:
    """A stateless scanner bound to a world and a scan seed.

    The seed drives the randomized probe order (ZMap's address
    permutation); results are independent of the order, but the shuffle
    keeps the simulation faithful to how such scans interleave targets.
    """

    #: Default scanner source address (documentation space).
    DEFAULT_SOURCE = (0x20010DB8 << 96) | 0x5CA9

    def __init__(
        self,
        world: World,
        seed: int = 0,
        wire_fidelity: bool = False,
        source_address: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._world = world
        self._seed = seed
        self._scan_counter = 0
        self._wire_fidelity = wire_fidelity
        self._source_address = (
            self.DEFAULT_SOURCE if source_address is None else source_address
        )
        registry = NULL_REGISTRY if metrics is None else metrics
        self._m_probes = registry.counter(
            "repro_zmap6_probes_total", "probe packets sent"
        )
        self._m_hits = registry.counter(
            "repro_zmap6_responsive_total", "probes that elicited a response"
        )
        self._m_duplicates = registry.counter(
            "repro_zmap6_duplicates_suppressed_total",
            "duplicate targets dropped before sending",
        )

    def scan(
        self,
        targets: Iterable[int],
        when: float,
        protocol: Protocol = Protocol.ICMPV6,
    ) -> List[ProbeResult]:
        """Probe each distinct target once; returns per-target results."""
        distinct: List[int] = []
        seen = set()
        total = 0
        for target in targets:
            total += 1
            if target not in seen:
                seen.add(target)
                distinct.append(target)
        rng = split_rng(self._seed, "zmap6", self._scan_counter)
        self._scan_counter += 1
        rng.shuffle(distinct)

        stats = ScanStats(duplicates_suppressed=total - len(distinct))
        results = []
        for target in distinct:
            if self._wire_fidelity and protocol is Protocol.ICMPV6:
                result = self._probe_on_wire(target, when)
            else:
                result = probe_once(self._world, target, when, protocol)
            stats.sent += 1
            if result.responsive:
                stats.responsive += 1
            results.append(result)
        self._m_probes.inc(stats.sent)
        self._m_hits.inc(stats.responsive)
        self._m_duplicates.inc(stats.duplicates_suppressed)
        self.last_stats = stats
        return results

    def _probe_on_wire(self, target: int, when: float) -> ProbeResult:
        """ICMPv6 probe through real Echo packets.

        ZMap validates replies statelessly by deriving the identifier
        and sequence from the target address: a reply that echoes the
        wrong values is spoofed or stale and is discarded.
        """
        state = derive_seed(self._seed, "zmap-state", target)
        request = EchoMessage(
            is_request=True,
            identifier=state & 0xFFFF,
            sequence=(state >> 16) & 0xFFFF,
        )
        request_wire = request.pack(self._source_address, target)
        result = probe_once(self._world, target, when, Protocol.ICMPV6)
        if not result.responsive:
            return result
        # The responder echoes our message back; parse + validate it as
        # the real scanner would before believing the hit.
        sent = parse_message(request_wire, self._source_address, target)
        reply_wire = sent.reply().pack(target, self._source_address)
        reply = parse_message(reply_wire, target, self._source_address)
        if (
            reply.identifier != request.identifier
            or reply.sequence != request.sequence
        ):
            return ProbeResult(
                target=target, when=when, protocol=Protocol.ICMPV6,
                responsive=False,
            )
        return result

    def responsive_addresses(
        self,
        targets: Iterable[int],
        when: float,
        protocols: Iterable[Protocol] = (Protocol.ICMPV6,),
    ) -> Dict[int, List[Protocol]]:
        """Scan under several protocols; map each responsive address to
        the protocols it answered."""
        target_list = list(targets)
        responsive: Dict[int, List[Protocol]] = {}
        for protocol in protocols:
            for result in self.scan(target_list, when, protocol):
                if result.responsive:
                    responsive.setdefault(result.target, []).append(protocol)
        return responsive

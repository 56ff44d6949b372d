"""The IPv6 Hitlist service (Gasser et al.), re-implemented.

The TUM IPv6 Hitlist publishes, roughly weekly: a list of responsive
addresses, and lists of aliased / non-aliased prefixes.  Its pipeline
(paper §2.2, [24], [75]):

1. **Seed harvesting** — domain lists, certificate transparency, AXFR
   dumps etc.; here, a sample of the hosting world's "published" server
   addresses.
2. **Topology input** — traceroutes toward seeds reveal router
   interfaces.
3. **Target generation** — low-byte guesses plus structural recombination
   of observed IIDs (:mod:`repro.scan.targetgen`).
4. **Probing** — ZMap6 over ICMPv6, TCP 80/443, UDP 53.
5. **Alias filtering** — APD over the /64s (and /48s) of responders;
   aliased space is excluded from the responsive list.
6. **Weekly snapshots** — accumulated into the published history.

This produces a dataset with exactly the composition the paper compares
against: servers, routers, CPE — very few ephemeral clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..net.prefixes import Prefix, PrefixMap
from ..obs import MetricsRegistry
from ..world.clock import WEEK
from ..world.devices import DeviceType
from ..world.rng import keyed_uniform
from ..world.world import World
from .alias import AliasDetector
from .probes import Protocol
from .targetgen import (
    low_byte_candidates,
    pattern_candidates,
    subnet_low_byte_candidates,
)
from .yarrp import Yarrp
from .zmap6 import ZMap6

__all__ = ["WeeklySnapshot", "HitlistService"]

#: Protocols the Hitlist probes with.
HITLIST_PROTOCOLS = (
    Protocol.ICMPV6,
    Protocol.TCP80,
    Protocol.TCP443,
    Protocol.UDP53,
)


@dataclass
class WeeklySnapshot:
    """One published Hitlist release."""

    week: int
    when: float
    responsive: Set[int]
    aliased_prefixes: Set[Prefix]
    candidates_probed: int


class HitlistService:
    """A weekly-cadence Hitlist pipeline bound to a world.

    Parameters
    ----------
    world:
        The simulated Internet.
    vantage_asn:
        The AS the service scans from (TUM scans from one site).
    seed_fraction:
        Fraction of the world's server devices whose addresses are
        discoverable through DNS-like sources each week.
    cpe_seed_fraction:
        Fraction of CPE devices stably exposed through reverse-DNS
        enumeration (Fiebig et al.): many ISPs auto-generate rDNS names
        for customer WAN addresses.  This is the channel through which
        the real Hitlist acquires its medium/high-entropy CPE population
        (paper Fig. 1's ~0.7 median entropy), so it must outweigh the
        low-byte server population.
    seed:
        Randomization seed for sampling, scanning and APD.
    """

    def __init__(
        self,
        world: World,
        vantage_asn: int,
        seed_fraction: float = 0.5,
        cpe_seed_fraction: float = 0.55,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < seed_fraction <= 1.0:
            raise ValueError("seed_fraction must lie in (0, 1]")
        if not 0.0 <= cpe_seed_fraction <= 1.0:
            raise ValueError("cpe_seed_fraction must lie in [0, 1]")
        self._world = world
        self._vantage_asn = vantage_asn
        self._seed_fraction = seed_fraction
        self._cpe_seed_fraction = cpe_seed_fraction
        self._seed = seed
        self._known_responsive: Set[int] = set()
        #: The published alias list, grown as APD flags prefixes: the
        #: single source of truth for "does the alias list cover this
        #: address?" (the weekly filter and :meth:`is_aliased` read it).
        self._aliased: PrefixMap[bool] = PrefixMap()
        self.snapshots: List[WeeklySnapshot] = []
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._m_seeds = self.metrics.counter(
            "repro_hitlist_seeds_total", "addresses harvested from seed sources"
        )
        self._m_routers = self.metrics.counter(
            "repro_hitlist_router_interfaces_total",
            "router interfaces revealed by topology traces",
        )
        self._m_candidates = self.metrics.counter(
            "repro_hitlist_candidates_total", "candidate addresses probed"
        )
        self._m_responsive = self.metrics.counter(
            "repro_hitlist_responsive_total",
            "responsive addresses before alias filtering",
        )
        self._m_aliased = self.metrics.counter(
            "repro_hitlist_aliased_prefixes_total",
            "prefixes newly judged aliased by APD",
        )
        self._m_published = self.metrics.gauge(
            "repro_hitlist_known_responsive",
            "size of the accumulated responsive list",
        )

    # -- pipeline stages ------------------------------------------------------

    def _harvest_seeds(self, when: float, week: int) -> Set[int]:
        """DNS-like seed sources: published addresses.

        Whether a device is *published* (a server with a DNS name, a CPE
        whose ISP auto-generates rDNS) is a stable property of the
        device, not a per-week coin flip — so a permanently unpublished
        population exists that only target generation or passive
        collection can reach.
        """
        seeds: Set[int] = set()
        for device in self._world.iter_devices():
            if device.device_type is DeviceType.SERVER:
                fraction = self._seed_fraction
            elif device.device_type is DeviceType.CPE_ROUTER:
                fraction = self._cpe_seed_fraction
            else:
                continue
            published = (
                keyed_uniform(self._seed, "published", device.device_id)
                < fraction
            )
            if published:
                seeds.add(self._world.device_address(device, when))
        return seeds

    def _trace_topology(self, seeds: Set[int], when: float, week: int) -> Set[int]:
        """Router interfaces revealed tracing toward the seeds."""
        yarrp = Yarrp(self._world, self._vantage_asn, seed=self._seed + week)
        return yarrp.discovered_addresses(seeds, when)

    def _generate_targets(self, known: Set[int]) -> Set[int]:
        """Candidate addresses from the known address base."""
        slash48s = {address & ~((1 << 80) - 1) for address in known}
        candidates: Set[int] = set(known)
        candidates.update(low_byte_candidates(slash48s, hosts=2))
        candidates.update(
            subnet_low_byte_candidates(slash48s, subnets=4, hosts=2)
        )
        candidates.update(pattern_candidates(known))
        return candidates

    def _probe(self, candidates: Set[int], when: float, week: int) -> Set[int]:
        """Multi-protocol ZMap6 pass; a target counts once it answers any."""
        scanner = ZMap6(
            self._world, seed=self._seed + 1000 + week, metrics=self.metrics
        )
        responsive = scanner.responsive_addresses(
            candidates, when, protocols=HITLIST_PROTOCOLS
        )
        return set(responsive)

    def _filter_aliases(
        self, responsive: Set[int], when: float, week: int
    ) -> Tuple[Set[int], Set[Prefix]]:
        """APD over responder /64s and /48s; drop aliased space.

        Detection at multiple prefix lengths mirrors Gasser et al.: a
        provider that fronts a whole block with a responder is caught at
        the /48 level even when only a few of its /64s ever held a
        responsive candidate.
        """
        detector = AliasDetector(self._world, seed=self._seed + 2000 + week)
        candidates = {
            Prefix(address & ~((1 << 64) - 1), 64)
            for address in responsive
        }
        candidates.update(
            Prefix(address & ~((1 << 80) - 1), 48)
            for address in responsive
        )
        newly_aliased = detector.aliased_prefixes(candidates, when)
        for prefix in newly_aliased:
            self._aliased.insert(prefix, True)
        kept = {
            address
            for address in responsive
            if self._aliased.lookup(address) is None
        }
        return kept, newly_aliased

    # -- public API --------------------------------------------------------------

    def run_week(self, week: int, when: float) -> WeeklySnapshot:
        """Execute one weekly pipeline run and publish its snapshot."""
        with self.metrics.span("hitlist-week"):
            seeds = self._harvest_seeds(when, week)
            routers = self._trace_topology(seeds, when, week)
            known = seeds | routers | self._known_responsive
            candidates = self._generate_targets(known)
            responsive = self._probe(candidates, when, week)
            kept, newly_aliased = self._filter_aliases(responsive, when, week)
            self._known_responsive.update(kept)
        self._m_seeds.inc(len(seeds))
        self._m_routers.inc(len(routers))
        self._m_candidates.inc(len(candidates))
        self._m_responsive.inc(len(responsive))
        self._m_aliased.inc(len(newly_aliased))
        self._m_published.set(len(self._known_responsive))
        snapshot = WeeklySnapshot(
            week=week,
            when=when,
            responsive=kept,
            aliased_prefixes=newly_aliased,
            candidates_probed=len(candidates),
        )
        self.snapshots.append(snapshot)
        return snapshot

    def run(
        self, start: float, weeks: int
    ) -> Dict[int, Tuple[float, float]]:
        """Run ``weeks`` weekly cycles starting at ``start``.

        Returns the accumulated responsive history: address →
        (first_seen, last_seen) over the campaign — the "all snapshots
        within the study window" view the paper compares against.
        """
        if weeks < 1:
            raise ValueError("weeks must be >= 1")
        history: Dict[int, Tuple[float, float]] = {}
        for week in range(weeks):
            when = start + week * WEEK
            snapshot = self.run_week(week, when)
            for address in snapshot.responsive:
                if address in history:
                    first, _ = history[address]
                    history[address] = (first, when)
                else:
                    history[address] = (when, when)
        return history

    @property
    def aliased_prefixes(self) -> Set[Prefix]:
        """All prefixes ever judged aliased (the published alias list)."""
        return {prefix for prefix, _ in self._aliased.items()}

    def is_aliased(self, address: int) -> bool:
        """True when the service's alias list covers ``address``.

        One binary search over the alias map's flattened intervals —
        pinned identical to a naive linear scan of
        :attr:`aliased_prefixes` by tests/scan/test_alias_trie.py.
        """
        return self._aliased.lookup(address) is not None

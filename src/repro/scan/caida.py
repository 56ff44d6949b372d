"""The CAIDA routed /48 campaign (paper §3, "comparative datasets").

CAIDA's Archipelago measurement splits every routed prefix of length /32
or longer into /48s and Yarrp-traces toward the ``::1`` address of each;
prefixes shorter than /32 get a single ``::1`` probe.  The resulting
dataset is almost entirely router interfaces and manually numbered hosts
— one discovered address per /48 on average and rock-bottom IID entropy
(paper Table 1 and Fig. 1).

:class:`CAIDACampaign` reproduces that methodology against the simulated
world from a set of vantage ASes over a date range, recording first/last
seen times per discovered address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..net.prefixes import Prefix
from ..world.clock import DAY
from ..world.world import World
from .yarrp import Yarrp

__all__ = ["CAIDACampaign", "split_routed_prefixes"]

#: Prefixes this long or longer are split into /48s.
SPLIT_BOUNDARY = 32


def split_routed_prefixes(
    world: World, max_split: int = 1 << 12
) -> Iterator[Prefix]:
    """Enumerate the /48 probe units of the routed table.

    Follows CAIDA's rule: routed prefixes with length >= /32 are split
    into constituent /48s; shorter prefixes contribute themselves as a
    single probe unit.  ``max_split`` caps the /48s taken per prefix (a
    /16 would explode into 2**32 units; real campaigns bound their
    target lists too).
    """
    for routed in world.routing.routed_prefixes():
        prefix = routed.prefix
        if prefix.length >= SPLIT_BOUNDARY:
            if prefix.length >= 48:
                yield prefix
                continue
            count = 1 << (48 - prefix.length)
            if count > max_split:
                count = max_split
            for index, sub in enumerate(prefix.subprefixes(48)):
                if index >= count:
                    break
                yield sub
        else:
            yield prefix


@dataclass
class CAIDACampaign:
    """Yarrp traces to the ::1 of every routed /48.

    Parameters
    ----------
    world:
        The simulated Internet.
    vantage_asns:
        ASes hosting Archipelago-like monitors; each probe unit is traced
        from one vantage (round-robin), as Ark distributes work.
    seed:
        Trace-order randomization seed.
    """

    world: World
    vantage_asns: Sequence[int]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.vantage_asns:
            raise ValueError("need at least one vantage AS")

    def probe_targets(self) -> List[int]:
        """The ::1 target of every probe unit."""
        return [
            prefix.network | 1 for prefix in split_routed_prefixes(self.world)
        ]

    def run(
        self, start: float, end: float, cycle_days: float = 14.0
    ) -> Dict[int, Tuple[float, float]]:
        """Run trace cycles over ``[start, end)``.

        Ark continuously re-traces its target list; we model one full
        pass every ``cycle_days``.  Returns each discovered address
        mapped to its (first_seen, last_seen) times.
        """
        if end <= start:
            raise ValueError("empty campaign window")
        if cycle_days <= 0:
            raise ValueError("cycle_days must be positive")
        targets = self.probe_targets()
        discovered: Dict[int, Tuple[float, float]] = {}
        cycle_index = 0
        when = start
        while when < end:
            vantage = self.vantage_asns[cycle_index % len(self.vantage_asns)]
            yarrp = Yarrp(self.world, vantage, seed=self.seed + cycle_index)
            for address in yarrp.discovered_addresses(targets, when):
                if address in discovered:
                    first, _ = discovered[address]
                    discovered[address] = (first, when)
                else:
                    discovered[address] = (when, when)
            cycle_index += 1
            when = start + cycle_index * cycle_days * DAY
        return discovered

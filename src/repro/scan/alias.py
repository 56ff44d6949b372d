"""Aliased-prefix detection (APD).

Gasser et al. detect aliased networks by probing pseudo-random addresses
inside a prefix: a real prefix has astronomically small odds of answering
on random IIDs, so a prefix whose random probes all (or nearly all)
answer is aliased — one middlebox speaking for the whole network.
Hitlist hygiene requires filtering such prefixes before counting
"responsive" addresses (paper §2.1, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from ..net.prefixes import Prefix, PrefixMap
from ..world.rng import split_rng
from ..world.world import World

__all__ = ["AliasVerdict", "AliasDetector", "DEFAULT_PROBES", "DEFAULT_THRESHOLD"]

#: Random probes sent per candidate prefix (Gasser et al. use 16).
DEFAULT_PROBES = 16

#: Fraction of probes that must answer for an alias verdict.
DEFAULT_THRESHOLD = 1.0


@dataclass(frozen=True)
class AliasVerdict:
    """APD outcome for one prefix."""

    prefix: Prefix
    probes: int
    responses: int
    aliased: bool


class AliasDetector:
    """Aliased-prefix detector over the world oracle."""

    def __init__(
        self,
        world: World,
        seed: int = 0,
        probes_per_prefix: int = DEFAULT_PROBES,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        if probes_per_prefix < 1:
            raise ValueError("probes_per_prefix must be >= 1")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self._world = world
        self._seed = seed
        self._probes = probes_per_prefix
        self._threshold = threshold

    def check(self, prefix: Prefix, when: float) -> AliasVerdict:
        """Probe random addresses inside ``prefix`` and judge it."""
        rng = split_rng(self._seed, "apd", prefix.network, prefix.length)
        span = prefix.last_address - prefix.network
        responses = 0
        for _ in range(self._probes):
            target = prefix.network + rng.randint(0, span)
            if self._world.is_responsive(target, when):
                responses += 1
        aliased = responses >= self._threshold * self._probes
        return AliasVerdict(
            prefix=prefix, probes=self._probes, responses=responses,
            aliased=aliased,
        )

    def detect(
        self, prefixes: Iterable[Prefix], when: float
    ) -> Dict[Prefix, AliasVerdict]:
        """Run APD over many prefixes."""
        return {prefix: self.check(prefix, when) for prefix in prefixes}

    def aliased_prefixes(
        self, prefixes: Iterable[Prefix], when: float
    ) -> Set[Prefix]:
        """Just the prefixes judged aliased."""
        return {
            prefix
            for prefix, verdict in self.detect(prefixes, when).items()
            if verdict.aliased
        }


def filter_aliased(
    addresses: Iterable[int], aliased: Iterable[Prefix]
) -> List[int]:
    """Drop addresses covered by any aliased prefix.

    Answered from a :class:`PrefixMap` of the list, as the Hitlist
    service answers from its own alias map.
    """
    covered: PrefixMap[bool] = PrefixMap()
    for prefix in aliased:
        covered.insert(prefix, True)
    return [
        address for address in addresses if covered.lookup(address) is None
    ]

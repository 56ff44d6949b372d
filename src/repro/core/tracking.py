"""EUI-64 tracking analysis (paper §5.1–§5.2, Figures 6 and 7).

From a corpus, every EUI-64 address is reduced to its embedded MAC; each
MAC's sightings — which /64s, ASes and countries it appeared in, when —
are summarized into a :class:`MACTrack`, then classified with the paper's
heuristics:

=====================  =========  ==========  ================
class                  ASes       countries   /64 transitions
=====================  =========  ==========  ================
mostly static          low (=1)   low (=1)    low (<=10)
prefix reassignment    low        low         high (>10)
changing providers     high (>1)  low         low
likely user movement   high       low         high
likely MAC reuse       high       high        any
=====================  =========  ==========  ================

Only MACs appearing in at least two /64s are classified (the paper's
14.9M of 171.6M = 8.7%).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..addr.eui64 import expected_random_eui64
from .corpus import AddressCorpus

__all__ = [
    "TrackingClass",
    "MACTrack",
    "TrackingReport",
    "TRANSITION_THRESHOLD",
    "build_mac_tracks",
    "analyze_tracking",
]

#: More than this many /64 transitions counts as "high" (paper: 10).
TRANSITION_THRESHOLD = 10


class TrackingClass(Enum):
    """The paper's five-way explanation taxonomy for mobile EUI-64 MACs."""

    MOSTLY_STATIC = "mostly_static"
    PREFIX_REASSIGNMENT = "likely_prefix_reassignment"
    CHANGING_PROVIDERS = "changing_providers"
    USER_MOVEMENT = "likely_user_movement"
    MAC_REUSE = "likely_mac_reuse"


@dataclass(frozen=True)
class MACTrack:
    """Aggregated sightings of one embedded MAC address."""

    mac: int
    addresses: Tuple[int, ...]
    slash64s: Tuple[int, ...]       # distinct, in first-seen order
    asns: Tuple[int, ...]           # distinct
    countries: Tuple[str, ...]      # distinct
    transitions: int                # /64 changes along the sighting order
    first_seen: float
    last_seen: float
    #: (first_seen, /64, asn) sighting sequence — Fig. 7 timeline input.
    timeline: Tuple[Tuple[float, int, Optional[int]], ...]

    @property
    def lifetime(self) -> float:
        """Span between first and last sighting."""
        return self.last_seen - self.first_seen

    @property
    def multi_slash64(self) -> bool:
        """True when the MAC appeared in at least two /64s."""
        return len(self.slash64s) >= 2

    def classify(self) -> TrackingClass:
        """Apply the paper's §5.2 heuristics."""
        high_asns = len(self.asns) > 1
        high_countries = len(self.countries) > 1
        high_transitions = self.transitions > TRANSITION_THRESHOLD
        if high_asns and high_countries:
            return TrackingClass.MAC_REUSE
        if high_asns and high_transitions:
            return TrackingClass.USER_MOVEMENT
        if high_asns:
            return TrackingClass.CHANGING_PROVIDERS
        if high_transitions:
            return TrackingClass.PREFIX_REASSIGNMENT
        return TrackingClass.MOSTLY_STATIC


def build_mac_tracks(
    corpus: AddressCorpus,
    origin: Callable[[int], Optional[int]],
    country_of: Callable[[int], Optional[str]],
) -> Dict[int, MACTrack]:
    """Aggregate every embedded MAC's sightings into a track.

    Sightings are read straight from the index's MAC / first-seen /
    /64 columns and its per-row origins.
    """
    index = corpus.index
    addresses = index.addresses
    first = index.first.tolist()
    last = index.last.tolist()
    hi = index.hi.tolist()
    origins = index.row_origins(origin)
    tracks: Dict[int, MACTrack] = {}
    for mac, mac_rows in index.eui64_rows().items():
        # Rows are in record order, so this stable sort orders equal
        # first sightings by record order.
        rows = sorted(mac_rows, key=first.__getitem__)
        ordered = [addresses[row] for row in rows]
        firsts = [first[row] for row in rows]
        prefix64s = [hi[row] << 64 for row in rows]
        origin_asns = [origins[row] for row in rows]
        last_seen = max(last[row] for row in rows)
        slash64s: List[int] = []
        transitions = 0
        timeline: List[Tuple[float, int, Optional[int]]] = []
        previous64: Optional[int] = None
        for position, prefix64 in enumerate(prefix64s):
            if prefix64 not in slash64s:
                slash64s.append(prefix64)
            if previous64 is not None and prefix64 != previous64:
                transitions += 1
            previous64 = prefix64
            timeline.append(
                (firsts[position], prefix64, origin_asns[position])
            )
        asns = tuple(
            sorted({asn for _, _, asn in timeline if asn is not None})
        )
        countries = tuple(
            sorted(
                {
                    country
                    for country in (
                        country_of(address) for address in ordered
                    )
                    if country is not None
                }
            )
        )
        tracks[mac] = MACTrack(
            mac=mac,
            addresses=tuple(ordered),
            slash64s=tuple(slash64s),
            asns=asns,
            countries=countries,
            transitions=transitions,
            first_seen=firsts[0],
            last_seen=last_seen,
            timeline=tuple(timeline),
        )
    return tracks


@dataclass
class TrackingReport:
    """The §5 headline numbers plus the classified track population."""

    corpus_size: int
    eui64_addresses: int
    unique_macs: int
    expected_random: float
    tracks: Dict[int, MACTrack]
    multi_slash64_macs: int
    classes: Dict[TrackingClass, int]

    @property
    def eui64_fraction(self) -> float:
        """EUI-64 share of the corpus (paper: 3%)."""
        if self.corpus_size == 0:
            raise ValueError("empty corpus")
        return self.eui64_addresses / self.corpus_size

    @property
    def multi_slash64_fraction(self) -> float:
        """Share of MACs seen in >=2 /64s (paper: 8.7%)."""
        if self.unique_macs == 0:
            raise ValueError("no EUI-64 MACs")
        return self.multi_slash64_macs / self.unique_macs

    def class_fractions(self) -> Dict[TrackingClass, float]:
        """Class shares among multi-/64 MACs (paper: 86/8/5/0.44/0.01%)."""
        if self.multi_slash64_macs == 0:
            raise ValueError("no multi-/64 MACs to classify")
        return {
            cls: count / self.multi_slash64_macs
            for cls, count in self.classes.items()
        }

    def exemplar(self, cls: TrackingClass) -> Optional[MACTrack]:
        """A representative track of a class (Fig. 7 exemplar extraction).

        Picks the classified track with the most sightings, preferring
        longer observation spans — the kind the paper plots.
        """
        candidates = [
            track
            for track in self.tracks.values()
            if track.multi_slash64 and track.classify() is cls
        ]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda track: (len(track.timeline), track.lifetime, -track.mac),
        )

    def slash64_counts(self) -> List[int]:
        """Distinct-/64 counts per MAC (Fig. 6b CCDF input)."""
        return [len(track.slash64s) for track in self.tracks.values()]


def analyze_tracking(
    corpus: AddressCorpus,
    origin: Callable[[int], Optional[int]],
    country_of: Callable[[int], Optional[str]],
) -> TrackingReport:
    """Run the full §5.1–§5.2 analysis over a corpus."""
    tracks = build_mac_tracks(corpus, origin, country_of)
    eui64_addresses = sum(len(track.addresses) for track in tracks.values())
    classes: Counter = Counter()
    multi = 0
    for track in tracks.values():
        if track.multi_slash64:
            multi += 1
            classes[track.classify()] += 1
    return TrackingReport(
        corpus_size=len(corpus),
        eui64_addresses=eui64_addresses,
        unique_macs=len(tracks),
        expected_random=expected_random_eui64(len(corpus)),
        tracks=tracks,
        multi_slash64_macs=multi,
        classes={cls: classes.get(cls, 0) for cls in TrackingClass},
    )

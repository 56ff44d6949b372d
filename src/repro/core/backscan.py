"""Backscanning: active probes back to passive NTP clients (§3, §4.2).

For one week, five of the 27 vantage servers record their NTP clients in
ten-minute intervals; when an interval closes, each distinct client
address is probed (Yarrp trace + ZMap6 ICMPv6 echo), along with one
random address inside the same /64.  No address is probed twice within
an interval.

The experiment answers three questions:

* **Responsiveness** — are passively learned addresses usable as scan
  targets?  (paper: about two-thirds respond);
* **Aliasing** — random same-/64 targets respond only in aliased space
  (paper: 3.5% respond, almost all in networks the Hitlist also marks
  aliased, plus tens of thousands it misses);
* **Entropy vs responsiveness** — responders skew toward lower-entropy
  IIDs (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..addr.entropy import normalized_iid_entropy
from ..addr.ipv6 import iid_of, random_iid_address, slash64_of
from ..world.clock import MINUTE
from ..world.rng import split_rng
from ..world.world import World
from .campaign import NTPCampaign

__all__ = ["BackscanReport", "BackscanCampaign"]

#: Interval between probe rounds (the paper used ten minutes).
INTERVAL = 10 * MINUTE


@dataclass
class BackscanReport:
    """Aggregated outcome of the backscanning week."""

    probed_clients: int = 0
    responsive_clients: int = 0
    random_probed: int = 0
    random_responsive: int = 0
    hit_entropies: List[float] = field(default_factory=list)
    miss_entropies: List[float] = field(default_factory=list)
    random_responsive_entropies: List[float] = field(default_factory=list)
    #: /64s whose *random* probe answered — inferred aliased networks.
    aliased_slash64s: Set[int] = field(default_factory=set)
    #: client addresses observed inside those aliased /64s.
    clients_in_aliased_64s: Set[int] = field(default_factory=set)

    @property
    def client_responsive_fraction(self) -> float:
        """Fraction of probed NTP clients that answered (paper ~2/3)."""
        if self.probed_clients == 0:
            raise ValueError("no clients probed")
        return self.responsive_clients / self.probed_clients

    @property
    def random_responsive_fraction(self) -> float:
        """Fraction of random same-/64 targets that answered (paper 3.5%)."""
        if self.random_probed == 0:
            raise ValueError("no random targets probed")
        return self.random_responsive / self.random_probed


class BackscanCampaign:
    """Run the one-week backscanning experiment."""

    def __init__(
        self,
        world: World,
        campaign: NTPCampaign,
        vantage_count: int = 5,
        seed: int = 0,
    ) -> None:
        if vantage_count < 1:
            raise ValueError("need at least one backscanning vantage")
        if vantage_count > len(world.vantages):
            raise ValueError("more backscan vantages than exist")
        self.world = world
        self.campaign = campaign
        self.seed = seed
        # The paper picked five of its servers; we take a deterministic
        # spread across the vantage list.
        step = max(1, len(world.vantages) // vantage_count)
        self.vantage_addresses = [
            world.vantages[index].address
            for index in range(0, step * vantage_count, step)
        ][:vantage_count]

    def run(self, start_day: int, days: int = 7) -> BackscanReport:
        """Backscan clients seen on ``days`` days starting at ``start_day``."""
        if days < 1:
            raise ValueError("need at least one day")
        report = BackscanReport()
        probed_ever: Dict[int, bool] = {}
        rng = split_rng(self.seed, "backscan")
        for day in range(start_day, start_day + days):
            self._run_day(day, report, probed_ever, rng)
        # A client counts as "in an aliased /64" regardless of whether it
        # was sighted before or after the /64's alias verdict.
        report.clients_in_aliased_64s = {
            client
            for client in probed_ever
            if slash64_of(client) in report.aliased_slash64s
        }
        return report

    def _run_day(self, day, report, probed_ever, rng) -> None:
        # Bucket the day's captured clients into 10-minute intervals.
        intervals: Dict[int, Set[int]] = {}
        for when, client_address, _vantage in (
            self.campaign.captured_events_on_day(day, self.vantage_addresses)
        ):
            bucket = int(when // INTERVAL)
            intervals.setdefault(bucket, set()).add(client_address)
        for bucket in sorted(intervals):
            probe_time = (bucket + 1) * INTERVAL  # interval close
            for client_address in sorted(intervals[bucket]):
                self._probe_client(
                    client_address, probe_time, report, probed_ever, rng
                )

    def _probe_client(
        self, client_address, probe_time, report, probed_ever, rng
    ) -> None:
        # Each distinct client is counted once over the whole experiment;
        # re-sightings in later intervals re-probe but do not re-count.
        first_sighting = client_address not in probed_ever
        responsive = self.world.is_responsive(client_address, probe_time)
        if first_sighting:
            probed_ever[client_address] = responsive
            report.probed_clients += 1
            entropy = normalized_iid_entropy(iid_of(client_address))
            if responsive:
                report.responsive_clients += 1
                report.hit_entropies.append(entropy)
            else:
                report.miss_entropies.append(entropy)
        elif responsive and not probed_ever[client_address]:
            # A later probe can succeed where the first failed (device
            # back home); upgrade the verdict like the paper's weekly
            # aggregation does.
            probed_ever[client_address] = True
            report.responsive_clients += 1
            report.hit_entropies.append(
                normalized_iid_entropy(iid_of(client_address))
            )
            report.miss_entropies.remove(
                normalized_iid_entropy(iid_of(client_address))
            )

        # The random same-/64 companion probe.
        prefix = slash64_of(client_address)
        random_target = random_iid_address(prefix, rng)
        report.random_probed += 1
        if self.world.is_responsive(random_target, probe_time):
            report.random_responsive += 1
            report.random_responsive_entropies.append(
                normalized_iid_entropy(iid_of(random_target))
            )
            report.aliased_slash64s.add(prefix)

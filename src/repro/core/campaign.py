"""The passive NTP collection campaign (the paper's core methodology).

Reproduces §3's setup: 27 stratum-2 servers joined to the NTP Pool from
20 countries, collecting the source address of every NTP request for 31
weeks.  The pool also contains *background* members (the real pool has
thousands of volunteer servers); a client's query only lands on one of
our vantages when the pool's geo DNS hands it out — which is exactly why
most client addresses are observed only once (Fig. 2a).

Two layers:

* :class:`CaptureModel` — collapses the per-query DNS round-robin into a
  per-country capture probability plus a vantage chooser, computed from
  the *actual* pool membership, so the hot loop does not replay millions
  of DNS exchanges.
* :class:`NTPCampaign` — walks devices × days, samples captured queries,
  and pushes each captured query through the real mode-3/mode-4 packet
  path of the vantage server, whose sink records into the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..addr.ipv6 import format_address
from ..faults.injector import FaultInjector
from ..faults.monitor import AvailabilityTimeline
from ..faults.plan import FaultPlan
from ..ntp.client import build_request
from ..obs import MetricsRegistry
from ..ntp.packet import NTPPacket
from ..ntp.pool import NTPPool
from ..ntp.server import StratumTwoServer
from ..world.clock import DAY, WEEK
from ..world.rng import split_rng
from ..world.world import VantagePoint, World
from .corpus import AddressCorpus

__all__ = ["CampaignConfig", "CaptureModel", "NTPCampaign"]


@dataclass
class CampaignConfig:
    """Knobs of the collection campaign."""

    start: float
    weeks: int = 31
    seed: int = 0
    #: Background pool members per country that has any member at all.
    background_per_country: int = 3
    #: Extra background members spread across big pool countries.
    background_extra: int = 20
    #: Use the full NTP packet path per captured query (the honest mode);
    #: False skips serialization and records directly (ablation bench).
    full_packet_path: bool = True
    #: Injected-fault schedule; ``None`` (or a zero plan) keeps every
    #: code path byte-identical to a fault-free campaign.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("campaign needs at least one week")
        if self.background_per_country < 0 or self.background_extra < 0:
            raise ValueError("background counts must be non-negative")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, not {type(self.faults).__name__}"
            )

    @property
    def end(self) -> float:
        """One past the campaign's last instant."""
        return self.start + self.weeks * WEEK


#: Background volunteer-server counts per country.  The real pool's
#: membership is extremely skewed toward North America and Europe; a
#: vantage in a server-rich country therefore captures a *smaller* share
#: of local queries than one in a server-poor country — which is exactly
#: why the paper's corpus is dominated by India, China, Brazil and
#: Indonesia despite most vantages sitting in the US/EU.
_BACKGROUND_POOL_SIZES = {
    "US": 40, "DE": 25, "GB": 15, "FR": 15, "NL": 12, "SE": 10,
    "PL": 8, "ES": 8, "JP": 10, "AU": 8, "KR": 6, "SG": 5, "TW": 5,
    "HK": 4, "CN": 6, "IN": 3, "BR": 4, "ID": 3, "MX": 4, "ZA": 4,
    "BG": 4, "BH": 3,
}

#: Countries that host disproportionately many volunteer pool servers.
_BIG_POOL_COUNTRIES = ("US", "DE", "GB", "FR", "NL", "JP", "CN", "IN", "BR", "AU")

#: Reserved (unrouted) space background pool members are numbered from.
_BACKGROUND_BASE = 0x2C00 << 112


class CaptureModel:
    """Per-country capture probability against a concrete pool.

    For a client in country C, the pool answers from a tier (country /
    continent / world).  The client picks one record; the chance that
    record is one of our vantages is ``vantages_in_tier / tier_size``.
    """

    def __init__(self, pool: NTPPool, vantage_addresses: List[int]) -> None:
        self._pool = pool
        self._vantages = set(vantage_addresses)
        self._cache: Dict[str, Tuple[float, List[int]]] = {}

    def capture(self, country: str) -> Tuple[float, List[int]]:
        """(probability, eligible vantage addresses) for a client country."""
        cached = self._cache.get(country)
        if cached is not None:
            return cached
        members, _tier = self._pool.tier_members(country)
        if not members:
            result = (0.0, [])
        else:
            ours = [address for address in members if address in self._vantages]
            result = (len(ours) / len(members), ours)
        self._cache[country] = result
        return result


class NTPCampaign:
    """Run the passive collection and produce the NTP corpus."""

    def __init__(
        self,
        world: World,
        config: CampaignConfig,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not world.vantages:
            raise ValueError("world has no vantage points")
        self.world = world
        self.config = config
        self.corpus = AddressCorpus("ntp-pool")
        self.pool = NTPPool()
        self.servers: Dict[int, StratumTwoServer] = {}
        #: Extra per-observation callbacks ``(client_address, when)`` —
        #: e.g. the outage detector's activity recorder.
        self.extra_sinks: List = []
        #: Per-shard failure records appended by the parallel executor.
        self.shard_failures: List = []
        #: Telemetry sink.  Recording never touches the keyed RNG, so a
        #: campaign with a live registry stays bit-identical to one with
        #: ``NULL_REGISTRY`` (pinned by tests/core/test_metrics_determinism).
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._m_queries = self.metrics.counter(
            "repro_campaign_queries_total",
            "pool-client NTP queries evaluated by the capture model",
        )
        self._m_captured = self.metrics.counter(
            "repro_campaign_captured_total",
            "queries the geo-DNS round-robin landed on one of our vantages",
        )
        self._m_observations = self.metrics.counter(
            "repro_campaign_observations_total",
            "observations recorded into the corpus",
        )
        self._m_vantage_obs: Dict[int, object] = {}
        self._outages_active = bool(world.outages)
        plan = config.faults
        if plan is not None and plan.is_zero:
            plan = None  # zero plan takes the exact fault-free fast path
        self._injector: Optional[FaultInjector] = (
            None
            if plan is None
            else FaultInjector(
                plan, world.vantages, config.start, config.end,
                metrics=self.metrics,
            )
        )
        self._build_pool()
        if self._injector is not None:
            # DNS-level view of the same ejections the capture path
            # applies: time-aware resolve() skips out-of-rotation members.
            self.pool.set_rotation_filter(self._injector.in_rotation)
        self._capture_model = CaptureModel(
            self.pool, [vantage.address for vantage in world.vantages]
        )

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The live injector, or None on the fault-free fast path.

        Exposed so collaborators outside the capture loop (the segment
        store's write-fault hook, study reports) can consult the same
        keyed decisions without reaching into campaign internals.
        """
        return self._injector

    # -- pool assembly -----------------------------------------------------------

    def _record_observation(
        self, client_address: int, when: float, server: StratumTwoServer
    ) -> None:
        self.corpus.record(client_address, when)
        self._m_observations.inc()
        counter = self._m_vantage_obs.get(server.address)
        if counter is not None:
            counter.inc()
        for sink in self.extra_sinks:
            sink(client_address, when)

    def _build_pool(self) -> None:
        """Join our 27 vantages plus synthetic background members."""
        for vantage in self.world.vantages:
            server = StratumTwoServer(
                vantage.address, vantage.country, sink=self._record_observation
            )
            self.servers[vantage.address] = server
            self.pool.join(server)
            # Per-vantage capture-rate telemetry (the paper's weekly
            # per-vantage capture report, §3).
            self._m_vantage_obs[vantage.address] = self.metrics.counter(
                "repro_campaign_vantage_observations_total",
                "observations recorded, per vantage",
                labels={
                    "vantage": format_address(vantage.address),
                    "country": vantage.country,
                },
            )
        # Background volunteers: plain members with no sink.  Their
        # addresses come from reserved space; only their country matters.
        index = 0
        config = self.config
        countries = list(
            dict.fromkeys(
                [vantage.country for vantage in self.world.vantages]
                + list(_BIG_POOL_COUNTRIES)
            )
        )
        for country in countries:
            count = _BACKGROUND_POOL_SIZES.get(
                country, config.background_per_country
            )
            for _ in range(count):
                self.pool.join(
                    StratumTwoServer(_BACKGROUND_BASE | index, country)
                )
                index += 1
        for extra in range(config.background_extra):
            country = _BIG_POOL_COUNTRIES[extra % len(_BIG_POOL_COUNTRIES)]
            self.pool.join(StratumTwoServer(_BACKGROUND_BASE | index, country))
            index += 1

    # -- collection ---------------------------------------------------------------

    def run(
        self,
        start_week: int = 0,
        end_week: Optional[int] = None,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> AddressCorpus:
        """Collect observations for weeks ``[start_week, end_week)``.

        Calling repeatedly with adjacent windows accumulates into the
        same corpus, so studies can interleave collection with other
        campaign events.

        ``shard_index``/``shard_count`` restrict the walk to every
        ``shard_count``-th pool client (by position in the stable
        ``pool_client_devices`` order).  Because every capture decision
        draws from ``split_rng(seed, "capture", device_id, day)``, a
        device's outcomes are independent of which other devices ran, so
        merging the corpora of all shards reproduces the unsharded run
        exactly — this is what :func:`repro.core.parallel.run_campaign_parallel`
        builds on.
        """
        config = self.config
        if end_week is None:
            end_week = config.weeks
        if not 0 <= start_week < end_week <= config.weeks:
            raise ValueError(f"bad week window: [{start_week}, {end_week})")
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(
                f"bad shard: index {shard_index} of {shard_count}"
            )
        first_day = start_week * 7
        last_day = end_week * 7
        with self.metrics.span("ntp-collect"):
            for position, device in enumerate(self.world.pool_client_devices()):
                if position % shard_count != shard_index:
                    continue
                for day in range(first_day, last_day):
                    self._collect_device_day(device, day)
        return self.corpus

    def _collect_device_day(self, device, day: int) -> None:
        offsets = device.query_offsets_on(day)
        if not offsets:
            return
        config = self.config
        day_start = config.start + day * DAY
        rng = None
        self._m_queries.inc(len(offsets))
        for query_index, offset in enumerate(offsets):
            when = day_start + offset
            network = self.world.networks.get(device.current_network_id(when))
            if network is None:
                continue
            if self._outages_active and self.world.in_outage(
                network.asn, when
            ):
                continue
            probability, vantages = self._capture_model.capture(network.country)
            if probability <= 0.0:
                continue
            if rng is None:
                rng = split_rng(config.seed, "capture", device.device_id, day)
            if rng.random() >= probability:
                continue
            self._m_captured.inc()
            vantage_address = vantages[rng.randrange(len(vantages))]
            delivered, datagram = self._fault_gate(
                device.device_id, day, query_index, when,
                network.country, vantage_address,
            )
            if not delivered:
                continue
            client_address = network.device_address(device, when)
            if datagram is None:
                # Clean path: keep the historical 3-argument call shape
                # (tests and subclasses wrap `_deliver` with it).
                self._deliver(client_address, when, vantage_address)
            else:
                self._deliver(
                    client_address, when, vantage_address, datagram
                )

    def _fault_gate(
        self,
        device_id: int,
        day: int,
        query_index: int,
        when: float,
        country: str,
        vantage_address: int,
    ) -> Tuple[bool, Optional[bytes]]:
        """Apply the fault plan to one captured query.

        Returns ``(delivered, datagram)``: ``delivered`` is False when
        the query never reaches a recording vantage (ejected from the
        pool rotation, or the datagram was lost); a non-``None``
        ``datagram`` is the corrupted wire form the vantage must parse
        (only in full-packet-path mode).  All decisions are keyed by the
        query's identity, so :meth:`run` and
        :meth:`captured_events_on_day` observe identical faults.
        """
        injector = self._injector
        if injector is None:
            return True, None
        if injector.ejects(vantage_address, when):
            # Ejected from the DNS rotation: the pool hands the client a
            # background member instead, so the vantage captures nothing.
            return False, None
        if injector.packet_lost(country, device_id, day, query_index):
            return False, None
        if not injector.corrupts(device_id, day, query_index):
            return True, None
        if not self.config.full_packet_path:
            # Ablation mode has no wire bytes to mangle; approximate a
            # corrupted datagram as never recorded.
            return False, None
        datagram = injector.corrupt_bytes(
            build_request(when).pack(), device_id, day, query_index
        )
        return True, datagram

    def _deliver(
        self,
        client_address: int,
        when: float,
        vantage_address: int,
        datagram: Optional[bytes] = None,
    ) -> None:
        server = self.servers[vantage_address]
        if self.config.full_packet_path:
            corrupted = datagram is not None
            if datagram is None:
                datagram = build_request(when).pack()
            response = server.handle_datagram(datagram, client_address, when)
            # A well-formed request must always be answered; a corrupted
            # one is the server's call (counted in stats.malformed /
            # dropped_mode) and must never raise out of the hot loop.
            assert corrupted or response is not None
        else:
            # Ablation mode: skip serialization, record directly.
            self._record_observation(client_address, when, server)

    # -- capture events for other campaigns (backscanning) -------------------------

    def captured_events_on_day(
        self, day: int, vantage_addresses: Optional[List[int]] = None
    ):
        """Yield ``(when, client_address, vantage_address)`` for one day.

        Re-derives the same capture decisions :meth:`run` makes (the
        keyed RNG guarantees identical outcomes) — including the fault
        plan's drops: an event is yielded only if the vantage actually
        recorded the query, so a campaign rebuilt from these events
        matches the collected corpus under any plan.  Optionally
        filtered to a subset of vantages — used by the backscanning
        experiment, which watched five of the 27 servers (§3).
        """
        config = self.config
        vantage_filter = (
            None if vantage_addresses is None else set(vantage_addresses)
        )
        day_start = config.start + day * DAY
        for device in self.world.pool_client_devices():
            offsets = device.query_offsets_on(day)
            if not offsets:
                continue
            rng = None
            for query_index, offset in enumerate(offsets):
                when = day_start + offset
                network = self.world.networks.get(
                    device.current_network_id(when)
                )
                if network is None:
                    continue
                if self._outages_active and self.world.in_outage(
                    network.asn, when
                ):
                    continue
                probability, vantages = self._capture_model.capture(
                    network.country
                )
                if probability <= 0.0:
                    continue
                if rng is None:
                    rng = split_rng(
                        config.seed, "capture", device.device_id, day
                    )
                if rng.random() >= probability:
                    continue
                vantage_address = vantages[rng.randrange(len(vantages))]
                delivered, datagram = self._fault_gate(
                    device.device_id, day, query_index, when,
                    network.country, vantage_address,
                )
                if not delivered:
                    continue
                if datagram is not None and not self._records(datagram):
                    continue
                if vantage_filter is not None and (
                    vantage_address not in vantage_filter
                ):
                    continue
                client_address = network.device_address(device, when)
                yield when, client_address, vantage_address

    @staticmethod
    def _records(datagram: bytes) -> bool:
        """Would a vantage's serve path record this (corrupted) datagram?

        Mirrors :meth:`StratumTwoServer.handle_datagram`: the sink fires
        only for parseable, valid client-mode requests.
        """
        try:
            packet = NTPPacket.parse(datagram)
        except ValueError:
            return False
        return packet.is_valid_request()

    # -- substrate health ----------------------------------------------------------

    def vantage_availability(
        self,
    ) -> List[Tuple[VantagePoint, AvailabilityTimeline]]:
        """Per-vantage in-rotation timelines over the campaign span.

        Without a fault plan every vantage is available for the whole
        span; with one, the timelines come from the pool-monitor score
        model.  Deterministic, so the study report can render them even
        when collection ran in worker processes.
        """
        config = self.config
        if self._injector is None:
            full = AvailabilityTimeline(
                config.start, config.end, ((config.start, config.end),)
            )
            return [(vantage, full) for vantage in self.world.vantages]
        timelines = self._injector.availability()
        return [
            (vantage, timelines[vantage.address])
            for vantage in self.world.vantages
        ]

"""World generation: ASes, networks, devices, and their wiring.

:class:`WorldBuilder` turns a :class:`WorldConfig` into a fully wired
:class:`repro.world.world.World`:

* an AS population — fixed-line ISPs, cellular carriers (phone-provider
  subtype), and hosting/cloud ASes — with Zipf-skewed sizes, country
  assignment mirroring the paper's top-5 (IN, CN, US, BR, ID ≈ 76% of
  addresses), per-AS rotation policy and addressing-strategy mixes;
* the numbering plane: customer blocks, infrastructure /48s, IPv4
  blocks, routing tables, a geolocation DB, and a scale-free AS graph
  with a router addressing plan;
* customer networks and devices, including the special populations the
  §5.2 tracking analysis needs (provider changers, EUI-64 commuters,
  manufacturer MAC reuse);
* the wardriving BSSID database the §5.3 geolocation attack queries;
* the 27-vantage / 20-country NTP deployment plan of the paper.

Everything is derived deterministically from ``config.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..addr.mac import with_nic
from ..addr.oui_db import (
    DEFAULT_UNLISTED_OUIS,
    OUIDatabase,
    default_oui_database,
)
from ..geo.bssid_db import BSSIDDatabase, GeoPoint
from ..net.asn import ASCategory, ASRecord, ASRegistry, ISPSubtype
from ..net.geodb import GeoDatabase
from ..net.prefixes import Prefix
from ..net.routing import RoutingTable
from ..net.topology import RouterAddressPlan, preferential_attachment_topology
from ..ntp.client import OperatingSystem, TimeSource
from .ases import ASProfile, PrefixDelegation
from .clock import CAMPAIGN_EPOCH, DAY, HOUR, WEEK
from .devices import Device, DeviceType
from .mobility import CommuterPlan, ProviderChangePlan
from .rng import split_rng
from .strategies import (
    Dhcpv6SequentialStrategy,
    Eui64Strategy,
    IPv4EmbeddedStrategy,
    LowByteStrategy,
    LowTwoBytesStrategy,
    PrivacyExtensionsStrategy,
    RandomLow4Strategy,
    StableRandomStrategy,
    StrategyKind,
)
from .world import VantagePoint, World

__all__ = ["WorldConfig", "WorldBuilder", "build_routing", "build_world"]

#: The paper's vantage deployment: 27 servers across 20 countries (§3).
PAPER_VANTAGE_PLAN: Tuple[Tuple[str, int], ...] = (
    ("US", 6), ("JP", 2), ("DE", 2),
    ("AU", 1), ("BH", 1), ("BR", 1), ("BG", 1), ("HK", 1), ("IN", 1),
    ("ID", 1), ("MX", 1), ("NL", 1), ("PL", 1), ("SG", 1), ("ZA", 1),
    ("KR", 1), ("ES", 1), ("SE", 1), ("TW", 1), ("GB", 1),
)

#: Client-country weights mirroring the paper's corpus geography.
COUNTRY_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("IN", 0.24), ("CN", 0.20), ("US", 0.15), ("BR", 0.09), ("ID", 0.08),
    ("DE", 0.05), ("JP", 0.04), ("GB", 0.03), ("FR", 0.02), ("MX", 0.02),
    ("KR", 0.02), ("PL", 0.01), ("NL", 0.01), ("ES", 0.01), ("SE", 0.01),
    ("AU", 0.01), ("ZA", 0.005), ("SG", 0.005), ("TW", 0.005), ("TH", 0.005),
)

#: Rough country centroids for wardriving coordinates.
COUNTRY_CENTROIDS: Dict[str, Tuple[float, float]] = {
    "IN": (21.0, 78.0), "CN": (35.0, 103.0), "US": (39.8, -98.6),
    "BR": (-14.2, -51.9), "ID": (-2.5, 118.0), "DE": (51.2, 10.4),
    "JP": (36.2, 138.3), "GB": (54.0, -2.5), "FR": (46.2, 2.2),
    "MX": (23.6, -102.6), "KR": (36.5, 127.9), "PL": (52.0, 19.4),
    "NL": (52.2, 5.3), "ES": (40.3, -3.7), "SE": (62.0, 15.0),
    "AU": (-25.3, 133.8), "ZA": (-29.0, 24.0), "SG": (1.35, 103.8),
    "TW": (23.7, 121.0), "TH": (15.1, 101.0), "BH": (26.0, 50.5),
    "BG": (42.7, 25.5), "HK": (22.35, 114.1), "LU": (49.8, 6.1),
}

# Named heavy hitters mirroring the paper's Figure 4 top-5 ASes.
_NAMED_ASES: Tuple[Tuple[str, str, bool, str], ...] = (
    # (name, country, cellular, strategy-mix key)
    ("Reliance Jio", "IN", True, "jio"),
    ("ChinaNet", "CN", False, "default"),
    ("China Mobile", "CN", True, "cellular"),
    ("T-Mobile US", "US", True, "cellular"),
    ("Telkomsel", "ID", True, "telkomsel"),
    # A large German fixed-line ISP guarantees the AVM Fritz!Box CPE
    # population the §5.3 geolocation result depends on.
    ("Deutsche Telekom", "DE", False, "default"),
)

# Client-device strategy mixes by profile key.
_STRATEGY_MIXES: Dict[str, Tuple[Tuple[StrategyKind, float], ...]] = {
    "default": (
        (StrategyKind.PRIVACY, 0.72),
        (StrategyKind.STABLE_RANDOM, 0.10),
        (StrategyKind.EUI64, 0.10),
        (StrategyKind.DHCPV6_SEQUENTIAL, 0.05),
        (StrategyKind.LOW_BYTE, 0.02),
        (StrategyKind.LOW_2_BYTES, 0.01),
    ),
    "cellular": (
        (StrategyKind.PRIVACY, 0.90),
        (StrategyKind.RANDOM_LOW4, 0.07),
        (StrategyKind.EUI64, 0.03),
    ),
    "jio": (
        (StrategyKind.PRIVACY, 0.60),
        (StrategyKind.RANDOM_LOW4, 0.35),
        (StrategyKind.EUI64, 0.03),
        (StrategyKind.DHCPV6_SEQUENTIAL, 0.02),
    ),
    "telkomsel": (
        (StrategyKind.PRIVACY, 0.45),
        (StrategyKind.DHCPV6_SEQUENTIAL, 0.30),
        (StrategyKind.RANDOM_LOW4, 0.20),
        (StrategyKind.EUI64, 0.05),
    ),
    "hosting": (
        (StrategyKind.LOW_BYTE, 0.35),
        (StrategyKind.LOW_2_BYTES, 0.15),
        (StrategyKind.IPV4_EMBEDDED, 0.25),
        (StrategyKind.STABLE_RANDOM, 0.15),
        (StrategyKind.EUI64, 0.10),
    ),
}

# IoT / smart-home devices skew to EUI-64 regardless of AS (Table 2).
_IOT_MIX: Tuple[Tuple[StrategyKind, float], ...] = (
    (StrategyKind.EUI64, 0.40),
    (StrategyKind.PRIVACY, 0.40),
    (StrategyKind.DHCPV6_SEQUENTIAL, 0.15),
    (StrategyKind.STABLE_RANDOM, 0.05),
)

# Vendor pools (OUI database vendor name, or None for unlisted space).
_VENDOR_POOLS: Dict[DeviceType, Tuple[Tuple[Optional[str], float], ...]] = {
    DeviceType.SMARTPHONE: (
        ("Samsung Electronics Co.,Ltd", 2.5),
        ("vivo Mobile Communication Co., Ltd.", 1.5),
        ("Huawei Technologies", 1.0),
        ("Xiaomi Communications Co Ltd", 0.8),
        (None, 4.0),
    ),
    DeviceType.LAPTOP: (
        ("Intel Corporate", 2.0),
        ("Apple, Inc.", 1.0),
        (None, 1.0),
    ),
    DeviceType.DESKTOP: (
        ("Intel Corporate", 2.0),
        (None, 1.0),
    ),
    DeviceType.SERVER: (
        ("Amazon Technologies Inc.", 3.0),
        ("Intel Corporate", 1.0),
        (None, 2.0),
    ),
    DeviceType.CPE_ROUTER: (
        ("AVM GmbH", 1.0),        # re-weighted to dominate in DE
        ("TP-Link Technologies Co.,Ltd.", 1.0),
        ("Huawei Technologies", 0.8),
        (None, 1.2),
    ),
    DeviceType.IOT: (
        ("Sonos, Inc.", 1.0),
        ("Espressif Inc.", 0.8),
        ("Sunnovo International Limited", 0.8),
        ("Hui Zhou Gaoshengda Technology Co.,LTD", 0.8),
        ("Amazon Technologies Inc.", 1.5),
        (None, 8.0),
    ),
    DeviceType.SMART_HOME: (
        ("Sonos, Inc.", 1.2),
        ("Samsung Electronics Co.,Ltd", 0.8),
        ("Amazon Technologies Inc.", 1.0),
        (None, 5.0),
    ),
    DeviceType.SET_TOP_BOX: (
        ("Shenzhen Chuangwei-RGB Electronics", 1.0),
        ("Skyworth Digital Technology (Shenzhen) Co.,Ltd", 1.0),
        (None, 3.0),
    ),
}

# Home-network client device type mix (the CPE router is always added).
_HOME_DEVICE_MIX: Tuple[Tuple[DeviceType, float], ...] = (
    (DeviceType.SMARTPHONE, 0.30),
    (DeviceType.LAPTOP, 0.18),
    (DeviceType.DESKTOP, 0.10),
    (DeviceType.IOT, 0.22),
    (DeviceType.SMART_HOME, 0.13),
    (DeviceType.SET_TOP_BOX, 0.07),
)

_SMARTPHONE_OS: Tuple[Tuple[OperatingSystem, float], ...] = (
    (OperatingSystem.ANDROID_MODERN, 0.45),
    (OperatingSystem.ANDROID_LEGACY, 0.30),
    (OperatingSystem.IOS, 0.25),
)

_LAPTOP_OS: Tuple[Tuple[OperatingSystem, float], ...] = (
    (OperatingSystem.WINDOWS, 0.45),
    (OperatingSystem.MACOS, 0.20),
    (OperatingSystem.LINUX_UBUNTU, 0.20),
    (OperatingSystem.LINUX_DEBIAN, 0.15),
)

_DESKTOP_OS: Tuple[Tuple[OperatingSystem, float], ...] = (
    (OperatingSystem.WINDOWS, 0.55),
    (OperatingSystem.LINUX_UBUNTU, 0.25),
    (OperatingSystem.LINUX_CENTOS, 0.10),
    (OperatingSystem.MACOS, 0.10),
)

_OS_BY_TYPE: Dict[DeviceType, Tuple[Tuple[OperatingSystem, float], ...]] = {
    DeviceType.SMARTPHONE: _SMARTPHONE_OS,
    DeviceType.LAPTOP: _LAPTOP_OS,
    DeviceType.DESKTOP: _DESKTOP_OS,
    DeviceType.SERVER: (
        (OperatingSystem.LINUX_UBUNTU, 0.4),
        (OperatingSystem.LINUX_CENTOS, 0.3),
        (OperatingSystem.LINUX_DEBIAN, 0.3),
    ),
    DeviceType.CPE_ROUTER: ((OperatingSystem.EMBEDDED_OPENWRT, 1.0),),
    DeviceType.IOT: ((OperatingSystem.IOT_GENERIC, 1.0),),
    DeviceType.SMART_HOME: ((OperatingSystem.IOT_GENERIC, 1.0),),
    DeviceType.SET_TOP_BOX: ((OperatingSystem.IOT_GENERIC, 1.0),),
}

_QUERY_RATES: Dict[DeviceType, float] = {
    DeviceType.SMARTPHONE: 3.0,
    DeviceType.LAPTOP: 3.0,
    DeviceType.DESKTOP: 4.0,
    DeviceType.SERVER: 8.0,
    DeviceType.CPE_ROUTER: 5.0,
    DeviceType.IOT: 2.0,
    DeviceType.SMART_HOME: 2.0,
    DeviceType.SET_TOP_BOX: 1.0,
}

#: Static slots reserved per hosting AS for vantage VPS addresses.
_VANTAGE_SLOTS = 8


@dataclass
class WorldConfig:
    """Scale and behaviour knobs for world generation.

    The defaults produce a "small" world suitable for tests and quick
    examples; benches scale ``n_home_networks`` / ``n_cellular_subscribers``
    up.
    """

    seed: int = 1
    # Population scale
    n_fixed_ases: int = 20
    n_cellular_ases: int = 6
    n_hosting_ases: int = 6
    n_home_networks: int = 400
    n_cellular_subscribers: int = 300
    n_hosting_networks: int = 30
    mean_client_devices: float = 2.2
    delegated_length: int = 56
    #: Fixed-line ISPs delegate different sizes (RIPE-690: /56 common,
    #: some /60, stingy ones a single /64); weights sample per AS.
    fixed_delegation_weights: Tuple[Tuple[int, float], ...] = (
        (56, 0.60), (60, 0.25), (64, 0.15),
    )
    #: Cellular sessions always get a single /64 (3GPP behaviour).
    cellular_delegated_length: int = 64
    # Rotation policy (fractions over fixed-line ASes)
    slow_rotating_fraction: float = 0.10
    fast_rotating_fraction: float = 0.05
    #: Probability a CPE router's NTP points at its ISP's own servers
    #: (via DHCPv6 option 56) instead of the pool.
    cpe_isp_ntp_probability: float = 0.75
    #: Probability a server syncs to its cloud provider's time service
    #: (e.g. Amazon Time Sync) instead of the pool.
    server_cloud_ntp_probability: float = 0.70
    slow_rotation_interval: float = 45 * DAY
    fast_rotation_interval: float = 3 * DAY
    cellular_rotation_interval: float = 18 * HOUR
    # Firewalling and aliasing
    firewall_probability: float = 0.30
    #: Cellular carriers commonly filter unsolicited inbound traffic to
    #: handsets; combined with address churn this is why high-entropy
    #: clients dominate the paper's backscan misses (Fig. 3).
    cellular_firewall_probability: float = 0.45
    aliased_fixed_as_count: int = 2
    aliased_hosting_as_count: int = 1
    # Tracking special populations
    provider_change_fraction: float = 0.012
    commuter_fraction: float = 0.25
    commuter_eui64_fraction: float = 0.06
    reused_mac_count: int = 3
    reused_mac_instances: int = 10
    # Privacy-extension rotation interval (per RFC 4941 default: 1 day)
    privacy_rotation_interval: float = DAY
    # Wardriving coverage probability by country (default applies elsewhere)
    wardriving_coverage: Dict[str, float] = field(
        default_factory=lambda: {"DE": 0.85, "NL": 0.6, "GB": 0.55,
                                 "FR": 0.5, "LU": 0.6, "PL": 0.5,
                                 "SE": 0.5, "ES": 0.45, "US": 0.25,
                                 "MX": 0.30, "IN": 0.15}
    )
    default_wardriving_coverage: float = 0.08
    background_bssids_per_oui: int = 40
    # Outage injection (off by default): whole-AS connectivity losses,
    # the ground truth for the outage-detection application benchmark.
    outage_as_count: int = 0
    outage_min_days: int = 2
    outage_max_days: int = 8
    # NTP pool composition
    vantage_plan: Tuple[Tuple[str, int], ...] = PAPER_VANTAGE_PLAN
    background_pool_per_country: int = 3
    background_pool_extra_world: int = 20
    campaign_start: float = CAMPAIGN_EPOCH
    campaign_weeks: int = 31

    def __post_init__(self) -> None:
        if self.n_fixed_ases < 5:
            raise ValueError("need at least 5 fixed-line ASes")
        if self.n_cellular_ases < 4:
            raise ValueError(
                "need at least 4 cellular ASes (the named heavy hitters)"
            )
        if self.n_hosting_ases < 1:
            raise ValueError("need at least one hosting AS")
        if not 48 <= self.delegated_length <= 64:
            raise ValueError("delegated length must be in [48, 64]")
        if self.slow_rotating_fraction + self.fast_rotating_fraction > 1.0:
            raise ValueError("rotating fractions exceed 1.0")


def _weighted_choice(rng, pairs: Sequence[Tuple[object, float]]):
    total = sum(weight for _, weight in pairs)
    mark = rng.uniform(0.0, total)
    accumulated = 0.0
    for value, weight in pairs:
        accumulated += weight
        if mark <= accumulated:
            return value
    return pairs[-1][0]


def _zipf_split(total: int, buckets: int, rng, exponent: float = 1.0) -> List[int]:
    """Split ``total`` items over ``buckets`` with Zipf-skewed sizes."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    weights = [1.0 / (rank**exponent) for rank in range(1, buckets + 1)]
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    deficit = total - sum(counts)
    index = 0
    while deficit > 0:
        counts[index % buckets] += 1
        deficit -= 1
        index += 1
    return counts


class WorldBuilder:
    """Assembles a :class:`World` from a :class:`WorldConfig`."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self._seed = config.seed
        self._next_device_id = 1
        self._next_network_id = 1
        # Intended (pre-slack) customer counts per ASN; delegations carry
        # extra free slots so movers/commuters can be given fresh prefixes.
        self._intended_counts: Dict[int, int] = {}

    # -- public entry point -------------------------------------------------

    def build(self) -> World:
        """Generate the complete world."""
        config = self.config
        oui_db = default_oui_database()
        registry = ASRegistry()
        routing = RoutingTable(width=128)
        routing4 = RoutingTable(width=32)
        geodb = GeoDatabase()
        bssid_db = BSSIDDatabase()

        profiles = self._build_ases(registry, routing, routing4, geodb)
        topology = self._build_topology(profiles)
        infra = {
            profile.asn: profile.infra_prefix
            for profile in profiles.values()
            if profile.infra_prefix is not None
        }
        router_plan = RouterAddressPlan(topology, infra)

        world = World(
            config=config,
            registry=registry,
            profiles=profiles,
            routing=routing,
            routing4=routing4,
            geodb=geodb,
            topology=topology,
            router_plan=router_plan,
            oui_db=oui_db,
            bssid_db=bssid_db,
        )

        self._build_home_networks(world)
        self._build_cellular_subscribers(world)
        self._build_hosting_networks(world)
        self._assign_special_populations(world)
        self._build_wardriving(world)
        self._place_vantages(world)
        self._schedule_outages(world)
        return world

    # -- AS layer -----------------------------------------------------------

    def _as_base_prefixes(self, index: int) -> Tuple[Prefix, Prefix]:
        """Customer /40 and infrastructure /48 for the ``index``-th AS."""
        customer = Prefix((0x2A << 120) | (index << 88), 40)
        infra = Prefix((0x2B << 120) | (index << 80), 48)
        return customer, infra

    def _make_profile(
        self,
        index: int,
        name: str,
        country: str,
        category: ASCategory,
        subtype: ISPSubtype,
        rotation_interval: Optional[float],
        rotating_count: int,
        static_count: int,
        mix_key: str,
        cellular: bool,
        aliased: bool,
        registry: ASRegistry,
        routing: RoutingTable,
        routing4: RoutingTable,
        geodb: GeoDatabase,
        delegated_length: Optional[int] = None,
    ) -> ASProfile:
        asn = 64500 + index
        record = ASRecord(
            asn=asn, name=name, country=country, category=category,
            subtype=subtype,
        )
        registry.register(record)
        customer, infra = self._as_base_prefixes(index)
        delegation = PrefixDelegation(
            customer_block=customer,
            delegated_length=(
                self.config.delegated_length
                if delegated_length is None
                else delegated_length
            ),
            rotating_count=rotating_count,
            static_count=static_count,
            rotation_interval=rotation_interval,
            root_seed=self._seed,
            asn=asn,
        )
        profile = ASProfile(
            record=record,
            customer_block=customer,
            delegation=delegation,
            infra_prefix=infra,
            aliased=aliased,
            firewall_probability=self.config.firewall_probability,
            cellular=cellular,
            strategy_weights=dict(_STRATEGY_MIXES[mix_key]),
        )
        routing.announce(customer, asn)
        routing.announce(infra, asn)
        # One IPv4 /16 per AS in 100.64.0.0/10-adjacent space for the
        # IPv4-embedded validation path.
        v4 = Prefix((100 << 24) | ((index + 1) << 16), 16, 32)
        routing4.announce(v4, asn)
        geodb.add(customer, country)
        geodb.add(infra, country)
        return profile

    def _build_ases(
        self, registry, routing, routing4, geodb
    ) -> Dict[int, ASProfile]:
        config = self.config
        rng = split_rng(self._seed, "ases")
        profiles: Dict[int, ASProfile] = {}
        index = 0

        # Network counts per AS (Zipf-skewed), computed up front so the
        # delegation authorities know their rotating/static splits.
        home_counts = _zipf_split(
            config.n_home_networks, config.n_fixed_ases, rng
        )
        cellular_counts = _zipf_split(
            config.n_cellular_subscribers, config.n_cellular_ases, rng
        )
        hosting_counts = _zipf_split(
            config.n_hosting_networks, config.n_hosting_ases, rng
        )

        # Rotation tier per fixed-line AS, placed deterministically on
        # the Zipf rank order: the largest ISPs stay static, mid-sized
        # ones rotate slowly (weeks — the §5.2 "mostly static" one-or-two
        # renumberings), and a few small ISPs rotate fast (days — the
        # "likely prefix reassignment" class).  Rank placement, not
        # shuffle, so the rotating *device* share tracks the configured
        # fractions across seeds.
        slow_count = round(config.slow_rotating_fraction * config.n_fixed_ases)
        fast_count = round(config.fast_rotating_fraction * config.n_fixed_ases)
        tiers = ["static"] * config.n_fixed_ases
        slow_start = min(5, max(1, config.n_fixed_ases - slow_count - fast_count))
        for offset in range(slow_count):
            tiers[min(slow_start + offset, config.n_fixed_ases - 1)] = "slow"
        for offset in range(fast_count):
            tiers[config.n_fixed_ases - 1 - offset] = "fast"

        # Aliased providers are drawn from the mid-sized Zipf ranks: big
        # enough that their clients actually reach vantages (the §4.2
        # clients-inside-aliased-/64s effect needs sightings), but not
        # the heavy hitters whose aliasing would swamp every analysis.
        alias_pool = range(
            1, max(2, min(config.n_fixed_ases, 1 + 4 * max(
                1, config.aliased_fixed_as_count
            )))
        )
        aliased_fixed = set(
            rng.sample(list(alias_pool),
                       min(config.aliased_fixed_as_count, len(alias_pool)))
        )

        named = list(_NAMED_ASES)
        fixed_slot = 0
        cellular_slot = 0
        self._fixed_asns: List[int] = []
        self._cellular_asns: List[int] = []
        self._hosting_asns: List[int] = []

        # Named heavy hitters first: they take the largest Zipf buckets.
        for name, country, cellular, mix_key in named:
            if cellular:
                count = cellular_counts[cellular_slot]
                profile = self._make_profile(
                    index, name, country, ASCategory.ISP,
                    ISPSubtype.PHONE_PROVIDER,
                    config.cellular_rotation_interval,
                    rotating_count=count + self._slack(count), static_count=0,
                    mix_key=mix_key, cellular=True, aliased=False,
                    registry=registry, routing=routing, routing4=routing4,
                    geodb=geodb,
                    delegated_length=config.cellular_delegated_length,
                )
                profile.firewall_probability = (
                    config.cellular_firewall_probability
                )
                self._cellular_asns.append(profile.asn)
                cellular_slot += 1
            else:
                count = home_counts[fixed_slot]
                tier = tiers[fixed_slot]
                interval, rotating, static = self._fixed_tier(tier, count)
                profile = self._make_profile(
                    index, name, country, ASCategory.ISP,
                    ISPSubtype.FIXED_LINE, interval, rotating, static,
                    mix_key=mix_key, cellular=False,
                    aliased=fixed_slot in aliased_fixed,
                    registry=registry, routing=routing, routing4=routing4,
                    geodb=geodb,
                    delegated_length=_weighted_choice(
                        rng, config.fixed_delegation_weights
                    ),
                )
                self._fixed_asns.append(profile.asn)
                fixed_slot += 1
            self._intended_counts[profile.asn] = count
            profiles[profile.asn] = profile
            index += 1

        # Remaining fixed-line ASes.
        while fixed_slot < config.n_fixed_ases:
            country = _weighted_choice(rng, COUNTRY_WEIGHTS)
            count = home_counts[fixed_slot]
            tier = tiers[fixed_slot]
            interval, rotating, static = self._fixed_tier(tier, count)
            profile = self._make_profile(
                index, f"FixedNet-{fixed_slot}", country, ASCategory.ISP,
                ISPSubtype.FIXED_LINE, interval, rotating, static,
                mix_key="default", cellular=False,
                aliased=fixed_slot in aliased_fixed,
                registry=registry, routing=routing, routing4=routing4,
                geodb=geodb,
                delegated_length=_weighted_choice(
                    rng, config.fixed_delegation_weights
                ),
            )
            profiles[profile.asn] = profile
            self._intended_counts[profile.asn] = count
            self._fixed_asns.append(profile.asn)
            fixed_slot += 1
            index += 1

        # Remaining cellular ASes.
        while cellular_slot < config.n_cellular_ases:
            country = _weighted_choice(rng, COUNTRY_WEIGHTS)
            count = cellular_counts[cellular_slot]
            profile = self._make_profile(
                index, f"MobileNet-{cellular_slot}", country, ASCategory.ISP,
                ISPSubtype.PHONE_PROVIDER, config.cellular_rotation_interval,
                rotating_count=count + self._slack(count), static_count=0,
                mix_key="cellular", cellular=True, aliased=False,
                registry=registry, routing=routing, routing4=routing4,
                geodb=geodb,
                delegated_length=config.cellular_delegated_length,
            )
            profile.firewall_probability = config.cellular_firewall_probability
            profiles[profile.asn] = profile
            self._intended_counts[profile.asn] = count
            self._cellular_asns.append(profile.asn)
            cellular_slot += 1
            index += 1

        # Hosting / cloud ASes host the vantage VPSes and server farms.
        aliased_hosting = set(
            rng.sample(range(config.n_hosting_ases),
                       min(config.aliased_hosting_as_count,
                           config.n_hosting_ases))
        )
        vantage_countries = [country for country, _ in self.config.vantage_plan]
        for hosting_slot in range(config.n_hosting_ases):
            # Spread hosting ASes over vantage countries so every vantage
            # has a plausible home.
            country = vantage_countries[hosting_slot % len(vantage_countries)]
            count = hosting_counts[hosting_slot]
            profile = self._make_profile(
                index, f"CloudHost-{hosting_slot}", country,
                ASCategory.COMPUTER_IT, ISPSubtype.HOSTING,
                rotation_interval=None, rotating_count=0,
                static_count=count + _VANTAGE_SLOTS,
                mix_key="hosting", cellular=False,
                aliased=hosting_slot in aliased_hosting,
                registry=registry, routing=routing, routing4=routing4,
                geodb=geodb,
            )
            # Server farms do not firewall.
            profile.firewall_probability = 0.0
            profiles[profile.asn] = profile
            self._intended_counts[profile.asn] = count
            self._hosting_asns.append(profile.asn)
            index += 1

        return profiles

    @staticmethod
    def _slack(count: int) -> int:
        """Free delegation slots kept beyond the intended customers."""
        return max(6, count // 3)

    def _fixed_tier(self, tier: str, count: int):
        padded = count + self._slack(count)
        if tier == "fast":
            return self.config.fast_rotation_interval, padded, 0
        if tier == "slow":
            return self.config.slow_rotation_interval, padded, 0
        return None, 0, padded

    def _build_topology(self, profiles: Dict[int, ASProfile]):
        rng = split_rng(self._seed, "topology")
        asns = sorted(profiles)
        return preferential_attachment_topology(asns, rng, links_per_as=2)

    # -- networks and devices -----------------------------------------------

    def _new_network_id(self) -> int:
        network_id = self._next_network_id
        self._next_network_id += 1
        return network_id

    def _new_device_id(self) -> int:
        device_id = self._next_device_id
        self._next_device_id += 1
        return device_id

    def _build_home_networks(self, world: World) -> None:
        config = self.config
        for asn in self._fixed_asns:
            profile = world.profiles[asn]
            count = self._intended_counts[asn]
            rotating = profile.delegation.rotating_count > 0
            rng = split_rng(self._seed, "homes", asn)
            for customer_index in range(count):
                network = world.add_network(
                    profile, customer_index, rotating,
                    firewalled=rng.random() < profile.firewall_probability,
                )
                self._populate_home(world, network, rng)

    def _populate_home(self, world: World, network, rng) -> None:
        config = self.config
        # The CPE router is always present and always uses the pool.
        cpe = self._make_device(
            world, network, DeviceType.CPE_ROUTER, rng
        )
        network.attach(cpe)
        # Client devices, spread over the home's first few subnets when
        # the delegation is larger than a single /64.
        subnet_bits = 64 - network.profile.delegation.delegated_length
        subnet_span = min(4, 1 << subnet_bits)
        extra = 1 + int(rng.expovariate(1.0 / max(0.1, config.mean_client_devices - 1)))
        for _ in range(min(extra, 8)):
            device_type = _weighted_choice(rng, _HOME_DEVICE_MIX)
            device = self._make_device(world, network, device_type, rng)
            if subnet_span > 1:
                device.subnet_index = rng.randrange(subnet_span)
            network.attach(device)

    def _build_cellular_subscribers(self, world: World) -> None:
        for asn in self._cellular_asns:
            profile = world.profiles[asn]
            rng = split_rng(self._seed, "cellular", asn)
            for customer_index in range(self._intended_counts[asn]):
                network = world.add_network(
                    profile, customer_index, rotating=True,
                    firewalled=rng.random() < profile.firewall_probability,
                )
                device = self._make_device(
                    world, network, DeviceType.SMARTPHONE, rng
                )
                network.attach(device)

    def _build_hosting_networks(self, world: World) -> None:
        for asn in self._hosting_asns:
            profile = world.profiles[asn]
            rng = split_rng(self._seed, "hosting", asn)
            # The top _VANTAGE_SLOTS static slots stay free for vantages.
            for customer_index in range(self._intended_counts[asn]):
                network = world.add_network(
                    profile, customer_index, rotating=False, firewalled=False
                )
                if rng.random() < 0.35:
                    # Rack-style farm: sequentially numbered servers
                    # (::1, ::2, …) — the dense regularity that makes
                    # low-byte target generation pay off.
                    for slot in range(6 + rng.randrange(10)):
                        device = self._make_device(
                            world, network, DeviceType.SERVER, rng
                        )
                        device.strategy = LowByteStrategy(slot + 1)
                        network.attach(device)
                else:
                    for _ in range(2 + rng.randrange(4)):
                        device = self._make_device(
                            world, network, DeviceType.SERVER, rng
                        )
                        network.attach(device)

    def _make_device(
        self, world: World, network, device_type: DeviceType, rng
    ) -> Device:
        device_id = self._new_device_id()
        profile = network.profile
        os_family = _weighted_choice(rng, _OS_BY_TYPE[device_type])
        strategy_kind = self._pick_strategy_kind(device_type, profile, rng)
        mac = self._pick_mac(world, device_type, profile, rng, device_id)
        strategy = self._instantiate_strategy(
            strategy_kind, device_id, mac, profile, rng
        )
        dhcp_time_source = None
        if (
            device_type is DeviceType.CPE_ROUTER
            and rng.random() < self.config.cpe_isp_ntp_probability
        ):
            dhcp_time_source = TimeSource.DHCP_PROVIDED
        elif (
            device_type is DeviceType.SERVER
            and rng.random() < self.config.server_cloud_ntp_probability
        ):
            dhcp_time_source = TimeSource.TIME_GOOGLE
        device = Device(
            device_id=device_id,
            device_type=device_type,
            os_family=os_family,
            strategy=strategy,
            root_seed=self._seed,
            queries_per_day=_QUERY_RATES[device_type],
            subnet_index=0,
            mac=mac,
            dhcp_time_source=dhcp_time_source,
        )
        world.add_device(device)
        return device

    def _pick_strategy_kind(
        self, device_type: DeviceType, profile: ASProfile, rng
    ) -> StrategyKind:
        if device_type is DeviceType.CPE_ROUTER:
            # CPE WAN addressing: EUI-64 is common (AVM et al.,
            # dominating in Germany), most of the rest self-assign
            # stable-random IIDs, and a minority are operator low-byte.
            mark = rng.random()
            if profile.country == "DE":
                if mark < 0.65:
                    return StrategyKind.EUI64
                return (
                    StrategyKind.STABLE_RANDOM
                    if mark < 0.90
                    else StrategyKind.LOW_BYTE
                )
            if mark < 0.35:
                return StrategyKind.EUI64
            return (
                StrategyKind.STABLE_RANDOM
                if mark < 0.75
                else StrategyKind.LOW_BYTE
            )
        if device_type in (DeviceType.IOT, DeviceType.SMART_HOME,
                           DeviceType.SET_TOP_BOX):
            return _weighted_choice(rng, _IOT_MIX)
        if device_type is DeviceType.SERVER:
            return _weighted_choice(
                rng, tuple(_STRATEGY_MIXES["hosting"])
            )
        return _weighted_choice(rng, tuple(profile.strategy_weights.items()))

    def _pick_mac(
        self, world: World, device_type: DeviceType, profile: ASProfile,
        rng, device_id: int
    ) -> int:
        pool = _VENDOR_POOLS[device_type]
        if device_type is DeviceType.CPE_ROUTER and profile.country == "DE":
            # Fritz!Box dominance in Germany (§5.3).
            pool = (("AVM GmbH", 6.0),) + tuple(pool[1:])
        vendor = _weighted_choice(rng, pool)
        if vendor is None:
            oui = DEFAULT_UNLISTED_OUIS[
                rng.randrange(len(DEFAULT_UNLISTED_OUIS))
            ]
        else:
            ouis = world.oui_db.ouis_of(vendor)
            oui = ouis[rng.randrange(len(ouis))]
        nic = split_rng(self._seed, "mac", device_id).getrandbits(24)
        return with_nic(oui, nic)

    def _instantiate_strategy(
        self, kind: StrategyKind, device_id: int, mac: int,
        profile: ASProfile, rng
    ):
        config = self.config
        if kind is StrategyKind.LOW_BYTE:
            # Operator-chosen IIDs concentrate heavily on ::1/::2/::3
            # (Rohrer et al. 2016) — the regularity low-byte target
            # generation exploits.
            mark = rng.random()
            if mark < 0.35:
                host = 1
            elif mark < 0.47:
                host = 2
            elif mark < 0.53:
                host = 3
            else:
                host = 1 + rng.randrange(0xFF)
            return LowByteStrategy(host)
        if kind is StrategyKind.LOW_2_BYTES:
            return LowTwoBytesStrategy(0x100 + rng.randrange(0xFF00))
        if kind is StrategyKind.DHCPV6_SEQUENTIAL:
            return Dhcpv6SequentialStrategy(rng.randrange(1 << 12))
        if kind is StrategyKind.EUI64:
            return Eui64Strategy(mac)
        if kind is StrategyKind.STABLE_RANDOM:
            return StableRandomStrategy(self._seed, device_id)
        if kind is StrategyKind.RANDOM_LOW4:
            return RandomLow4Strategy(
                self._seed, device_id, config.privacy_rotation_interval
            )
        if kind is StrategyKind.IPV4_EMBEDDED:
            # The AS's IPv4 /16 carries the embedded address.
            index = profile.asn - 64500
            ipv4 = (100 << 24) | ((index + 1) << 16) | rng.getrandbits(16)
            encoding = "hex32" if rng.random() < 0.5 else "decimal_groups"
            return IPv4EmbeddedStrategy(ipv4, encoding)
        return PrivacyExtensionsStrategy(
            self._seed, device_id, config.privacy_rotation_interval
        )

    # -- special populations -------------------------------------------------

    def _assign_special_populations(self, world: World) -> None:
        self._assign_provider_changes(world)
        self._assign_commuters(world)
        self._assign_mac_reuse(world)

    def _eligible_home_devices(self, world: World) -> List[Device]:
        devices = []
        for network in world.networks.values():
            if network.profile.cellular or network.profile.asn in self._hosting_asns:
                continue
            devices.extend(network.devices)
        return devices

    def _assign_provider_changes(self, world: World) -> None:
        """Move a small fraction of static-home devices to a new AS mid-study.

        Models a household switching ISPs: a twin network is created in a
        different fixed-line AS of the same country (falling back to any
        other fixed-line AS when the country has only one).
        """
        config = self.config
        rng = split_rng(self._seed, "provider-change")
        campaign_end = config.campaign_start + config.campaign_weeks * WEEK
        candidates = [
            device
            for device in self._eligible_home_devices(world)
            if device.strategy.kind is StrategyKind.EUI64
            and not world.networks[device.home_network_id].rotating
        ]
        count = round(len(candidates) * config.provider_change_fraction)
        for device in rng.sample(candidates, min(count, len(candidates))):
            home = world.networks[device.home_network_id]
            new_profile = self._other_fixed_profile(world, home.profile, rng)
            if new_profile is None:
                continue
            twin = self._spare_network(world, new_profile, rng)
            if twin is None:
                continue
            twin.attach(device, home=False)
            switch_time = rng.uniform(
                config.campaign_start + 2 * WEEK, campaign_end - 2 * WEEK
            )
            device.mobility_plan = ProviderChangePlan(
                home.network_id, twin.network_id, switch_time
            )

    def _other_fixed_profile(self, world: World, profile: ASProfile, rng):
        others = [
            world.profiles[asn]
            for asn in self._fixed_asns
            if asn != profile.asn
        ]
        # ISP switches happen within a country (the paper's "changing
        # providers" exemplars move between e.g. two Brazilian ISPs); a
        # cross-country move would look like MAC reuse to the tracker.
        pool = [p for p in others if p.country == profile.country]
        # Prefer a non-rotating destination: a household that changes ISP
        # should show few /64 transitions, not inherit a fast-rotation
        # signature.
        static_pool = [p for p in pool if p.delegation.rotating_count == 0]
        pool = static_pool or pool
        if not pool:
            return None
        return pool[rng.randrange(len(pool))]

    def _spare_network(self, world: World, profile: ASProfile, rng):
        """Allocate a fresh customer slot in ``profile`` for a mover."""
        delegation = profile.delegation
        used = world.used_customer_indices(profile.asn)
        if delegation.rotating_count > 0:
            capacity = delegation.rotating_count
            rotating = True
        else:
            capacity = delegation.static_count
            rotating = False
        free = [index for index in range(capacity) if (index, rotating) not in used]
        if not free:
            return None
        customer_index = free[rng.randrange(len(free))]
        return world.add_network(
            profile, customer_index, rotating,
            firewalled=rng.random() < profile.firewall_probability,
        )

    def _assign_commuters(self, world: World) -> None:
        """Give smartphones in home networks a cellular alter ego."""
        config = self.config
        rng = split_rng(self._seed, "commuters")
        phones = [
            device
            for device in self._eligible_home_devices(world)
            if device.device_type is DeviceType.SMARTPHONE
            and device.mobility_plan is None
        ]
        count = round(len(phones) * config.commuter_fraction)
        for device in rng.sample(phones, min(count, len(phones))):
            home = world.networks[device.home_network_id]
            cellular_profile = self._cellular_profile_for(world, home, rng)
            if cellular_profile is None:
                # Commuting is within-country; a phone whose country has
                # no modelled carrier stays home-only.
                continue
            session = self._spare_network(world, cellular_profile, rng)
            if session is None:
                continue
            session.attach(device, home=False)
            device.mobility_plan = CommuterPlan(
                home.network_id, session.network_id,
                self._seed, device.device_id,
            )
            # A few commuter phones are EUI-64 addressed — the §5.2
            # "likely user movement" class.  Only pool-using phones are
            # converted: a non-pool EUI-64 commuter would be invisible to
            # every vantage and contribute nothing but dead weight.
            if device.uses_pool and rng.random() < config.commuter_eui64_fraction:
                device.strategy = Eui64Strategy(device.mac)

    def _cellular_profile_for(self, world: World, home, rng):
        same_country = [
            world.profiles[asn]
            for asn in self._cellular_asns
            if world.profiles[asn].country == home.country
        ]
        if not same_country:
            return None
        return same_country[rng.randrange(len(same_country))]

    def _assign_mac_reuse(self, world: World) -> None:
        """Clone a handful of MACs across EUI-64 devices worldwide (§5.2)."""
        config = self.config
        if config.reused_mac_count == 0:
            return
        rng = split_rng(self._seed, "mac-reuse")
        eui64_devices = [
            device
            for device in self._eligible_home_devices(world)
            if device.strategy.kind is StrategyKind.EUI64
            and device.device_type in (DeviceType.IOT, DeviceType.SMART_HOME,
                                       DeviceType.SET_TOP_BOX)
            and device.mobility_plan is None
        ]
        rng.shuffle(eui64_devices)
        cursor = 0
        for reuse_index in range(config.reused_mac_count):
            oui = DEFAULT_UNLISTED_OUIS[reuse_index % len(DEFAULT_UNLISTED_OUIS)]
            shared_mac = with_nic(oui, 0x100 + reuse_index)
            group = eui64_devices[cursor:cursor + config.reused_mac_instances]
            cursor += config.reused_mac_instances
            if len(group) < 2:
                # A "reused" MAC on fewer than two devices is just a MAC;
                # small worlds may run out of eligible devices.
                continue
            for device in group:
                device.mac = shared_mac
                device.strategy = Eui64Strategy(shared_mac)
            world.reused_macs.add(shared_mac)

    # -- wardriving DB --------------------------------------------------------

    def _build_wardriving(self, world: World) -> None:
        """Populate the BSSID database from CPE/AP devices plus noise."""
        config = self.config
        rng = split_rng(self._seed, "wardriving")
        seen_ouis = set()
        for network in world.networks.values():
            for device in network.devices:
                is_ap = device.device_type is DeviceType.CPE_ROUTER or (
                    device.device_type is DeviceType.SMART_HOME
                    and rng.random() < 0.3
                )
                if not is_ap or device.mac is None:
                    continue
                oui = device.mac >> 24
                offset = _vendor_offset(oui)
                bssid = with_nic(oui & 0xFFFFFF,
                                 ((device.mac & 0xFFFFFF) + offset) % (1 << 24))
                device.wifi_bssid = bssid
                seen_ouis.add(oui & 0xFFFFFF)
                coverage = config.wardriving_coverage.get(
                    network.country, config.default_wardriving_coverage
                )
                if rng.random() < coverage:
                    world.bssid_db.add(
                        bssid, _network_location(network.country, rng)
                    )
        # Background APs: same OUIs, unrelated BSSIDs — inference noise.
        for oui in sorted(seen_ouis):
            for _ in range(config.background_bssids_per_oui):
                bssid = with_nic(oui, rng.getrandbits(24))
                country = _weighted_choice(rng, COUNTRY_WEIGHTS)
                world.bssid_db.add(bssid, _network_location(country, rng))

    # -- vantage placement ----------------------------------------------------

    def _place_vantages(self, world: World) -> None:
        """Create the 27 vantage VPSes in hosting ASes (§3)."""
        rng = split_rng(self._seed, "vantages")
        hosting_by_country: Dict[str, List[ASProfile]] = {}
        for asn in self._hosting_asns:
            profile = world.profiles[asn]
            hosting_by_country.setdefault(profile.country, []).append(profile)
        all_hosting = [world.profiles[asn] for asn in self._hosting_asns]
        vantage_index = 0
        slots_used: Dict[int, int] = {}
        for country, count in self.config.vantage_plan:
            for _ in range(count):
                pool = hosting_by_country.get(country, all_hosting)
                # Least-loaded placement keeps every AS within its
                # reserved slots even when few hosting ASes exist.
                profile = min(
                    pool, key=lambda p: (slots_used.get(p.asn, 0), p.asn)
                )
                # Vantage VPS addresses live in the reserved static slots
                # at the top of the hosting AS's delegation space.
                used = slots_used.get(profile.asn, 0)
                if used >= _VANTAGE_SLOTS:
                    raise ValueError(
                        f"AS{profile.asn} exceeded its {_VANTAGE_SLOTS} "
                        "reserved vantage slots; add hosting ASes"
                    )
                slots_used[profile.asn] = used + 1
                slot = profile.delegation.static_count - 1 - used
                base = profile.delegation.delegated_base(slot, False, 0.0)
                address = base | (0x100 + vantage_index)
                world.vantages.append(
                    VantagePoint(
                        address=address, country=country, asn=profile.asn
                    )
                )
                vantage_index += 1


    # -- outage injection ------------------------------------------------------

    def _schedule_outages(self, world: World) -> None:
        """Inject whole-AS outage windows (ground truth for detection).

        Mid-sized fixed-line ASes go dark for a few days each: their
        devices stop emitting NTP queries and their space stops
        answering probes for the window.
        """
        config = self.config
        if config.outage_as_count == 0:
            return
        if config.outage_min_days < 1 or (
            config.outage_max_days < config.outage_min_days
        ):
            raise ValueError("bad outage duration bounds")
        rng = split_rng(self._seed, "outages")
        # Mid-ranked ASes: big enough to detect, not the heavy hitters.
        candidates = self._fixed_asns[2:] or self._fixed_asns
        chosen = rng.sample(
            candidates, min(config.outage_as_count, len(candidates))
        )
        campaign_days = config.campaign_weeks * 7
        for asn in chosen:
            duration = rng.randint(
                config.outage_min_days, config.outage_max_days
            )
            latest_start = max(1, campaign_days - duration - 7)
            start_day = rng.randint(7, latest_start)
            start = config.campaign_start + start_day * DAY
            world.outages.setdefault(asn, []).append(
                (start, start + duration * DAY)
            )


def _vendor_offset(oui: int) -> int:
    """The per-OUI wired→wireless MAC offset a vendor uses (1..4)."""
    return 1 + (oui % 4)


def _network_location(country: str, rng) -> GeoPoint:
    centroid = COUNTRY_CENTROIDS.get(country, (0.0, 0.0))
    return GeoPoint(
        latitude=max(-90.0, min(90.0, centroid[0] + rng.uniform(-2.0, 2.0))),
        longitude=max(-180.0, min(180.0, centroid[1] + rng.uniform(-2.0, 2.0))),
        country=country,
    )


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Convenience: build a world from ``config`` (or the defaults)."""
    return WorldBuilder(config or WorldConfig()).build()


def build_routing(config: Optional[WorldConfig] = None) -> RoutingTable:
    """The IPv6 routing table ``build_world(config).routing`` holds.

    Runs only the AS layer, which makes every announcement: no
    topology, networks or devices are generated, and the registry, IPv4
    table and geolocation database it fills are thrown away.  This is
    all a serving index needs of the world for its origin table.
    """
    routing = RoutingTable(width=128)
    WorldBuilder(config or WorldConfig())._build_ases(
        ASRegistry(), routing, RoutingTable(width=32), GeoDatabase()
    )
    return routing

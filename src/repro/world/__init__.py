"""Generative model of the IPv6 Internet.

Deterministic, seed-driven world generation: addressing strategies
(:mod:`repro.world.strategies`), devices (:mod:`repro.world.devices`),
customer networks with delegated-prefix rotation
(:mod:`repro.world.networks`, :mod:`repro.world.ases`), mobility
(:mod:`repro.world.mobility`), population assembly
(:mod:`repro.world.population`) and the :class:`repro.world.world.World`
facade with its probe oracle.
"""

from .ases import ASProfile, PrefixDelegation
from .clock import (
    CAMPAIGN_EPOCH,
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    SimClock,
    day_index,
    iter_ticks,
    week_index,
)
from .devices import Device, DeviceType
from .mobility import CommuterPlan, MobilityPlan, ProviderChangePlan, StaticPlan
from .networks import CustomerNetwork
from .population import (
    PAPER_VANTAGE_PLAN,
    WorldBuilder,
    WorldConfig,
    build_routing,
    build_world,
)
from .presets import PRESETS, preset_config, preset_names
from .rng import derive_seed, keyed_randbits, keyed_uniform, split_rng
from .strategies import (
    AddressingStrategy,
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
from .world import ProbeResponse, ResponderKind, VantagePoint, World

__all__ = [
    "ASProfile",
    "AddressingStrategy",
    "CAMPAIGN_EPOCH",
    "CommuterPlan",
    "CustomerNetwork",
    "DAY",
    "Device",
    "DeviceType",
    "Dhcpv6SequentialStrategy",
    "Eui64Strategy",
    "HOUR",
    "IPv4EmbeddedStrategy",
    "LowByteStrategy",
    "LowTwoBytesStrategy",
    "MINUTE",
    "MobilityPlan",
    "PAPER_VANTAGE_PLAN",
    "PRESETS",
    "preset_config",
    "preset_names",
    "PrefixDelegation",
    "PrivacyExtensionsStrategy",
    "ProbeResponse",
    "ProviderChangePlan",
    "RandomLow4Strategy",
    "ResponderKind",
    "SimClock",
    "StableRandomStrategy",
    "StaticPlan",
    "StrategyKind",
    "VantagePoint",
    "WEEK",
    "World",
    "WorldBuilder",
    "WorldConfig",
    "build_routing",
    "build_world",
    "day_index",
    "derive_seed",
    "iter_ticks",
    "keyed_randbits",
    "keyed_uniform",
    "split_rng",
    "week_index",
]

"""The assembled world: state, address resolution, and the probe oracle.

:class:`World` is the single object experiments interact with.  It owns
the AS profiles, networks, devices and databases the builder produced and
answers the two questions every measurement campaign asks:

* *"Where is device D and what address does it hold at time T?"* —
  :meth:`World.device_address`;
* *"Does address A respond to a probe at time T, and who answers?"* —
  :meth:`World.probe`, the oracle behind ZMap6/Yarrp/backscanning.

Probe semantics (paper §4.2): router interfaces respond; aliased provider
space responds to *everything*; customer devices respond when they
currently hold the probed address and either are infrastructure (CPE,
servers) or sit in a non-firewalled network.  A device that rotated away
from an address between observation and probe no longer answers — the
churn effect the paper cites for backscan misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..addr.oui_db import OUIDatabase
from ..geo.bssid_db import BSSIDDatabase
from ..net.asn import ASRegistry
from ..net.geodb import GeoDatabase
from ..net.routing import RoutingTable
from ..net.topology import ASTopology, RouterAddressPlan
from .ases import ASProfile
from .devices import Device
from .networks import CustomerNetwork

__all__ = ["ResponderKind", "ProbeResponse", "VantagePoint", "World"]


class ResponderKind(Enum):
    """What kind of entity answered a probe."""

    DEVICE = "device"
    ROUTER = "router"
    ALIAS = "alias"


@dataclass(frozen=True)
class ProbeResponse:
    """A positive probe result."""

    kind: ResponderKind
    asn: int
    device: Optional[Device] = None


@dataclass(frozen=True)
class VantagePoint:
    """One of the campaign's NTP server VPSes."""

    address: int
    country: str
    asn: int


class World:
    """The fully wired simulated IPv6 Internet."""

    def __init__(
        self,
        config,
        registry: ASRegistry,
        profiles: Dict[int, ASProfile],
        routing: RoutingTable,
        routing4: RoutingTable,
        geodb: GeoDatabase,
        topology: ASTopology,
        router_plan: RouterAddressPlan,
        oui_db: OUIDatabase,
        bssid_db: BSSIDDatabase,
    ) -> None:
        self.config = config
        self.registry = registry
        self.profiles = profiles
        self.routing = routing
        self.routing4 = routing4
        self.geodb = geodb
        self.topology = topology
        self.router_plan = router_plan
        self.oui_db = oui_db
        self.bssid_db = bssid_db
        self.networks: Dict[int, CustomerNetwork] = {}
        self.devices: Dict[int, Device] = {}
        self.vantages: List[VantagePoint] = []
        self.reused_macs: Set[int] = set()
        #: Injected whole-AS outage windows: asn -> [(start, end), ...].
        self.outages: Dict[int, List[Tuple[float, float]]] = {}
        self._next_network_id = 1
        self._by_slot: Dict[int, Dict[Tuple[int, bool], CustomerNetwork]] = {}
        self._router_addresses: Optional[Set[int]] = None
        self._pool_clients: Optional[List[Device]] = None

    # -- construction helpers (used by the builder) ---------------------------

    def add_network(
        self,
        profile: ASProfile,
        customer_index: int,
        rotating: bool,
        firewalled: bool,
    ) -> CustomerNetwork:
        """Create and register a customer network."""
        slot_map = self._by_slot.setdefault(profile.asn, {})
        key = (customer_index, rotating)
        if key in slot_map:
            raise ValueError(
                f"customer slot {key} of AS{profile.asn} already allocated"
            )
        network = CustomerNetwork(
            network_id=self._next_network_id,
            profile=profile,
            customer_index=customer_index,
            rotating=rotating,
            firewalled=firewalled,
        )
        self._next_network_id += 1
        self.networks[network.network_id] = network
        slot_map[key] = network
        return network

    def add_device(self, device: Device) -> None:
        """Register a device (networks hold the membership)."""
        if device.device_id in self.devices:
            raise ValueError(f"device {device.device_id} already registered")
        self.devices[device.device_id] = device
        self._pool_clients = None

    def used_customer_indices(self, asn: int) -> Set[Tuple[int, bool]]:
        """Allocated ``(customer_index, rotating)`` slots of an AS."""
        return set(self._by_slot.get(asn, ()))

    # -- address resolution ----------------------------------------------------

    def device_network(self, device: Device, when: float) -> CustomerNetwork:
        """The network a device is attached to at ``when``."""
        network_id = device.current_network_id(when)
        if network_id is None:
            raise ValueError(f"device {device.device_id} has no home network")
        return self.networks[network_id]

    def device_address(self, device: Device, when: float) -> int:
        """The device's full 128-bit address at ``when``."""
        network = self.device_network(device, when)
        return network.device_address(device, when)

    def ipv6_origin_asn(self, address: int) -> Optional[int]:
        """Origin AS of an IPv6 address."""
        return self.routing.origin_asn(address)

    def ipv4_origin_asn(self, address: int) -> Optional[int]:
        """Origin AS of an IPv4 address (for embedded-IPv4 validation)."""
        return self.routing4.origin_asn(address)

    def country_of(self, address: int) -> Optional[str]:
        """Geolocated country of an address."""
        return self.geodb.country(address)

    # -- the probe oracle --------------------------------------------------------

    @property
    def router_addresses(self) -> Set[int]:
        """All planned router interface addresses (lazily computed)."""
        if self._router_addresses is None:
            self._router_addresses = {
                address
                for addresses in self.router_plan.all_interface_addresses().values()
                for address in addresses
            }
        return self._router_addresses

    def in_outage(self, asn: Optional[int], when: float) -> bool:
        """True when the AS is inside an injected outage window."""
        if asn is None:
            return False
        for start, end in self.outages.get(asn, ()):
            if start <= when < end:
                return True
        return False

    def probe(self, address: int, when: float) -> Optional[ProbeResponse]:
        """ICMPv6-probe an address; returns the responder, or ``None``."""
        asn = self.routing.origin_asn(address)
        if asn is None:
            return None
        profile = self.profiles.get(asn)
        if profile is None:
            return None
        if self.in_outage(asn, when):
            return None
        if (
            profile.infra_prefix is not None
            and profile.infra_prefix.contains(address)
        ):
            if address in self.router_addresses:
                return ProbeResponse(kind=ResponderKind.ROUTER, asn=asn)
            return None
        if not profile.customer_block.contains(address):
            return None
        if profile.aliased:
            return ProbeResponse(kind=ResponderKind.ALIAS, asn=asn)
        located = profile.delegation.locate(address, when)
        if located is None:
            return None
        network = self._by_slot.get(asn, {}).get(located)
        if network is None:
            return None
        device = network.holder_of(address, when)
        if device is None:
            return None
        if device.device_type.is_infrastructure or not network.firewalled:
            return ProbeResponse(
                kind=ResponderKind.DEVICE, asn=asn, device=device
            )
        return None

    def is_responsive(self, address: int, when: float) -> bool:
        """Convenience wrapper over :meth:`probe`."""
        return self.probe(address, when) is not None

    # -- population views ---------------------------------------------------------

    def pool_client_devices(self) -> List[Device]:
        """Devices whose NTP configuration reaches pool vantages (cached)."""
        if self._pool_clients is None:
            self._pool_clients = [
                device
                for device in self.devices.values()
                if device.uses_pool and device.queries_per_day > 0
            ]
        return self._pool_clients

    def iter_devices(self) -> Iterator[Device]:
        """All devices in id order."""
        return iter(self.devices.values())

    def stats(self) -> Dict[str, int]:
        """Coarse inventory counters, for reports and sanity checks."""
        return {
            "ases": len(self.profiles),
            "networks": len(self.networks),
            "devices": len(self.devices),
            "pool_clients": len(self.pool_client_devices()),
            "vantages": len(self.vantages),
            "router_interfaces": len(self.router_addresses),
            "wardriving_bssids": len(self.bssid_db),
        }

"""Organizationally Unique Identifier (OUI) registry.

The paper resolves the OUIs of MAC addresses extracted from EUI-64 IIDs
against the IEEE registry to attribute addresses to manufacturers
(Table 2).  The real registry is a network resource; this module supplies
an equivalent in-process database seeded with the vendors the paper
reports — including the *unlisted* OUI space that dominates its Table 2
(73.9% of extracted MACs resolve to no registered vendor, e.g. the
``f0:02:20`` OUI) and AVM GmbH, whose Fritz!Box routers dominate the §5.3
geolocation results.

The registry is deliberately small but structurally faithful: lookups,
manufacturer tallies, and the listed/unlisted split all behave as they
would against the IEEE file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .mac import oui_of

__all__ = [
    "UNLISTED",
    "VendorRecord",
    "OUIDatabase",
    "default_oui_database",
    "manufacturer_counts",
]

#: Label used for MACs whose OUI is absent from the registry.
UNLISTED = "Unlisted"


@dataclass(frozen=True)
class VendorRecord:
    """A registered vendor and the OUIs assigned to it."""

    name: str
    ouis: Tuple[int, ...]

    def __post_init__(self) -> None:
        for oui in self.ouis:
            if not 0 <= oui <= 0xFFFFFF:
                raise ValueError(f"OUI out of range: {oui:#x}")


class OUIDatabase:
    """Registry mapping 24-bit OUIs to manufacturer names.

    >>> db = OUIDatabase()
    >>> db.register("Example Corp", [0x001122])
    >>> db.lookup_mac(0x001122_334455)
    'Example Corp'
    >>> db.lookup_mac(0xf00220_000001) is None
    True
    """

    def __init__(self) -> None:
        self._by_oui: Dict[int, str] = {}
        self._by_vendor: Dict[str, List[int]] = {}

    def register(self, vendor: str, ouis: Iterable[int]) -> None:
        """Assign OUIs to a vendor; re-registering an OUI is an error."""
        if not vendor or vendor == UNLISTED:
            raise ValueError(f"invalid vendor name: {vendor!r}")
        for oui in ouis:
            if not 0 <= oui <= 0xFFFFFF:
                raise ValueError(f"OUI out of range: {oui:#x}")
            existing = self._by_oui.get(oui)
            if existing is not None and existing != vendor:
                raise ValueError(
                    f"OUI {oui:06x} already registered to {existing!r}"
                )
            self._by_oui[oui] = vendor
            self._by_vendor.setdefault(vendor, []).append(oui)

    def lookup_oui(self, oui: int) -> Optional[str]:
        """Vendor name for an OUI, or ``None`` when unlisted."""
        return self._by_oui.get(oui & 0xFFFFFF)

    def lookup_mac(self, mac: int) -> Optional[str]:
        """Vendor name for a full MAC address, or ``None`` when unlisted."""
        return self.lookup_oui(oui_of(mac))

    def ouis_of(self, vendor: str) -> Tuple[int, ...]:
        """All OUIs registered to ``vendor`` (empty when unknown)."""
        return tuple(self._by_vendor.get(vendor, ()))

    def vendors(self) -> Tuple[str, ...]:
        """All registered vendor names, in registration order."""
        return tuple(self._by_vendor)

    def __len__(self) -> int:
        return len(self._by_oui)

    def __contains__(self, oui: int) -> bool:
        return (oui & 0xFFFFFF) in self._by_oui


def manufacturer_counts(
    macs: Iterable[int], database: OUIDatabase
) -> Counter:
    """Tally unique-MAC counts per manufacturer, as in Table 2.

    MACs whose OUI is not registered are attributed to :data:`UNLISTED`.
    Callers should pass *unique* MACs (the paper counts distinct MACs);
    this function tallies whatever it is given.
    """
    counts: Counter = Counter()
    for mac in macs:
        vendor = database.lookup_mac(mac)
        counts[vendor if vendor is not None else UNLISTED] += 1
    return counts


# --- default registry -----------------------------------------------------

# Vendors from the paper's Table 2, plus AVM (drives the §5.3 geolocation
# result) and a few common infrastructure vendors for router interfaces.
# OUI values are synthetic except for a handful the paper names.
_DEFAULT_VENDORS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("Amazon Technologies Inc.", (0x747548, 0x0C47C9, 0x44650D, 0xF0272D)),
    ("Samsung Electronics Co.,Ltd", (0x8C7712, 0xA02195, 0xC819F7, 0x503275)),
    ("Sonos, Inc.", (0x000E58, 0x5CAAFD, 0x949F3E)),
    ("vivo Mobile Communication Co., Ltd.", (0x2C3796, 0xA89675)),
    ("Sunnovo International Limited", (0x4CEFC0, 0x78D38D)),
    ("Hui Zhou Gaoshengda Technology Co.,LTD", (0x0CB527, 0x88D7F6)),
    ("Huawei Technologies", (0x00E0FC, 0x480031, 0xACE215, 0x781DBA)),
    ("Shenzhen Chuangwei-RGB Electronics", (0x08E609, 0xD437D7)),
    (
        "Skyworth Digital Technology (Shenzhen) Co.,Ltd",
        (0x18C5E1, 0xD82918),
    ),
    # AVM gets a deliberately small OUI set so per-OUI MAC populations
    # stay above the offset-inference pair threshold at simulation scale
    # (the real AVM spreads across ~10 OUIs but at 1e6x our volume).
    ("AVM GmbH", (0x3810D5, 0xC80E14)),
    ("Apple, Inc.", (0xF01898, 0xA4D1D2, 0x28F076)),
    ("Intel Corporate", (0x3C5282, 0x8086F2)),
    ("Cisco Systems, Inc", (0x00000C, 0x58971E)),
    ("Juniper Networks", (0x2C6BF5, 0x80711F)),
    ("TP-Link Technologies Co.,Ltd.", (0x50C7BF, 0xB0BE76)),
    ("Xiaomi Communications Co Ltd", (0x64B473, 0xF8A45F)),
    ("LG Electronics", (0xA8922C, 0xCCFA00)),
    ("Espressif Inc.", (0x240AC4, 0x30AEA4)),
)

#: Unlisted OUI space observed in the paper (not in the IEEE registry).
#: ``f0:02:20`` is the paper's most common unlisted OUI; ``a8:aa:20``
#: appears in its Figure 7a renumbering exemplar.
DEFAULT_UNLISTED_OUIS: Tuple[int, ...] = (
    0xF00220,
    0xA8AA20,
    0xF00221,
    0xD00E99,
    0x7A1100,
    0x02BAD0,
)


def default_oui_database() -> OUIDatabase:
    """Build the registry used throughout the reproduction.

    Contains every Table 2 vendor plus AVM and common infrastructure
    vendors.  The OUIs in :data:`DEFAULT_UNLISTED_OUIS` are deliberately
    *not* registered; the world model assigns them to devices so the
    "Unlisted" phenomenon of Table 2 emerges naturally.
    """
    database = OUIDatabase()
    for vendor, ouis in _DEFAULT_VENDORS:
        database.register(vendor, ouis)
    return database

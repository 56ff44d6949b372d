"""MAC (EUI-48) address handling.

MAC addresses enter the paper in two places: they are *embedded* in EUI-64
IPv6 interface identifiers (§5.1), and — for the geolocation attack (§5.3)
— a device's wired MAC is linked to its WiFi access point's BSSID by a
small per-vendor integer *offset*.  This module provides a 48-bit-int MAC
representation with OUI extraction, the Universal/Local bit manipulation
EUI-64 requires, and the arithmetic used by the offset-inference step.
"""

from __future__ import annotations

import re

__all__ = [
    "MAX_MAC",
    "UL_BIT",
    "MULTICAST_BIT",
    "parse_mac",
    "format_mac",
    "oui_of",
    "nic_of",
    "with_nic",
    "flip_ul_bit",
    "is_locally_administered",
    "is_multicast_mac",
    "mac_offset",
    "apply_offset",
    "MACAddress",
]

#: Largest representable 48-bit MAC address.
MAX_MAC = (1 << 48) - 1

#: The Universal/Local bit: second-least-significant bit of the first byte.
UL_BIT = 1 << 41

#: The Individual/Group (multicast) bit: least-significant bit, first byte.
MULTICAST_BIT = 1 << 40

#: Number of NIC-specific (non-OUI) bits.
_NIC_BITS = 24
_NIC_MASK = (1 << _NIC_BITS) - 1

_MAC_RE = re.compile(
    r"^([0-9a-fA-F]{2})[:\-]([0-9a-fA-F]{2})[:\-]([0-9a-fA-F]{2})"
    r"[:\-]([0-9a-fA-F]{2})[:\-]([0-9a-fA-F]{2})[:\-]([0-9a-fA-F]{2})$"
)


def parse_mac(text: str) -> int:
    """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-``-separated) into a 48-bit int."""
    match = _MAC_RE.match(text)
    if match is None:
        raise ValueError(f"not a MAC address: {text!r}")
    value = 0
    for group in match.groups():
        value = (value << 8) | int(group, 16)
    return value


def format_mac(value: int) -> str:
    """Render a 48-bit int as lowercase colon-separated MAC text."""
    if not 0 <= value <= MAX_MAC:
        raise ValueError(f"MAC out of range: {value!r}")
    raw = value.to_bytes(6, "big")
    return ":".join(f"{byte:02x}" for byte in raw)


def oui_of(value: int) -> int:
    """Return the 24-bit Organizationally Unique Identifier (top 3 bytes)."""
    return (value >> _NIC_BITS) & 0xFFFFFF


def nic_of(value: int) -> int:
    """Return the 24-bit NIC-specific part (bottom 3 bytes)."""
    return value & _NIC_MASK


def with_nic(oui: int, nic: int) -> int:
    """Combine a 24-bit OUI and a 24-bit NIC part into one MAC."""
    if not 0 <= oui <= 0xFFFFFF:
        raise ValueError(f"OUI out of range: {oui!r}")
    if not 0 <= nic <= _NIC_MASK:
        raise ValueError(f"NIC part out of range: {nic!r}")
    return (oui << _NIC_BITS) | nic


def flip_ul_bit(value: int) -> int:
    """Invert the Universal/Local bit, as EUI-64 construction requires."""
    return value ^ UL_BIT


def is_locally_administered(value: int) -> bool:
    """True when the U/L bit is set (locally administered address)."""
    return bool(value & UL_BIT)


def is_multicast_mac(value: int) -> bool:
    """True when the I/G bit is set (group / multicast address)."""
    return bool(value & MULTICAST_BIT)


def mac_offset(wired: int, wireless: int) -> int:
    """Signed NIC-part offset from a wired MAC to a wireless one.

    Both MACs must share an OUI; vendors typically assign a device's radio
    MAC at a small fixed offset from its wired MAC, which is exactly the
    structure the §5.3 offset-inference step recovers.  The offset is
    computed modulo the 24-bit NIC space and mapped into
    ``[-2**23, 2**23)`` so small negative offsets stay small.
    """
    if oui_of(wired) != oui_of(wireless):
        raise ValueError("offset is only defined within a single OUI")
    delta = (nic_of(wireless) - nic_of(wired)) % (1 << _NIC_BITS)
    if delta >= 1 << (_NIC_BITS - 1):
        delta -= 1 << _NIC_BITS
    return delta


def apply_offset(wired: int, offset: int) -> int:
    """Apply a signed NIC-part offset, wrapping inside the same OUI."""
    nic = (nic_of(wired) + offset) % (1 << _NIC_BITS)
    return with_nic(oui_of(wired), nic)


class MACAddress:
    """Immutable MAC value object over the 48-bit-int representation.

    >>> m = MACAddress("00:11:22:33:44:55")
    >>> f"{m.oui:06x}"
    '001122'
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, MACAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= MAX_MAC:
                raise ValueError(f"MAC out of range: {value!r}")
            self._value = value
        elif isinstance(value, str):
            self._value = parse_mac(value)
        else:
            raise TypeError(f"cannot build MACAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The 48-bit integer form."""
        return self._value

    @property
    def oui(self) -> int:
        """The 24-bit OUI."""
        return oui_of(self._value)

    @property
    def nic(self) -> int:
        """The 24-bit NIC-specific part."""
        return nic_of(self._value)

    def offset_to(self, other: "MACAddress") -> int:
        """Signed same-OUI offset from this MAC to ``other``."""
        return mac_offset(self._value, other._value)

    def shifted(self, offset: int) -> "MACAddress":
        """Return the MAC at ``offset`` within the same OUI."""
        return MACAddress(apply_offset(self._value, offset))

    def __str__(self) -> str:
        return format_mac(self._value)

    def __repr__(self) -> str:
        return f"MACAddress('{format_mac(self._value)}')"

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, MACAddress):
            return self._value < other._value
        if isinstance(other, int):
            return self._value < other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

"""NTP v4 packet wire format (RFC 5905 §7.3).

The 48-byte NTP header, packed and parsed with :mod:`struct`.  The
collection pipeline operates on real mode-3 (client) and mode-4 (server)
packets so that the vantage-point code exercises genuine
serialize/validate/respond paths rather than passing Python objects
around.

Only the header is modelled; extension fields and the MAC trailer are out
of scope (the NTP Pool's public service does not require them, and the
paper records nothing beyond source addresses and timing).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum

__all__ = ["Mode", "LeapIndicator", "NTPPacket", "PACKET_LENGTH", "NTP_VERSION"]

#: Length of the fixed NTP header in bytes.
PACKET_LENGTH = 48

#: The protocol version this library speaks.
NTP_VERSION = 4

_HEADER = struct.Struct(">BBbb II 4s QQQQ")


class Mode(IntEnum):
    """NTP association modes (RFC 5905 figure 10)."""

    RESERVED = 0
    SYMMETRIC_ACTIVE = 1
    SYMMETRIC_PASSIVE = 2
    CLIENT = 3
    SERVER = 4
    BROADCAST = 5
    CONTROL = 6
    PRIVATE = 7


class LeapIndicator(IntEnum):
    """Leap-second warning field."""

    NO_WARNING = 0
    LAST_MINUTE_61 = 1
    LAST_MINUTE_59 = 2
    UNSYNCHRONIZED = 3


@dataclass(frozen=True)
class NTPPacket:
    """One parsed (or to-be-serialized) NTP header.

    Timestamps are 64-bit NTP format integers (see
    :mod:`repro.ntp.timestamps`); ``root_delay`` and ``root_dispersion``
    are 32-bit NTP shorts.
    """

    leap: LeapIndicator = LeapIndicator.NO_WARNING
    version: int = NTP_VERSION
    mode: Mode = Mode.CLIENT
    stratum: int = 0
    poll: int = 6
    precision: int = -20
    root_delay: int = 0
    root_dispersion: int = 0
    reference_id: bytes = b"\x00\x00\x00\x00"
    reference_timestamp: int = 0
    origin_timestamp: int = 0
    receive_timestamp: int = 0
    transmit_timestamp: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.version <= 7:
            raise ValueError(f"bad NTP version: {self.version}")
        if not 0 <= self.stratum <= 255:
            raise ValueError(f"bad stratum: {self.stratum}")
        if not -128 <= self.poll <= 127:
            raise ValueError(f"bad poll exponent: {self.poll}")
        if not -128 <= self.precision <= 127:
            raise ValueError(f"bad precision exponent: {self.precision}")
        if len(self.reference_id) != 4:
            raise ValueError("reference_id must be exactly 4 bytes")
        for name in (
            "root_delay",
            "root_dispersion",
        ):
            value = getattr(self, name)
            if not 0 <= value < (1 << 32):
                raise ValueError(f"{name} out of range: {value}")
        for name in (
            "reference_timestamp",
            "origin_timestamp",
            "receive_timestamp",
            "transmit_timestamp",
        ):
            value = getattr(self, name)
            if not 0 <= value < (1 << 64):
                raise ValueError(f"{name} out of range: {value}")

    def pack(self) -> bytes:
        """Serialize to the 48-byte wire form."""
        first = (int(self.leap) << 6) | (self.version << 3) | int(self.mode)
        return _HEADER.pack(
            first,
            self.stratum,
            self.poll,
            self.precision,
            self.root_delay,
            self.root_dispersion,
            self.reference_id,
            self.reference_timestamp,
            self.origin_timestamp,
            self.receive_timestamp,
            self.transmit_timestamp,
        )

    @classmethod
    def parse(cls, data: bytes) -> "NTPPacket":
        """Parse the first 48 bytes of ``data`` into a packet.

        Raises ``ValueError`` for short datagrams and for non-bytes
        input — never ``struct.error`` or ``TypeError``, so serve paths
        can treat ``ValueError`` as the complete "malformed datagram"
        contract.  Extra bytes (extension fields / MAC) are ignored, as
        a tolerant server would.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ValueError(
                f"datagram must be bytes-like, not {type(data).__name__}"
            )
        if len(data) < PACKET_LENGTH:
            raise ValueError(
                f"datagram too short for NTP: {len(data)} < {PACKET_LENGTH}"
            )
        (
            first,
            stratum,
            poll,
            precision,
            root_delay,
            root_dispersion,
            reference_id,
            reference_timestamp,
            origin_timestamp,
            receive_timestamp,
            transmit_timestamp,
        ) = _HEADER.unpack_from(data)
        return cls(
            leap=LeapIndicator((first >> 6) & 0x3),
            version=(first >> 3) & 0x7,
            mode=Mode(first & 0x7),
            stratum=stratum,
            poll=poll,
            precision=precision,
            root_delay=root_delay,
            root_dispersion=root_dispersion,
            reference_id=reference_id,
            reference_timestamp=reference_timestamp,
            origin_timestamp=origin_timestamp,
            receive_timestamp=receive_timestamp,
            transmit_timestamp=transmit_timestamp,
        )

    def is_valid_request(self) -> bool:
        """True for a packet a public time server should answer."""
        return self.mode is Mode.CLIENT and 1 <= self.version <= NTP_VERSION

    def with_fields(self, **overrides) -> "NTPPacket":
        """Return a copy with the given header fields replaced."""
        return replace(self, **overrides)

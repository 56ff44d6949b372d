"""DHCPv6 NTP server option (RFC 5908) wire format.

The paper notes (§2.3) that NTP servers "can additionally be specified
via DHCP and DHCPv6 options" — this is how ISPs point CPE at their own
time service, the behaviour modelled by
``WorldConfig.cpe_isp_ntp_probability``.  This module implements the
actual RFC 5908 encoding so the provisioning path is wire-real:

* ``OPTION_NTP_SERVER`` (56) carries one or more suboptions;
* ``NTP_SUBOPTION_SRV_ADDR`` (1) — a 16-byte IPv6 server address;
* ``NTP_SUBOPTION_MC_ADDR`` (2) — a 16-byte multicast address;
* ``NTP_SUBOPTION_SRV_FQDN`` (3) — a DNS-encoded server name (how a
  pool zone like ``pool.ntp.org`` is provisioned).

All encoders produce the option *payload*; the enclosing DHCPv6
option-code/len framing is included so payloads round-trip through
:func:`parse_ntp_option` exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Union

__all__ = [
    "OPTION_NTP_SERVER",
    "NTP_SUBOPTION_SRV_ADDR",
    "NTP_SUBOPTION_MC_ADDR",
    "NTP_SUBOPTION_SRV_FQDN",
    "NTPServerAddress",
    "NTPMulticastAddress",
    "NTPServerFQDN",
    "encode_ntp_option",
    "parse_ntp_option",
    "encode_fqdn",
    "parse_fqdn",
]

#: DHCPv6 option code for the NTP server option (RFC 5908 §4).
OPTION_NTP_SERVER = 56

NTP_SUBOPTION_SRV_ADDR = 1
NTP_SUBOPTION_MC_ADDR = 2
NTP_SUBOPTION_SRV_FQDN = 3

_HEADER = struct.Struct(">HH")


@dataclass(frozen=True)
class NTPServerAddress:
    """A unicast NTP server address suboption."""

    address: int

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << 128):
            raise ValueError(f"address out of range: {self.address:#x}")

    def encode(self) -> bytes:
        return _HEADER.pack(NTP_SUBOPTION_SRV_ADDR, 16) + self.address.to_bytes(
            16, "big"
        )


@dataclass(frozen=True)
class NTPMulticastAddress:
    """A multicast NTP address suboption."""

    address: int

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << 128):
            raise ValueError(f"address out of range: {self.address:#x}")
        if (self.address >> 120) != 0xFF:
            raise ValueError("multicast suboption needs an ff00::/8 address")

    def encode(self) -> bytes:
        return _HEADER.pack(NTP_SUBOPTION_MC_ADDR, 16) + self.address.to_bytes(
            16, "big"
        )


@dataclass(frozen=True)
class NTPServerFQDN:
    """A server-name suboption (RFC 1035 §3.1 label encoding)."""

    name: str

    def __post_init__(self) -> None:
        # Validate eagerly: encode_fqdn raises on bad labels.
        encode_fqdn(self.name)

    def encode(self) -> bytes:
        wire = encode_fqdn(self.name)
        return _HEADER.pack(NTP_SUBOPTION_SRV_FQDN, len(wire)) + wire


Suboption = Union[NTPServerAddress, NTPMulticastAddress, NTPServerFQDN]


def encode_fqdn(name: str) -> bytes:
    """Encode a domain name as RFC 1035 length-prefixed labels."""
    if not name or name == ".":
        raise ValueError("empty domain name")
    wire = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not 1 <= len(raw) <= 63:
            raise ValueError(f"bad label in domain name: {label!r}")
        wire.append(len(raw))
        wire.extend(raw)
    wire.append(0)
    if len(wire) > 255:
        raise ValueError("domain name too long")
    return bytes(wire)


def parse_fqdn(wire: bytes) -> str:
    """Decode RFC 1035 labels back into dotted text."""
    labels: List[str] = []
    index = 0
    while True:
        if index >= len(wire):
            raise ValueError("truncated domain name")
        length = wire[index]
        index += 1
        if length == 0:
            break
        if length > 63:
            raise ValueError(f"bad label length: {length}")
        if index + length > len(wire):
            raise ValueError("truncated label")
        labels.append(wire[index:index + length].decode("ascii"))
        index += length
    if index != len(wire):
        raise ValueError("trailing bytes after domain name")
    if not labels:
        raise ValueError("empty domain name")
    return ".".join(labels)


def encode_ntp_option(suboptions: List[Suboption]) -> bytes:
    """Encode a full OPTION_NTP_SERVER with framing.

    RFC 5908 requires at least one suboption.
    """
    if not suboptions:
        raise ValueError("RFC 5908 requires at least one suboption")
    payload = b"".join(suboption.encode() for suboption in suboptions)
    return _HEADER.pack(OPTION_NTP_SERVER, len(payload)) + payload


def parse_ntp_option(wire: bytes) -> List[Suboption]:
    """Parse an OPTION_NTP_SERVER (with framing) into suboptions.

    Unknown suboption codes are rejected — a provisioning daemon must
    not silently mis-sync a client's clock source.
    """
    if len(wire) < _HEADER.size:
        raise ValueError("truncated DHCPv6 option")
    code, length = _HEADER.unpack_from(wire)
    if code != OPTION_NTP_SERVER:
        raise ValueError(f"not an NTP server option: code {code}")
    payload = wire[_HEADER.size:]
    if len(payload) != length:
        raise ValueError(
            f"option length mismatch: header says {length}, got {len(payload)}"
        )
    suboptions: List[Suboption] = []
    index = 0
    while index < len(payload):
        if index + _HEADER.size > len(payload):
            raise ValueError("truncated suboption header")
        sub_code, sub_length = _HEADER.unpack_from(payload, index)
        index += _HEADER.size
        body = payload[index:index + sub_length]
        if len(body) != sub_length:
            raise ValueError("truncated suboption body")
        index += sub_length
        if sub_code == NTP_SUBOPTION_SRV_ADDR:
            if sub_length != 16:
                raise ValueError("server-address suboption must be 16 bytes")
            suboptions.append(
                NTPServerAddress(int.from_bytes(body, "big"))
            )
        elif sub_code == NTP_SUBOPTION_MC_ADDR:
            if sub_length != 16:
                raise ValueError("multicast suboption must be 16 bytes")
            suboptions.append(
                NTPMulticastAddress(int.from_bytes(body, "big"))
            )
        elif sub_code == NTP_SUBOPTION_SRV_FQDN:
            suboptions.append(NTPServerFQDN(parse_fqdn(body)))
        else:
            raise ValueError(f"unknown NTP suboption code: {sub_code}")
    if not suboptions:
        raise ValueError("RFC 5908 requires at least one suboption")
    return suboptions

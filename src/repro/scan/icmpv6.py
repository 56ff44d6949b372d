"""ICMPv6 wire format (RFC 4443) for the probing tools.

ZMap6 and Yarrp speak ICMPv6: Echo Request probes, Echo Reply answers,
and hop discovery via Time Exceeded.  This module implements the
messages those tools emit and parse, including the RFC 4443 §2.3
checksum over the IPv6 pseudo-header — the part real implementations
get wrong most often, and the mechanism that lets a stateless scanner
validate that a reply matches a probe it actually sent (ZMap encodes
state in the identifier/sequence fields; Yarrp in the payload).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "ECHO_REQUEST",
    "ECHO_REPLY",
    "TIME_EXCEEDED",
    "DEST_UNREACHABLE",
    "icmpv6_checksum",
    "EchoMessage",
    "TimeExceededMessage",
    "parse_message",
]

ECHO_REQUEST = 128
ECHO_REPLY = 129
TIME_EXCEEDED = 3
DEST_UNREACHABLE = 1

_ECHO_HEADER = struct.Struct(">BBHHH")
_ERROR_HEADER = struct.Struct(">BBHI")


def icmpv6_checksum(
    source: int, destination: int, message: bytes
) -> int:
    """RFC 4443 §2.3 checksum: ones-complement sum over the IPv6
    pseudo-header (source, destination, upper-layer length, next header
    59=58) plus the ICMPv6 message with its checksum field zeroed."""
    if not 0 <= source < (1 << 128) or not 0 <= destination < (1 << 128):
        raise ValueError("addresses out of range")
    pseudo = (
        source.to_bytes(16, "big")
        + destination.to_bytes(16, "big")
        + len(message).to_bytes(4, "big")
        + b"\x00\x00\x00\x3a"  # zero padding + next header 58
    )
    data = pseudo + message
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += (data[index] << 8) | data[index + 1]
        total = (total & 0xFFFF) + (total >> 16)
    checksum = ~total & 0xFFFF
    # An all-zero checksum is transmitted as 0xFFFF (ones-complement).
    return checksum if checksum != 0 else 0xFFFF


@dataclass(frozen=True)
class EchoMessage:
    """Echo Request/Reply (types 128/129)."""

    is_request: bool
    identifier: int
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.identifier <= 0xFFFF:
            raise ValueError(f"identifier out of range: {self.identifier}")
        if not 0 <= self.sequence <= 0xFFFF:
            raise ValueError(f"sequence out of range: {self.sequence}")

    def pack(self, source: int, destination: int) -> bytes:
        """Serialize with a correct checksum for the given endpoints."""
        message_type = ECHO_REQUEST if self.is_request else ECHO_REPLY
        unchecked = (
            _ECHO_HEADER.pack(
                message_type, 0, 0, self.identifier, self.sequence
            )
            + self.payload
        )
        checksum = icmpv6_checksum(source, destination, unchecked)
        return (
            _ECHO_HEADER.pack(
                message_type, 0, checksum, self.identifier, self.sequence
            )
            + self.payload
        )

    def reply(self) -> "EchoMessage":
        """The Echo Reply a target generates: same id/seq/payload."""
        if not self.is_request:
            raise ValueError("only requests are replied to")
        return EchoMessage(
            is_request=False,
            identifier=self.identifier,
            sequence=self.sequence,
            payload=self.payload,
        )


@dataclass(frozen=True)
class TimeExceededMessage:
    """Time Exceeded (type 3): carries the expired packet's head."""

    invoking_packet: bytes

    def pack(self, source: int, destination: int) -> bytes:
        """Serialize; the invoking packet is truncated per RFC 4443 §3.3
        (as much as fits without exceeding the minimum MTU)."""
        body = self.invoking_packet[:1232 - _ERROR_HEADER.size]
        unchecked = _ERROR_HEADER.pack(TIME_EXCEEDED, 0, 0, 0) + body
        checksum = icmpv6_checksum(source, destination, unchecked)
        return _ERROR_HEADER.pack(TIME_EXCEEDED, 0, checksum, 0) + body


def parse_message(
    data: bytes, source: int, destination: int, verify: bool = True
):
    """Parse an ICMPv6 message; returns an Echo/TimeExceeded object.

    With ``verify`` (the default) the checksum is validated against the
    given endpoints — a stateless scanner must discard corrupt or
    spoofed replies.  Raises ``ValueError`` on anything malformed.
    """
    if len(data) < 4:
        raise ValueError("ICMPv6 message shorter than its header")
    message_type = data[0]
    if verify:
        zeroed = data[:2] + b"\x00\x00" + data[4:]
        expected = icmpv6_checksum(source, destination, zeroed)
        got = (data[2] << 8) | data[3]
        if got != expected:
            raise ValueError(
                f"checksum mismatch: got {got:#06x}, expected {expected:#06x}"
            )
    if message_type in (ECHO_REQUEST, ECHO_REPLY):
        if len(data) < _ECHO_HEADER.size:
            raise ValueError("echo message truncated")
        _type, code, _checksum, identifier, sequence = _ECHO_HEADER.unpack_from(
            data
        )
        if code != 0:
            raise ValueError(f"nonzero echo code: {code}")
        return EchoMessage(
            is_request=message_type == ECHO_REQUEST,
            identifier=identifier,
            sequence=sequence,
            payload=data[_ECHO_HEADER.size:],
        )
    if message_type == TIME_EXCEEDED:
        if len(data) < _ERROR_HEADER.size:
            raise ValueError("time-exceeded message truncated")
        return TimeExceededMessage(invoking_packet=data[_ERROR_HEADER.size:])
    raise ValueError(f"unsupported ICMPv6 type: {message_type}")

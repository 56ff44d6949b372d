"""Minimal DNS wire format (RFC 1035) for pool-zone resolution.

The NTP Pool steers clients entirely through DNS: a client resolves
``pool.ntp.org`` (or a vendor zone) and receives a geo-selected,
round-robin set of AAAA records.  This module implements the message
subset that exchange needs — query and response with AAAA answers —
so :meth:`repro.ntp.pool.NTPPool.handle_dns_query` can answer real
datagrams.

Scope: single-question queries, QTYPE AAAA, QCLASS IN, no name
compression on encode (compression pointers are rejected on parse with
a clear error, as the pool's own answers repeat the owner name).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from .dhcp import encode_fqdn, parse_fqdn

__all__ = [
    "QTYPE_AAAA",
    "QCLASS_IN",
    "DNSQuery",
    "DNSResponse",
    "build_query",
    "parse_query",
    "build_response",
    "parse_response",
]

QTYPE_AAAA = 28
QCLASS_IN = 1

_HEADER = struct.Struct(">HHHHHH")
_QR_BIT = 1 << 15
_RD_BIT = 1 << 8
_RA_BIT = 1 << 7


@dataclass(frozen=True)
class DNSQuery:
    """One parsed AAAA question."""

    qid: int
    qname: str

    def __post_init__(self) -> None:
        if not 0 <= self.qid <= 0xFFFF:
            raise ValueError(f"query id out of range: {self.qid}")
        encode_fqdn(self.qname)  # validates


@dataclass(frozen=True)
class DNSResponse:
    """A parsed AAAA response."""

    qid: int
    qname: str
    addresses: Tuple[int, ...]
    ttl: int


def build_query(qname: str, qid: int) -> bytes:
    """Serialize a recursion-desired AAAA query."""
    if not 0 <= qid <= 0xFFFF:
        raise ValueError(f"query id out of range: {qid}")
    header = _HEADER.pack(qid, _RD_BIT, 1, 0, 0, 0)
    return header + encode_fqdn(qname) + struct.pack(
        ">HH", QTYPE_AAAA, QCLASS_IN
    )


def _read_name(data: bytes, offset: int) -> Tuple[str, int]:
    """Read an uncompressed name; returns (name, next_offset)."""
    end = offset
    while True:
        if end >= len(data):
            raise ValueError("truncated name")
        length = data[end]
        if length & 0xC0:
            raise ValueError("compression pointers are not supported")
        end += 1 + length
        if length == 0:
            break
    return parse_fqdn(data[offset:end]), end


def parse_query(data: bytes) -> DNSQuery:
    """Parse a single-question AAAA query."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated DNS header")
    qid, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(data)
    if flags & _QR_BIT:
        raise ValueError("message is a response, not a query")
    if qdcount != 1:
        raise ValueError(f"expected one question, got {qdcount}")
    if ancount != 0:
        raise ValueError("query carries answers")
    qname, offset = _read_name(data, _HEADER.size)
    if offset + 4 > len(data):
        raise ValueError("truncated question")
    qtype, qclass = struct.unpack_from(">HH", data, offset)
    if qtype != QTYPE_AAAA:
        raise ValueError(f"unsupported qtype: {qtype}")
    if qclass != QCLASS_IN:
        raise ValueError(f"unsupported qclass: {qclass}")
    return DNSQuery(qid=qid, qname=qname)


def build_response(
    query: DNSQuery, addresses: List[int], ttl: int = 150
) -> bytes:
    """Serialize an authoritative-style answer to ``query``.

    TTL defaults to 150 s — the short TTL the pool uses so round-robin
    answers actually rotate.
    """
    if not 0 <= ttl < (1 << 31):
        raise ValueError(f"ttl out of range: {ttl}")
    for address in addresses:
        if not 0 <= address < (1 << 128):
            raise ValueError(f"address out of range: {address:#x}")
    flags = _QR_BIT | _RD_BIT | _RA_BIT
    header = _HEADER.pack(query.qid, flags, 1, len(addresses), 0, 0)
    name = encode_fqdn(query.qname)
    question = name + struct.pack(">HH", QTYPE_AAAA, QCLASS_IN)
    answers = b""
    for address in addresses:
        answers += name
        answers += struct.pack(">HHIH", QTYPE_AAAA, QCLASS_IN, ttl, 16)
        answers += address.to_bytes(16, "big")
    return header + question + answers


def parse_response(data: bytes) -> DNSResponse:
    """Parse an AAAA response built by :func:`build_response`."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated DNS header")
    qid, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(data)
    if not flags & _QR_BIT:
        raise ValueError("message is a query, not a response")
    if qdcount != 1:
        raise ValueError(f"expected one question, got {qdcount}")
    qname, offset = _read_name(data, _HEADER.size)
    offset += 4  # qtype + qclass
    addresses = []
    ttl = 0
    for _ in range(ancount):
        owner, offset = _read_name(data, offset)
        if owner != qname:
            raise ValueError("answer owner does not match the question")
        if offset + 10 > len(data):
            raise ValueError("truncated answer header")
        rtype, rclass, ttl, rdlength = struct.unpack_from(
            ">HHIH", data, offset
        )
        offset += 10
        if rtype != QTYPE_AAAA or rclass != QCLASS_IN:
            raise ValueError("unexpected answer type")
        if rdlength != 16 or offset + 16 > len(data):
            raise ValueError("bad AAAA rdata")
        addresses.append(int.from_bytes(data[offset:offset + 16], "big"))
        offset += 16
    if offset != len(data):
        raise ValueError("trailing bytes after answers")
    return DNSResponse(
        qid=qid, qname=qname, addresses=tuple(addresses), ttl=ttl
    )

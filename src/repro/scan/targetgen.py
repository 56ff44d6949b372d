"""Target generation for active IPv6 scanning.

Brute-force scanning is impossible in IPv6 (§2.1), so active campaigns
probe *candidate* addresses produced from what is already known:

* :func:`low_byte_candidates` — the operator-convention guesses (``::1``,
  ``::2``, …) that find routers and manually numbered servers;
* :func:`subnet_low_byte_candidates` — the same guesses across the first
  subnets of each /48, mirroring how target-generation tools walk the
  subnet dimension;
* :func:`pattern_candidates` — an entropy/ip-style structural learner:
  IIDs observed inside a /48 are recombined with that /48's other
  observed /64s (real devices in sibling subnets often share addressing
  conventions).

These generators are exactly why hitlists built on them skew toward
predictable, low-entropy addresses — the bias the paper quantifies.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Set

from ..addr.ipv6 import iid_of, prefix_of, slash48_of

__all__ = [
    "low_byte_candidates",
    "subnet_low_byte_candidates",
    "pattern_candidates",
]


def low_byte_candidates(
    prefixes48: Iterable[int], hosts: int = 2
) -> Iterator[int]:
    """Yield ``::1 … ::hosts`` of subnet 0 for each /48 base address."""
    if hosts < 1:
        raise ValueError("hosts must be >= 1")
    for base in prefixes48:
        base = slash48_of(base)
        for host in range(1, hosts + 1):
            yield base | host


def subnet_low_byte_candidates(
    prefixes48: Iterable[int], subnets: int = 4, hosts: int = 2
) -> Iterator[int]:
    """Yield low-byte guesses across the first ``subnets`` /64s per /48."""
    if subnets < 1:
        raise ValueError("subnets must be >= 1")
    if hosts < 1:
        raise ValueError("hosts must be >= 1")
    for base in prefixes48:
        base = slash48_of(base)
        for subnet in range(subnets):
            subnet_base = base | (subnet << 64)
            for host in range(1, hosts + 1):
                yield subnet_base | host


def pattern_candidates(
    seed_addresses: Iterable[int], max_per_slash48: int = 64
) -> Iterator[int]:
    """Recombine observed IIDs with sibling /64s inside each /48.

    For every /48 with at least two observed /64s, each observed IID is
    proposed in each *other* observed /64 — the cheapest useful form of
    structural target generation.  Seeds themselves are not re-emitted.
    Output per /48 is capped to keep candidate volume bounded.
    """
    if max_per_slash48 < 1:
        raise ValueError("max_per_slash48 must be >= 1")
    by_48: Dict[int, Set[int]] = defaultdict(set)
    for address in seed_addresses:
        by_48[slash48_of(address)].add(address)
    for block, addresses in by_48.items():
        prefixes = sorted({prefix_of(address) for address in addresses})
        if len(prefixes) < 2:
            continue
        iids = sorted({iid_of(address) for address in addresses})
        emitted = 0
        seen = addresses
        for iid in iids:
            for prefix in prefixes:
                candidate = prefix | iid
                if candidate in seen:
                    continue
                yield candidate
                emitted += 1
                if emitted >= max_per_slash48:
                    break
            if emitted >= max_per_slash48:
                break

"""Seeded inputs for the benchmark suite.

Every generator here is a pure function of its seed (string-seeded
``random.Random``, which does not depend on ``PYTHONHASHSEED``), so two
runs with one seed drive identical stores, request streams and arrival
schedules.  The program under test is consulted only for the synthetic
world's routing table, which places addresses inside announced space so
``origin`` answers are real longest-prefix matches.

The suite owns these generators on purpose: nothing is imported from
``benchmarks/bench_*.py``, so editing an ad-hoc bench cannot shift what
the suite measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

#: Serving-store size and shape.  Changing any of these changes what the
#: suite measures: do it only in a change that redefines the benchmark.
SERVE_ADDRESSES = 140_000
PER_SLASH64 = 24
BASE_SEGMENTS = 6
#: Share of addresses sighted again in a later base segment, so the
#: server's fold (min first, max last, summed count) has work to do.
RESEEN_SHARE = 0.05
FRESH_SEGMENT_ADDRESSES = 4_000
MISS_SHARE = 0.10

#: Point-workload op mix: 50% contains, 25% record, 25% origin.
POINT_OPS = ("contains", "contains", "record", "origin")
#: Bulk-workload ops, cycled batch by batch.
BULK_OPS = ("record", "origin", "contains", "features")
BULK_BATCH = 4096
BULK_DISTINCT_BATCHES = 32
#: Length of the cycled point request stream.
STREAM_LENGTH = 1 << 17

#: One corpus record: (address, first_seen, last_seen, count).
Record = Tuple[int, float, float, int]

_U64 = (1 << 64) - 1


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"suite-{purpose}-{seed}")


def routed_slash40s(routing) -> List[int]:
    """Network addresses of every /40 the routing table announces."""
    return sorted(
        item.prefix.network
        for item in routing.routed_prefixes()
        if item.prefix.length == 40
    )


def _iid(rng: random.Random, macs: Sequence[int]) -> int:
    kind = rng.random()
    if kind < 0.20:
        mac = rng.choice(macs)
        high = (mac >> 24) & 0xFFFFFF
        # Modified EUI-64: OUI, ff:fe marker, NIC, U/L bit flipped.
        return ((high << 40) | (0xFFFE << 24) | (mac & 0xFFFFFF)) ^ (
            1 << 57
        )
    if kind < 0.45:
        return rng.randrange(1, 1 << 16)
    if kind < 0.60:
        return rng.randrange(1 << 16, 1 << 32)
    return rng.getrandbits(64)


@dataclass
class ServingInputs:
    """A serving store's records plus the fresh segments reload commits."""

    base: List[List[Record]]
    fresh: List[List[Record]]
    hits: List[int]
    #: Every address any segment (base or fresh) holds.
    known: Set[int] = field(repr=False)


def serving_inputs(
    seed: int,
    slash40s: Sequence[int],
    *,
    addresses: int = SERVE_ADDRESSES,
    fresh_segments: int = 0,
    fresh_size: int = FRESH_SEGMENT_ADDRESSES,
) -> ServingInputs:
    """Synthetic records clustered ~``PER_SLASH64`` per /64 in ``slash40s``."""
    if not slash40s:
        raise ValueError("routing announces no /40 to place addresses in")
    rng = _rng(seed, "store")
    macs = [
        (rng.getrandbits(24) << 24) | rng.getrandbits(24)
        for _ in range(max(64, addresses // 150))
    ]
    count64 = max(1, -(-addresses // PER_SLASH64))
    slash64s: List[int] = []
    seen64: Set[int] = set()
    while len(slash64s) < count64:
        prefix = rng.choice(slash40s) | (rng.getrandbits(24) << 64)
        if prefix not in seen64:
            seen64.add(prefix)
            slash64s.append(prefix)

    known: Set[int] = set()

    def draw(position: int) -> Record:
        while True:
            address = slash64s[position % count64] | _iid(rng, macs)
            if address not in known:
                known.add(address)
                break
        first = rng.uniform(0.0, 8e6)
        last = first + rng.uniform(0.0, 8e6)
        return address, first, last, 1 + rng.randrange(5)

    base: List[List[Record]] = [[] for _ in range(BASE_SEGMENTS)]
    hits: List[int] = []
    for position in range(addresses):
        record = draw(position)
        hits.append(record[0])
        segment = position % BASE_SEGMENTS
        base[segment].append(record)
        if segment + 1 < BASE_SEGMENTS and rng.random() < RESEEN_SHARE:
            first = rng.uniform(0.0, 1.6e7)
            base[rng.randrange(segment + 1, BASE_SEGMENTS)].append(
                (record[0], first, first + rng.uniform(0.0, 1e6), 1)
            )
    fresh = [
        [draw(rng.randrange(count64)) for _ in range(fresh_size)]
        for _ in range(fresh_segments)
    ]
    return ServingInputs(base, fresh, hits, known)


def _miss(rng: random.Random, inputs: ServingInputs) -> int:
    """An address no segment holds: a /128, /64 or /48 miss."""
    while True:
        base = rng.choice(inputs.hits)
        shape = rng.randrange(3)
        if shape == 0:
            address = (base & ~_U64) | rng.getrandbits(64)
        elif shape == 1:
            address = base ^ (rng.randrange(1, 1 << 16) << 64)
        else:
            address = base ^ (rng.randrange(1, 1 << 8) << 80)
        if address not in inputs.known:
            return address


def _key(rng: random.Random, inputs: ServingInputs) -> int:
    if rng.random() < MISS_SHARE:
        return _miss(rng, inputs)
    return rng.choice(inputs.hits)


def point_stream(
    seed: int, inputs: ServingInputs, length: int = STREAM_LENGTH
) -> Tuple[List[str], List[int]]:
    """``(ops, addresses)``: the cycled single-address request stream."""
    rng = _rng(seed, "point")
    ops = [rng.choice(POINT_OPS) for _ in range(length)]
    return ops, [_key(rng, inputs) for _ in range(length)]


def bulk_batches(
    seed: int,
    inputs: ServingInputs,
    *,
    count: int = BULK_DISTINCT_BATCHES,
    size: int = BULK_BATCH,
) -> List[Tuple[str, List[int]]]:
    """``count`` distinct ``(op, addresses)`` batches, ops cycling."""
    rng = _rng(seed, "bulk")
    return [
        (BULK_OPS[n % len(BULK_OPS)], [_key(rng, inputs) for _ in range(size)])
        for n in range(count)
    ]


def poisson_offsets(
    seed: int, rate: float, duration: float, purpose: str = "arrivals"
) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        raise ValueError(f"need rate > 0 and duration > 0: {rate}, {duration}")
    rng = _rng(seed, purpose)
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets

"""Shared fixtures for serving-layer tests.

One deterministic segmented corpus (several segments, duplicates across
segment boundaries, EUI-64 and structured and random IIDs), a routing
table with genuinely nested announcements (a covering /32, more-specific
/48 and /64, and a longer-than-/64 /80), and the in-process ground
truth every serving answer is pinned against: :class:`CorpusIndex`
built from the folded corpus plus :meth:`RoutingTable.origin_asn`.

A wide store (:func:`write_wide_store`) backs the memory pins, which
read a mapping's resident bytes from ``/proc/<pid>/smaps``
(:func:`mapped_rss`).
"""

import os
import random

import pytest

from repro.addr.eui64 import mac_to_iid
from repro.addr.ipv6 import with_iid
from repro.core.corpus import AddressCorpus
from repro.core.index import CorpusIndex
from repro.core.segments import SegmentStore, SegmentedCorpusReader
from repro.net.prefixes import Prefix
from repro.net.routing import RoutingTable

BLOCKS = [(0x2001 << 112) | (block << 96) for block in range(1, 4)]
MACS = [0x0011_22_00_00_00 + n for n in range(6)]


def _make_events(seed=7, per_segment=120, segments=3):
    """Deterministic sightings: (address, when) lists, one per segment."""
    rng = random.Random(seed)
    out = []
    for seg in range(segments):
        events = []
        for _ in range(per_segment):
            block = rng.choice(BLOCKS)
            prefix = block | (rng.randrange(4) << 80) | (
                rng.randrange(3) << 64
            )
            kind = rng.randrange(4)
            if kind == 0:
                iid = mac_to_iid(rng.choice(MACS))
            elif kind == 1:
                iid = rng.randrange(0x100)  # low / structured
            elif kind == 2:
                iid = 0
            else:
                iid = rng.randrange(1 << 64)  # high-entropy
            when = seg * 7 * 86400.0 + rng.randrange(7 * 86400)
            events.append((with_iid(prefix, iid), when))
        out.append(events)
    return out


def write_serve_store(directory, seed=7, per_segment=120, segments=3):
    """Seal a deterministic multi-segment store under ``directory``."""
    store = SegmentStore(directory, name="serve")
    metas = []
    for number, events in enumerate(
        _make_events(seed, per_segment, segments)
    ):
        corpus = AddressCorpus("serve")
        for address, when in events:
            corpus.record(address, when)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"seg-{number:03d}",
                start_day=number * 7,
                end_day=(number + 1) * 7,
            )
        )
    store.commit(metas, completed_weeks=segments)
    return store


#: Rows of :func:`write_wide_store`: an RSI1 index of about 3 MiB, so
#: twelve check buffers, the last one partial.
WIDE_ROWS = 48_000

#: Rows per segment of :func:`write_wide_store`: every ``.seg`` and
#: ``.idx`` fits one check buffer, so the index is the one file whose
#: check spans several.
WIDE_SEGMENT_ROWS = 4_000


def write_wide_store(directory, rows=WIDE_ROWS):
    """Seal ``rows`` distinct addresses under ``directory``, in segments
    of :data:`WIDE_SEGMENT_ROWS`; returns the store and the addresses,
    ascending."""
    store = SegmentStore(directory, name="serve")
    addresses = [
        (0x2001 << 112) | (4 << 96) | (n << 64) | (n * 7919 + 1)
        for n in range(rows)
    ]
    metas = []
    for start in range(0, rows, WIDE_SEGMENT_ROWS):
        corpus = AddressCorpus("serve")
        for n in range(start, min(start + WIDE_SEGMENT_ROWS, rows)):
            corpus.record(addresses[n], float(n))
        number = len(metas)
        metas.append(
            store.write_segment(
                corpus,
                segment_id=f"seg-wide-{number:03d}",
                start_day=7 * number,
                end_day=7 * number + 7,
            )
        )
    store.commit(metas, completed_weeks=len(metas))
    return store, addresses


#: Linux lists every mapping, with its resident bytes, in smaps.
HAS_SMAPS = os.path.exists("/proc/self/smaps")


def mapped_rss(prefix, pid="self"):
    """``{path: resident bytes}`` over ``pid``'s mappings of the files
    whose path starts with ``prefix``; a replaced (unlinked) file is
    listed under its path plus ``" (deleted)"``."""
    rss = {}
    name = ""
    with open(f"/proc/{pid}/smaps") as smaps:
        for line in smaps:
            key, _, value = line.partition(" ")
            if not key.endswith(":"):  # "start-end perms offset dev inode path"
                fields = line.rstrip("\n").split(maxsplit=5)
                name = fields[5] if len(fields) > 5 else ""
            elif key == "Rss:" and name.startswith(str(prefix)):
                rss[name] = rss.get(name, 0) + int(value.split()[0]) * 1024
    return rss


def make_routing():
    """Nested announcements exercising real LPM resolution."""
    table = RoutingTable()
    base = 0x2001 << 112
    # Covering /32 over all of 2001:0001::/32 .. 2001:0003::/32.
    table.announce(Prefix(base | (1 << 96), 32), 64500)
    table.announce(Prefix(base | (2 << 96), 32), 64501)
    # More-specific /48 inside block 1.
    table.announce(Prefix(base | (1 << 96) | (2 << 80), 48), 64510)
    # More-specific /64 inside that /48.
    table.announce(
        Prefix(base | (1 << 96) | (2 << 80) | (1 << 64), 64), 64511
    )
    # Longer-than-/64 announcement (an /80) inside block 2.
    table.announce(
        Prefix(base | (2 << 96) | (3 << 80) | (2 << 64), 80), 64520
    )
    # Block 3 stays unannounced: origin queries there return None.
    return table


def query_addresses(corpus_addresses):
    """Every corpus address plus misses of every interesting shape."""
    present = sorted(corpus_addresses)
    base = 0x2001 << 112
    absent = [
        0,
        (1 << 128) - 1,
        base,  # routed-ish but not in the corpus
        present[0] ^ 1,  # same /64, different IID (usually absent)
        base | (9 << 96),  # absent /48 and /64
        base | (2 << 96) | (3 << 80) | (2 << 64) | 5,  # inside the /80
    ]
    queries = present + [a for a in absent if a not in set(present)]
    return queries


@pytest.fixture(scope="module")
def serve_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-store")
    write_serve_store(directory)
    return directory


@pytest.fixture(scope="module")
def routing():
    return make_routing()


@pytest.fixture(scope="module")
def ground_truth(serve_dir):
    """Cold-built CorpusIndex over the folded corpus (the oracle)."""
    corpus = SegmentedCorpusReader.open(serve_dir).load()
    return CorpusIndex.build(corpus)


@pytest.fixture(scope="module")
def queries(ground_truth):
    return query_addresses(ground_truth.addresses)

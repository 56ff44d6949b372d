"""Equivalence property tests for the columnar corpus index.

Every aggregate a :class:`CorpusIndex` (or an index-carrying corpus)
serves must be *exactly* equal to the naive per-figure recomputation over
the raw record store — including origin resolution through
:class:`CachedOrigins` against a routing table that announces prefixes
more specific than /64 (the memoization's correctness edge case).

The strategy builds corpora the way the study produces them: a few
routed /32s carrying /48 and /64 sub-announcements (plus occasional /80
and /112 ones), addresses clustered into few /64s, IIDs drawn from the
paper's pattern families (zeroes, low-byte, EUI-64 with MAC reuse across
/64s, random) — so every column and aggregate is exercised.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.eui64 import mac_to_iid
from repro.addr.ipv6 import with_iid
from repro.core.categories import (
    category_composition,
    top_as_entropy_distributions,
)
from repro.core.compare import compare_datasets
from repro.core.corpus import AddressCorpus
from repro.core.index import (
    NO_MAC,
    CachedOrigins,
    CorpusIndex,
    PartialIndexColumns,
)
from repro.core.lifetime import eui64_iid_lifetimes, iid_lifetimes_by_entropy
from repro.core.tracking import analyze_tracking
from repro.net.prefixes import Prefix
from repro.net.routing import RoutingTable

# A handful of /32 blocks the generator announces and draws /64s from.
BLOCKS = [(0x2001 << 112) | (block << 96) for block in range(1, 7)]

# MAC pool small enough that MACs recur across /64s (the tracking case).
MACS = [0x0011_22_00_00_00 + n for n in range(12)]

IIDS = st.one_of(
    st.just(0),                                        # zeroes
    st.integers(min_value=1, max_value=0xFF),          # low byte
    st.integers(min_value=0x100, max_value=0xFFFF),    # low 2 bytes
    st.sampled_from(MACS).map(mac_to_iid),             # EUI-64
    st.integers(min_value=0, max_value=(1 << 32) - 1), # hex32-decodable
    st.integers(min_value=0, max_value=(1 << 64) - 1), # arbitrary
)

sightings = st.lists(
    st.tuples(
        st.sampled_from(BLOCKS),
        st.integers(min_value=0, max_value=5),   # /48 selector
        st.integers(min_value=0, max_value=3),   # /64 selector
        IIDS,
        st.floats(min_value=0.0, max_value=3e7, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
)


def build_corpus(name, events):
    corpus = AddressCorpus(name)
    for block, s48, s64, iid, when in events:
        prefix64 = block | (s48 << 80) | (s64 << 64)
        corpus.record(with_iid(prefix64, iid), when)
    return corpus


def build_table():
    """Announcements at /32, /48, /64 — and more specific than /64."""
    table = RoutingTable()
    for position, block in enumerate(BLOCKS[:-1]):  # last block unrouted
        table.announce(Prefix(block, 32), 64500 + position)
        table.announce(Prefix(block | (1 << 80), 48), 64600 + position)
        table.announce(Prefix(block | (2 << 80) | (1 << 64), 64), 64700 + position)
    # Longer-than-/64 announcements: carve address ranges *inside* /64s
    # that generated addresses actually fall into, so two addresses of
    # one /64 can resolve to different origins.
    hot64 = BLOCKS[0]  # the (s48=0, s64=0) /64 of the first block
    # The /80 covers every IID below 2**48 (all low-byte and low-2-byte
    # IIDs of that /64); the /112 covers part of the EUI-64 IID space.
    table.announce(Prefix(hot64, 80), 65001)
    table.announce(Prefix(hot64 | (0xFFFE << 32), 112), 65002)
    return table


def ipv4_origin(value):
    """Deterministic IPv4 origin stub for the embedding acceptance rule."""
    return 64500 + (value % 4)


def naive_aggregates(corpus, origin):
    return {
        "len": len(corpus),
        "slash48s": corpus.slash48_set(),
        "slash64s": corpus.slash64_set(),
        "asn_counts": corpus.asn_counts(origin),
        "asn_set": corpus.asn_set(origin),
        "lifetimes": corpus.lifetimes(),
        # Mappings as item lists: first-occurrence order is compared too.
        "iid_intervals": list(corpus.iid_intervals().items()),
        "eui64_macs": list(corpus.eui64_mac_addresses().items()),
        "eui64_addresses": list(corpus.eui64_addresses()),
        "eui64_lifetimes": eui64_iid_lifetimes(corpus),
        "iid_lifetimes": iid_lifetimes_by_entropy(corpus),
        "categories": category_composition(
            corpus, origin, ipv4_origin,
            min_as_instances=1, min_as_fraction=0.0,
        ),
        "top_as_entropy": top_as_entropy_distributions(corpus, origin, top=3),
    }


class TestIndexEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(sightings)
    def test_index_aggregates_equal_naive(self, events):
        table = build_table()
        naive_corpus = build_corpus("naive", events)
        naive = naive_aggregates(naive_corpus, table.origin_asn)

        indexed_corpus = build_corpus("naive", events)
        origins = CachedOrigins.from_routing_table(table)
        indexed_corpus.build_index(origins)
        assert indexed_corpus.index is not None
        indexed = naive_aggregates(indexed_corpus, origins)

        assert naive == indexed

    @settings(max_examples=40, deadline=None)
    @given(sightings)
    def test_cached_origins_matches_raw_lpm_per_address(self, events):
        table = build_table()
        corpus = build_corpus("c", events)
        origins = CachedOrigins.from_routing_table(table)
        for address in corpus.addresses():
            assert origins(address) == table.origin_asn(address)
        # Second pass answers from the /64 cache, identically.
        for address in corpus.addresses():
            assert origins(address) == table.origin_asn(address)

    @settings(max_examples=40, deadline=None)
    @given(sightings, sightings)
    def test_tracking_and_comparison_equal_naive(self, ntp_events, other_events):
        table = build_table()
        country_pool = ("DE", "US", "JP", None)

        def run(indexed):
            ntp = build_corpus("ntp-pool", ntp_events)
            other = build_corpus("ipv6-hitlist", other_events)
            if indexed:
                origin = CachedOrigins.from_routing_table(table)
                ntp.build_index(origin)
                other.build_index(origin)
            else:
                origin = table.origin_asn

            def country_of(address):
                asn = origin(address)
                return None if asn is None else country_pool[asn % 4]

            tracking = analyze_tracking(ntp, origin, country_of)
            comparison = compare_datasets(ntp, [other], origin)
            return tracking, comparison.render()

        naive_tracking, naive_table = run(indexed=False)
        fast_tracking, fast_table = run(indexed=True)
        assert naive_table == fast_table
        assert naive_tracking.tracks == fast_tracking.tracks
        assert naive_tracking.classes == fast_tracking.classes
        assert naive_tracking.eui64_addresses == fast_tracking.eui64_addresses
        assert naive_tracking.multi_slash64_macs == fast_tracking.multi_slash64_macs


class TestLongerThanSlash64Announcements:
    """The CachedOrigins correctness condition, pinned deterministically."""

    def test_hot_slash64_resolves_per_address(self):
        table = RoutingTable()
        block = BLOCKS[0]
        table.announce(Prefix(block, 32), 64500)
        # An /80 announcement inside one /64: addresses of that /64 no
        # longer share an origin.
        table.announce(Prefix(block, 80), 65001)
        origins = CachedOrigins.from_routing_table(table)
        assert origins.hot_slash64s == {block}

        inside_80 = with_iid(block, 0x1234)            # covered by the /80
        outside_80 = with_iid(block, 1 << 60)          # only by the /32
        assert origins(inside_80) == 65001
        assert origins(outside_80) == 64500
        with pytest.raises(ValueError):
            origins.slash64_origin(block)

        corpus = AddressCorpus("hot")
        corpus.record(inside_80, 1.0)
        corpus.record(outside_80, 2.0)
        sibling64 = with_iid(block | (7 << 64), 5)     # cold /64, same /48
        corpus.record(sibling64, 3.0)

        naive = AddressCorpus("hot")
        for address, (first, last, count) in corpus.items():
            naive.record_interval(address, first, last, count)

        corpus.build_index(origins)
        assert corpus.asn_counts(origins) == naive.asn_counts(table.origin_asn)
        assert corpus.asn_counts(origins) == {65001: 1, 64500: 2}

    def test_slash112_hot_set_detection(self):
        table = build_table()
        origins = CachedOrigins.from_routing_table(table)
        # Both the /80 and the /112 land inside /64s of BLOCKS[0]; the
        # hot set keys them by their containing /64.
        assert BLOCKS[0] in origins.hot_slash64s
        assert all(key & ((1 << 64) - 1) == 0 for key in origins.hot_slash64s)


class TestIndexLifecycle:
    def test_mutation_drops_index(self):
        # An index is never patched: every kind of mutation drops it,
        # and rebuilding yields exactly a fresh build.
        corpus = build_corpus("c", [(BLOCKS[0], 0, 0, 5, 1.0)])
        mutations = [
            lambda: corpus.record(with_iid(BLOCKS[1], 9), 2.0),
            lambda: corpus.record_interval(with_iid(BLOCKS[2], 9), 1.0, 2.0),
            lambda: corpus.merge(
                build_corpus("d", [(BLOCKS[3], 1, 1, 7, 4.0)])
            ),
        ]
        for mutate in mutations:
            corpus.build_index()
            mutate()
            assert corpus.index is None
        rebuilt = corpus.build_index()
        fresh = CorpusIndex.build(corpus)
        assert rebuilt.addresses == fresh.addresses
        for name, _ in PartialIndexColumns.COLUMN_SPEC:
            assert (
                getattr(rebuilt, name).tobytes()
                == getattr(fresh, name).tobytes()
            ), name

    def test_attach_index_rejects_size_mismatch(self):
        corpus = build_corpus(
            "c", [(BLOCKS[0], 0, 0, 5, 1.0), (BLOCKS[1], 0, 0, 5, 1.0)]
        )
        index = CorpusIndex.build(corpus)
        corpus.record(with_iid(BLOCKS[2], 3), 1.0)
        with pytest.raises(ValueError):
            corpus.attach_index(index)

    def test_mac_column_sentinel(self):
        corpus = build_corpus(
            "c",
            [
                (BLOCKS[0], 0, 0, mac_to_iid(MACS[0]), 1.0),
                (BLOCKS[0], 0, 1, 42, 2.0),
            ],
        )
        index = CorpusIndex.build(corpus)
        macs = sorted(index.macs)
        assert macs == sorted([MACS[0], NO_MAC])


class TestMergeFastPath:
    @settings(max_examples=60, deadline=None)
    @given(sightings, sightings)
    def test_bulk_merge_equals_per_record_merge(self, left, right):
        fast = build_corpus("a", left)
        fast.merge(build_corpus("b", right))

        slow = build_corpus("a", left)
        for address, (first, last, count) in build_corpus("b", right).items():
            slow.record_interval(address, first, last, count)

        assert dict(fast.items()) == dict(slow.items())

    def test_merge_into_empty_does_not_alias_records(self):
        source = build_corpus("src", [(BLOCKS[0], 0, 0, 5, 1.0)])
        target = AddressCorpus("dst")
        target.merge(source)
        address = next(target.addresses())
        target.record(address, 99.0)
        assert source.last_seen(address) == 1.0
        assert target.last_seen(address) == 99.0

"""Equivalence property tests for the columnar corpus index.

Every aggregate an :class:`AddressCorpus` answers from its
:class:`CorpusIndex` must be *exactly* equal to the naive per-address
recomputation over the raw record store in :mod:`tests.naive_analysis`
— including the index's per-row origins, resolved by the
:class:`RoutingTable` under test, against a :class:`PrefixTrie` holding
the same announcements as the independent reference, with prefixes more
specific than /64 announced (addresses of one /64 then need not share an
origin).

The strategy builds corpora the way the study produces them: a few
routed /32s carrying /48 and /64 sub-announcements (plus occasional /80
and /112 ones), addresses clustered into few /64s, IIDs drawn from the
paper's pattern families (zeroes, low-byte, EUI-64 with MAC reuse across
/64s, random) — so every column and aggregate is exercised.  Windowed
analyses use a window that starts at one sighting's timestamp, so an
address whose last sighting is exactly the window start is always in
play.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.eui64 import mac_to_iid
from repro.addr.ipv6 import with_iid
from repro.analysis.figures import corpus_entropy_samples
from repro.core.categories import (
    category_composition,
    top_as_entropy_distributions,
)
from repro.core.compare import compare_datasets
from repro.core.corpus import AddressCorpus
from repro.core.index import NO_MAC, CorpusIndex, PartialIndexColumns
from repro.core.lifetime import eui64_iid_lifetimes, iid_lifetimes_by_entropy
from repro.core.tracking import analyze_tracking
from repro.net.prefixes import Prefix, PrefixTrie
from repro.net.routing import RoutingTable

from .. import naive_analysis as naive

# A handful of /32 blocks the generator announces and draws /64s from.
BLOCKS = [(0x2001 << 112) | (block << 96) for block in range(1, 7)]

# The /64 subnet IDs the /64 selector picks: they differ in the low,
# middle and high bits of a /48's 16 subnet bits, so a /48 key that
# keeps any of those bits splits a /48.
SLASH64_IDS = (0, 1, 0x100, 0x8001)

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
        prefix64 = block | (s48 << 80) | (SLASH64_IDS[s64] << 64)
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


def reference_lpm(table):
    """An independent LPM over ``table``'s announcements: a trie walk."""
    trie = PrefixTrie()
    for routed in table.routed_prefixes():
        trie.insert(routed.prefix, routed.asn)
    return trie.lookup


def ipv4_origin(value):
    """Deterministic IPv4 origin stub for the embedding acceptance rule."""
    return 64500 + (value % 4)


#: (min_as_instances, min_as_fraction) the category properties run at:
#: every AS with an embedding accepted, then each threshold rejecting
#: on its own.
THRESHOLDS = [(1, 0.0), (1, 0.5), (2, 0.0)]


def window_of(events):
    """A one-week window opening at the first event's timestamp."""
    start = events[0][-1]
    return start, start + 7 * 86400.0


#: The package's side, in the oracle's calling convention: the corpus
#: accessors as functions of the corpus, and the analyses.
PACKAGE = SimpleNamespace(
    slash48_set=AddressCorpus.slash48_set,
    slash64_set=AddressCorpus.slash64_set,
    asn_counts=AddressCorpus.asn_counts,
    asn_set=AddressCorpus.asn_set,
    lifetimes=AddressCorpus.lifetimes,
    iid_intervals=AddressCorpus.iid_intervals,
    eui64_mac_addresses=AddressCorpus.eui64_mac_addresses,
    eui64_addresses=lambda corpus: list(corpus.eui64_addresses()),
    addresses_in_window=lambda corpus, start, end: list(
        corpus.addresses_in_window(start, end)
    ),
    corpus_entropy_samples=corpus_entropy_samples,
    eui64_iid_lifetimes=eui64_iid_lifetimes,
    iid_lifetimes_by_entropy=iid_lifetimes_by_entropy,
    category_composition=category_composition,
    top_as_entropy_distributions=top_as_entropy_distributions,
    analyze_tracking=analyze_tracking,
    compare_datasets=compare_datasets,
)


def aggregates(side, corpus, origin, window):
    """Every aggregate of ``corpus``, from ``side``: :data:`PACKAGE` or
    the naive oracle module."""
    return {
        "len": len(corpus),
        "slash48s": side.slash48_set(corpus),
        "slash64s": side.slash64_set(corpus),
        "asn_counts": side.asn_counts(corpus, origin),
        "asn_set": side.asn_set(corpus, origin),
        "lifetimes": side.lifetimes(corpus),
        # Mappings as item lists: first-occurrence order is compared too.
        "iid_intervals": list(side.iid_intervals(corpus).items()),
        "eui64_macs": list(side.eui64_mac_addresses(corpus).items()),
        "eui64_addresses": side.eui64_addresses(corpus),
        "in_window": side.addresses_in_window(corpus, *window),
        "entropy_samples": side.corpus_entropy_samples(corpus),
        "eui64_lifetimes": side.eui64_iid_lifetimes(corpus),
        "iid_lifetimes": side.iid_lifetimes_by_entropy(corpus),
        "categories": [
            side.category_composition(
                corpus, origin, ipv4_origin, scope,
                min_as_instances=instances, min_as_fraction=fraction,
            )
            for instances, fraction in THRESHOLDS
            for scope in (None, window)
        ],
        "top_as_entropy": [
            side.top_as_entropy_distributions(corpus, origin, 3, scope)
            for scope in (None, window)
        ],
    }


class TestIndexEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(sightings)
    def test_index_aggregates_equal_naive(self, events):
        table = build_table()
        window = window_of(events)
        corpus = build_corpus("c", events)
        expected = aggregates(naive, corpus, reference_lpm(table), window)
        assert aggregates(PACKAGE, corpus, table.origin_asn, window) == expected

    @settings(max_examples=40, deadline=None)
    @given(sightings)
    def test_row_origins_match_raw_lpm_per_address(self, events):
        table = build_table()
        lookup = reference_lpm(table)
        index = build_corpus("c", events).index
        origins = index.row_origins(table.origin_asn)
        assert origins == [lookup(address) for address in index.addresses]
        # Resolved once: an equal bound method gets the same view back.
        assert index.row_origins(table.origin_asn) is origins

    @settings(max_examples=40, deadline=None)
    @given(sightings, sightings)
    def test_tracking_and_comparison_equal_naive(self, ntp_events, other_events):
        table = build_table()
        country_pool = ("DE", "US", "JP", None)

        def run(analyses, origin):
            ntp = build_corpus("ntp-pool", ntp_events)
            other = build_corpus("ipv6-hitlist", other_events)

            def country_of(address):
                asn = origin(address)
                return None if asn is None else country_pool[asn % 4]

            tracking = analyses.analyze_tracking(ntp, origin, country_of)
            comparison = analyses.compare_datasets(ntp, [other], origin)
            return tracking, comparison.render()

        naive_tracking, naive_table = run(naive, reference_lpm(table))
        fast_tracking, fast_table = run(PACKAGE, table.origin_asn)
        assert naive_table == fast_table
        assert naive_tracking.tracks == fast_tracking.tracks
        assert naive_tracking.classes == fast_tracking.classes
        assert naive_tracking.eui64_addresses == fast_tracking.eui64_addresses
        assert naive_tracking.multi_slash64_macs == fast_tracking.multi_slash64_macs


class TestLongerThanSlash64Announcements:
    """A /64 holding a longer-than-/64 announcement: its addresses do not
    share one origin, so each row resolves its own."""

    def test_hot_slash64_resolves_per_address(self):
        table = RoutingTable()
        block = BLOCKS[0]
        table.announce(Prefix(block, 32), 64500)
        # An /80 announcement inside one /64: addresses of that /64 no
        # longer share an origin.
        table.announce(Prefix(block, 80), 65001)

        inside_80 = with_iid(block, 0x1234)            # covered by the /80
        outside_80 = with_iid(block, 1 << 60)          # only by the /32
        corpus = AddressCorpus("hot")
        corpus.record(inside_80, 1.0)
        corpus.record(outside_80, 2.0)
        sibling64 = with_iid(block | (7 << 64), 5)     # another /64, same /48
        corpus.record(sibling64, 3.0)

        index = corpus.index
        assert index.row_origins(table.origin_asn) == [65001, 64500, 64500]
        assert corpus.asn_counts(table.origin_asn) == naive.asn_counts(
            corpus, reference_lpm(table)
        )
        assert corpus.asn_counts(table.origin_asn) == {65001: 1, 64500: 2}


class TestIndexLifecycle:
    def test_mutation_drops_index(self):
        # An index is never patched: every kind of mutation drops it,
        # and the next read builds exactly a fresh build.
        corpus = build_corpus("c", [(BLOCKS[0], 0, 0, 5, 1.0)])
        mutations = [
            lambda: corpus.record(with_iid(BLOCKS[1], 9), 2.0),
            lambda: corpus.record_interval(with_iid(BLOCKS[2], 9), 1.0, 2.0),
            lambda: corpus.merge(
                build_corpus("d", [(BLOCKS[3], 1, 1, 7, 4.0)])
            ),
        ]
        for mutate in mutations:
            before = corpus.index
            rows = len(before)
            mutate()
            after = corpus.index
            assert after is not before
            assert len(before) == rows
            assert corpus.index is after
            fresh = CorpusIndex.build(corpus)
            assert after.addresses == fresh.addresses
            for name, _ in PartialIndexColumns.COLUMN_SPEC:
                assert (
                    getattr(after, name).tobytes()
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

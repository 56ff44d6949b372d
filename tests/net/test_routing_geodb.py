"""Tests for repro.net.routing and repro.net.geodb.

The routing table answers longest-prefix match from its flattened
interval table; a :class:`PrefixTrie` and a :class:`LinearPrefixTable`
holding the same announcements are the independent references.
"""

from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr import ipv6
from repro.net.geodb import GeoDatabase, country_histogram, top_country_share
from repro.net.prefixes import (
    LinearPrefixTable,
    Prefix,
    PrefixTrie,
    parse_ipv4_prefix,
    parse_prefix,
)
from repro.net.routing import RoutedPrefix, RoutingTable, flatten_origin_table
from repro.world import build_routing, preset_config


class TestRoutedPrefix:
    def test_equality_and_hash(self):
        a = RoutedPrefix(parse_prefix("2001:db8::/32"), 64496)
        b = RoutedPrefix(parse_prefix("2001:db8::/32"), 64496)
        c = RoutedPrefix(parse_prefix("2001:db8::/32"), 64497)
        assert a == b and a != c
        assert len({a, b}) == 1

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            RoutedPrefix(parse_prefix("2001:db8::/32"), 0)

    def test_repr(self):
        routed = RoutedPrefix(parse_prefix("2001:db8::/32"), 64496)
        assert "AS64496" in repr(routed)


class TestRoutingTable:
    def test_announce_and_lookup(self):
        table = RoutingTable()
        table.announce(parse_prefix("2001:db8::/32"), 64496)
        assert table.origin_asn(ipv6.parse("2001:db8::1")) == 64496
        assert table.origin_asn(ipv6.parse("2001:db9::1")) is None
        assert table.is_routed(ipv6.parse("2001:db8::1"))
        assert not table.is_routed(ipv6.parse("2001:db9::1"))

    def test_most_specific_wins(self):
        table = RoutingTable()
        table.announce(parse_prefix("2001:db8::/32"), 64496)
        table.announce(parse_prefix("2001:db8:1::/48"), 64497)
        assert table.origin_asn(ipv6.parse("2001:db8:1::1")) == 64497
        assert table.origin_asn(ipv6.parse("2001:db8:2::1")) == 64496

    def test_reannouncement_replaces(self):
        table = RoutingTable()
        prefix = parse_prefix("2001:db8::/32")
        table.announce(prefix, 64496)
        table.announce(prefix, 64497)
        assert table.origin_asn(ipv6.parse("2001:db8::1")) == 64497
        assert len(table) == 1
        assert len(list(table.routed_prefixes())) == 1

    def test_routed_prefixes_order(self):
        table = RoutingTable()
        table.announce(parse_prefix("2001:db9::/32"), 1)
        table.announce(parse_prefix("2001:db8::/32"), 2)
        assert [routed.asn for routed in table.routed_prefixes()] == [1, 2]

    def test_prefixes_of(self):
        table = RoutingTable()
        table.announce(parse_prefix("2001:db8::/32"), 64496)
        table.announce(parse_prefix("2001:db9::/32"), 64496)
        table.announce(parse_prefix("2001:dba::/32"), 64497)
        assert len(table.prefixes_of(64496)) == 2
        assert table.prefixes_of(9999) == []

    def test_rejects_bad_asn(self):
        table = RoutingTable()
        with pytest.raises(ValueError):
            table.announce(parse_prefix("2001:db8::/32"), 0)

    def test_ipv4_table(self):
        table = RoutingTable(width=32)
        table.announce(parse_ipv4_prefix("192.0.2.0/24"), 64496)
        assert table.origin_asn(0xC0000201) == 64496
        assert table.width == 32

    def test_items(self):
        table = RoutingTable()
        table.announce(parse_prefix("2001:db8::/32"), 64496)
        assert list(table.items()) == [(parse_prefix("2001:db8::/32"), 64496)]


def _lookup(starts, asns, address):
    """The flattened table's answer: the rightmost start <= address."""
    return asns[bisect_right(starts, address) - 1] or None


class TestFlattenedOrigins:
    def test_matches_trie_over_dense_probes(self):
        routing = build_routing(preset_config("tiny", seed=3))
        trie = PrefixTrie()
        for routed in routing.routed_prefixes():
            trie.insert(routed.prefix, routed.asn)
        starts, asns = flatten_origin_table(routing.routed_prefixes())
        assert starts[0] == 0
        # Starts strictly increase; runs of equal ASN are merged.
        assert starts == sorted(set(starts))
        assert all(a != b for a, b in zip(asns, asns[1:]))
        assert routing.origin_columns() == (
            [start >> 64 for start in starts],
            [start & ((1 << 64) - 1) for start in starts],
            asns,
        )
        # Probe densely around every interval boundary.
        probes = set()
        for start in starts:
            for delta in (-2, -1, 0, 1, 2):
                if 0 <= start + delta < (1 << 128):
                    probes.add(start + delta)
        for probe in sorted(probes):
            want = trie.lookup(probe)
            assert _lookup(starts, asns, probe) == want, hex(probe)
            assert routing.origin_asn(probe) == want, hex(probe)

    def test_nested_and_sibling_prefixes(self):
        table = RoutingTable()
        base = 0x2001 << 112
        table.announce(Prefix(base, 16), 1)
        table.announce(Prefix(base, 32), 2)  # same start, longer
        table.announce(Prefix(base | (5 << 80), 48), 3)  # nested
        starts, asns = flatten_origin_table(table.routed_prefixes())
        for probe, want in [
            (0, None),
            (base, 2),  # most specific same-start wins
            (base | (5 << 80), 3),
            (base | (5 << 80) + (1 << 80) - 1, 3),
            (base | (6 << 80), 2),  # back to the /32
            (base + (1 << 96), 1),  # past the /32, inside the /16
            (base + (1 << 112), None),  # past everything
        ]:
            assert _lookup(starts, asns, probe) == want, hex(probe)
            assert table.origin_asn(probe) == want, hex(probe)


@st.composite
def announcements(draw, width):
    """Nested announcements of one width: few anchors (so prefixes nest
    and share starts), /0 and full-length prefixes, repeated prefixes
    (a re-announcement to a new ASN) and few ASNs (equal adjacent runs)."""
    top = (1 << width) - 1
    anchors = draw(
        st.lists(
            st.one_of(
                st.integers(0, top),
                st.integers(0, 15).map(lambda n: n << (width - 4)),
                st.sampled_from([0, top]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    lengths = st.one_of(
        st.sampled_from([0, 1, width // 2, width - 1, width]),
        st.integers(0, width),
    )
    drawn = draw(
        st.lists(
            st.tuples(st.sampled_from(anchors), lengths, st.integers(1, 3)),
            max_size=12,
        )
    )
    return [
        (
            Prefix(
                anchor >> (width - length) << (width - length), length, width
            ),
            asn,
        )
        for anchor, length, asn in drawn
    ]


class TestFlattenedLPMProperties:
    @pytest.mark.parametrize("width", [128, 32])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flattened_lpm_equals_linear_scan(self, width, data):
        announced = data.draw(announcements(width))
        table = RoutingTable(width)
        linear = LinearPrefixTable(width)
        for prefix, asn in announced:
            table.announce(prefix, asn)
            linear.insert(prefix, asn)
        starts, asns = flatten_origin_table(table.routed_prefixes(), width)
        assert starts[0] == 0
        assert starts == sorted(set(starts))
        assert all(a != b for a, b in zip(asns, asns[1:]))

        top = (1 << width) - 1
        edges = {0, top, *starts}
        for prefix, _ in announced:
            edges.update((prefix.first_address, prefix.last_address))
        probes = {
            edge + delta
            for edge in edges
            for delta in (-1, 0, 1)
            if 0 <= edge + delta <= top
        }
        for probe in sorted(probes):
            assert table.origin_asn(probe) == linear.lookup(probe), hex(probe)


class TestGeoDatabase:
    def test_add_and_lookup(self):
        db = GeoDatabase()
        db.add(parse_prefix("2001:db8::/32"), "DE")
        assert db.country(ipv6.parse("2001:db8::1")) == "DE"
        assert db.country(ipv6.parse("2001:db9::1")) is None
        assert len(db) == 1

    def test_most_specific_wins(self):
        db = GeoDatabase()
        db.add(parse_prefix("2001:db8::/32"), "DE")
        db.add(parse_prefix("2001:db8:1::/48"), "FR")
        assert db.country(ipv6.parse("2001:db8:1::1")) == "FR"

    def test_rejects_bad_country(self):
        db = GeoDatabase()
        with pytest.raises(ValueError):
            db.add(parse_prefix("2001:db8::/32"), "Germany")

    def test_country_histogram(self):
        db = GeoDatabase()
        db.add(parse_prefix("2001:db8::/32"), "DE")
        histogram = country_histogram(
            [ipv6.parse("2001:db8::1"), ipv6.parse("2001:db8::2"),
             ipv6.parse("2001:db9::1")],
            db,
        )
        assert histogram["DE"] == 2
        assert histogram[None] == 1


class TestTopCountryShare:
    def test_basic(self):
        histogram = Counter({"IN": 50, "CN": 30, "US": 15, None: 100, "DE": 5})
        ranked, share = top_country_share(histogram, top=2)
        assert ranked == [("IN", 50), ("CN", 30)]
        assert share == pytest.approx(0.8)

    def test_fewer_countries_than_top(self):
        ranked, share = top_country_share(Counter({"DE": 10}), top=5)
        assert ranked == [("DE", 10)]
        assert share == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_country_share(Counter({None: 5}))

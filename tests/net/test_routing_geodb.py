"""Tests for repro.net.routing and repro.net.geodb.

Routing tables and the geolocation database answer longest-prefix match
from a :class:`PrefixMap`'s flattened intervals; a
:class:`LinearPrefixTable` holding the same prefixes is the independent
reference.
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
    PrefixMap,
    parse_ipv4_prefix,
    parse_prefix,
)
from repro.net.routing import RoutedPrefix, RoutingTable
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

    def test_rejects_bad_asn(self):
        table = RoutingTable()
        with pytest.raises(ValueError):
            table.announce(parse_prefix("2001:db8::/32"), 0)

    def test_ipv4_table(self):
        table = RoutingTable(width=32)
        table.announce(parse_ipv4_prefix("192.0.2.0/24"), 64496)
        assert table.origin_asn(0xC0000201) == 64496
        assert table.width == 32


def _columns(routing):
    """``origin_columns()`` as whole interval starts and ASNs."""
    hi, lo, asns = routing.origin_columns()
    return [(high << 64) | low for high, low in zip(hi, lo)], asns


def _lookup(starts, asns, address):
    """The flattened table's answer: the rightmost start <= address."""
    return asns[bisect_right(starts, address) - 1] or None


class TestFlattenedOrigins:
    def test_matches_linear_scan_over_dense_probes(self):
        routing = build_routing(preset_config("tiny", seed=3))
        linear = LinearPrefixTable()
        for routed in routing.routed_prefixes():
            linear.insert(routed.prefix, routed.asn)
        starts, asns = _columns(routing)
        assert starts[0] == 0
        # Starts strictly increase; runs of equal ASN are merged.
        assert starts == sorted(set(starts))
        assert all(a != b for a, b in zip(asns, asns[1:]))
        # Probe densely around every interval boundary.
        probes = set()
        for start in starts:
            for delta in (-2, -1, 0, 1, 2):
                if 0 <= start + delta < (1 << 128):
                    probes.add(start + delta)
        for probe in sorted(probes):
            want = linear.lookup(probe)
            assert _lookup(starts, asns, probe) == want, hex(probe)
            assert routing.origin_asn(probe) == want, hex(probe)

    def test_nested_and_sibling_prefixes(self):
        table = RoutingTable()
        base = 0x2001 << 112
        table.announce(Prefix(base, 16), 1)
        table.announce(Prefix(base, 32), 2)  # same start, longer
        table.announce(Prefix(base | (5 << 80), 48), 3)  # nested
        starts, asns = _columns(table)
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


#: Value kinds the three maps hold: origin ASNs (few, so equal adjacent
#: runs occur), country codes and the alias list's ``True``.
VALUES = [
    st.integers(1, 3),
    st.sampled_from(["DE", "FR", "IN"]),
    st.just(True),
]


@st.composite
def announcements(draw, width, values):
    """Nested prefixes of one width: few anchors (so prefixes nest and
    share starts), /0 and full-length prefixes, repeated prefixes (a
    re-insert with a new value) and few values (equal adjacent runs)."""
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
            st.tuples(st.sampled_from(anchors), lengths, values),
            max_size=12,
        )
    )
    return [
        (
            Prefix(
                anchor >> (width - length) << (width - length), length, width
            ),
            value,
        )
        for anchor, length, value in drawn
    ]


class TestFlattenedLPMProperties:
    @pytest.mark.parametrize("width", [128, 32])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flattened_lpm_equals_linear_scan(self, width, data):
        values = data.draw(st.sampled_from(VALUES))
        announced = data.draw(announcements(width, values))
        table = PrefixMap(width)
        linear = LinearPrefixTable(width)
        for prefix, value in announced:
            table.insert(prefix, value)
            linear.insert(prefix, value)
        starts, flat = table.intervals()
        top = (1 << width) - 1
        assert starts[0] == 0 and starts[-1] <= top
        assert starts == sorted(set(starts))
        assert all(a != b for a, b in zip(flat, flat[1:]))

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
            assert table.lookup(probe) == linear.lookup(probe), hex(probe)


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

    def test_lookup_rejects_out_of_range(self):
        db = GeoDatabase()
        db.add(parse_prefix("2001:db8::/32"), "DE")
        with pytest.raises(ValueError):
            db.country(-1)
        with pytest.raises(ValueError):
            db.country(1 << 128)

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

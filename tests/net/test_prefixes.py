"""Tests for repro.net.prefixes — Prefix, prefix map, linear baseline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addr import ipv6
from repro.net.prefixes import (
    LinearPrefixTable,
    Prefix,
    PrefixMap,
    parse_ipv4_prefix,
    parse_prefix,
)

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


def prefix_strategy(width=128):
    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=0, max_value=width))
        raw = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        shift = width - length
        return Prefix((raw >> shift) << shift, length, width)

    return build()


class TestPrefix:
    def test_parse(self):
        prefix = parse_prefix("2001:db8::/32")
        assert prefix.network == 0x20010DB8 << 96
        assert prefix.length == 32
        assert prefix.width == 128

    def test_parse_ipv4(self):
        prefix = parse_ipv4_prefix("192.0.2.0/24")
        assert prefix.network == 0xC0000200
        assert prefix.width == 32

    def test_parse_rejects_host_bits(self):
        with pytest.raises(ValueError):
            parse_prefix("2001:db8::1/32")

    def test_constructor_rejects_host_bits(self):
        with pytest.raises(ValueError):
            Prefix(1, 64, 128)

    def test_constructor_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Prefix(0, 0, 64)

    def test_constructor_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 129, 128)

    def test_immutable(self):
        prefix = parse_prefix("2001:db8::/32")
        with pytest.raises(AttributeError):
            prefix.length = 48

    def test_contains(self):
        prefix = parse_prefix("2001:db8::/32")
        assert prefix.contains(ipv6.parse("2001:db8::1"))
        assert prefix.contains(ipv6.parse("2001:db8:ffff::1"))
        assert not prefix.contains(ipv6.parse("2001:db9::1"))

    def test_zero_length_contains_everything(self):
        prefix = Prefix(0, 0, 128)
        assert prefix.contains(0)
        assert prefix.contains((1 << 128) - 1)

    def test_contains_prefix(self):
        outer = parse_prefix("2001:db8::/32")
        inner = parse_prefix("2001:db8:1::/48")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_subprefixes(self):
        prefix = parse_prefix("2001:db8::/46")
        subs = list(prefix.subprefixes(48))
        assert len(subs) == 4
        assert subs[0] == parse_prefix("2001:db8::/48")
        assert subs[3] == parse_prefix("2001:db8:3::/48")

    def test_subprefixes_identity(self):
        prefix = parse_prefix("2001:db8::/48")
        assert list(prefix.subprefixes(48)) == [prefix]

    def test_subprefixes_rejects_shorter(self):
        with pytest.raises(ValueError):
            list(parse_prefix("2001:db8::/48").subprefixes(32))

    def test_subprefixes_rejects_past_width(self):
        with pytest.raises(ValueError):
            list(parse_prefix("2001:db8::/48").subprefixes(129))

    def test_first_last_address(self):
        prefix = parse_prefix("2001:db8::/126")
        assert prefix.last_address - prefix.first_address == 3

    def test_str(self):
        assert str(parse_prefix("2001:db8::/32")) == "2001:db8::/32"
        assert str(parse_ipv4_prefix("10.0.0.0/8")) == "10.0.0.0/8"

    def test_ordering_and_hash(self):
        a = parse_prefix("2001:db8::/32")
        b = parse_prefix("2001:db9::/32")
        assert a < b
        assert len({a, parse_prefix("2001:db8::/32")}) == 1

    @given(prefix_strategy(), addresses)
    def test_contains_matches_bounds(self, prefix, address):
        expected = prefix.first_address <= address <= prefix.last_address
        assert prefix.contains(address) == expected


class TestPrefixMap:
    def test_insert_and_items(self):
        table = PrefixMap()
        prefix = parse_prefix("2001:db8::/32")
        table.insert(prefix, "doc")
        assert list(table.items()) == [(prefix, "doc")]
        assert len(table) == 1

    def test_replace_keeps_len(self):
        table = PrefixMap()
        prefix = parse_prefix("2001:db8::/32")
        table.insert(prefix, 1)
        assert table.lookup(ipv6.parse("2001:db8::1")) == 1
        table.insert(prefix, 2)
        assert table.lookup(ipv6.parse("2001:db8::1")) == 2
        assert len(table) == 1

    def test_most_specific_wins(self):
        table = PrefixMap()
        table.insert(parse_prefix("2001:db8::/32"), "short")
        table.insert(parse_prefix("2001:db8:1::/48"), "long")
        assert table.lookup(ipv6.parse("2001:db8:1::1")) == "long"
        assert table.lookup(ipv6.parse("2001:db8:2::1")) == "short"

    def test_lookup_miss(self):
        table = PrefixMap()
        assert table.lookup(ipv6.parse("2001:db9::1")) is None
        table.insert(parse_prefix("2001:db8::/32"), "doc")
        assert table.lookup(ipv6.parse("2001:db9::1")) is None

    def test_default_route(self):
        table = PrefixMap()
        table.insert(Prefix(0, 0, 128), "default")
        assert table.lookup(ipv6.parse("2001:db8::1")) == "default"
        assert table.intervals() == ([0], ["default"])

    def test_lookup_rejects_out_of_range(self):
        table = PrefixMap()
        with pytest.raises(ValueError):
            table.lookup(-1)
        with pytest.raises(ValueError):
            table.lookup(1 << 128)
        assert table.lookup((1 << 128) - 1) is None

    def test_width_mismatch_rejected(self):
        table = PrefixMap(width=32)
        with pytest.raises(ValueError):
            table.insert(parse_prefix("2001:db8::/32"), 1)

    def test_items_in_insertion_order(self):
        table = PrefixMap()
        prefixes = [
            parse_prefix("2001:db9::/32"),
            parse_prefix("2001:db8::/32"),
            parse_prefix("2001:db8:1::/48"),
        ]
        for index, prefix in enumerate(prefixes):
            table.insert(prefix, index)
        assert [prefix for prefix, _ in table.items()] == prefixes
        # A re-insert moves the prefix to the end.
        table.insert(prefixes[0], 9)
        assert list(table.items())[-1] == (prefixes[0], 9)

    def test_contains(self):
        table = PrefixMap()
        prefix = parse_prefix("2001:db8::/32")
        assert prefix not in table
        table.insert(prefix, 1)
        assert prefix in table
        assert parse_prefix("2001:db8::/48") not in table

    def test_intervals_follow_the_last_insert(self):
        table = PrefixMap()
        table.insert(parse_prefix("2001:db8::/32"), "doc")
        assert table.intervals()[1] == [None, "doc", None]
        table.insert(parse_prefix("2001:db8::/48"), "lab")
        assert table.intervals()[1] == [None, "lab", "doc", None]
        assert table.lookup(ipv6.parse("2001:db8::1")) == "lab"

    def test_ipv4_width(self):
        table = PrefixMap(width=32)
        table.insert(parse_ipv4_prefix("192.0.2.0/24"), 64496)
        assert table.lookup(0xC0000201) == 64496
        assert table.lookup(0xC0000301) is None
        with pytest.raises(ValueError):
            table.lookup(1 << 32)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            PrefixMap(width=48)

    @given(st.lists(prefix_strategy(), min_size=1, max_size=30), addresses)
    def test_matches_linear_baseline(self, prefixes, address):
        table = PrefixMap()
        linear = LinearPrefixTable()
        for index, prefix in enumerate(prefixes):
            table.insert(prefix, index)
            linear.insert(prefix, index)
        # A duplicate prefix keeps its later value in both.
        assert table.lookup(address) == linear.lookup(address)


class TestLinearPrefixTable:
    def test_replace_semantics(self):
        table = LinearPrefixTable()
        prefix = parse_prefix("2001:db8::/32")
        table.insert(prefix, 1)
        table.insert(prefix, 2)
        assert len(table) == 1
        assert table.lookup(ipv6.parse("2001:db8::1")) == 2

    def test_no_replace_raises(self):
        table = LinearPrefixTable()
        prefix = parse_prefix("2001:db8::/32")
        table.insert(prefix, 1)
        with pytest.raises(KeyError):
            table.insert(prefix, 2, replace=False)

    def test_width_mismatch(self):
        table = LinearPrefixTable(width=32)
        with pytest.raises(ValueError):
            table.insert(parse_prefix("2001:db8::/32"), 1)

    def test_lookup_miss(self):
        assert LinearPrefixTable().lookup(5) is None

"""Tests for repro.addr.patterns — the seven-category classifier."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addr import ipv6
from repro.addr.patterns import (
    AddressCategory,
    CategoryClassifier,
    category_fractions,
    classify_iid_structurally,
    embedded_ipv4_candidates,
)
from repro.core.corpus import AddressCorpus

iids = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestEmbeddedIPv4:
    def test_hex32_encoding(self):
        # ::c000:0201 embeds 192.0.2.1 verbatim
        candidates = embedded_ipv4_candidates(0xC0000201)
        assert candidates["hex32"] == 0xC0000201

    def test_hex32_requires_zero_high_bits(self):
        candidates = embedded_ipv4_candidates((1 << 32) | 0xC0000201)
        assert "hex32" not in candidates

    def test_decimal_groups_encoding(self):
        # ::192:0:2:1 spells 192.0.2.1 in decimal-coded groups
        iid = (0x0192 << 48) | (0x0000 << 32) | (0x0002 << 16) | 0x0001
        candidates = embedded_ipv4_candidates(iid)
        assert candidates["decimal_groups"] == (192 << 24) | (2 << 8) | 1

    def test_decimal_groups_rejects_hex_digits(self):
        iid = (0x01AB << 48) | 0x0001
        assert "decimal_groups" not in embedded_ipv4_candidates(iid)

    def test_decimal_groups_rejects_over_255(self):
        iid = (0x0300 << 48) | 0x0001  # "300" > 255
        assert "decimal_groups" not in embedded_ipv4_candidates(iid)

    def test_byte_per_group_encoding(self):
        # ::c0:0:2:1 carries one octet per group
        iid = (0xC0 << 48) | (0x00 << 32) | (0x02 << 16) | 0x01
        candidates = embedded_ipv4_candidates(iid)
        assert candidates["byte_per_group"] == 0xC0000201

    def test_zero_iid_has_no_candidates(self):
        assert embedded_ipv4_candidates(0) == {}

    def test_random_iid_rarely_matches(self):
        rng = random.Random(11)
        hits = sum(
            1
            for _ in range(2000)
            if embedded_ipv4_candidates(rng.getrandbits(64))
        )
        # hex32 needs 32 zero high bits; decimal groups need all-decimal
        # nibble spellings. Both are rare for uniform IIDs.
        assert hits < 40

    @given(iids)
    def test_candidates_are_valid_ipv4(self, iid):
        for value in embedded_ipv4_candidates(iid).values():
            assert 0 <= value <= 0xFFFFFFFF


class TestStructuralClassification:
    @pytest.mark.parametrize(
        "iid,expected",
        [
            (0, AddressCategory.ZEROES),
            (1, AddressCategory.LOW_BYTE),
            (0xFF, AddressCategory.LOW_BYTE),
            (0x100, AddressCategory.LOW_2_BYTES),
            (0xFFFF, AddressCategory.LOW_2_BYTES),
            (0x0123456789ABCDEF, AddressCategory.HIGH_ENTROPY),
            (0x0001000100010001 * 0x10000 + 1, AddressCategory.LOW_ENTROPY),
        ],
    )
    def test_cases(self, iid, expected):
        assert classify_iid_structurally(iid) is expected

    def test_ipv4_verdict_applies_above_low2(self):
        assert (
            classify_iid_structurally(0xC0000201, ipv4_embedded=True)
            is AddressCategory.IPV4_MAPPED
        )

    def test_low_byte_wins_over_ipv4(self):
        assert (
            classify_iid_structurally(0x1, ipv4_embedded=True)
            is AddressCategory.LOW_BYTE
        )

    def test_medium_entropy(self):
        # Four distinct nibbles repeated: entropy 2 bits/nibble -> 0.5.
        iid = 0x1122334411223344
        assert classify_iid_structurally(iid) is AddressCategory.MEDIUM_ENTROPY

    @given(iids)
    def test_total_function(self, iid):
        assert isinstance(classify_iid_structurally(iid), AddressCategory)


def _make_world_lookups(embedding_asn=64500):
    """Origin lookups: all IPv6 -> embedding_asn, IPv4 192.0.2.0/24 -> same."""

    def ipv6_origin(address):
        return embedding_asn

    def ipv4_origin(address):
        if (address >> 8) == 0xC00002:  # 192.0.2.0/24
            return embedding_asn
        return None

    return ipv6_origin, ipv4_origin


def _index(addresses):
    """The columnar index of a corpus holding ``addresses``."""
    corpus = AddressCorpus("c")
    for address in addresses:
        corpus.record(address, 0.0)
    return corpus.index


class TestCategoryClassifier:
    def _embedded_address(self, host):
        # 2001:db8::c000:02xx embeds 192.0.2.<host>
        return ipv6.parse("2001:db8::") | (0xC0000200 | host)

    def test_accepts_when_thresholds_met(self):
        ipv6_origin, ipv4_origin = _make_world_lookups()
        classifier = CategoryClassifier(
            ipv6_origin, ipv4_origin, min_as_instances=5, min_as_fraction=0.1
        )
        corpus = [self._embedded_address(i) for i in range(10)]
        counts = classifier.classify_index(_index(corpus))
        assert counts[AddressCategory.IPV4_MAPPED] == 10

    def test_rejects_below_instance_threshold(self):
        ipv6_origin, ipv4_origin = _make_world_lookups()
        classifier = CategoryClassifier(
            ipv6_origin, ipv4_origin, min_as_instances=50, min_as_fraction=0.1
        )
        corpus = [self._embedded_address(i) for i in range(10)]
        counts = classifier.classify_index(_index(corpus))
        assert counts[AddressCategory.IPV4_MAPPED] == 0

    def test_rejects_below_fraction_threshold(self):
        ipv6_origin, ipv4_origin = _make_world_lookups()
        classifier = CategoryClassifier(
            ipv6_origin, ipv4_origin, min_as_instances=5, min_as_fraction=0.5
        )
        rng = random.Random(5)
        corpus = [self._embedded_address(i) for i in range(10)]
        # Add plenty of random addresses so embedded fraction < 50%.
        corpus += [
            ipv6.parse("2001:db8::") | rng.getrandbits(64) for _ in range(100)
        ]
        counts = classifier.classify_index(_index(corpus))
        assert counts[AddressCategory.IPV4_MAPPED] == 0

    def test_without_lookups_never_ipv4(self):
        classifier = CategoryClassifier()
        counts = classifier.classify_index(
            _index([self._embedded_address(i) for i in range(200)])
        )
        assert counts[AddressCategory.IPV4_MAPPED] == 0
        # hex32 low-half addresses straddle the low/medium entropy bound
        # (13-14 zero nibbles); none reach high entropy.
        assert counts[AddressCategory.HIGH_ENTROPY] == 0
        assert (
            counts[AddressCategory.LOW_ENTROPY]
            + counts[AddressCategory.MEDIUM_ENTROPY]
            == 200
        )

    def test_counts_partition_corpus(self):
        rng = random.Random(9)
        corpus = [rng.getrandbits(128) for _ in range(500)]
        classifier = CategoryClassifier()
        counts = classifier.classify_index(_index(corpus))
        assert sum(counts.values()) == 500

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            CategoryClassifier(min_as_instances=0)
        with pytest.raises(ValueError):
            CategoryClassifier(min_as_fraction=1.5)

    def test_unrouted_addresses_fall_back_to_entropy(self):
        classifier = CategoryClassifier(
            ipv6_origin_asn=lambda a: None,
            ipv4_origin_asn=lambda a: 64500,
            min_as_instances=1,
            min_as_fraction=0.0,
        )
        counts = classifier.classify_index(
            _index([self._embedded_address(i) for i in range(5)])
        )
        assert counts[AddressCategory.IPV4_MAPPED] == 0


class TestCategoryFractions:
    def test_fractions_sum_to_one(self):
        counts = {category: 0 for category in AddressCategory}
        counts[AddressCategory.ZEROES] = 3
        counts[AddressCategory.HIGH_ENTROPY] = 1
        fractions = category_fractions(counts)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[AddressCategory.ZEROES] == pytest.approx(0.75)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            category_fractions({category: 0 for category in AddressCategory})

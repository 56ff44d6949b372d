"""Tests for repro.net.asn — AS records and category aggregation."""

from collections import Counter

import pytest

from repro.net.asn import ASCategory, ASRecord, ASRegistry, ISPSubtype


def _record(asn=64496, **overrides):
    defaults = dict(
        asn=asn,
        name="Example Net",
        country="US",
        category=ASCategory.ISP,
        subtype=ISPSubtype.FIXED_LINE,
    )
    defaults.update(overrides)
    return ASRecord(**defaults)


class TestASRecord:
    def test_valid(self):
        record = _record()
        assert record.asn == 64496
        assert not record.is_phone_provider

    def test_phone_provider(self):
        record = _record(subtype=ISPSubtype.PHONE_PROVIDER)
        assert record.is_phone_provider

    def test_phone_subtype_without_isp_category_not_phone(self):
        record = _record(
            category=ASCategory.COMPUTER_IT, subtype=ISPSubtype.PHONE_PROVIDER
        )
        assert not record.is_phone_provider

    def test_rejects_zero_asn(self):
        with pytest.raises(ValueError):
            _record(asn=0)

    def test_rejects_oversize_asn(self):
        with pytest.raises(ValueError):
            _record(asn=1 << 32)

    @pytest.mark.parametrize("bad", ["usa", "us", "U", ""])
    def test_rejects_bad_country(self, bad):
        with pytest.raises(ValueError):
            _record(country=bad)

    def test_frozen(self):
        record = _record()
        with pytest.raises(AttributeError):
            record.asn = 1


class TestASRegistry:
    def test_register_lookup(self):
        registry = ASRegistry()
        record = _record()
        registry.register(record)
        assert registry.lookup(64496) is record
        assert 64496 in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = ASRegistry()
        registry.register(_record())
        with pytest.raises(ValueError):
            registry.register(_record())

    def test_lookup_missing(self):
        assert ASRegistry().lookup(1) is None

    def test_iteration(self):
        registry = ASRegistry()
        registry.register(_record(asn=1))
        registry.register(_record(asn=2))
        assert [record.asn for record in registry] == [1, 2]

    def test_category_of(self):
        registry = ASRegistry()
        registry.register(_record(category=ASCategory.EDUCATION))
        assert registry.category_of(64496) is ASCategory.EDUCATION
        assert registry.category_of(9999) is None

    def test_category_counts(self):
        registry = ASRegistry()
        registry.register(_record(asn=1, category=ASCategory.ISP))
        registry.register(_record(asn=2, category=ASCategory.CONTENT))
        counts = registry.category_counts([1, 1, 2, 3])
        assert counts[ASCategory.ISP] == 2
        assert counts[ASCategory.CONTENT] == 1
        assert counts[None] == 1

    def test_phone_provider_fraction(self):
        registry = ASRegistry()
        registry.register(_record(asn=1, subtype=ISPSubtype.PHONE_PROVIDER))
        registry.register(_record(asn=2))
        # 3 of 4 addresses from the phone AS; unrouted ones count too.
        assert registry.phone_provider_fraction(
            Counter({1: 3, 2: 1})
        ) == pytest.approx(0.75)
        assert registry.phone_provider_fraction(
            Counter({1: 3, 2: 1, None: 2})
        ) == pytest.approx(0.5)

    def test_phone_provider_fraction_empty_rejected(self):
        with pytest.raises(ValueError):
            ASRegistry().phone_provider_fraction(Counter())

    def test_countries_sorted_unique(self):
        registry = ASRegistry()
        registry.register(_record(asn=1, country="US"))
        registry.register(_record(asn=2, country="DE"))
        registry.register(_record(asn=3, country="US"))
        assert registry.countries() == ("DE", "US")

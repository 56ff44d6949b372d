"""Tests for repro.core.corpus."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addr.eui64 import mac_to_address
from repro.addr.ipv6 import parse
from repro.core.corpus import AddressCorpus
from repro.core.storage import load_corpus_text

A = parse("2001:db8::1")
B = parse("2001:db8::2")
C = parse("2001:db9:1:2::3")


class TestRecording:
    def test_single_record(self):
        corpus = AddressCorpus("test")
        corpus.record(A, 10.0)
        assert len(corpus) == 1
        assert A in corpus
        assert corpus.first_seen(A) == 10.0
        assert corpus.last_seen(A) == 10.0
        assert corpus.lifetime(A) == 0.0
        assert corpus.observation_count(A) == 1

    def test_repeat_records_extend_interval(self):
        corpus = AddressCorpus("test")
        corpus.record(A, 10.0)
        corpus.record(A, 30.0)
        corpus.record(A, 20.0)
        assert corpus.first_seen(A) == 10.0
        assert corpus.last_seen(A) == 30.0
        assert corpus.lifetime(A) == 20.0
        assert corpus.observation_count(A) == 3

    def test_out_of_order_first(self):
        corpus = AddressCorpus("test")
        corpus.record(A, 30.0)
        corpus.record(A, 10.0)
        assert corpus.first_seen(A) == 10.0

    def test_record_interval(self):
        corpus = AddressCorpus("test")
        corpus.record_interval(A, 5.0, 15.0, count=4)
        assert corpus.lifetime(A) == 10.0
        assert corpus.observation_count(A) == 4

    def test_record_interval_validation(self):
        corpus = AddressCorpus("test")
        with pytest.raises(ValueError):
            corpus.record_interval(A, 10.0, 5.0)
        with pytest.raises(ValueError):
            corpus.record_interval(A, 5.0, 10.0, count=0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
    def test_record_interval_rejects_a_non_integer_count(self, bad):
        corpus = AddressCorpus("test")
        with pytest.raises(ValueError, match="count must be an integer"):
            corpus.record_interval(A, 1.0, 2.0, bad)
        # Nothing was recorded, so nothing is saved or sealed later.
        assert len(corpus) == 0

    def test_record_interval_takes_numpy_integers_as_ints(self):
        corpus = AddressCorpus("test")
        corpus.record_interval(A, 1.0, 2.0, np.uint64(3))
        corpus.record_interval(A, 1.0, 2.0, np.int64(4))
        count = corpus.observation_count(A)
        assert count == 7 and type(count) is int
        assert type(next(corpus.items())[1][2]) is int

    def test_text_loader_reports_a_fractional_count_as_a_bad_line(self):
        text = (
            "# repro-corpus v1 name=test\n"
            "address,first_seen,last_seen,count\n"
            "2001:db8::1,1.0,2.0,3\n"
            "2001:db8::2,1.0,2.0,2.5\n"
        )
        with pytest.raises(ValueError, match="bad record on line 4"):
            load_corpus_text(io.StringIO(text))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_record_rejects_non_finite(self, bad):
        corpus = AddressCorpus("test")
        with pytest.raises(ValueError):
            corpus.record(A, bad)

    @pytest.mark.parametrize(
        "first,last",
        [
            (float("nan"), 5.0),
            # NaN as `last` slipped past the old `last < first` guard,
            # since every NaN comparison is False.
            (5.0, float("nan")),
            (float("nan"), float("nan")),
            (float("-inf"), 5.0),
            (5.0, float("inf")),
        ],
    )
    def test_record_interval_rejects_non_finite(self, first, last):
        corpus = AddressCorpus("test")
        with pytest.raises(ValueError):
            corpus.record_interval(A, first, last)

    def test_from_history(self):
        corpus = AddressCorpus.from_history("h", {A: (1.0, 1.0), B: (2.0, 9.0)})
        assert len(corpus) == 2
        assert corpus.observation_count(A) == 1
        assert corpus.observation_count(B) == 2

    def test_merge(self):
        a = AddressCorpus("a")
        a.record(A, 5.0)
        b = AddressCorpus("b")
        b.record(A, 10.0)
        b.record(B, 1.0)
        a.merge(b)
        assert len(a) == 2
        assert a.lifetime(A) == 5.0

    def test_name_required(self):
        with pytest.raises(ValueError):
            AddressCorpus("")

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "\n"])
    def test_name_rejects_line_breaks(self, name):
        # A newline in the name would corrupt the text storage header.
        with pytest.raises(ValueError):
            AddressCorpus(name)

    def test_repr(self):
        corpus = AddressCorpus("x")
        assert "x" in repr(corpus)


class TestAggregates:
    def _corpus(self):
        corpus = AddressCorpus("test")
        corpus.record(A, 0.0)
        corpus.record(A, 100.0)
        corpus.record(B, 50.0)
        corpus.record(C, 75.0)
        return corpus

    def test_lifetimes(self):
        assert sorted(self._corpus().lifetimes()) == [0.0, 0.0, 100.0]

    def test_slash48_and_64_sets(self):
        corpus = self._corpus()
        assert len(corpus.slash48_set()) == 2  # db8::/48 and db9:1::/48
        assert len(corpus.slash64_set()) == 2

    def test_asn_set_and_counts(self):
        corpus = self._corpus()
        origin = lambda addr: 1 if addr in (A, B) else None
        assert corpus.asn_set(origin) == {1}
        counts = corpus.asn_counts(origin)
        assert counts[1] == 2
        assert counts[None] == 1

    def test_addresses_in_window(self):
        corpus = self._corpus()
        # A spans [0, 100]; B at 50; C at 75.
        assert set(corpus.addresses_in_window(40.0, 60.0)) == {A, B}
        assert set(corpus.addresses_in_window(200.0, 300.0)) == set()
        assert set(corpus.addresses_in_window(0.0, 1.0)) == {A}

    def test_common_addresses(self):
        a = self._corpus()
        b = AddressCorpus("other")
        b.record(A, 0.0)
        b.record(parse("2001:dead::1"), 0.0)
        assert a.common_addresses(b) == {A}
        assert b.common_addresses(a) == {A}

    def test_items(self):
        corpus = AddressCorpus("test")
        corpus.record(A, 1.0)
        assert list(corpus.items()) == [(A, (1.0, 1.0, 1))]


class TestIidViews:
    def test_iid_intervals_union(self):
        corpus = AddressCorpus("test")
        # Same IID (::5) in two prefixes.
        corpus.record(parse("2001:db8:0:1::5"), 10.0)
        corpus.record(parse("2001:db8:0:2::5"), 50.0)
        intervals = corpus.iid_intervals()
        assert intervals[5] == (10.0, 50.0)

    def test_eui64_views(self):
        corpus = AddressCorpus("test")
        mac = 0x001122334455
        addr1 = mac_to_address(parse("2001:db8:0:1::"), mac)
        addr2 = mac_to_address(parse("2001:db8:0:2::"), mac)
        corpus.record(addr1, 0.0)
        corpus.record(addr2, 10.0)
        corpus.record(A, 5.0)  # not EUI-64
        assert set(corpus.eui64_addresses()) == {addr1, addr2}
        by_mac = corpus.eui64_mac_addresses()
        assert set(by_mac) == {mac}
        assert sorted(by_mac[mac]) == sorted([addr1, addr2])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 128) - 1),
                st.floats(min_value=0, max_value=1e9),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_interval_invariants(self, events):
        corpus = AddressCorpus("prop")
        for address, when in events:
            corpus.record(address, when)
        for address, (first, last, count) in corpus.items():
            assert first <= last
            assert count >= 1
        assert len(corpus) == len({address for address, _ in events})

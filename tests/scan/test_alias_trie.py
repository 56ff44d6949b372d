"""The Hitlist's incrementally-maintained alias list.

``HitlistService.is_aliased`` and the weekly filter read one prefix map
that grows as APD flags prefixes; these tests pin its answers to a
naive linear scan of the published alias list, across every week of a
real multi-week run.
"""

import pytest

from repro.scan.hitlist_service import HitlistService
from repro.world.clock import WEEK

from .conftest import NOW


def naive_is_aliased(prefixes, address):
    return any(prefix.contains(address) for prefix in prefixes)


@pytest.fixture(scope="module")
def service(scan_world):
    service = HitlistService(scan_world, scan_world.vantages[0].asn, seed=3)
    service.run(NOW, 4)
    return service


class TestTrieMatchesNaiveScan:
    def test_aliased_prefixes_detected(self, service):
        # The fixture world must actually exercise the alias machinery.
        assert service.aliased_prefixes

    def test_every_responsive_address_agrees(self, service, scan_world):
        prefixes = service.aliased_prefixes
        addresses = {
            address
            for snapshot in service.snapshots
            for address in snapshot.responsive
        }
        assert addresses
        for address in addresses:
            assert service.is_aliased(address) == naive_is_aliased(
                prefixes, address
            )

    def test_aliased_space_agrees(self, service):
        # Addresses *inside* each aliased prefix answer True both ways.
        for prefix in service.aliased_prefixes:
            for address in (prefix.first_address, prefix.last_address):
                assert service.is_aliased(address)
                assert naive_is_aliased(service.aliased_prefixes, address)

    def test_published_responsive_list_is_alias_free(self, service):
        for snapshot in service.snapshots:
            for address in snapshot.responsive:
                assert not service.is_aliased(address)


class TestIncrementalMaintenance:
    def test_trie_grows_with_the_alias_list(self, scan_world):
        service = HitlistService(
            scan_world, scan_world.vantages[0].asn, seed=3
        )
        published = set()
        for week in range(3):
            snapshot = service.run_week(week, NOW + week * WEEK)
            published |= snapshot.aliased_prefixes
            assert service.aliased_prefixes == published
            for prefix in published:
                assert service.is_aliased(prefix.first_address)
                assert service.is_aliased(prefix.last_address)
        assert published

    def test_unaliased_address_is_clean(self, service):
        # Documentation space is never part of the simulated topology.
        assert not service.is_aliased((0x20010DB8 << 96) | 0xDEAD)

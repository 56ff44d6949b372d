"""Tests for repro.world.presets."""

import pytest

from repro.net.routing import flatten_origin_table
from repro.world import (
    WorldConfig,
    build_routing,
    build_world,
    preset_config,
    preset_names,
)
from repro.world.presets import PRESETS


class TestPresets:
    def test_names_ordered_smallest_first(self):
        names = preset_names()
        assert names[0] == "tiny"
        sizes = [PRESETS[name][3] for name in names]  # home networks
        assert sizes == sorted(sizes)

    def test_config_fields(self):
        config = preset_config("tiny", seed=3)
        assert isinstance(config, WorldConfig)
        assert config.seed == 3
        assert config.n_home_networks == PRESETS["tiny"][3]

    def test_overrides(self):
        config = preset_config("tiny", outage_as_count=2)
        assert config.outage_as_count == 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("galactic")

    def test_tiny_builds(self):
        world = build_world(preset_config("tiny", seed=1))
        stats = world.stats()
        assert stats["vantages"] == 27
        assert stats["devices"] > 100

    def test_presets_scale_monotonically(self):
        tiny = preset_config("tiny")
        small = preset_config("small")
        medium = preset_config("medium")
        assert (
            tiny.n_home_networks
            < small.n_home_networks
            < medium.n_home_networks
        )


def _announcements(routing):
    return [
        (item.prefix.network, item.prefix.length, item.asn)
        for item in routing.routed_prefixes()
    ]


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("name", preset_names())
def test_build_routing_equals_the_worlds_routing(name, seed):
    routing = build_routing(preset_config(name, seed=seed))
    world = build_world(preset_config(name, seed=seed)).routing
    assert _announcements(routing) == _announcements(world)
    assert flatten_origin_table(
        routing.routed_prefixes()
    ) == flatten_origin_table(world.routed_prefixes())

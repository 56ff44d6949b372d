"""Hitlist responsiveness decay ("Rusty Clusters", Zirngibl et al.).

The paper builds on the observation that hitlists rust: an address
responsive when a snapshot was published may be gone weeks later (prefix
rotation, churn, renumbering).  This module measures the decay curve —
for snapshot age *k* weeks, the fraction of a snapshot's addresses still
responsive *k* weeks after publication — which quantifies why hitlists
must be continuously refreshed and why ephemeral client addresses (the
NTP corpus's majority) rust almost immediately.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..scan.hitlist_service import WeeklySnapshot
from ..world.clock import WEEK
from ..world.rng import split_rng
from ..world.world import World

__all__ = ["responsiveness_decay", "corpus_decay"]


def responsiveness_decay(
    world: World,
    snapshots: Sequence[WeeklySnapshot],
    max_age_weeks: int = 8,
    sample_per_snapshot: int = 500,
    seed: int = 0,
) -> Dict[int, float]:
    """Average still-responsive fraction by snapshot age.

    For every snapshot and every age ``k`` (0..max), a sample of the
    snapshot's addresses is re-probed ``k`` weeks after publication; the
    fractions are averaged across snapshots that have data for that age.
    """
    if max_age_weeks < 0:
        raise ValueError("max_age_weeks must be non-negative")
    if sample_per_snapshot < 1:
        raise ValueError("sample_per_snapshot must be >= 1")
    rng = split_rng(seed, "decay")
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for snapshot in snapshots:
        addresses = sorted(snapshot.responsive)
        if not addresses:
            continue
        if len(addresses) > sample_per_snapshot:
            addresses = rng.sample(addresses, sample_per_snapshot)
        for age in range(max_age_weeks + 1):
            when = snapshot.when + age * WEEK
            alive = sum(
                1 for address in addresses if world.is_responsive(address, when)
            )
            sums[age] = sums.get(age, 0.0) + alive / len(addresses)
            counts[age] = counts.get(age, 0) + 1
    return {
        age: sums[age] / counts[age] for age in sorted(sums)
    }


def corpus_decay(
    world: World,
    addresses: Sequence[int],
    observed_at: float,
    ages_weeks: Sequence[int],
    sample: int = 500,
    seed: int = 0,
) -> Dict[int, float]:
    """Still-responsive fraction of a set of addresses at several ages.

    The companion measurement for passive corpora: how quickly do
    passively observed (largely ephemeral) addresses rust compared to a
    curated hitlist?
    """
    if sample < 1:
        raise ValueError("sample must be >= 1")
    pool: List[int] = sorted(addresses)
    if not pool:
        raise ValueError("no addresses to measure")
    rng = split_rng(seed, "corpus-decay")
    if len(pool) > sample:
        pool = rng.sample(pool, sample)
    decay = {}
    for age in ages_weeks:
        when = observed_at + age * WEEK
        alive = sum(1 for address in pool if world.is_responsive(address, when))
        decay[age] = alive / len(pool)
    return decay

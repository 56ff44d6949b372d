"""Throughput — serial vs sharded multi-process NTP collection.

The keyed per-device×day RNG makes the campaign embarrassingly parallel:
any partition of the device population yields bit-identical corpora once
merged.  This bench measures what that buys in wall-clock terms on a
moderate world, one collection week, for serial, 2 and 4 worker
processes, and asserts the corpora really are record-identical.

One sample per mode says little on a shared host, so every mode runs
once per round for ``ROUNDS`` rounds, and the order rotates each round
so that no mode always runs first or last.  Each mode reports its
median and quartiles.  An untimed serial run first warms the world's
lazy caches, which forked shards then inherit.
"""

import statistics
import time

from repro.core.campaign import CampaignConfig, NTPCampaign
from repro.core.parallel import run_campaign_parallel
from repro.world import CAMPAIGN_EPOCH

from conftest import publish
from jsonout import write_bench_json

ROUNDS = 6

#: Worker counts; 1 is the serial in-process run.
MODES = (1, 2, 4)


def _campaign(world):
    return NTPCampaign(
        world,
        CampaignConfig(start=CAMPAIGN_EPOCH, weeks=1, seed=77),
    )


def _collect(world, workers):
    campaign = _campaign(world)
    if workers == 1:
        return campaign.run()
    return run_campaign_parallel(campaign, workers=workers)


def _summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "runs_s": [round(seconds, 4) for seconds in runs],
    }


def test_parallel_campaign_throughput(benchmark, bench_world):
    reference = dict(_collect(bench_world, 1).items())
    observations = sum(count for _, _, count in reference.values())
    runs = {workers: [] for workers in MODES}
    for round_index in range(ROUNDS):
        shift = round_index % len(MODES)
        for workers in MODES[shift:] + MODES[:shift]:
            t0 = time.perf_counter()
            corpus = _collect(bench_world, workers)
            runs[workers].append(time.perf_counter() - t0)
            assert dict(corpus.items()) == reference

    summaries = {workers: _summary(runs[workers]) for workers in MODES}
    serial = summaries[1]["median_s"]
    lines = [
        "Sharded campaign execution: serial vs multi-process (1 week)",
        f"{ROUNDS} rounds per mode, order rotated each round; "
        "median [Q1, Q3]",
        "",
        f"addresses: {len(reference):,}, observations: {observations:,}",
    ]
    for workers in MODES:
        summary = summaries[workers]
        label = "serial" if workers == 1 else f"{workers} workers"
        line = (
            f"{label}: {summary['median_s']:.3f}s "
            f"[{summary['q1_s']:.3f}, {summary['q3_s']:.3f}] "
            f"({observations / summary['median_s']:,.0f} obs/s"
        )
        if workers > 1:
            summary["speedup"] = round(serial / summary["median_s"], 2)
            line += f", {summary['speedup']:.2f}x serial"
        lines.append(line + ")")

    publish("parallel_campaign", "\n".join(lines))
    write_bench_json(
        "parallel",
        {
            "addresses": len(reference),
            "observations": observations,
            "rounds": ROUNDS,
            "serial": summaries[1],
            "workers": {
                str(workers): summaries[workers]
                for workers in MODES
                if workers > 1
            },
        },
    )

    # The timed loop the harness reports: a 2-worker sharded week.
    benchmark(lambda: _collect(bench_world, 2))

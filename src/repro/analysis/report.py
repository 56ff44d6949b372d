"""Full-study report generation.

Condenses one :class:`repro.core.study.StudyResults` into a single text
report covering every headline finding of the paper, in paper order:
dataset comparison, entropy, lifetimes, addressing categories, EUI-64
prevalence, tracking classes and geolocation exposure.  Used by the
``repro report`` CLI subcommand and handy as a one-call summary in
notebooks.
"""

from __future__ import annotations

from typing import List

from ..addr.ipv6 import format_address
from ..addr.oui_db import manufacturer_counts
from ..geo.ipvseeyou import geolocate_corpus
from ..net.geodb import country_histogram, top_country_share
from .distributions import ECDF
from .figures import corpus_entropy_samples
from .tables import format_table

__all__ = ["study_report"]

# repro.core modules import repro.analysis for table rendering, so the
# core analyses are imported lazily here to keep the layering acyclic.


def _median_entropy(corpus) -> float:
    return ECDF(corpus_entropy_samples(corpus)).median


def study_report(world, results, geolocation_min_pairs: int = 12) -> str:
    """Render the complete findings report for one study run.

    When the study built columnar indexes (the default), every section
    reads the shared index columns, each corpus resolving its rows'
    origins once; otherwise each analysis falls back to scanning the
    corpora.
    """
    from ..core.compare import compare_datasets, phone_provider_shares
    from ..core.lifetime import address_lifetime_summary
    from ..core.tracking import analyze_tracking

    origin = world.ipv6_origin_asn
    sections: List[str] = []

    # 1. Dataset comparison (Table 1).
    comparison = compare_datasets(
        results.ntp, [results.hitlist, results.caida], origin
    )
    sections.append(comparison.render())
    sections.append(
        "size ratios: NTP/Hitlist %.0fx, NTP/CAIDA %.0fx"
        % (
            comparison.size_ratio("ipv6-hitlist"),
            comparison.size_ratio("caida-routed-48"),
        )
    )

    shares = phone_provider_shares(
        [results.ntp, results.hitlist], world.registry, origin
    )
    sections.append(
        "phone-provider share: NTP %.0f%% vs Hitlist %.0f%%"
        % (100 * shares["ntp-pool"], 100 * shares["ipv6-hitlist"])
    )

    ranked, share = top_country_share(
        country_histogram(results.ntp.addresses(), world.geodb), top=5
    )
    sections.append(
        "top-5 countries: %s (%.0f%% of corpus)"
        % (", ".join(c for c, _ in ranked), 100 * share)
    )

    # 2. Entropy (Figure 1).
    sections.append("")
    sections.append(
        "median IID entropy: "
        + ", ".join(
            f"{corpus.name}={_median_entropy(corpus):.2f}"
            for corpus in results.corpora()
        )
    )

    # 3. Lifetimes (Figure 2).
    lifetime = address_lifetime_summary(results.ntp)
    sections.append(
        "lifetimes: %.0f%% seen once, %.2f%% >= 1 week, %.2f%% >= 1 month"
        % (
            100 * lifetime.seen_once_fraction,
            100 * lifetime.week_or_longer_fraction,
            100 * lifetime.month_or_longer_fraction,
        )
    )

    # 4. EUI-64 and tracking (§5.1–5.2).
    tracking = analyze_tracking(results.ntp, origin, world.country_of)
    sections.append("")
    sections.append(
        "EUI-64: %d addresses (%.2f%% of corpus, vs %.1f random "
        "lookalikes expected), %d unique MACs"
        % (
            tracking.eui64_addresses,
            100 * tracking.eui64_fraction,
            tracking.expected_random,
            tracking.unique_macs,
        )
    )
    vendors = manufacturer_counts(tracking.tracks.keys(), world.oui_db)
    top_vendors = ", ".join(
        f"{vendor} ({count})" for vendor, count in vendors.most_common(5)
    )
    sections.append(f"top manufacturers: {top_vendors}")
    if tracking.multi_slash64_macs:
        rows = [
            [cls.value, tracking.classes[cls],
             f"{100 * fraction:.2f}%"]
            for cls, fraction in tracking.class_fractions().items()
        ]
        sections.append(
            format_table(
                ["tracking class", "MACs", "share"],
                rows,
                title=f"trackable MACs (>=2 /64s): "
                      f"{tracking.multi_slash64_macs} "
                      f"({100 * tracking.multi_slash64_fraction:.1f}%)",
            )
        )

    # 5. Geolocation exposure (§5.3).
    report = geolocate_corpus(
        list(results.ntp.eui64_addresses()),
        world.bssid_db,
        min_pairs=geolocation_min_pairs,
    )
    sections.append("")
    top = report.top_countries(3)
    country_text = (
        ", ".join(f"{c} {100 * s:.0f}%" for c, s in top) if top else "none"
    )
    sections.append(
        "geolocation attack: %d OUI offsets inferred, %d devices "
        "geolocated (%s)"
        % (len(report.offsets), report.located_count, country_text)
    )

    # 6. Vantage availability (collection-infrastructure health, §3).
    availability = results.campaign.vantage_availability()
    if availability:
        sections.append("")
        fractions = [timeline.fraction for _, timeline in availability]
        always_up = sum(
            1 for _, timeline in availability if timeline.ejections == 0
        )
        sections.append(
            "vantage availability: mean %.1f%% in DNS rotation, "
            "%d/%d vantages never ejected"
            % (
                100 * sum(fractions) / len(fractions),
                always_up,
                len(availability),
            )
        )
        degraded = sorted(
            (
                (vantage, timeline)
                for vantage, timeline in availability
                if timeline.ejections > 0
            ),
            key=lambda pair: pair[1].fraction,
        )
        for vantage, timeline in degraded[:5]:
            sections.append(
                "  %s (%s): %.1f%% available, %d ejection(s)"
                % (
                    format_address(vantage.address),
                    vantage.country,
                    100 * timeline.fraction,
                    timeline.ejections,
                )
            )

    # 7. Operational telemetry (collection-run health; the counters are
    # exported in full through ``--metrics-out``).
    metrics = getattr(results, "metrics", None)
    shard_failures = getattr(results.campaign, "shard_failures", [])
    sections.append("")
    sections.append("operational telemetry:")
    sections.append("  shard failures: %d" % len(shard_failures))
    if metrics is not None:
        sections.append(
            "  queries evaluated: %d"
            % int(metrics.counter_value("repro_campaign_queries_total"))
        )
        sections.append(
            "  packets dropped by faults: %d"
            % int(metrics.counter_value("repro_faults_packets_lost_total"))
        )
        sections.append(
            "  rotation ejections: %d"
            % int(
                metrics.counter_value("repro_faults_rotation_ejections_total")
            )
        )

    header = (
        f"Study report — world seed {world.config.seed}, "
        f"{len(world.devices):,} devices, "
        f"{len(results.ntp):,} passively observed addresses\n"
    )
    return header + "\n" + "\n".join(sections) + "\n"

"""Ethics-aware dataset release (paper §3 "Ethical Considerations", §6).

The paper's corpus cannot be released at full granularity: EUI-64 lower
bits identify devices (and via §5.3, their street addresses).  The
authors therefore publish only the active /48 prefixes.  This module
implements that release format plus the accompanying safety audit: a
verification pass proving that no interface identifiers, embedded MACs,
or full addresses survive truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, TextIO

from ..addr.eui64 import extract_mac
from ..addr.ipv6 import format_address, slash48_of
from .corpus import AddressCorpus

__all__ = ["ReleaseArtifact", "build_release", "verify_release_safety"]

#: Text of the data-handling note shipped with every release.
ETHICS_NOTE = """\
# Data release — /48-aggregated active prefixes
#
# Full addresses are withheld: IPv6 interface identifiers can uniquely
# identify a device (EUI-64 embeds its MAC address) and, correlated with
# public wardriving data, geolocate it.  Per the guidance in "IPv6
# Hitlists at Scale: Be Careful What You Wish For" (SIGCOMM 2023), only
# /48 prefixes and per-prefix address counts are published.
"""


@dataclass(frozen=True)
class ReleaseArtifact:
    """A /48-truncated release of a corpus."""

    source_name: str
    prefix_counts: Dict[int, int]  # /48 base address -> address count

    @property
    def prefix_count(self) -> int:
        """Number of released /48s."""
        return len(self.prefix_counts)

    @property
    def address_count(self) -> int:
        """Total addresses the release aggregates (not released raw)."""
        return sum(self.prefix_counts.values())

    def lines(self) -> List[str]:
        """The release file's data lines, sorted by prefix."""
        return [
            f"{format_address(prefix)}/48,{count}"
            for prefix, count in sorted(self.prefix_counts.items())
        ]

    def write(self, stream: TextIO) -> None:
        """Write the release (ethics note + CSV lines) to a stream."""
        stream.write(ETHICS_NOTE)
        stream.write("prefix,addresses\n")
        for line in self.lines():
            stream.write(line + "\n")


def build_release(corpus: AddressCorpus) -> ReleaseArtifact:
    """Aggregate a corpus to its public /48-level release."""
    counts: Counter = Counter()
    for address in corpus.addresses():
        counts[slash48_of(address)] += 1
    return ReleaseArtifact(source_name=corpus.name, prefix_counts=dict(counts))


def verify_release_safety(artifact: ReleaseArtifact) -> List[str]:
    """Audit a release for identifier leakage; returns violations.

    Checks that every released prefix is /48-aligned (no IID or subnet
    bits survive) and that no prefix decodes as an EUI-64 carrier — a
    released value with low 80 bits set would leak exactly what the
    truncation exists to remove.  An empty return means the release is
    safe to publish.
    """
    violations = []
    for prefix in artifact.prefix_counts:
        if prefix & ((1 << 80) - 1):
            violations.append(
                f"prefix {format_address(prefix)} has bits below /48"
            )
        if extract_mac(prefix) is not None:
            violations.append(
                f"prefix {format_address(prefix)} leaks an embedded MAC"
            )
    return violations

"""Wired-to-wireless MAC offset inference (Rye & Beverly, IPvSeeYou).

Vendors typically assign a device's WiFi BSSID at a small fixed offset
from its wired MAC within the same OUI.  Given (a) wired MACs recovered
from EUI-64 IIDs and (b) geolocated BSSIDs from a wardriving database,
the §5.3 technique infers, per OUI, the single most common offset between
the two populations and uses it to translate wired MACs into (geolocated)
BSSIDs.

Two tallying modes are provided:

* ``exhaustive`` — record the offset of *every* (MAC, BSSID) pair in the
  OUI, exactly as the paper describes.  O(n·m) per OUI.
* ``nearest`` (default) — for each wired MAC, record offsets only to the
  ``k`` nearest BSSIDs on either side (by NIC value).  The paper notes
  the winning offset is "often, but not always, the closest match";
  nearest-k tallying finds the same mode in O((n+m) log m).

The per-OUI offset is accepted only when at least ``min_pairs`` wired
MACs had some BSSID to pair with (the paper requires 500).
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..addr.mac import mac_offset, nic_of, oui_of

__all__ = ["OUIOffset", "infer_offsets", "MIN_PAIRS"]

#: The paper's minimum wired-MAC-to-BSSID pair count per OUI.
MIN_PAIRS = 500


@dataclass(frozen=True)
class OUIOffset:
    """The inferred wired→wireless offset for one OUI."""

    oui: int
    offset: int
    support: int  # tally of the winning offset
    pairs: int    # wired MACs that had at least one same-OUI BSSID


def _offsets_nearest(
    macs: List[int], bssids: List[int], neighbors: int
) -> Counter:
    tally: Counter = Counter()
    sorted_nics = sorted(nic_of(bssid) for bssid in bssids)
    oui = oui_of(bssids[0])
    for mac in macs:
        nic = nic_of(mac)
        index = bisect.bisect_left(sorted_nics, nic)
        lo = max(0, index - neighbors)
        hi = min(len(sorted_nics), index + neighbors)
        for candidate in sorted_nics[lo:hi]:
            tally[mac_offset(mac, (oui << 24) | candidate)] += 1
    return tally


def _offsets_exhaustive(macs: List[int], bssids: List[int]) -> Counter:
    tally: Counter = Counter()
    for mac in macs:
        for bssid in bssids:
            tally[mac_offset(mac, bssid)] += 1
    return tally


def infer_offsets(
    wired_macs: Iterable[int],
    bssid_lookup,
    min_pairs: int = MIN_PAIRS,
    mode: str = "nearest",
    neighbors: int = 3,
    min_support: int = 3,
) -> Dict[int, OUIOffset]:
    """Infer the per-OUI wired→wireless offset.

    Parameters
    ----------
    wired_macs:
        MACs recovered from EUI-64 IIDs (duplicates are deduplicated).
    bssid_lookup:
        Callable ``oui -> list of BSSIDs`` (a bound
        :meth:`repro.geo.bssid_db.BSSIDDatabase.bssids_in_oui` fits).
    min_pairs:
        Minimum wired MACs with same-OUI BSSID material required before
        an OUI's offset is trusted.
    mode:
        ``"nearest"`` (default) or ``"exhaustive"`` tallying.
    neighbors:
        Nearest-mode window half-width.
    min_support:
        Minimum tally the winning offset needs.  At the paper's 500-pair
        floor the winner always has ample support; scaled-down runs need
        an explicit floor so a coincidental offset between unrelated
        MACs and background APs cannot win with a tally of one.

    Returns a mapping of OUI → :class:`OUIOffset` for accepted OUIs.
    Zero offsets are legitimate (some vendors share the MAC between
    interfaces).
    """
    if mode not in ("nearest", "exhaustive"):
        raise ValueError(f"unknown mode: {mode!r}")
    if neighbors < 1:
        raise ValueError("neighbors must be >= 1")
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    by_oui: Dict[int, set] = defaultdict(set)
    for mac in wired_macs:
        by_oui[oui_of(mac)].add(mac)

    accepted: Dict[int, OUIOffset] = {}
    for oui, macs in by_oui.items():
        bssids = bssid_lookup(oui)
        if not bssids:
            continue
        mac_list = sorted(macs)
        if len(mac_list) < min_pairs:
            continue
        if mode == "exhaustive":
            tally = _offsets_exhaustive(mac_list, bssids)
        else:
            tally = _offsets_nearest(mac_list, bssids, neighbors)
        if not tally:
            continue
        # Deterministic winner: highest support, smallest |offset| breaks
        # ties (vendor offsets are small).
        offset, support = min(
            tally.items(), key=lambda item: (-item[1], abs(item[0]), item[0])
        )
        if support < min_support:
            continue
        accepted[oui] = OUIOffset(
            oui=oui, offset=offset, support=support, pairs=len(mac_list)
        )
    return accepted

"""Order statistics, histogram quantiles, memory and run fingerprints."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would make it one or two unlucky requests.
TAIL_MIN_BEYOND = 10

_TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of already sorted values."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return float(
        sorted_values[low] + (sorted_values[high] - sorted_values[low]) * frac
    )


def median(values: Sequence[float]) -> float:
    return quantile(sorted(values), 0.5)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond.

    With ``count`` samples, ``(1 - q) * count`` of them lie beyond the
    ``q`` quantile; the result is the largest ladder ``q`` for which that
    is at least ``TAIL_MIN_BEYOND``, or None when even the median is
    unsupported.
    """
    for q in _TAIL_LADDER:
        if (1.0 - q) * count >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the supported tail, and the sample count."""
    ordered = sorted(values)
    out: Dict[str, float] = {"n": len(ordered)}
    if not ordered:
        return out
    out["p50"] = quantile(ordered, 0.5)
    tail = tail_percentile(len(ordered))
    if tail is not None and tail > 0.5:
        out["tail_q"] = tail
        out["tail"] = quantile(ordered, tail)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` gives."""
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def histogram_quantile(dump: Dict[str, object], q: float) -> float:
    """Quantile of a registry histogram snapshot, interpolated in-bucket.

    ``dump`` is one ``snapshot()["histograms"]`` entry; the lowest
    bucket's lower edge is taken as 0 and overflow is clamped to the top
    boundary, the same estimate Prometheus' ``histogram_quantile`` makes.
    """
    bounds: List[float] = list(dump["buckets"])
    counts: List[int] = list(dump["counts"])
    total = sum(counts)
    if not total:
        return 0.0
    rank = q * total
    seen = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count and seen + count >= rank:
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        lower = bound
    return bounds[-1]


def merged_histogram(
    histograms: Dict[str, Dict[str, object]], name: str
) -> Optional[Dict[str, object]]:
    """Sum every labelled series of one histogram family."""
    merged: Optional[Dict[str, object]] = None
    for key, dump in histograms.items():
        if key != name and not key.startswith(name + "{"):
            continue
        if merged is None:
            merged = {
                "buckets": list(dump["buckets"]),
                "counts": list(dump["counts"]),
                "sum": dump["sum"],
                "count": dump["count"],
            }
        else:
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], dump["counts"])
            ]
            merged["sum"] += dump["sum"]
            merged["count"] += dump["count"]
    return merged


def counter_sum(counters: Dict[str, float], name: str) -> float:
    """Sum of every labelled series of one counter family."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    path = Path(f"/proc/{pid or os.getpid()}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(
    root: Path, seed: int, argv: Sequence[str]
) -> Dict[str, object]:
    """Where and how a result was produced."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    # Only a repository rooted at the checkout itself describes this code.
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    inside = (
        toplevel is not None and Path(toplevel).resolve() == root.resolve()
    )
    revision = _git(root, "rev-parse", "HEAD") if inside else None
    status = _git(root, "status", "--porcelain") if revision else None
    return {
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        # Paths inside the checkout are kept relative to its root.
        "argv": [arg.replace(f"{root.resolve()}{os.sep}", "") for arg in argv],
    }

"""ASCII rendering of the paper's figure types.

Benches regenerate each figure as data series; these helpers draw them as
terminal charts so the shape (who is above whom, where medians fall) is
visible without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .distributions import ECDF

__all__ = [
    "corpus_entropy_samples",
    "render_cdf_chart",
    "render_ccdf_chart",
    "render_entropy_cdf",
    "render_timeline",
]

_GLYPHS = "*o+x#@%&"


def _render_grid(
    series: Dict[str, List[Tuple[float, float]]],
    width: int,
    height: int,
    x_label: str,
    y_label: str,
    title: Optional[str],
    log_note: str = "",
) -> str:
    xs = [x for points in series.values() for x, _ in points]
    if not xs:
        raise ValueError("no data to plot")
    lo, hi = min(xs), max(xs)
    span = hi - lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in points:
            column = int((x - lo) / span * (width - 1))
            row = height - 1 - int(max(0.0, min(1.0, y)) * (height - 1))
            grid[row][column] = glyph
    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        y_value = 1.0 - row_index / (height - 1)
        label = f"{y_value:4.2f} |" if row_index % 2 == 0 else "     |"
        lines.append(label + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {lo:<12.4g}{'':{max(0, width - 24)}}{hi:>12.4g}")
    lines.append(f"      x: {x_label}{log_note}   y: {y_label}")
    for index, name in enumerate(series):
        lines.append(f"      {_GLYPHS[index % len(_GLYPHS)]} {name}")
    return "\n".join(lines)


def corpus_entropy_samples(corpus) -> List[float]:
    """Per-address normalized IID entropy of a corpus (the Fig. 1 input),
    read from its index's entropy column."""
    return corpus.index.entropies.tolist()


def render_entropy_cdf(
    corpora: Sequence,
    width: int = 64,
    height: int = 16,
    points: int = 64,
) -> str:
    """Draw the paper's Fig. 1: overlaid IID-entropy CDFs per dataset."""
    return render_cdf_chart(
        {corpus.name: corpus_entropy_samples(corpus) for corpus in corpora},
        "normalized IID entropy",
        width=width,
        height=height,
        title="Figure 1: normalized IID entropy CDF",
        points=points,
    )


def render_cdf_chart(
    samples: Dict[str, Sequence[float]],
    x_label: str,
    width: int = 64,
    height: int = 16,
    title: Optional[str] = None,
    points: int = 64,
) -> str:
    """Draw overlaid CDFs of several samples."""
    series = {}
    lo = min(min(values) for values in samples.values())
    hi = max(max(values) for values in samples.values())
    for name, values in samples.items():
        series[name] = ECDF(values).sample_points(points, lo, hi)
    return _render_grid(series, width, height, x_label, "CDF", title)


def render_ccdf_chart(
    samples: Dict[str, Sequence[float]],
    x_label: str,
    width: int = 64,
    height: int = 16,
    title: Optional[str] = None,
    points: int = 64,
) -> str:
    """Draw overlaid CCDFs of several samples."""
    series = {}
    lo = min(min(values) for values in samples.values())
    hi = max(max(values) for values in samples.values())
    for name, values in samples.items():
        series[name] = ECDF(values).ccdf_points(points, lo, hi)
    return _render_grid(series, width, height, x_label, "CCDF", title)


def render_timeline(
    tracks: Dict[str, List[float]],
    start: float,
    end: float,
    width: int = 64,
    title: Optional[str] = None,
    time_unit: float = 86_400.0,
    unit_name: str = "days",
) -> str:
    """Draw event timelines (the paper's Fig. 7 device-sighting plots).

    ``tracks`` maps a label (e.g. an AS name or /64) to sighting times.
    """
    if end <= start:
        raise ValueError("empty time range")
    lines = []
    if title:
        lines.append(title)
    label_width = max((len(label) for label in tracks), default=0)
    for label, times in tracks.items():
        row = [" "] * width
        for when in times:
            if start <= when <= end:
                column = int((when - start) / (end - start) * (width - 1))
                row[column] = "x"
        lines.append(f"{label.rjust(label_width)} |{''.join(row)}")
    lines.append(f"{' ' * label_width} +{'-' * width}")
    total = (end - start) / time_unit
    lines.append(
        f"{' ' * label_width}  0 {unit_name:^{max(0, width - 12)}} {total:.0f}"
    )
    return "\n".join(lines)

"""Empirical distribution helpers (CDF/CCDF) used by every figure.

The paper's figures are all cumulative distributions: IID entropy CDFs
(Figs. 1, 3, 4), lifetime CCDF/CDFs (Figs. 2, 6a), and a per-EUI-64
/64-count CCDF (Fig. 6b).  :class:`ECDF` provides the shared machinery:
quantiles, point evaluation, fraction-above/below, and fixed-grid
sampling for plotting.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Optional, Tuple

__all__ = ["ECDF"]


class ECDF:
    """Empirical cumulative distribution of a sample.

    >>> dist = ECDF([1.0, 2.0, 2.0, 4.0])
    >>> dist.cdf(2.0)
    0.75
    >>> dist.quantile(0.5)
    2.0
    """

    def __init__(self, values: Iterable[float]) -> None:
        self._values: List[float] = sorted(values)
        if not self._values:
            raise ValueError("ECDF of an empty sample is undefined")

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        """Two ECDFs are equal iff their sorted samples are equal."""
        if not isinstance(other, ECDF):
            return NotImplemented
        return self._values == other._values

    @property
    def min(self) -> float:
        """Smallest sample value."""
        return self._values[0]

    @property
    def max(self) -> float:
        """Largest sample value."""
        return self._values[-1]

    @property
    def mean(self) -> float:
        """Sample mean."""
        return sum(self._values) / len(self._values)

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        return bisect.bisect_right(self._values, x) / len(self._values)

    def ccdf(self, x: float) -> float:
        """P(X > x)."""
        return 1.0 - self.cdf(x)

    def fraction_at(self, x: float) -> float:
        """Fraction of the sample exactly equal to ``x``."""
        left = bisect.bisect_left(self._values, x)
        right = bisect.bisect_right(self._values, x)
        return (right - left) / len(self._values)

    def quantile(self, q: float) -> float:
        """The smallest value v with cdf(v) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must lie in (0, 1]: {q}")
        index = min(
            len(self._values) - 1,
            max(0, math.ceil(q * len(self._values)) - 1),
        )
        return self._values[index]

    @property
    def median(self) -> float:
        """The 0.5 quantile."""
        return self.quantile(0.5)

    def sample_points(
        self,
        points: int = 50,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """``points`` evenly spaced (x, cdf(x)) pairs for plotting."""
        if points < 2:
            raise ValueError("need at least 2 points")
        lo = self.min if lo is None else lo
        hi = self.max if hi is None else hi
        if hi <= lo:
            return [(lo, self.cdf(lo))] * points
        step = (hi - lo) / (points - 1)
        return [(lo + i * step, self.cdf(lo + i * step)) for i in range(points)]

    def ccdf_points(
        self,
        points: int = 50,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """``points`` evenly spaced (x, ccdf(x)) pairs."""
        return [(x, 1.0 - y) for x, y in self.sample_points(points, lo, hi)]

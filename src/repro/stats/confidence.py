"""Confidence intervals for repeated-trial estimates (Section 4.1, step 4).

The paper averages E[M | I] over several generated instances I and reports
95% confidence intervals.  We use the Student-t interval, which is exact
for normally distributed trial means and the standard choice for the small
trial counts (5-30) the analysis uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    level: float = 0.95
    num_trials: int = 0

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True if ``value`` lies within the interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if two intervals intersect."""
        return self.low <= other.high and other.low <= self.high

    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0:
            return math.inf if self.half_width else 0.0
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a zero-width interval (no dispersion estimate is
    possible); the caller is expected to run more trials when the interval
    matters.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("need at least one sample")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    mean = float(values.mean())
    if values.size == 1:
        return ConfidenceInterval(mean, 0.0, level, 1)
    sem = float(values.std(ddof=1) / math.sqrt(values.size))
    if sem == 0.0:
        return ConfidenceInterval(mean, 0.0, level, int(values.size))
    # stdtrit is what scipy.stats.t.ppf evaluates; scipy.special loads in a
    # fraction of scipy.stats' import time and only when an interval is needed.
    from scipy.special import stdtrit

    t_crit = float(stdtrit(values.size - 1, 0.5 + level / 2.0))
    return ConfidenceInterval(mean, t_crit * sem, level, int(values.size))

"""Grouped statistics for the paper's histogram figures.

Figures 7 and 8 plot per-super-peer quantities *as a function of
outdegree*: for every observed outdegree value, the mean of the quantity
over super-peers with that outdegree, with vertical bars denoting one
standard deviation (not confidence intervals — the figures' caption is
explicit about this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class GroupedStats:
    """Per-group mean/std/count for a scalar quantity keyed by group value."""

    keys: tuple
    means: tuple
    stds: tuple
    counts: tuple

    def as_dict(self) -> dict:
        """Map group key -> (mean, std, count)."""
        return {
            key: (mean, std, count)
            for key, mean, std, count in zip(self.keys, self.means, self.stds, self.counts)
        }

    def total_count(self) -> int:
        return int(sum(self.counts))

    def rows(self) -> list[tuple]:
        """(key, mean, std, count) rows sorted by key, for table printing."""
        return sorted(zip(self.keys, self.means, self.stds, self.counts))


def group_by(keys: Sequence, values: Sequence[float]) -> GroupedStats:
    """Group ``values`` by ``keys`` and compute mean/std/count per group.

    Standard deviation is the population std within the group (matching
    "vertical bars denote one standard deviation" in the figures); a group
    of size 1 has std 0.
    """
    key_array = np.asarray(keys)
    value_array = np.asarray(values, dtype=float)
    if key_array.shape[0] != value_array.shape[0]:
        raise ValueError(
            f"keys and values must align: {key_array.shape[0]} != {value_array.shape[0]}"
        )
    if key_array.size == 0:
        return GroupedStats((), (), (), ())
    unique_keys, inverse = np.unique(key_array, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=value_array)
    means = sums / counts
    # Population variance per group via E[x^2] - E[x]^2, clipped for
    # floating-point noise on constant groups.
    sq_sums = np.bincount(inverse, weights=value_array**2)
    variances = np.clip(sq_sums / counts - means**2, 0.0, None)
    return GroupedStats(
        keys=tuple(unique_keys.tolist()),
        means=tuple(means.tolist()),
        stds=tuple(np.sqrt(variances).tolist()),
        counts=tuple(counts.tolist()),
    )

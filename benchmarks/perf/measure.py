"""Reference seconds and the order statistics every benchmark number uses.

The host this benchmark runs on is shared, so its speed drifts by tens of
percent over seconds to minutes.  Every timing is therefore taken between
two runs of :func:`ref_kernel` -- fixed stdlib + numpy code that never
touches the repository -- and reported in *reference seconds*::

    ref_s = raw_s * REF0 / mean(ref_before, ref_after)

so a rep that ran while the host was slow is scaled back to the speed the
host had when ``REF0`` was written down.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median :func:`ref_kernel` seconds on the 2-core x86-64 host where the
#: benchmark was defined (Python 3.11, numpy 2.4).  Written once; changing
#: it rescales every reported time.
REF0 = 0.105


def ref_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and dict work."""
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) % 1_000_003
    data = np.random.default_rng(7).random(600_000)
    for _ in range(5):
        data = np.sort(data)[::-1].copy()
    counts: dict[int, int] = {}
    for i in range(200_000):
        key = i % 4099
        counts[key] = counts.get(key, 0) + acc
    return time.perf_counter() - start


def normalise(raw: float, ref_before: float, ref_after: float) -> float:
    """``raw`` seconds expressed in reference seconds."""
    return raw * REF0 / ((ref_before + ref_after) / 2.0)


def summarise(values: list[float]) -> dict:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}

"""The query model: g(i) popularity and f(i) selection power.

Appendix B of the paper uses the query model of [25] (Yang &
Garcia-Molina, VLDB'01), defined by two probability functions over query
classes i:

* ``g(i)`` — probability that a random submitted query equals query q_i;
* ``f(i)`` — probability that a random file matches query q_i
  (the *selection power* of q_i).

Matches are independent across files, so a collection of ``x`` files
returns ``Binomial(x, f(i))`` results for query q_i, and

* E[N_T | I]       = x_tot * sum_i g(i) f(i)                    (Eq. 5)
* E[K_T | I]       = c - sum_i g(i) sum_clients (1 - f(i))^x_i  (Eq. 6)
* P(N_T >= 1 | I)  = 1 - sum_i g(i) (1 - f(i))^x_tot

The authors fit g and f from OpenNap traces, which we do not have.  We
substitute a truncated Zipf for g (query popularity is famously Zipfian)
and a popularity-correlated power law for f, then *calibrate* the scalar
that actually drives the load equations — ``mean_selection_power =
sum_i g(i) f(i)`` — against the paper's own observable outputs: ~0.09
expected results per peer covered by a query's reach (Figures 8 and 11
agree on this constant; see ``constants.EXPECTED_RESULTS_PER_PEER``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import constants
from ..stats.rng import zipf_pmf


@dataclass(frozen=True)
class QueryModel:
    """A discrete (g, f) query model over ``num_classes`` query classes."""

    g: np.ndarray  # query-popularity pmf, sums to 1
    f: np.ndarray  # per-class selection power, each in [0, 1]

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if g.shape != f.shape or g.ndim != 1 or g.size == 0:
            raise ValueError("g and f must be equal-length 1-D arrays")
        if not np.isclose(g.sum(), 1.0, atol=1e-9):
            raise ValueError("g must sum to 1")
        if np.any(g < 0):
            raise ValueError("g must be non-negative")
        if np.any((f < 0) | (f > 1)):
            raise ValueError("f values must lie in [0, 1]")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    @property
    def num_classes(self) -> int:
        return int(self.g.size)

    @property
    def mean_selection_power(self) -> float:
        """sum_i g(i) f(i): expected per-file match probability of a query."""
        return float(np.dot(self.g, self.f))

    # --- Appendix B expectations (per collection) ----------------------------

    def expected_results(self, collection_size: float | np.ndarray) -> np.ndarray | float:
        """E[N | x] = x * sum g f  for a collection of ``x`` files (Eq. 5)."""
        return collection_size * self.mean_selection_power

    def prob_no_result(self, collection_size: np.ndarray | float) -> np.ndarray | float:
        """P(collection of x files returns no results) = sum_i g_i (1-f_i)^x."""
        x = np.asarray(collection_size, dtype=float)
        # (num_classes, ...) broadcast; log1p for numerical stability at
        # large x where (1 - f)^x underflows gracefully to 0.
        log_miss = np.log1p(-self.f)
        powers = np.exp(np.multiply.outer(x, log_miss))
        # Clip float summation noise: the exact value lies in [0, 1].
        result = np.clip(powers @ self.g, 0.0, 1.0)
        if np.isscalar(collection_size):
            return float(result)
        return result

    def prob_some_result(self, collection_size: np.ndarray | float) -> np.ndarray | float:
        """P(N >= 1) for a collection of ``x`` files."""
        return 1.0 - self.prob_no_result(collection_size)

    def with_mean_selection_power(self, target: float) -> "QueryModel":
        """Rescale f so that sum g f equals ``target`` (calibration)."""
        current = self.mean_selection_power
        if current <= 0:
            raise ValueError("cannot rescale a model with zero selection power")
        scale = target / current
        new_f = self.f * scale
        if np.any(new_f > 1.0):
            raise ValueError(
                f"target {target} requires selection powers above 1; "
                "use more query classes or a heavier f tail"
            )
        return QueryModel(g=self.g, f=new_f)


def make_query_model(
    num_classes: int = 400,
    popularity_exponent: float = 1.0,
    selection_exponent: float = 1.2,
    mean_selection_power: float | None = None,
) -> QueryModel:
    """Build the synthetic Zipf-family (g, f) model.

    ``g(i) \\propto (i+1)^-popularity_exponent`` and ``f(i) \\propto
    (i+1)^-selection_exponent`` — popular queries match more files, the
    qualitative shape reported for OpenNap.  ``f`` is scaled so that
    ``sum g f`` equals ``mean_selection_power`` (defaulting to the
    calibration constant derived from the paper's figures).
    """
    if mean_selection_power is None:
        mean_selection_power = (
            constants.EXPECTED_RESULTS_PER_PEER / constants.MEAN_FILES_PER_PEER
        )
    g = zipf_pmf(num_classes, popularity_exponent)
    ranks = np.arange(1, num_classes + 1, dtype=float)
    f = ranks ** (-selection_exponent)
    model = QueryModel(g=g, f=f / f.max() * 1e-3)
    return model.with_mean_selection_power(mean_selection_power)


@lru_cache(maxsize=1)
def default_query_model() -> QueryModel:
    """The calibrated default model shared by analyses and benchmarks."""
    return make_query_model()

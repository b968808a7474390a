"""Per-cluster query expectations: E[N_T | I], E[K_T | I], P(N_T >= 1 | I).

Appendix B of the paper, vectorized over all clusters of an instance.

* ``E[N_T | I] = x_tot(T) * sum_i g(i) f(i)``  (Eq. 5): expected number of
  results super-peer T returns for a random query, where ``x_tot`` is the
  total number of files T indexes.
* ``E[K_T | I] = C_T - sum_i g(i) sum_{collections} (1 - f(i))^{x_j}``
  (Eq. 6): expected number of distinct collections contributing at least
  one result.  The Response message carries "the address of each client
  whose collection produced a result"; we count the super-peer partners'
  own collections as addressable collections too, since their results are
  attributed just like a client's.
* ``P(N_T >= 1 | I) = 1 - sum_i g(i) (1 - f(i))^{x_tot}``: probability T
  sends a Response at all ("If the super-peer finds any results, it will
  return one Response message") — this weights the fixed per-message
  Response overhead in the load equations.

The inner sums depend on file counts only through the scalar function
``miss(x) = sum_i g(i) (1 - f(i))^x``, so we evaluate ``miss`` once per
*unique* file count in the instance and gather — this keeps a
20,000-peer instance's expectations at a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distributions import QueryModel, default_query_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (builder imports us)
    from ..topology.builder import NetworkInstance


@dataclass(frozen=True)
class ClusterExpectations:
    """Per-cluster expected query outcomes for one instance."""

    expected_results: np.ndarray      # E[N_T | I] per cluster
    expected_collections: np.ndarray  # E[K_T | I] per cluster (addresses)
    prob_respond: np.ndarray          # P(N_T >= 1 | I) per cluster
    mean_selection_power: float

    @property
    def num_clusters(self) -> int:
        return int(self.expected_results.size)

    def total_expected_results(self) -> float:
        """Results if a query reached every cluster (full-reach ceiling)."""
        return float(self.expected_results.sum())


def _miss_powers(model: QueryModel, file_counts) -> tuple[np.ndarray, np.ndarray]:
    """(powers, inverse): ``powers[u, i] = (1 - f(i))^x_u`` for each
    *unique* file count x_u, and the row of each entry of ``file_counts``.

    Instances draw counts from a discrete distribution, so the number of
    unique values — the rows of the (unique x num_classes) table — is far
    below the number of peers.
    """
    unique, inverse = np.unique(np.asarray(file_counts, dtype=float),
                                return_inverse=True)
    return np.exp(np.outer(unique, np.log1p(-model.f))), inverse.reshape(-1)


def _miss_probabilities(model: QueryModel, file_counts: np.ndarray) -> np.ndarray:
    """miss(x) = sum_i g(i) (1 - f(i))^x for each entry of ``file_counts``."""
    powers, inverse = _miss_powers(model, file_counts)
    return (powers @ model.g)[inverse]


def mean_miss_powers(model: QueryModel, file_counts) -> np.ndarray:
    """phi(i) = mean over collections of (1 - f(i))^x, per query class.

    The probability that a random collection holds no match for a class-i
    query; the array engine's mean-field responder counts use it.
    """
    powers, inverse = _miss_powers(model, file_counts)
    counts = np.bincount(inverse, minlength=powers.shape[0])
    return counts @ powers / max(1, inverse.size)


def cluster_expectations(
    instance: "NetworkInstance", model: QueryModel | None = None
) -> ClusterExpectations:
    """Compute E[N_T], E[K_T] and P(N_T >= 1) for every cluster of ``instance``."""
    model = model or default_query_model()
    n = instance.num_clusters

    # Eq. 5 over the full per-cluster index.
    index_sizes = instance.index_sizes.astype(float)
    expected_results = index_sizes * model.mean_selection_power

    # Response probability from the same index sizes.
    prob_respond = np.asarray(model.prob_some_result(index_sizes), dtype=float)

    # Eq. 6: per-collection miss terms, then per-cluster sums.  Collections
    # are the clients plus each super-peer partner's own files.
    client_miss = _miss_probabilities(model, instance.client_files)
    client_hits = 1.0 - client_miss
    per_cluster_client_hits = np.add.reduceat(
        np.append(client_hits, 0.0), instance.client_ptr[:-1]
    )
    per_cluster_client_hits[instance.clients == 0] = 0.0

    partner_miss = _miss_probabilities(
        model, instance.partner_files.reshape(-1)
    ).reshape(n, instance.partners)
    partner_hits = (1.0 - partner_miss).sum(axis=1)

    expected_collections = per_cluster_client_hits + partner_hits

    return ClusterExpectations(
        expected_results=expected_results,
        expected_collections=expected_collections,
        prob_respond=prob_respond,
        mean_selection_power=model.mean_selection_power,
    )

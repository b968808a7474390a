"""Pre-generated workload arrival schedule, shared by both sim engines.

The event engine (``sim.network``) and the array engine
(``sim.fastcore``) must agree *bit-for-bit* on how many queries, updates
and churn events occur, when, and who initiates them — that is the
deterministic half of the differential-testing contract
(``tests/test_differential.py``).  Rather than asking two very different
engines to consume one RNG stream in the same order, the arrival
processes are materialized here, once, into plain arrays that both
engines replay.  Equality of the schedulable counts is then true by
construction, and each engine is free to batch its *workload* draws
(query classes, match outcomes, churn collections) however it likes on
its own derived streams.

Generation is fully vectorized via the conditional-uniform property of
the Poisson process: a homogeneous process of rate ``r`` observed for
``T`` seconds has ``Poisson(rT)`` events placed i.i.d. uniformly on
``[0, T)``.  Client/partner churn renewal processes have exponential
gaps, hence are Poisson processes too, so the same three-draw recipe
(counts, times, attributes) covers every category.  Each category draws
from its own derived stream (``derive_rng(seed, "sim", "sched", tag)``),
so toggling ``enable_updates``/``enable_churn`` never perturbs the
other categories' events.

The schedule also carries each event's *heavy-tailed* attributes — the
query's class (Zipf-like selection power) and the replacement peer's
collection size (log-normal) — because those draws dominate run-to-run
variance.  Pinning them here means both engines see the same workload
mass and the only cross-engine randomness left is the light-tailed
per-collection match sampling, which the differential harness bounds
statistically (``tests/_diff.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..querymodel.distributions import QueryModel, default_query_model
from ..querymodel.files import default_file_distribution
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance

__all__ = ["WorkloadSchedule", "generate_workload", "KIND_QUERY",
           "KIND_UPDATE", "KIND_CLIENT_CHURN", "KIND_PARTNER_CHURN"]

KIND_QUERY = 0
KIND_UPDATE = 1
KIND_CLIENT_CHURN = 2
KIND_PARTNER_CHURN = 3


@dataclass(frozen=True)
class WorkloadSchedule:
    """Every workload arrival of one simulated run, as flat arrays.

    Queries and updates carry ``(cluster, pick)`` where ``pick`` indexes
    uniformly into the cluster's static roster of ``clients + k`` users:
    ``pick < clients`` means the client at flat id
    ``client_ptr[cluster] + pick`` initiates, otherwise a super-peer
    partner does.  Client churn carries the flat client id; partner
    churn carries ``(cluster, slot)``.

    ``q_class`` is each query's class index; ``c_files``/``p_files``
    are each churn replacement's collection size.  Both engines consume
    these verbatim so the heavy-tailed workload attributes never
    diverge between them.
    """

    duration: float
    q_time: np.ndarray
    q_cluster: np.ndarray
    q_pick: np.ndarray
    q_class: np.ndarray
    u_time: np.ndarray
    u_cluster: np.ndarray
    u_pick: np.ndarray
    c_time: np.ndarray
    c_client: np.ndarray
    c_files: np.ndarray
    p_time: np.ndarray
    p_cluster: np.ndarray
    p_slot: np.ndarray
    p_files: np.ndarray

    @property
    def num_queries(self) -> int:
        return int(self.q_time.size)

    @property
    def num_updates(self) -> int:
        return int(self.u_time.size)

    @property
    def num_client_churn(self) -> int:
        return int(self.c_time.size)

    @property
    def num_partner_churn(self) -> int:
        return int(self.p_time.size)

    def merged_events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """All events merged into one deterministic firing order.

        Returns ``(time, kind, a, b, idx)`` sorted by time with ties
        broken by kind then within-category position — a total order
        both engines share, so co-timed events (measure zero, but
        floats) can never reorder between them.  ``idx`` is the event's
        position within its own category, the key into that category's
        attribute arrays (``q_class``, ``c_files``, ``p_files``).
        """
        time = np.concatenate([self.q_time, self.u_time, self.c_time, self.p_time])
        kind = np.concatenate([
            np.full(self.q_time.size, KIND_QUERY, dtype=np.int8),
            np.full(self.u_time.size, KIND_UPDATE, dtype=np.int8),
            np.full(self.c_time.size, KIND_CLIENT_CHURN, dtype=np.int8),
            np.full(self.p_time.size, KIND_PARTNER_CHURN, dtype=np.int8),
        ])
        a = np.concatenate([self.q_cluster, self.u_cluster,
                            self.c_client, self.p_cluster])
        b = np.concatenate([self.q_pick, self.u_pick,
                            np.full(self.c_time.size, -1, dtype=np.int64),
                            self.p_slot])
        idx = np.concatenate([
            np.arange(self.q_time.size, dtype=np.int64),
            np.arange(self.u_time.size, dtype=np.int64),
            np.arange(self.c_time.size, dtype=np.int64),
            np.arange(self.p_time.size, dtype=np.int64),
        ])
        order = np.lexsort((np.arange(time.size), kind, time))
        return time[order], kind[order], a[order], b[order], idx[order]


def _poisson_category(rng: np.random.Generator, rates: np.ndarray,
                      duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Events of independent Poisson processes with the given rates.

    Returns ``(times, owner)``: event times in ``[0, duration)`` and the
    index of the process that produced each, in owner-major order (times
    are *not* globally sorted; ``merged_events`` sorts once at the end).
    """
    rates = np.asarray(rates, dtype=float)
    rates = np.where(np.isfinite(rates) & (rates > 0), rates, 0.0)
    counts = rng.poisson(rates * duration)
    total = int(counts.sum())
    owner = np.repeat(np.arange(rates.size, dtype=np.int64), counts)
    times = rng.random(total) * duration
    return times, owner


def generate_workload(
    instance: NetworkInstance,
    duration: float,
    seed: int | np.random.Generator | None,
    enable_churn: bool = True,
    enable_updates: bool = True,
    model: QueryModel | None = None,
) -> WorkloadSchedule:
    """Materialize the full arrival schedule for one run.

    ``seed`` follows the ``simulate_instance`` convention: an integer or
    ``None`` derives the per-category streams via
    ``derive_rng(seed, "sim", "sched", tag)``; a live ``Generator``
    spawns four children in a fixed order (deterministic given the
    generator's state).  ``model`` supplies the class mixture for
    ``q_class`` (defaults to :func:`default_query_model`).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    model = model or default_query_model()
    file_dist = default_file_distribution()
    config = instance.config
    n = instance.num_clusters
    k = instance.partners
    users = instance.clients + k

    if isinstance(seed, np.random.Generator):
        rng_q, rng_u, rng_c, rng_p = seed.spawn(4)
    else:
        rng_q = derive_rng(seed, "sim", "sched", "q")
        rng_u = derive_rng(seed, "sim", "sched", "u")
        rng_c = derive_rng(seed, "sim", "sched", "c")
        rng_p = derive_rng(seed, "sim", "sched", "p")

    empty_f = np.array([], dtype=float)
    empty_i = np.array([], dtype=np.int64)

    q_time, q_cluster = _poisson_category(
        rng_q, config.query_rate * users.astype(float), duration
    )
    # Picks are drawn in the cluster-major order _poisson_category
    # emits, before any sorting, so the draw sequence is canonical.
    q_pick = (
        rng_q.integers(0, users[q_cluster]) if q_time.size
        else empty_i.copy()
    )
    q_class = (
        rng_q.choice(model.num_classes, size=q_time.size, p=model.g)
        if q_time.size else empty_i.copy()
    )

    if enable_updates and config.update_rate > 0:
        u_time, u_cluster = _poisson_category(
            rng_u, config.update_rate * users.astype(float), duration
        )
        u_pick = (
            rng_u.integers(0, users[u_cluster]) if u_time.size
            else empty_i.copy()
        )
    else:
        u_time, u_cluster, u_pick = empty_f, empty_i, empty_i.copy()

    if enable_churn:
        with np.errstate(divide="ignore"):
            client_rates = 1.0 / instance.client_lifespans.astype(float)
        c_time, c_client = _poisson_category(rng_c, client_rates, duration)
        c_files = file_dist.sample(rng_c, c_time.size)
        with np.errstate(divide="ignore"):
            partner_rates = 1.0 / instance.partner_lifespans.astype(float)
        p_time, p_flat = _poisson_category(
            rng_p, partner_rates.ravel(), duration
        )
        p_cluster, p_slot = np.divmod(p_flat, k)
        p_files = file_dist.sample(rng_p, p_time.size)
    else:
        c_time, c_client = empty_f, empty_i
        c_files = empty_i.copy()
        p_time = empty_f.copy()
        p_cluster = empty_i.copy()
        p_slot = empty_i.copy()
        p_files = empty_i.copy()

    return WorkloadSchedule(
        duration=duration,
        q_time=q_time, q_cluster=q_cluster,
        q_pick=q_pick.astype(np.int64, copy=False),
        q_class=q_class.astype(np.int64, copy=False),
        u_time=u_time, u_cluster=u_cluster,
        u_pick=u_pick.astype(np.int64, copy=False),
        c_time=c_time, c_client=c_client, c_files=c_files,
        p_time=p_time, p_cluster=p_cluster, p_slot=p_slot, p_files=p_files,
    )

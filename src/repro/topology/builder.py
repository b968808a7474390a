"""Step 1 of the analysis: generate a network instance from a configuration.

A :class:`NetworkInstance` is a concrete realization of a configuration:
the super-peer overlay graph, the clients attached to each cluster, and
per-peer file counts and lifespans.  It is the ``I`` in the paper's
E[... | I] expectations; the load engine (``core.load``) consumes it.

Peer bookkeeping
----------------
Each cluster ``c`` has ``partners`` super-peer nodes (1, or k under
k-redundancy) and ``clients[c]`` client nodes.  Client attributes are
stored flat with a CSR-style ``client_ptr`` so cluster ``c``'s clients are
``client_files[client_ptr[c]:client_ptr[c + 1]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import Configuration, GraphType
from ..querymodel.files import FileCountDistribution, default_file_distribution
from ..querymodel.lifespan import LifespanDistribution, default_lifespan_distribution
from ..stats.rng import derive_rng
from .clusters import sample_cluster_clients
from .graph import OverlayGraph
from .plod import plod_graph
from .strong import strongly_connected_graph


@dataclass(frozen=True)
class NetworkInstance:
    """A generated network instance (Section 4.1, step 1)."""

    config: Configuration
    graph: OverlayGraph
    clients: np.ndarray          # (n,) clients per cluster
    client_ptr: np.ndarray       # (n + 1,) CSR offsets into client arrays
    client_files: np.ndarray     # (total_clients,) files per client
    client_lifespans: np.ndarray  # (total_clients,) seconds
    partner_files: np.ndarray    # (n, partners) files per super-peer partner
    partner_lifespans: np.ndarray  # (n, partners) seconds

    # --- basic shape ---------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        return self.graph.num_nodes

    @property
    def partners(self) -> int:
        """Super-peer partners per cluster (1, or k under redundancy)."""
        return self.config.partners_per_cluster

    @property
    def total_clients(self) -> int:
        return int(self.clients.sum())

    @property
    def num_peers(self) -> int:
        """All peers: clients plus every super-peer partner."""
        return self.total_clients + self.num_clusters * self.partners

    def cluster_sizes(self) -> np.ndarray:
        """Cluster size per cluster, super-peer partners included."""
        return self.clients + self.partners

    # --- index and connection bookkeeping ------------------------------------

    @cached_property
    def index_sizes(self) -> np.ndarray:
        """x_tot per cluster: files of every partner plus every client.

        Under k-redundancy each partner indexes the clients' data *and* the
        other partners' data, so the per-partner index is the same x_tot.
        """
        client_sums = np.add.reduceat(
            np.append(self.client_files, 0), self.client_ptr[:-1]
        )
        # reduceat on an empty segment returns the element at the offset;
        # zero out clusters with no clients.
        client_sums[self.clients == 0] = 0
        return client_sums + self.partner_files.sum(axis=1)

    @cached_property
    def superpeer_connections(self) -> np.ndarray:
        """Open connections per super-peer *partner*, per cluster.

        A partner maintains: one connection per client, one per fellow
        partner, and — because "neighbors must be connected to each one of
        the partners" — ``partners`` connections per neighbouring cluster
        (k^2 total per overlay edge, k per partner per edge).
        """
        degrees = self.graph.degrees
        return self.clients + (self.partners - 1) + degrees * self.partners

    @property
    def client_connections(self) -> int:
        """Open connections per client: one per partner of its super-peer."""
        return self.partners

    @cached_property
    def join_rates(self) -> dict:
        """Per-peer join rates (1 / lifespan), split by role."""
        return {
            "clients": 1.0 / self.client_lifespans,
            "partners": 1.0 / self.partner_lifespans,
        }

    def describe(self) -> str:
        """One-line summary for logs and benchmark output."""
        return (
            f"instance: {self.num_clusters} clusters x "
            f"{self.partners} partner(s), {self.total_clients} clients, "
            f"{self.num_peers} peers, avg outdegree "
            f"{self.graph.average_outdegree():.2f}"
        )


def build_overlay(
    config: Configuration, rng: np.random.Generator | int | None = None
) -> OverlayGraph:
    """Generate the super-peer overlay for a configuration."""
    rng = derive_rng(rng, "overlay")
    n = config.num_clusters
    if config.graph_type is GraphType.STRONG:
        return strongly_connected_graph(n)
    if config.graph_type is GraphType.POWER_LAW:
        return plod_graph(n, config.avg_outdegree, rng)
    raise ValueError(f"unknown graph type: {config.graph_type!r}")


def replace_overlay(instance: NetworkInstance, graph) -> NetworkInstance:
    """Return a copy of ``instance`` with a different super-peer overlay.

    Used by the topology-robustness ablations (``topology.generators``):
    the cluster populations, file counts and lifespans stay fixed so the
    comparison isolates the overlay shape.  The new graph must have one
    node per cluster.
    """
    if graph.num_nodes != instance.num_clusters:
        raise ValueError(
            f"overlay has {graph.num_nodes} nodes, instance has "
            f"{instance.num_clusters} clusters"
        )
    from dataclasses import replace

    return replace(instance, graph=graph)


def build_instance(
    config: Configuration,
    seed: int | np.random.Generator | None = None,
    file_distribution: FileCountDistribution | None = None,
    lifespan_distribution: LifespanDistribution | None = None,
) -> NetworkInstance:
    """Generate one instance of a configuration (Section 4.1, step 1).

    Deterministic given ``seed``; independent streams drive the overlay,
    cluster sizes, file counts and lifespans so that, e.g., changing the
    TTL (which draws nothing) never perturbs the generated instance.
    """
    file_distribution = file_distribution or default_file_distribution()
    lifespan_distribution = lifespan_distribution or default_lifespan_distribution()

    graph = build_overlay(config, derive_rng(seed, "overlay"))
    clients = sample_cluster_clients(config, derive_rng(seed, "clusters"))

    total_clients = int(clients.sum())
    client_ptr = np.zeros(config.num_clusters + 1, dtype=np.int64)
    np.cumsum(clients, out=client_ptr[1:])

    files_rng = derive_rng(seed, "files")
    life_rng = derive_rng(seed, "lifespan")
    partners = config.partners_per_cluster
    client_files = file_distribution.sample(files_rng, total_clients)
    partner_files = file_distribution.sample(
        files_rng, config.num_clusters * partners
    ).reshape(config.num_clusters, partners)
    client_lifespans = lifespan_distribution.sample(life_rng, total_clients)
    partner_lifespans = lifespan_distribution.sample(
        life_rng, config.num_clusters * partners
    ).reshape(config.num_clusters, partners)

    return NetworkInstance(
        config=config,
        graph=graph,
        clients=clients,
        client_ptr=client_ptr,
        client_files=client_files,
        client_lifespans=client_lifespans,
        partner_files=partner_files,
        partner_lifespans=partner_lifespans,
    )


# --- fingerprint-keyed instance cache ----------------------------------------

#: Config fields that instance generation actually reads.  Two configs
#: equal on these (same seed, default distributions) generate identical
#: instances — every other field (ttl, rates) draws nothing, so e.g. a
#: TTL sweep reuses one built topology across all its points.
_GENERATIVE_FIELDS = (
    "graph_type", "graph_size", "cluster_size", "redundancy",
    "redundancy_factor", "avg_outdegree", "cluster_size_sigma",
)

_INSTANCE_CACHE: dict[tuple, NetworkInstance] = {}


def instance_fingerprint(config: Configuration, seed: int | None) -> tuple:
    """Hashable key identifying the arrays ``build_instance`` would emit."""
    return tuple(getattr(config, f) for f in _GENERATIVE_FIELDS) + (seed,)


def build_instance_cached(
    config: Configuration,
    seed: int | np.random.Generator | None = None,
) -> NetworkInstance:
    """:func:`build_instance` behind a process-wide fingerprint cache.

    Bit-identical to the uncached builder (generation is deterministic
    given the fingerprint); only hashable seeds cache (a live
    ``Generator`` has unobservable state and falls through).  Cached
    instances are shared read-only — consumers that mutate collections
    (the simulators) already copy their arrays — and a hit under a
    different non-generative config (say another TTL) rebinds ``config``
    on the cached arrays instead of regenerating them.

    The cache is fork-friendly by design: :func:`repro.api.run_sweep`
    pre-warms it in the parent so pool workers inherit every instance
    through copy-on-write memory instead of rebuilding per point.
    """
    if isinstance(seed, np.random.Generator):
        return build_instance(config, seed=seed)
    key = instance_fingerprint(config, seed)
    hit = _INSTANCE_CACHE.get(key)
    if hit is None:
        hit = _INSTANCE_CACHE[key] = build_instance(config, seed=seed)
    if hit.config is config or hit.config == config:
        return hit
    from dataclasses import replace

    return replace(hit, config=config)


def clear_instance_cache() -> None:
    """Drop every cached instance (tests; memory-sensitive callers)."""
    _INSTANCE_CACHE.clear()

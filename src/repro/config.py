"""Configuration parameters (Table 1) and named presets.

A *configuration* describes both the topology of the network and the user
behaviour driving it.  Table 1 of the paper:

==============  =========  =====================================================
Name            Default    Description
==============  =========  =====================================================
Graph Type      Power      strongly connected, or power-law
Graph Size      10000      number of peers in the network
Cluster Size    10         number of nodes per cluster (super-peer included)
Redundancy      No         whether 2-redundant "virtual" super-peers are used
Avg. Outdegree  3.1        average outdegree of a super-peer
TTL             7          time-to-live of a query message
Query Rate      9.26e-3    expected queries per user per second
Update Rate     1.85e-3    expected updates per user per second
==============  =========  =====================================================

Join rate is *not* a configuration parameter: it is determined per node as
the inverse of its session length (Section 4.1, step 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from . import constants
from .codec import Codec


class GraphType(enum.Enum):
    """Super-peer overlay topology family studied by the paper."""

    #: Every super-peer is a neighbor of every other ("best case" for
    #: result quality and bandwidth: TTL=1 reaches everyone, no forwarding).
    STRONG = "strong"

    #: Power-law outdegree distribution generated with PLOD, reflecting
    #: the measured Gnutella topology.
    POWER_LAW = "power-law"


@dataclass(frozen=True)
class Configuration(Codec):
    """One row of the paper's design space (Table 1).

    Instances are immutable; use :meth:`with_changes` to derive variants,
    mirroring how the paper sweeps one parameter at a time.
    """

    graph_type: GraphType = GraphType.POWER_LAW
    graph_size: int = 10_000
    cluster_size: int = 10
    redundancy: bool = False
    avg_outdegree: float = 3.1
    ttl: int = 7
    query_rate: float = constants.DEFAULT_QUERY_RATE
    update_rate: float = constants.DEFAULT_UPDATE_RATE

    #: Redundancy factor k.  The paper analyses k=2 exclusively because
    #: inter-super-peer connections grow as k^2; we keep the knob general.
    redundancy_factor: int = 2

    #: Relative spread of cluster sizes: C ~ N(c, cluster_size_sigma * c).
    cluster_size_sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.graph_size < 1:
            raise ValueError(f"graph_size must be >= 1, got {self.graph_size}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.cluster_size > self.graph_size:
            raise ValueError(
                f"cluster_size ({self.cluster_size}) cannot exceed "
                f"graph_size ({self.graph_size})"
            )
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")
        if self.avg_outdegree < 1.0 and self.num_clusters > 1:
            raise ValueError(
                f"avg_outdegree must be >= 1 for multi-cluster networks, "
                f"got {self.avg_outdegree}"
            )
        if self.query_rate < 0 or self.update_rate < 0:
            raise ValueError("action rates must be non-negative")
        if self.redundancy and self.redundancy_factor < 2:
            raise ValueError("redundancy_factor must be >= 2 when redundancy is on")
        if self.redundancy and self.cluster_size < self.redundancy_factor:
            raise ValueError(
                "cluster_size must be >= redundancy_factor so each cluster "
                "can staff its virtual super-peer"
            )
        if not 0.0 <= self.cluster_size_sigma < 1.0:
            raise ValueError("cluster_size_sigma must be in [0, 1)")

    # --- derived quantities (Section 4.1, step 1) ---------------------------

    @property
    def num_clusters(self) -> int:
        """Number of clusters n = GraphSize / ClusterSize (at least 1)."""
        return max(1, round(self.graph_size / self.cluster_size))

    @property
    def mean_clients_per_cluster(self) -> float:
        """Mean number of *client* nodes attached to one virtual super-peer.

        Without redundancy a cluster of size c has one super-peer and c - 1
        clients; with k-redundancy it has k partners and c - k clients.
        """
        partners = self.redundancy_factor if self.redundancy else 1
        return max(0.0, float(self.cluster_size - partners))

    @property
    def partners_per_cluster(self) -> int:
        """Number of nodes forming the (virtual) super-peer of a cluster."""
        return self.redundancy_factor if self.redundancy else 1

    @property
    def is_pure(self) -> bool:
        """A pure P2P network is the degenerate cluster_size == 1 case."""
        return self.cluster_size == 1

    def with_changes(self, **changes) -> "Configuration":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used by the benchmark harness."""
        red = f", {self.redundancy_factor}-redundant" if self.redundancy else ""
        return (
            f"{self.graph_type.value} graph, {self.graph_size} peers, "
            f"cluster size {self.cluster_size}{red}, "
            f"avg outdegree {self.avg_outdegree}, TTL {self.ttl}"
        )


#: The paper's default configuration (Table 1).
DEFAULT = Configuration()

#: Today's Gnutella as analysed in Section 5.2: 20,000 peers, no clusters,
#: measured average outdegree 3.1, TTL 7.
GNUTELLA_2001 = Configuration(
    graph_type=GraphType.POWER_LAW,
    graph_size=20_000,
    cluster_size=1,
    redundancy=False,
    avg_outdegree=3.1,
    ttl=7,
)

#: The refined design produced by the global procedure in Section 5.2:
#: cluster size 10, each super-peer with ~18 super-peer neighbours, TTL 2.
GNUTELLA_REDESIGNED = Configuration(
    graph_type=GraphType.POWER_LAW,
    graph_size=20_000,
    cluster_size=10,
    redundancy=False,
    avg_outdegree=18.0,
    ttl=2,
)

#: The redesigned topology with 2-redundant super-peers (Fig. 11 third row).
GNUTELLA_REDESIGNED_REDUNDANT = GNUTELLA_REDESIGNED.with_changes(redundancy=True)

#: Strongly connected best case used in Figures 4-6 (TTL=1 suffices).
STRONG_BEST_CASE = Configuration(
    graph_type=GraphType.STRONG,
    graph_size=10_000,
    cluster_size=10,
    ttl=1,
)

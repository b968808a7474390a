"""EXT-HET — extension: the meltdown metric under peer heterogeneity.

The paper opens with the August 2000 Gnutella collapse: "peers connected
by dialup modems becoming saturated by the increased load, dying, and
fragmenting the network", because pure networks assign equal roles
"regardless of capability".  This bench replays that argument with
numbers: sample a 2001-flavoured capacity mix over the peers (25% dialup
... 8% campus LAN, spanning the 3 orders of magnitude Saroiu measured)
and compare

* the fraction of peers pushed past their own link by today's pure
  topology, vs
* the redesigned super-peer network, where clients are shielded and the
  super-peer role only needs to be staffed by the capable minority.
"""

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.querymodel.capacities import default_capacity_mix, overload_fraction
from repro.reporting import render_table
from repro.topology.builder import build_instance

from conftest import run_once


def test_ext_heterogeneity(benchmark, emit):
    graph_size = 20_000 // 5
    today_cfg = Configuration(
        graph_size=graph_size, cluster_size=1, avg_outdegree=3.1, ttl=7
    )
    new_cfg = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=18.0, ttl=2
    )

    def experiment():
        today = evaluate_instance(build_instance(today_cfg, seed=0))
        new = evaluate_instance(build_instance(new_cfg, seed=0))
        return today, new

    today, new = run_once(benchmark, experiment)
    mix = default_capacity_mix()

    today_over = overload_fraction(
        today.all_node_loads("incoming"), today.all_node_loads("outgoing"), rng=1
    )
    client_over = overload_fraction(
        new.client_incoming_bps, new.client_outgoing_bps, rng=1
    )
    sp = new.mean_superpeer_load()
    eligible = mix.eligible_fraction(sp.incoming_bps, sp.outgoing_bps)
    needed = 1.0 / new_cfg.cluster_size

    # Role-assignment policy on the redesigned topology: blind vs
    # capacity-aware selection of the super-peers.
    from repro.core.selection import selection_gain

    random_roles, aware_roles = selection_gain(new, rng=1)

    rows = [
        ["peers overloaded, today's pure topology", f"{today_over:.1%}"],
        ["clients overloaded, redesigned topology", f"{client_over:.1%}"],
        ["mean super-peer load (in / out)",
         f"{sp.incoming_bps:.3g} / {sp.outgoing_bps:.3g} bps"],
        ["population able to carry that load", f"{eligible:.0%}"],
        ["population needed as super-peers", f"{needed:.0%}"],
        ["super-peers overloaded, roles assigned blindly",
         f"{random_roles.overloaded_superpeers:.1%}"],
        ["super-peers overloaded, capacity-aware roles",
         f"{aware_roles.overloaded_superpeers:.1%}"],
    ]

    assert today_over > 0.02
    assert client_over == 0.0
    assert eligible >= needed
    assert aware_roles.overloaded_superpeers <= random_roles.overloaded_superpeers

    emit("EXT_heterogeneity", render_table(
        ["metric", "value"],
        rows,
        title=(
            f"heterogeneity: who melts down? ({graph_size} peers, "
            "2001-style capacity mix)"
        ),
    ))

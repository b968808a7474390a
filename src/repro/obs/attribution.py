"""Cost attribution: where every unit of expected load comes from.

The mean-value analysis (Eqs. 1-4) computes per-(source, target) expected
cost per action and immediately collapses it into per-node and aggregate
totals.  This module preserves the intermediate terms: a
:class:`LoadAttribution` passed to
:func:`repro.core.load.evaluate_instance` is attached to the engine's
accumulator, the one place a charge is recorded, and receives through
one hook (:meth:`LoadAttribution.add`) a copy of every contribution,
tagged along four dimensions —

* **target node** — the cluster's super-peer partner (or the client)
  that pays the cost;
* **action** — ``query`` (flood + index probe), ``response`` (reverse-path
  or direct Response traffic), ``join``, ``update``;
* **resource** — ``in_bw``, ``out_bw`` (bytes/s), ``proc`` (units/s);
* **hop** — the BFS depth at which the cost is incurred (0 at the
  source; joins/updates are not hop-structured and land at hop 0).

Summing the table over all dimensions reproduces the per-node and
aggregate loads of the :class:`~repro.core.load.LoadReport` bit-for-bit
up to float reassociation (:meth:`LoadAttribution.verify` checks this to
1e-9 relative tolerance; ``tests/test_attribution.py`` holds it on the
golden configurations).  Attribution is observation-only: it records
copies of values the engine computes anyway, never touches an RNG and
never feeds back, so enabling it cannot change a single output number
(the neutrality test extends ``tests/test_obs.py``'s contract).

Flood charges arrive one block of sources at a time, already split by
BFS depth for the whole block.  On explicit overlays the flood and
reverse-path edges are attributed too (:meth:`LoadAttribution.add_edges`,
also per block), so hotspot reports can answer "which *links* carry the
most load", not only which super-peers.  The complete graph K_n uses
closed forms and materializes no edges; edge attribution is skipped
there, at any size.
"""

from __future__ import annotations

import numpy as np

from .. import constants
from ..topology.strong import CompleteGraph
from ..units import bytes_per_second_to_bps, units_per_second_to_hz

#: Attribution dimensions (fixed vocabulary; exports rely on the order).
ACTIONS = ("query", "response", "join", "update", "repair", "gossip")
RESOURCES = ("in_bw", "out_bw", "proc")

_QUERY_BYTES = constants.QUERY_MESSAGE_BASE + constants.QUERY_STRING_LENGTH


class AttributionError(AssertionError):
    """The attributed totals failed to reproduce the engine's loads."""


class LoadAttribution:
    """Accumulates per-(node, action, resource, hop) load contributions.

    Recording happens in the engine's raw units (bytes/s and
    processing-units/s) and in the engine's own spaces — cluster-level
    query traffic (split across the k partners at read time), per-partner
    traffic, and per-client traffic — so the read-side arithmetic mirrors
    :class:`~repro.core.load.LoadReport` exactly.
    """

    def __init__(self) -> None:
        self._bound = False

    # --- binding ----------------------------------------------------------------

    def bind(self, instance) -> "LoadAttribution":
        """Attach to one instance, resetting all tables."""
        self.instance = instance
        self.n = int(instance.num_clusters)
        self.m = int(instance.total_clients)
        self.k = int(instance.partners)
        # (action, resource, hop) -> n-vector (q: cluster query traffic,
        # split by k at read time; p: per-partner traffic) or m-vector (c).
        self._q: dict[tuple[str, str, int], np.ndarray] = {}
        self._p: dict[tuple[str, str, int], np.ndarray] = {}
        self._c: dict[tuple[str, str, int], np.ndarray] = {}
        # Directed-edge attribution (explicit overlays only: K_n is priced
        # in closed form and its edges are never built).
        graph = instance.graph
        self._edges = None
        if not isinstance(graph, CompleteGraph):
            tails, heads = graph.directed_edge_arrays()
            self._tails = tails
            self._heads = heads
            # Sorted (tail * n + head) keys let response-path edges be
            # looked up with one searchsorted per block.
            keys = tails.astype(np.int64) * self.n + heads.astype(np.int64)
            self._edge_order = np.argsort(keys, kind="stable")
            self._edge_keys = keys[self._edge_order]
            self._edges = {
                "flood_messages": np.zeros(tails.size),
                "flood_bytes": np.zeros(tails.size),
                "response_messages": np.zeros(tails.size),
                "response_bytes": np.zeros(tails.size),
            }
        self._bound = True
        return self

    def _require_bound(self) -> None:
        if not self._bound:
            raise RuntimeError(
                "LoadAttribution is not bound; pass it to evaluate_instance "
                "(or call bind(instance)) before reading it"
            )

    # --- recording hooks (called by the load engine) -----------------------------

    def add(self, space: str, action: str, resource: str, amounts,
            hop: int = 0) -> None:
        """File one contribution: ``space`` is ``"q"`` (cluster query
        traffic, split by k at read time), ``"p"`` (per partner) or ``"c"``
        (per client); ``amounts`` is a scalar or a per-node vector."""
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}; one of {ACTIONS}")
        if resource not in RESOURCES:
            raise ValueError(f"unknown resource {resource!r}; one of {RESOURCES}")
        store = {"q": self._q, "p": self._p, "c": self._c}[space]
        key = (action, resource, int(hop))
        table = store.get(key)
        if table is None:
            table = store[key] = np.zeros(self.m if space == "c" else self.n)
        table += amounts

    def add_edges(self, fb, w: np.ndarray, sent) -> None:
        """Attribute a flood block's query and Response traffic to edges.

        ``w`` is each row's query rate (scaled in sampled mode) and
        ``sent`` the (3, b, n) Response messages, addresses and results
        each node ships toward its row's source (``None`` in
        direct-response mode, where Responses skip the overlay).  No-op on
        K_n, which has no explicit edges.
        """
        if self._edges is None:
            return
        # Flood: every live directed edge out of a forwarder carries one
        # query copy (the same edge set routing uses for receipts).
        depth, pred = fb.depth[:, self._tails], fb.pred[:, self._tails]
        live = (depth >= 0) & (depth < fb.ttl) & (pred != self._heads)
        flood = w @ live
        self._edges["flood_messages"] += flood
        self._edges["flood_bytes"] += flood * _QUERY_BYTES
        if sent is None:
            return
        # Responses: each reached non-source node v ships its subtree's
        # accumulated Response weight over the single edge (v -> pred[v]).
        rows, children = np.nonzero((fb.depth > 0) & (sent[0] > 0))
        if children.size == 0:
            return
        keys = children.astype(np.int64) * self.n + fb.pred[rows, children]
        pos = np.searchsorted(self._edge_keys, keys)
        pos = np.clip(pos, 0, self._edge_keys.size - 1)
        found = self._edge_keys[pos] == keys
        edge_ids = self._edge_order[pos[found]]
        rate = w[rows[found]]
        m, a, r = sent[:, rows[found], children[found]]
        size = self._tails.size
        self._edges["response_messages"] += np.bincount(
            edge_ids, weights=rate * m, minlength=size)
        self._edges["response_bytes"] += np.bincount(
            edge_ids, minlength=size, weights=rate * (
                constants.RESPONSE_MESSAGE_BASE * m
                + constants.RESPONSE_ADDRESS_SIZE * a
                + constants.RESULT_RECORD_SIZE * r
            ))

    # --- read side ---------------------------------------------------------------

    def _convert(self, resource: str, raw: np.ndarray) -> np.ndarray:
        if resource == "proc":
            return units_per_second_to_hz(raw)
        return bytes_per_second_to_bps(raw)

    def superpeer_tables(self) -> dict[tuple[str, str, int], np.ndarray]:
        """{(action, resource, hop): per-partner n-vector, figure units}.

        Mirrors the engine's read: cluster query traffic / k + per-partner
        traffic, converted to bps / Hz.
        """
        self._require_bound()
        tables: dict[tuple[str, str, int], np.ndarray] = {}
        for key, arr in self._q.items():
            tables[key] = tables.get(key, 0.0) + arr / self.k
        for key, arr in self._p.items():
            tables[key] = tables.get(key, 0.0) + arr
        return {
            (a, r, h): self._convert(r, raw)
            for (a, r, h), raw in sorted(tables.items())
        }

    def client_tables(self) -> dict[tuple[str, str, int], np.ndarray]:
        """{(action, resource, hop): per-client m-vector, figure units}."""
        self._require_bound()
        return {
            (a, r, h): self._convert(r, arr)
            for (a, r, h), arr in sorted(self._c.items())
        }

    def superpeer_totals(self, resource: str) -> np.ndarray:
        """Attributed per-partner load of every cluster for one resource."""
        total = np.zeros(self.n)
        for (a, r, h), arr in self.superpeer_tables().items():
            if r == resource:
                total += arr
        return total

    def client_totals(self, resource: str) -> np.ndarray:
        total = np.zeros(self.m)
        for (a, r, h), arr in self.client_tables().items():
            if r == resource:
                total += arr
        return total

    def aggregate(self, action: str | None = None,
                  hop: int | None = None) -> dict[str, float]:
        """System-wide attributed load (Eq. 4 shape), optionally filtered.

        Returns ``{"incoming_bps", "outgoing_bps", "processing_hz"}``;
        super-peer partners are counted k times, exactly as
        :meth:`LoadReport.aggregate_load` does.
        """
        out = {"in_bw": 0.0, "out_bw": 0.0, "proc": 0.0}
        for (a, r, h), arr in self.superpeer_tables().items():
            if (action is None or a == action) and (hop is None or h == hop):
                out[r] += self.k * float(arr.sum())
        for (a, r, h), arr in self.client_tables().items():
            if (action is None or a == action) and (hop is None or h == hop):
                out[r] += float(arr.sum())
        return {
            "incoming_bps": out["in_bw"],
            "outgoing_bps": out["out_bw"],
            "processing_hz": out["proc"],
        }

    def by_action(self) -> dict[str, dict[str, float]]:
        """Aggregate load decomposed by action, in a stable action order."""
        return {a: self.aggregate(action=a) for a in ACTIONS}

    def by_hop(self) -> dict[int, dict[str, float]]:
        """Aggregate load decomposed by BFS hop (joins/updates at hop 0)."""
        hops = sorted({h for (_, _, h) in self.superpeer_tables()}
                      | {h for (_, _, h) in self.client_tables()})
        return {h: self.aggregate(hop=h) for h in hops}

    # --- hotspot reports ---------------------------------------------------------

    def top_superpeers(self, top: int = 10) -> list[dict]:
        """The ``top`` clusters by per-partner total bandwidth.

        Each row names the cluster, its three attributed loads, its
        overlay out-degree and the action class that dominates its
        bandwidth — the Figure 7 discussion's "high-outdegree super-peers
        dominate" claim, made checkable per node.
        """
        self._require_bound()
        tables = self.superpeer_tables()
        in_bw = self.superpeer_totals("in_bw")
        out_bw = self.superpeer_totals("out_bw")
        proc = self.superpeer_totals("proc")
        bandwidth = in_bw + out_bw
        system_bw = float(bandwidth.sum())
        graph = self.instance.graph
        degrees = getattr(graph, "degrees", None)
        order = np.argsort(bandwidth)[::-1][: max(0, top)]
        rows = []
        for c in order.tolist():
            per_action = {
                a: sum(
                    float(arr[c])
                    for (aa, r, h), arr in tables.items()
                    if aa == a and r in ("in_bw", "out_bw")
                )
                for a in ACTIONS
            }
            dominant = max(per_action, key=per_action.get)
            rows.append({
                "cluster": int(c),
                "outdegree": int(degrees[c]) if degrees is not None else self.n - 1,
                "incoming_bps": float(in_bw[c]),
                "outgoing_bps": float(out_bw[c]),
                "processing_hz": float(proc[c]),
                "bandwidth_bps": float(bandwidth[c]),
                "share": float(bandwidth[c]) / system_bw if system_bw else 0.0,
                "dominant_action": dominant,
            })
        return rows

    def top_edges(self, top: int = 10) -> list[dict]:
        """The ``top`` directed overlay edges by attributed bandwidth.

        Empty on overlays without explicit edges (K_n closed forms).
        """
        self._require_bound()
        if self._edges is None:
            return []
        bytes_per_s = self._edges["flood_bytes"] + self._edges["response_bytes"]
        order = np.argsort(bytes_per_s)[::-1][: max(0, top)]
        rows = []
        for e in order.tolist():
            if bytes_per_s[e] <= 0:
                break
            rows.append({
                "edge": (int(self._tails[e]), int(self._heads[e])),
                "bandwidth_bps": float(bytes_per_second_to_bps(bytes_per_s[e])),
                "flood_bps": float(bytes_per_second_to_bps(self._edges["flood_bytes"][e])),
                "response_bps": float(
                    bytes_per_second_to_bps(self._edges["response_bytes"][e])
                ),
                "messages_per_s": float(
                    self._edges["flood_messages"][e]
                    + self._edges["response_messages"][e]
                ),
            })
        return rows

    def top_actions(self) -> list[dict]:
        """Action classes ranked by aggregate bandwidth (in + out)."""
        rows = []
        for action, loads in self.by_action().items():
            rows.append({
                "action": action,
                "incoming_bps": loads["incoming_bps"],
                "outgoing_bps": loads["outgoing_bps"],
                "processing_hz": loads["processing_hz"],
                "bandwidth_bps": loads["incoming_bps"] + loads["outgoing_bps"],
            })
        total = sum(r["bandwidth_bps"] for r in rows)
        for r in rows:
            r["share"] = r["bandwidth_bps"] / total if total else 0.0
        rows.sort(key=lambda r: r["bandwidth_bps"], reverse=True)
        return rows

    # --- the invariant -----------------------------------------------------------

    def verify(self, report, rtol: float = 1e-9) -> dict[str, float]:
        """Max relative error of attributed totals vs the engine's loads.

        Checks the per-node super-peer vectors, the per-client vectors and
        the Eq. 4 aggregate for all three resources.  Returns the errors;
        raises :class:`AttributionError` when any exceeds ``rtol``.
        """
        self._require_bound()

        def rel(err_a, err_b) -> float:
            a = np.atleast_1d(np.asarray(err_a, dtype=float))
            b = np.atleast_1d(np.asarray(err_b, dtype=float))
            denom = np.maximum(np.abs(b), 1e-300)
            mism = np.abs(a - b) / denom
            mism[(a == 0.0) & (b == 0.0)] = 0.0
            return float(mism.max()) if mism.size else 0.0

        agg = report.aggregate_load()
        att_agg = self.aggregate()
        errors = {
            "superpeer_in": rel(self.superpeer_totals("in_bw"),
                                report.superpeer_incoming_bps),
            "superpeer_out": rel(self.superpeer_totals("out_bw"),
                                 report.superpeer_outgoing_bps),
            "superpeer_proc": rel(self.superpeer_totals("proc"),
                                  report.superpeer_processing_hz),
            "client_in": rel(self.client_totals("in_bw"),
                             report.client_incoming_bps),
            "client_out": rel(self.client_totals("out_bw"),
                              report.client_outgoing_bps),
            "client_proc": rel(self.client_totals("proc"),
                               report.client_processing_hz),
            "aggregate_in": rel(att_agg["incoming_bps"], agg.incoming_bps),
            "aggregate_out": rel(att_agg["outgoing_bps"], agg.outgoing_bps),
            "aggregate_proc": rel(att_agg["processing_hz"], agg.processing_hz),
        }
        bad = {k: v for k, v in errors.items() if v > rtol}
        if bad:
            raise AttributionError(
                f"attributed totals drifted beyond rtol={rtol}: {bad}"
            )
        return errors

    # --- export ------------------------------------------------------------------

    def to_dict(self, top: int = 10) -> dict:
        """A stable, JSON-ready summary of the attribution tables."""
        self._require_bound()
        return {
            "num_clusters": self.n,
            "num_clients": self.m,
            "partners": self.k,
            "aggregate": self.aggregate(),
            "by_action": self.by_action(),
            "by_hop": {str(h): v for h, v in self.by_hop().items()},
            "top_superpeers": self.top_superpeers(top),
            "top_edges": [
                {**row, "edge": list(row["edge"])} for row in self.top_edges(top)
            ],
            "top_actions": self.top_actions(),
        }


def profile_instance(instance, top: int = 10, rtol: float = 1e-9, **kwargs):
    """Evaluate ``instance`` with attribution enabled and verify the invariant.

    Returns ``(report, attribution)``.  ``kwargs`` pass through to
    :func:`repro.core.load.evaluate_instance` (``max_sources``, ``rng``,
    ``components``, ``response_mode``...).
    """
    from ..core.load import evaluate_instance  # local: avoid import cycle

    attribution = LoadAttribution()
    report = evaluate_instance(instance, attribution=attribution, **kwargs)
    attribution.verify(report, rtol=rtol)
    return report, attribution

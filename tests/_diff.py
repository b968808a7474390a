"""Differential-testing harness helpers: event engine vs array engine.

``tests/test_differential.py`` drives these.  The equivalence contract
between ``engine="event"`` (the message-level oracle) and
``engine="array"`` (``repro.sim.fastcore``) is **pre-registered here**,
once, so the test file asserts exactly what this module declares and
nothing gets tuned after looking at failures.

Deterministic lane — bit-equality
---------------------------------
Both engines replay one shared :class:`~repro.sim.schedule.WorkloadSchedule`,
so these quantities must match exactly:

* **fault-free runs**: ``num_queries``, ``num_joins``, ``num_updates``,
  total flood messages (``sim.query_messages``) and total reach
  (``mean_reach_clusters * num_queries``).  The last two are sums of
  per-source integers below 2**53, so float accumulation order cannot
  perturb them.
* **no-crash fault plans** (loss / partitions / slow / retry): the same
  five, plus ``queries_attempted`` — no cluster ever goes dark, so
  every scheduled event runs on both engines.
* **crash plans**: only ``num_updates + lost_updates``.  Crash/recovery
  timelines are engine-local (the fault stream interleaves with
  engine-specific per-query draw counts), so which updates are lost —
  and how many recovery joins occur — legitimately diverges; the *sum*
  is pinned by the schedule.

Statistical lane — pre-registered tolerances
--------------------------------------------
The schedule pins every heavy-tailed workload attribute (arrival
counts, query classes, replacement collection sizes), so the only
cross-engine randomness left is light-tailed match/delivery sampling:
per-collection Binomial draws on the event side versus mean-field
expectations plus end-of-run delivery draws on the array side.  Those
concentrate over the ~1e3 queries of a panel run (observed per-seed
sigma of a few percent on fault-free configs; crash scenarios add
engine-local recovery-timing noise of up to ~10%).  They are compared
as a two-level test:

* per-case: ``|array/event - 1| <= rel`` from :data:`TOLERANCES` — a
  bound a few sampling sigmas wide at panel run lengths that catches
  gross divergence on any single case;
* panel-wide: ``|mean of relative errors| <= BIAS_TOL`` — the mean of
  ~N relative errors shrinks as 1/sqrt(N) if errors are noise, so this
  much tighter bound catches *systematic* bias that per-case slack
  would hide.

Gossip-detector cases also carry the detector's rumor, suspicion and
promotion counts on per-case lanes only.

Divergence artifacts
--------------------
``format_failure`` dumps the failing case (config kwargs, seed, plan,
both engines' summaries) as JSON under ``tests/_diff_artifacts/`` and
returns an assertion message pointing at it.  Replay with::

    python tests/_diff.py tests/_diff_artifacts/<case>.json
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.config import Configuration, GraphType
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.faults import (
    CrashSpec, FaultOutcome, FaultPlan, PartitionWindow, RetryPolicy, SlowSpec,
)
from repro.sim.gossip import GossipSpec
from repro.sim.monitor import DetectorSpec
from repro.sim.network import simulate_instance
from repro.sim.recovery import RecoveryPolicy
from repro.topology.builder import build_instance

ARTIFACT_DIR = pathlib.Path(__file__).parent / "_diff_artifacts"

#: Statistical-lane tolerances, pre-registered.  ``rel`` is the
#: per-case relative bound; metrics absent from a run (e.g. zero
#: baseline) fall back to ``abs_floor`` on the absolute difference.
TOLERANCES = {
    # Delivered results: with classes and collections pinned by the
    # schedule, per-case sigma is a few percent fault-free; crash
    # scenarios add engine-local recovery-timing noise (~10% observed),
    # so 20% is the gross-divergence bound.
    "mean_results_per_query": {"rel": 0.20, "abs_floor": 1.0},
    # Per-node loads average over every query/join/update of the run;
    # churn/update/join bytes are now identical across engines, so only
    # the query-response share fluctuates.
    "sp_incoming": {"rel": 0.12, "abs_floor": 1.0},
    "sp_outgoing": {"rel": 0.12, "abs_floor": 1.0},
    "sp_processing": {"rel": 0.12, "abs_floor": 1.0},
    "response_messages": {"rel": 0.15, "abs_floor": 5.0},
    # Faulty runs only; success is a rate in [0, 1], bounded absolutely.
    "query_success_rate": {"rel": None, "abs_floor": 0.06},
    # Gossip-detector runs only (the crash_gossip case).  Bounds are
    # about four sigmas of the cross-engine relative error measured on
    # that case's config over 17 fixed seeds (18 and 100-115): sigma
    # 2.0% for rumors, 7.8% for suspicions, 9.2% for promotions.  One
    # case per lane, so they stay out of the panel-wide bias check.
    "gossip_rumors_sent": {"rel": 0.08, "abs_floor": 100.0, "bias": False},
    "gossip_suspicions": {"rel": 0.30, "abs_floor": 5.0, "bias": False},
    "promotions": {"rel": 0.35, "abs_floor": 5.0, "bias": False},
}

#: Panel-wide bound on the mean relative error of each statistical
#: metric (systematic-bias detector; see module docstring).  Observed
#: panel means sit under 1%; 3% leaves noise headroom while still
#: catching any dropped cost term or misderived expectation.
BIAS_TOL = 0.03


@dataclass(frozen=True)
class DiffCase:
    """One pre-registered panel case: config + seed + fault scenario."""

    name: str
    config: dict                      # Configuration kwargs (JSON-able)
    seed: int = 0
    duration: float = 300.0
    plan: dict | None = None          # fault plan spec (JSON-able), or None
    recovery: str | None = None       # None | "oracle" | "gossip"
    enable_churn: bool = True
    enable_updates: bool = True

    @property
    def has_crash(self) -> bool:
        return bool(self.plan and self.plan.get("crash"))

    def to_dict(self) -> dict:
        return {
            "name": self.name, "config": self.config, "seed": self.seed,
            "duration": self.duration, "plan": self.plan,
            "recovery": self.recovery, "enable_churn": self.enable_churn,
            "enable_updates": self.enable_updates,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DiffCase":
        return cls(**payload)


def build_configuration(case: DiffCase) -> Configuration:
    kwargs = dict(case.config)
    if "graph_type" in kwargs:
        kwargs["graph_type"] = GraphType(kwargs["graph_type"])
    return Configuration(**kwargs)


def build_plan(case: DiffCase, num_clusters: int) -> FaultPlan | None:
    """Materialize the case's JSON-able plan spec into a FaultPlan."""
    if case.plan is None:
        return None
    spec = case.plan
    crash = None
    if spec.get("crash"):
        crash = CrashSpec(**spec["crash"])
    slow = None
    if spec.get("slow"):
        slow = SlowSpec(**spec["slow"])
    retry = None
    if spec.get("retry"):
        retry = RetryPolicy(**spec["retry"])
    partitions = []
    for win in spec.get("partitions", ()):  # [start_frac, end_frac, n_island]
        start_frac, end_frac, n_island = win
        island = tuple(range(min(n_island, num_clusters - 1)))
        partitions.append(PartitionWindow(
            start_frac * case.duration, end_frac * case.duration, island
        ))
    return FaultPlan(
        message_loss=float(spec.get("loss", 0.0)),
        crash=crash, slow=slow, retry=retry, partitions=tuple(partitions),
    )


def build_recovery(case: DiffCase) -> RecoveryPolicy | None:
    if case.recovery is None:
        return None
    detector = DetectorSpec(heartbeat_interval=4.0, timeout_beats=3)
    if case.recovery == "gossip":
        detector = DetectorSpec(
            heartbeat_interval=4.0, timeout_beats=3, mode="gossip",
            gossip=GossipSpec(
                probe_interval=2.0, suspect_timeout=6.0, fanout=2,
                anti_entropy_interval=10.0, corroboration_m=2, monitors_n=5,
                corroboration_timeout=6.0,
            ),
        )
    return RecoveryPolicy(
        detector=detector, promote=True, rehome=True, heal_partitions=True,
        promotion_time=8.0, rehome_time=2.0,
    )


def run_engine(case: DiffCase, engine: str) -> dict:
    """Run one case on one engine; return flat scalars for comparison.

    Each run gets a private :class:`MetricsRegistry` so counter reads
    are this run's alone, mirroring how sweep workers isolate metrics.
    """
    config = build_configuration(case)
    instance = build_instance(config, seed=case.seed)
    plan = build_plan(case, instance.num_clusters)
    outcome = FaultOutcome() if plan is not None else None
    registry = MetricsRegistry()
    with use_registry(registry):
        report = simulate_instance(
            instance, duration=case.duration, rng=case.seed, engine=engine,
            enable_churn=case.enable_churn, enable_updates=case.enable_updates,
            faults=plan, fault_metrics=outcome,
            recovery=build_recovery(case) if plan is not None else None,
        )
    out = {
        "num_queries": report.num_queries,
        "num_joins": report.num_joins,
        "num_updates": report.num_updates,
        "query_messages": registry.counter("sim.query_messages").value,
        "total_reach": report.mean_reach_clusters * max(1, report.num_queries),
        "mean_results_per_query": report.mean_results_per_query,
        "sp_incoming": float(np.mean(report.superpeer_incoming_bps)),
        "sp_outgoing": float(np.mean(report.superpeer_outgoing_bps)),
        "sp_processing": float(np.mean(report.superpeer_processing_hz)),
        "response_messages": registry.counter("sim.response_messages").value,
    }
    if outcome is not None:
        out.update({
            "queries_attempted": outcome.queries_attempted,
            "lost_updates": outcome.lost_updates,
            "deferred_joins": outcome.deferred_joins,
            "query_success_rate": outcome.query_success_rate,
        })
    if case.recovery == "gossip":
        out.update({name: getattr(outcome, name) for name in (
            "gossip_rumors_sent", "gossip_suspicions", "promotions")})
    snapshot = registry.snapshot()
    out["_counter_names"] = sorted(snapshot["counters"])
    out["_histogram_names"] = sorted(snapshot["histograms"])
    return out


def check_counter_parity(ev: dict, ar: dict) -> list[str]:
    """Instrumentation-parity mismatches: counter/histogram name sets.

    The array engine must register the same counter and histogram
    *families* as the event engine on every run — fault counters at
    zero on paths that cannot fault — so downstream dashboards and the
    benchmark baseline see one schema regardless of engine.  Timers are
    excluded: per-phase attribution is engine-specific by design
    (``sim.array.*`` vs the event loop's internals).
    """
    errors = []
    for key in ("_counter_names", "_histogram_names"):
        family = key.strip("_").replace("_names", "")
        missing = sorted(set(ev.get(key, [])) - set(ar.get(key, [])))
        extra = sorted(set(ar.get(key, [])) - set(ev.get(key, [])))
        if missing:
            errors.append(f"{family}s missing from array engine: {missing}")
        if extra:
            errors.append(f"{family}s only on array engine: {extra}")
    return errors


def deterministic_fields(case: DiffCase) -> list[str]:
    """The pre-registered bit-equality set for this case (see module doc)."""
    if case.plan is None:
        return ["num_queries", "num_joins", "num_updates",
                "query_messages", "total_reach"]
    if not case.has_crash:
        return ["num_queries", "num_joins", "num_updates",
                "queries_attempted"]
    return []  # crash plans: only the derived sum below


def check_deterministic(case: DiffCase, ev: dict, ar: dict) -> list[str]:
    """Bit-equality mismatches between the two engines' runs."""
    errors = []
    for name in deterministic_fields(case):
        if ev[name] != ar[name]:
            errors.append(
                f"{name}: event={ev[name]!r} != array={ar[name]!r}"
            )
    if case.has_crash:
        ev_sum = ev["num_updates"] + ev["lost_updates"]
        ar_sum = ar["num_updates"] + ar["lost_updates"]
        if ev_sum != ar_sum:
            errors.append(
                f"num_updates+lost_updates: event={ev_sum} != array={ar_sum}"
            )
    return errors


def statistical_errors(case: DiffCase, ev: dict, ar: dict) -> dict[str, float]:
    """Relative error per statistical metric present in both runs."""
    out = {}
    for name in TOLERANCES:
        if name not in ev or name not in ar:
            continue
        base = ev[name]
        out[name] = (ar[name] - base) / base if base else ar[name] - base
    return out


def check_statistical(case: DiffCase, ev: dict, ar: dict) -> list[str]:
    """Per-case coarse-bound violations for the statistical lane."""
    errors = []
    for name, err in statistical_errors(case, ev, ar).items():
        tol = TOLERANCES[name]
        if tol["rel"] is not None and ev[name]:
            if abs(err) > tol["rel"]:
                errors.append(
                    f"{name}: event={ev[name]:.4g} array={ar[name]:.4g} "
                    f"rel err {err:+.2%} > {tol['rel']:.0%}"
                )
        else:
            if abs(ar[name] - ev[name]) > tol["abs_floor"]:
                errors.append(
                    f"{name}: event={ev[name]:.4g} array={ar[name]:.4g} "
                    f"abs err > {tol['abs_floor']}"
                )
    return errors


def format_failure(case: DiffCase, ev: dict, ar: dict,
                   errors: list[str]) -> str:
    """Dump a replayable artifact and build the assertion message."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / f"{case.name}.json"
    path.write_text(json.dumps({
        "case": case.to_dict(),
        "event": ev,
        "array": ar,
        "errors": errors,
    }, indent=2, default=float))
    lines = "\n  ".join(errors)
    return (
        f"engines diverged on case {case.name!r}:\n  {lines}\n"
        f"replay artifact: {path} "
        f"(python tests/_diff.py {path})"
    )


# --- the fixed panel ---------------------------------------------------------

_PL = {"graph_type": "power-law", "avg_outdegree": 3.5, "ttl": 4}
_LOSS = {"loss": 0.05}
_RETRY = {"retry": {"timeout": 3.0, "max_retries": 2}}
_CRASH = {"crash": {"mean_recovery": 60.0, "lifespan_scale": 0.25}}

#: ~20 fixed configs spanning topology x cluster size x k-redundancy x
#: faults x detector.  Deterministic given each case's seed; the CI
#: ``differential-smoke`` job runs this panel on both engines.
PANEL: tuple[DiffCase, ...] = (
    # fault-free: topology x cluster size x redundancy x ttl
    DiffCase("pl_k1", {"graph_size": 240, "cluster_size": 8, **_PL}, seed=1),
    DiffCase("pl_k2", {"graph_size": 240, "cluster_size": 8, **_PL,
                       "redundancy": True, "redundancy_factor": 2}, seed=2),
    DiffCase("pl_k3", {"graph_size": 300, "cluster_size": 10, **_PL,
                       "redundancy": True, "redundancy_factor": 3}, seed=3),
    DiffCase("strong_k1", {"graph_size": 160, "cluster_size": 8,
                           "graph_type": "strong", "ttl": 1}, seed=4),
    DiffCase("strong_k2", {"graph_size": 160, "cluster_size": 8,
                           "graph_type": "strong", "ttl": 1,
                           "redundancy": True, "redundancy_factor": 2}, seed=5),
    DiffCase("pl_big_clusters", {"graph_size": 400, "cluster_size": 20,
                                 **_PL}, seed=6),
    DiffCase("pl_ttl2", {"graph_size": 240, "cluster_size": 8, **_PL,
                         "ttl": 2}, seed=7),
    DiffCase("pl_wide", {"graph_size": 600, "cluster_size": 10, **_PL,
                         "avg_outdegree": 4.0}, seed=8),
    DiffCase("pl_no_updates", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=9, enable_updates=False),
    DiffCase("pl_no_churn", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=10, enable_churn=False),
    # no-crash fault plans: loss / retry / slow / partition
    DiffCase("loss", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=11, plan={**_LOSS}),
    DiffCase("loss_retry", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=12, plan={"loss": 0.08, **_RETRY}),
    DiffCase("loss_k2", {"graph_size": 240, "cluster_size": 8, **_PL,
                         "redundancy": True, "redundancy_factor": 2},
             seed=13, plan={**_LOSS, **_RETRY}),
    DiffCase("slow", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=14, plan={"loss": 0.02,
                            "slow": {"fraction": 0.2, "factor": 3.0}}),
    DiffCase("partition", {"graph_size": 240, "cluster_size": 8, **_PL},
             seed=15, plan={"partitions": [[0.2, 0.5, 4]]}),
    DiffCase("strong_loss", {"graph_size": 160, "cluster_size": 8,
                             "graph_type": "strong", "ttl": 1,
                             "redundancy": True, "redundancy_factor": 2},
             seed=16, plan={**_LOSS}),
    # crash plans x detector (k >= 2 so clusters survive single crashes)
    DiffCase("crash_oracle", {"graph_size": 240, "cluster_size": 8, **_PL,
                              "redundancy": True, "redundancy_factor": 2},
             seed=17, plan={**_LOSS, **_CRASH, **_RETRY},
             recovery="oracle"),
    DiffCase("crash_gossip", {"graph_size": 240, "cluster_size": 8, **_PL,
                              "redundancy": True, "redundancy_factor": 2},
             seed=18, plan={**_LOSS, **_CRASH, **_RETRY},
             recovery="gossip"),
    DiffCase("crash_partition", {"graph_size": 240, "cluster_size": 8, **_PL,
                                 "redundancy": True, "redundancy_factor": 2},
             seed=19, plan={**_CRASH, "partitions": [[0.3, 0.6, 3]],
                            **_RETRY},
             recovery="oracle"),
    DiffCase("crash_norecovery", {"graph_size": 240, "cluster_size": 8, **_PL,
                                  "redundancy": True, "redundancy_factor": 2},
             seed=20, plan={**_CRASH}),
)


def replay(path: str) -> int:
    """Re-run a divergence artifact and print both engines' summaries."""
    payload = json.loads(pathlib.Path(path).read_text())
    case = DiffCase.from_dict(payload["case"])
    ev = run_engine(case, "event")
    ar = run_engine(case, "array")
    errors = check_deterministic(case, ev, ar) + check_statistical(case, ev, ar)
    print(json.dumps({"case": case.name, "event": ev, "array": ar,
                      "errors": errors}, indent=2, default=float))
    return 1 if errors else 0


if __name__ == "__main__":
    import sys

    raise SystemExit(replay(sys.argv[1]))

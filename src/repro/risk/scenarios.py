"""Weighted failure-scenario enumeration (the TEAVAR idiom).

The design procedure in :mod:`repro.core.design` optimizes a fault-free
network, but the calibrated lifespan model says how *likely* each
failure state is: a partner slot with mean lifespan ``L`` and mean
recovery window ``R`` is down a fraction ``u = R / (L + R)`` of the
time, so a k-redundant cluster is fully dark with probability
``prod(u_i)`` over its partners.  Treating each cluster blackout (and,
optionally, each candidate partition) as an independent **failure
unit**, every network state is an assignment of up/down to the units
and carries the product probability

    p(scenario) = prod_i p_i^{x_i} (1 - p_i)^{1 - x_i}.

Enumerating all ``2^m`` assignments is hopeless; enumerating the *heavy*
ones is easy because prefix products only shrink.  The recursive
expansion here prunes any partial assignment whose probability already
fell below a threshold ``t`` — sound, since remaining factors are
``<= 1`` — which yields exactly the set ``{scenarios : p >= t}``.  The
threshold is not user-facing: callers state a **cutoff** on the residual
probability mass, and :func:`enumerate_scenarios` walks a fixed
geometric grid ``t = 2^-k`` until the covered mass reaches
``1 - cutoff``.  The grid is shared by every cutoff on purpose: covered
mass is monotone in ``t``, so a smaller cutoff can only stop at a
smaller (or equal) grid value, and therefore can only *add* scenarios —
the monotone-refinement law the property tests pin.

Each enumerated scenario converts to a deterministic
:class:`~repro.sim.faults.FaultPlan` (whole-run blackouts + whole-run
partition windows): the plan realizes the failure state exactly, with no
RNG deciding whether the failure happens — the scenario weight already
did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..codec import Codec, encode
from ..sim.faults import CrashSpec, FaultPlan, PartitionWindow
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance

__all__ = [
    "FailureUnit",
    "FailureScenario",
    "ScenarioSet",
    "ScenarioBudgetError",
    "crash_failure_units",
    "partition_failure_units",
    "enumerate_scenarios",
]

_UNIT_KINDS = ("crash", "partition")


class ScenarioBudgetError(ValueError):
    """Enumeration would exceed the scenario budget.

    Raised instead of silently truncating: a truncated set would break
    the covered-mass guarantee.  Raise the cutoff (accept more residual
    mass) or the budget.
    """


@dataclass(frozen=True)
class FailureUnit(Codec):
    """One independently-failing component of the overlay.

    ``kind="crash"`` units name a single cluster that goes fully dark;
    ``kind="partition"`` units name an island of clusters cut off from
    the mainland.  ``probability`` is the steady-state chance the unit
    is in its failed state at any instant.
    """

    kind: str
    name: str
    clusters: tuple[int, ...]
    probability: float

    def __post_init__(self) -> None:
        if self.kind not in _UNIT_KINDS:
            raise ValueError(
                f"unit kind must be one of {_UNIT_KINDS}, got {self.kind!r}"
            )
        if not self.name:
            raise ValueError("unit name must be non-empty")
        ids = tuple(int(c) for c in self.clusters)
        if not ids:
            raise ValueError(f"unit {self.name!r} must name >= 1 cluster")
        if any(c < 0 for c in ids) or len(set(ids)) != len(ids):
            raise ValueError(
                f"unit {self.name!r} clusters must be unique and "
                f"non-negative, got {ids}"
            )
        object.__setattr__(self, "clusters", ids)
        p = float(self.probability)
        if math.isnan(p):
            raise ValueError(f"unit {self.name!r} probability must not be NaN")
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"unit {self.name!r} probability must be in [0, 1], got {p}"
            )
        object.__setattr__(self, "probability", p)


@dataclass(frozen=True)
class FailureScenario(Codec):
    """One weighted network state: the named units are failed, the rest up."""

    failed: tuple[str, ...]
    probability: float
    dark_clusters: tuple[int, ...]
    islands: tuple[tuple[int, ...], ...]

    @property
    def is_nominal(self) -> bool:
        """True for the all-units-up scenario (the fault-free state)."""
        return not self.failed

    def fault_plan(self, duration: float) -> FaultPlan:
        """Realize the scenario as a deterministic whole-run fault plan."""
        return FaultPlan(
            blackout=self.dark_clusters,
            partitions=tuple(
                PartitionWindow(0.0, float(duration), island)
                for island in self.islands
            ),
        )


@dataclass(frozen=True)
class ScenarioSet:
    """The enumerated heavy scenarios plus the guarantee they carry."""

    units: tuple[FailureUnit, ...]
    scenarios: tuple[FailureScenario, ...]
    cutoff: float
    threshold: float

    @property
    def covered_probability(self) -> float:
        """Total mass of the enumerated scenarios; ``>= 1 - cutoff``."""
        return float(sum(s.probability for s in self.scenarios))

    @property
    def residual_probability(self) -> float:
        return max(0.0, 1.0 - self.covered_probability)

    def to_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "threshold": self.threshold,
            "covered_probability": self.covered_probability,
            "units": encode(self.units),
            "scenarios": encode(self.scenarios),
        }


def crash_failure_units(
    instance: NetworkInstance, crash: CrashSpec | None = None
) -> list[FailureUnit]:
    """One blackout unit per cluster, weighted by the lifespan model.

    A partner with mean lifespan ``L`` (from the instance's calibrated
    draw, scaled by the spec) and mean recovery ``R`` is down a
    steady-state fraction ``R / (L + R)``; the cluster is dark when all
    its partners are, so the unit probability is the product over
    partner slots — high for unredundant clusters, tiny under
    k-redundancy.  Deterministic: no RNG beyond the instance build.
    """
    spec = crash if crash is not None else CrashSpec()
    lifespans = np.asarray(instance.partner_lifespans, dtype=float)
    lifespans = lifespans * spec.lifespan_scale
    unavailable = spec.mean_recovery / (lifespans + spec.mean_recovery)
    dark = unavailable.prod(axis=1)
    return [
        FailureUnit("crash", f"dark-c{c}", (c,), float(dark[c]))
        for c in range(instance.num_clusters)
    ]


def partition_failure_units(
    instance: NetworkInstance,
    *,
    count: int,
    probability: float,
    island_size: int = 2,
    seed: int | None = 0,
) -> list[FailureUnit]:
    """``count`` disjoint candidate islands, each cut with ``probability``.

    Islands are carved deterministically from a seeded permutation of
    the cluster ids, pairwise disjoint by construction so any subset of
    them composes into one valid :class:`FaultPlan` (overlapping active
    windows are rejected at plan construction).  A mainland must remain:
    the islands may cover at most ``num_clusters - 1`` clusters.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if island_size < 1:
        raise ValueError("island_size must be >= 1")
    if count == 0:
        return []
    n = instance.num_clusters
    if count * island_size >= n:
        raise ValueError(
            f"{count} islands of {island_size} cluster(s) would cover the "
            f"whole overlay ({n} clusters); leave a mainland"
        )
    rng = derive_rng(seed, "risk", "partition-islands")
    order = rng.permutation(n)
    units = []
    for i in range(count):
        island = tuple(
            sorted(int(c) for c in order[i * island_size:(i + 1) * island_size])
        )
        units.append(
            FailureUnit("partition", f"cut-i{i}", island, float(probability))
        )
    return units


def _expand(units: tuple[FailureUnit, ...], threshold: float,
            max_scenarios: int) -> list[tuple[tuple[int, ...], float]]:
    """All up/down assignments with probability ``>= threshold``.

    Depth-first over the units in order; a prefix whose running product
    fell below the threshold is pruned (remaining factors are <= 1, so
    no completion can climb back).  Returns ``(failed_indices, prob)``
    leaves.
    """
    out: list[tuple[tuple[int, ...], float]] = []
    failed: list[int] = []

    def rec(i: int, prob: float) -> None:
        if prob < threshold:
            return
        if i == len(units):
            if len(out) >= max_scenarios:
                raise ScenarioBudgetError(
                    f"more than {max_scenarios} scenarios above probability "
                    f"{threshold:.3g}; raise the cutoff or max_scenarios"
                )
            out.append((tuple(failed), prob))
            return
        p = units[i].probability
        rec(i + 1, prob * (1.0 - p))
        failed.append(i)
        rec(i + 1, prob * p)
        failed.pop()

    rec(0, 1.0)
    return out


def enumerate_scenarios(
    units: list[FailureUnit] | tuple[FailureUnit, ...],
    cutoff: float,
    *,
    max_scenarios: int = 4096,
) -> ScenarioSet:
    """Enumerate every scenario above an internal probability threshold,
    chosen so the covered mass is ``>= 1 - cutoff``.

    Laws (pinned by ``tests/test_risk_properties.py``):

    * enumerated probabilities sum to ``<= 1`` (distinct assignments are
      disjoint events);
    * covered mass ``>= 1 - cutoff`` (the stopping rule);
    * shrinking the cutoff only *adds* scenarios (the threshold grid is
      fixed, so a stricter mass demand stops at a smaller grid value);
    * bit-deterministic: a pure function of the unit list and cutoff.
    """
    cutoff = float(cutoff)
    if math.isnan(cutoff) or not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    if max_scenarios < 1:
        raise ValueError("max_scenarios must be >= 1")
    ordered = tuple(sorted(units, key=lambda u: (u.kind, u.name)))
    names = [u.name for u in ordered]
    if len(set(names)) != len(names):
        raise ValueError("unit names must be unique")
    target = 1.0 - cutoff
    threshold = 1.0
    while True:
        leaves = _expand(ordered, threshold, max_scenarios)
        mass = sum(p for _, p in leaves)
        if mass >= target:
            break
        threshold *= 0.5
    scenarios = []
    for failed_idx, prob in leaves:
        failed_units = [ordered[i] for i in failed_idx]
        dark = sorted(
            {c for u in failed_units if u.kind == "crash" for c in u.clusters}
        )
        islands = tuple(
            u.clusters for u in failed_units if u.kind == "partition"
        )
        scenarios.append(FailureScenario(
            failed=tuple(u.name for u in failed_units),
            probability=prob,
            dark_clusters=tuple(dark),
            islands=islands,
        ))
    scenarios.sort(key=lambda s: (-s.probability, s.failed))
    return ScenarioSet(
        units=ordered,
        scenarios=tuple(scenarios),
        cutoff=cutoff,
        threshold=threshold,
    )

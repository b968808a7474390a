"""The unified experiment API: declare sweeps, run them in parallel.

Every figure of the paper is a parameter sweep — cluster size, outdegree,
TTL, redundancy (Figures 4-12) — and every future scaling experiment will
be too.  This module is the single entry point for all of them:

* :class:`ExperimentSpec` — one evaluation point: a configuration plus
  the trial count, root seed and source-sampling bound that
  :func:`~repro.core.analysis.evaluate_configuration` needs.  Picklable,
  so a point can be shipped to a worker process verbatim.
* :class:`SweepSpec` — a named grid over configuration fields.  The grid
  is the cartesian product of the listed values in field order; points
  whose configuration is invalid (e.g. ``cluster_size > graph_size``)
  are skipped, which is exactly the hand-filtering every bench used to
  do inline.
* :func:`run_sweep` — evaluate every point of a sweep, serially
  (``jobs=1``, bit-identical to calling ``evaluate_configuration`` in a
  loop) or sharded across a ``ProcessPoolExecutor`` (``jobs=N``).  Each
  point is evaluated under a private :class:`~repro.obs.metrics.MetricsRegistry`
  and a per-point :class:`~repro.obs.manifest.RunManifest` fragment;
  the fragments are merged associatively, so the returned
  :class:`SweepResult` carries one registry and one manifest regardless
  of how the work was sharded — and ``jobs=N`` returns exactly the same
  numbers as ``jobs=1``, in the same stable point order.

Quickstart
----------
>>> from repro.api import SweepSpec, run_sweep
>>> from repro import Configuration
>>> spec = SweepSpec(
...     name="cluster-sweep",
...     base=Configuration(graph_size=500),
...     grid={"cluster_size": (5, 10, 20)},
...     trials=1, max_sources=50,
... )
>>> result = run_sweep(spec)          # serial
>>> len(result.points)
3
>>> xs, ys = result.series("superpeer_incoming_bps")

Prefer this facade over hand-rolled ``Configuration(**kwargs)`` +
``evaluate_configuration`` loops: the loop idiom cannot parallelize,
cache or record provenance, and is deprecated for sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .codec import Codec, encode, reject_unknown
from .config import Configuration
from .core.analysis import ConfigurationSummary, evaluate_configuration
from .exec import EXECUTOR_NAMES
from .exec.base import Executor, Task, collect, run_campaign
from .obs.manifest import RunManifest
from .obs.metrics import MetricsRegistry
from .obs.progress import ProgressTracker
from .sim.network import ENGINES
from .stats.rng import derive_seed

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One evaluation point: a configuration plus its evaluation knobs.

    ``run()`` is the whole contract — everything a worker process needs
    travels inside the spec, so specs pickle and the same spec evaluated
    anywhere yields bit-identical numbers.
    """

    config: Configuration
    trials: int = 3
    seed: int | None = 0
    max_sources: int | None = 400
    keep_reports: bool = False
    label: str = ""
    #: Simulation backend for :meth:`simulate` — "event" (the message
    #: -level oracle) or "array" (the vectorized core, sim.fastcore).
    #: The analytical :meth:`run` path never simulates, so the field is
    #: inert there.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )

    def run(self) -> ConfigurationSummary:
        """Evaluate this point (Section 4.1 steps 1-4) and summarize it."""
        return evaluate_configuration(
            self.config,
            trials=self.trials,
            seed=self.seed,
            max_sources=self.max_sources,
            keep_reports=self.keep_reports,
        )

    def simulate(self, duration: float = 3600.0, **kwargs):
        """Simulate one instance of this point's configuration.

        Builds the trial-0 instance from the spec's seed and runs
        :func:`repro.sim.network.simulate_instance` on the spec's
        ``engine``.  ``kwargs`` pass through (faults, recovery, tracer,
        ...), so the spec is the one place an experiment's backend
        choice lives.
        """
        from .sim.network import simulate_instance
        from .topology.builder import build_instance

        instance = build_instance(self.config, seed=self.seed)
        return simulate_instance(
            instance, duration=duration, rng=self.seed,
            engine=self.engine, **kwargs,
        )


@dataclass(frozen=True)
class SweepSpec(Codec):
    """A named grid of experiment points over configuration fields.

    ``grid`` maps field names to the values to sweep; the points are the
    cartesian product in field-insertion order, so a single-field grid
    enumerates in the order given and a two-field grid varies the last
    field fastest.  ``base`` supplies every non-swept field.

    ``seed_mode`` controls per-point seeding:

    * ``"shared"`` (default) — every point evaluates at the root
      ``seed``, matching the historical serial loops bit-for-bit
      (``evaluate_configuration`` already derives independent per-trial
      streams internally).
    * ``"per-point"`` — point *i* of the full product enumeration gets
      ``derive_seed(seed, i)``, giving mutually independent points for
      studies where shared instances would correlate the grid.
    """

    name: str = "sweep"
    base: Configuration = Configuration()
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    trials: int = 3
    seed: int | None = 0
    max_sources: int | None = 400
    keep_reports: bool = False
    seed_mode: str = "shared"
    #: Drop grid points whose Configuration raises ValueError (e.g.
    #: cluster_size > graph_size) instead of failing the whole sweep.
    skip_invalid: bool = True
    #: Default dispatch backend for :func:`run_sweep` — one of
    #: :data:`repro.exec.EXECUTOR_NAMES` — or ``None`` to keep the
    #: jobs-based rule (``jobs > 1`` implies ``process``, else serial).
    #: Inert to the results: every backend is bit-identical.
    executor: str | None = None

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("grid must name at least one field to sweep")
        if self.seed_mode not in ("shared", "per-point"):
            raise ValueError(
                f"seed_mode must be 'shared' or 'per-point', got {self.seed_mode!r}"
            )
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES} or None, "
                f"got {self.executor!r}"
            )
        reject_unknown(self.grid, [f.name for f in fields(self.base)],
                       "SweepSpec.grid")

    def points(self) -> list[tuple[dict, ExperimentSpec]]:
        """The grid's evaluation points as ``(overrides, spec)`` pairs.

        Order is stable (cartesian product in field order) and skipped
        invalid points never shift the per-point seeds of the survivors:
        seeds derive from the position in the *full* product enumeration.
        """
        names = list(self.grid)
        points: list[tuple[dict, ExperimentSpec]] = []
        for index, combo in enumerate(itertools.product(
            *(self.grid[name] for name in names)
        )):
            overrides = dict(zip(names, combo))
            try:
                config = self.base.with_changes(**overrides)
            except ValueError:
                if self.skip_invalid:
                    continue
                raise
            if self.seed_mode == "per-point":
                seed = derive_seed(self.seed, index)
            else:
                seed = self.seed
            label = self.name + "[" + ",".join(
                f"{k}={v}" for k, v in overrides.items()
            ) + "]"
            points.append((overrides, ExperimentSpec(
                config=config,
                trials=self.trials,
                seed=seed,
                max_sources=self.max_sources,
                keep_reports=self.keep_reports,
                label=label,
            )))
        return points


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point of a :class:`SweepResult`."""

    index: int
    label: str
    overrides: dict
    spec: ExperimentSpec
    summary: ConfigurationSummary

    def value(self, field_name: str) -> Any:
        """The swept value of ``field_name`` at this point."""
        return self.overrides[field_name]


@dataclass
class SweepResult:
    """Every point of a sweep plus the merged observability record."""

    spec: SweepSpec
    points: list[SweepPoint]
    manifest: RunManifest
    registry: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)
    jobs: int = 1

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def summaries(self) -> list[ConfigurationSummary]:
        """The per-point summaries in stable point order."""
        return [p.summary for p in self.points]

    def to_dict(self) -> dict:
        """Deterministic JSON view of the sweep: each point's label,
        overrides and metric intervals, with no wall-clock, jobs or host
        fields, so two runs on any backends compare with a plain diff."""
        return {
            "name": self.spec.name,
            "points": [{
                "label": point.label,
                "overrides": encode(point.overrides),
                "metrics": encode(dict(sorted(point.summary.intervals.items()))),
            } for point in self.points],
        }

    def series(self, metric: str, field_name: str | None = None):
        """``(xs, ys)`` of a metric over the sweep, ready to plot.

        ``xs`` are the swept values of ``field_name`` (defaults to the
        grid's only field; required for multi-field grids) and ``ys``
        the trial-mean of ``metric`` at each point.
        """
        if field_name is None:
            grid_fields = list(self.spec.grid)
            if len(grid_fields) != 1:
                raise ValueError(
                    "field_name is required for multi-field grids; "
                    f"this sweep varies {grid_fields}"
                )
            field_name = grid_fields[0]
        xs = [p.value(field_name) for p in self.points]
        ys = [p.summary.mean(metric) for p in self.points]
        return xs, ys


def _evaluate_point(spec: ExperimentSpec):
    """Evaluate one point under private metrics/manifest collectors.

    Module-level so the process pool can import it; returns the summary
    plus the point's registry and manifest fragment for merging.  The
    identical function runs in-process when ``jobs=1``, which is what
    makes serial and parallel sweeps bit-identical.
    """
    return collect(spec.label, spec.run)


def _warm_instance_cache(specs: Sequence[ExperimentSpec]) -> None:
    """Build every distinct instance a sweep will touch, once, pre-fork.

    Keyed by :func:`repro.topology.builder.instance_fingerprint`, so
    points that differ only in non-generative fields (TTL, rates) share
    one build, and no two pool workers ever regenerate the same
    topology.
    """
    from .core.analysis import _trial_seed
    from .topology.builder import build_instance_cached, instance_fingerprint

    seen: set[tuple] = set()
    for point_spec in specs:
        for trial in range(point_spec.trials):
            trial_seed = _trial_seed(point_spec.seed, trial)
            key = instance_fingerprint(point_spec.config, trial_seed)
            if key not in seen:
                seen.add(key)
                build_instance_cached(point_spec.config, trial_seed)


def run_sweep(
    spec: SweepSpec,
    jobs: int | None = None,
    journal: str | Path | None = None,
    progress: ProgressTracker | bool | None = None,
    *,
    executor: Executor | str | None = None,
) -> SweepResult:
    """Evaluate every point of ``spec`` on a pluggable executor backend.

    The fan-out is :func:`repro.exec.base.run_campaign`; the backend
    resolves through :func:`repro.exec.make_executor`: ``executor`` (an
    :class:`~repro.exec.Executor` instance or one of
    ``"serial" | "thread" | "process"``) wins, then
    ``spec.executor``, then the historical jobs rule — ``jobs > 1``
    implies ``process``, anything else runs serial in-process,
    bit-identical to calling ``evaluate_configuration`` in a loop.

    Results come back in stable point order and are bit-identical across
    every backend because each point's evaluation is self-contained (its
    spec carries its own seed and the per-trial streams derive from it).
    The returned :class:`SweepResult` carries the merged
    :class:`~repro.obs.metrics.MetricsRegistry` and
    :class:`~repro.obs.manifest.RunManifest` (per-point phases keyed by
    point label), folded associatively from the per-point fragments in
    point order — the merge never sees dispatch order, which is what
    keeps the fold identical no matter where points physically ran.

    Forking backends pre-warm the fingerprint-keyed instance cache
    (:func:`repro.topology.builder.build_instance_cached`) in the parent
    before the pool forks, so workers inherit every distinct topology
    through copy-on-write memory instead of regenerating it per point.

    ``journal`` (a path) streams an append-only JSONL campaign record — header with the point
    plan, per-point start/finish/error lines, periodic snapshots — that
    ``repro watch`` renders live or post-hoc.  ``progress`` (``True`` or
    a :class:`~repro.obs.progress.ProgressTracker`) adds a live progress
    view with per-worker heartbeats and straggler detection.  Both are
    observation-only: every point still evaluates through the identical
    :func:`_evaluate_point`, so results stay bit-identical with
    telemetry on or off.

    A failing point aborts the campaign.  A sweep with zero valid points returns a well-formed empty result (and a
    campaign-end journal record) instead of dying in pool construction.
    """
    points = spec.points()
    specs = [point_spec for _, point_spec in points]
    campaign = run_campaign(
        _evaluate_point,
        [Task(i, point_spec.label, point_spec)
         for i, point_spec in enumerate(specs)],
        name=spec.name,
        plan=[overrides for overrides, _ in points],
        config=spec.base,
        seed=spec.seed,
        manifest={"grid": {k: list(v) for k, v in spec.grid.items()},
                  "trials": spec.trials, "max_sources": spec.max_sources,
                  "seed_mode": spec.seed_mode},
        prewarm=lambda: _warm_instance_cache(specs),
        executor=executor if executor is not None else spec.executor,
        jobs=jobs, journal=journal, progress=progress,
    )
    result_points = [
        SweepPoint(index=index, label=point_spec.label, overrides=overrides,
                   spec=point_spec, summary=summary)
        for index, ((overrides, point_spec), summary) in enumerate(
            zip(points, campaign.results)
        )
    ]
    return SweepResult(
        spec=spec,
        points=result_points,
        manifest=campaign.manifest,
        registry=campaign.registry,
        jobs=campaign.jobs,
    )

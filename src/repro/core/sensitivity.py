"""Sensitivity analysis: how robust are conclusions to the calibration?

This reproduction replaces the paper's measured inputs (query rates,
file counts, session lengths, the query model) with calibrated synthetic
equivalents, so a user should ask: *would the conclusions move if a
calibration constant were off by 2x?*  This module answers with
one-factor-at-a-time elasticities:

    elasticity = d log(metric) / d log(parameter)

estimated by evaluating the configuration at ``parameter * factor`` and
``parameter / factor`` (seeded, same instances otherwise).  An
elasticity of 1 means the metric scales linearly with the parameter; 0
means it is insensitive — e.g. the paper's remark that "the overall
performance of the system is not sensitive to the value of the update
rate" shows up as a near-zero elasticity for ``update_rate``.

Distribution-level knobs (mean files per peer, mean session length, mean
selection power) are exposed alongside the Table 1 rate parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import Configuration
from ..querymodel.distributions import make_query_model
from ..querymodel.files import make_file_distribution
from ..querymodel.lifespan import make_lifespan_distribution
from ..topology.builder import build_instance
from .load import evaluate_instance
from .. import constants

#: The sweepable knobs: configuration fields and calibration constants.
PARAMETERS = (
    "query_rate",
    "update_rate",
    "mean_files",
    "mean_session",
    "selection_power",
)

#: The headline metrics elasticities are reported for.
METRICS = (
    "superpeer_bandwidth",
    "superpeer_processing",
    "aggregate_bandwidth",
    "results_per_query",
)


@dataclass(frozen=True)
class Elasticity:
    """d log(metric) / d log(parameter) with the two probe values."""

    parameter: str
    metric: str
    value: float
    low_metric: float
    high_metric: float

    @property
    def is_linear(self) -> bool:
        """Proportional response (the query-rate regime)."""
        return 0.8 <= self.value <= 1.2


def _evaluate(config: Configuration, overrides: dict, seed: int,
              max_sources: int | None) -> dict[str, float]:
    """One evaluation with calibration overrides applied."""
    mean_files = overrides.get("mean_files", constants.MEAN_FILES_PER_PEER)
    mean_session = overrides.get("mean_session", constants.MEAN_SESSION_SECONDS)
    selection = overrides.get(
        "selection_power",
        constants.EXPECTED_RESULTS_PER_PEER / constants.MEAN_FILES_PER_PEER,
    )
    if "query_rate" in overrides:
        config = config.with_changes(query_rate=overrides["query_rate"])
    if "update_rate" in overrides:
        config = config.with_changes(update_rate=overrides["update_rate"])
    instance = build_instance(
        config,
        seed=seed,
        file_distribution=make_file_distribution(mean_files=mean_files),
        lifespan_distribution=make_lifespan_distribution(mean_seconds=mean_session),
    )
    model = make_query_model(mean_selection_power=selection)
    report = evaluate_instance(instance, model=model, max_sources=max_sources, rng=seed)
    sp = report.mean_superpeer_load()
    agg = report.aggregate_load()
    return {
        "superpeer_bandwidth": sp.total_bandwidth_bps,
        "superpeer_processing": sp.processing_hz,
        "aggregate_bandwidth": agg.total_bandwidth_bps,
        "results_per_query": report.mean_results_per_query(),
    }


def _baseline_value(config: Configuration, parameter: str) -> float:
    defaults = {
        "query_rate": config.query_rate,
        "update_rate": config.update_rate,
        "mean_files": constants.MEAN_FILES_PER_PEER,
        "mean_session": constants.MEAN_SESSION_SECONDS,
        "selection_power": (
            constants.EXPECTED_RESULTS_PER_PEER / constants.MEAN_FILES_PER_PEER
        ),
    }
    if parameter not in defaults:
        raise ValueError(f"unknown parameter {parameter!r}; one of {PARAMETERS}")
    return defaults[parameter]


def sensitivity_analysis(
    config: Configuration,
    parameters: tuple[str, ...] = PARAMETERS,
    factor: float = 2.0,
    seed: int = 0,
    max_sources: int | None = 200,
) -> list[Elasticity]:
    """Elasticities of the headline metrics to each parameter.

    ``factor`` sets the probe spread (default: each parameter halved and
    doubled).  The same instance seed is used for every probe, so the
    comparison isolates the parameter.
    """
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    results: list[Elasticity] = []
    span = math.log(factor**2)
    for parameter in parameters:
        base = _baseline_value(config, parameter)
        low = _evaluate(config, {parameter: base / factor}, seed, max_sources)
        high = _evaluate(config, {parameter: base * factor}, seed, max_sources)
        for metric in METRICS:
            lo, hi = low[metric], high[metric]
            if lo <= 0 or hi <= 0:
                value = 0.0
            else:
                value = math.log(hi / lo) / span
            results.append(Elasticity(
                parameter=parameter, metric=metric, value=value,
                low_metric=lo, high_metric=hi,
            ))
    return results


def elasticity_table(elasticities: list[Elasticity]) -> dict[str, dict[str, float]]:
    """{parameter: {metric: elasticity}} for rendering."""
    table: dict[str, dict[str, float]] = {}
    for e in elasticities:
        table.setdefault(e.parameter, {})[e.metric] = e.value
    return table

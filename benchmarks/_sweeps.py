"""Shared cluster-size sweeps for the Figure 4/5/6/A-13/A-14 benches.

Figures 4-6 and A-13/A-14 all plot the same four systems over cluster
size — strongly connected (TTL 1) and power-law outdegree 3.1 (TTL 7),
each with and without super-peer redundancy — differing only in which
load statistic they read off.  The sweep is computed once per parameter
set — through :func:`repro.api.run_sweep`, one ``SweepSpec`` per system,
optionally sharded over worker processes (``REPRO_SWEEP_JOBS``) — and
cached so each figure's bench reads its own statistic without re-running
the whole analysis (the first bench to run pays the full cost and its
timing reflects that).

The cache is keyed by the manifest config fingerprint of the parameter
set and bounded; it lives only in the parent process — sweep workers
never import this module's state — so it stays safe under the executor.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.api import SweepSpec, run_sweep
from repro.config import Configuration, GraphType
from repro.core.analysis import ConfigurationSummary
from repro.obs.manifest import RunManifest, config_fingerprint, manifest_for

#: The paper's Figure 4/5 cluster-size grid (x axis runs 0..10,000).
FULL_GRID = [2, 10, 50, 100, 200, 500, 1000, 2000, 5000, 10000]

#: Figure 6 looks at small cluster sizes (x axis 0..300).
SMALL_GRID = [2, 5, 10, 20, 50, 100, 200, 300]

#: Appendix C's low query rate: queries-to-joins ratio ~ 1 instead of ~10.
LOW_QUERY_RATE = 9.26e-4

_SYSTEMS = (
    ("strong", GraphType.STRONG, 1, False),
    ("strong+red", GraphType.STRONG, 1, True),
    ("power-3.1", GraphType.POWER_LAW, 7, False),
    ("power-3.1+red", GraphType.POWER_LAW, 7, True),
)

#: Fingerprint-keyed sweep cache, bounded so a long pytest session
#: holding many parameter sets cannot grow without limit.
_cache: dict[str, dict] = {}
_CACHE_LIMIT = 8


def sweep_jobs() -> int:
    """Worker processes for the shared sweeps (``REPRO_SWEEP_JOBS``)."""
    return max(1, int(os.environ.get("REPRO_SWEEP_JOBS", "1")))


def four_system_sweep(
    graph_size: int,
    cluster_sizes: list[int],
    query_rate: float | None = None,
    trials: int = 2,
    max_sources: int | None = 120,
    jobs: int | None = None,
) -> dict[str, list[tuple[int, ConfigurationSummary]]]:
    """Evaluate the four systems of Figures 4-6 over ``cluster_sizes``.

    Returns {system label: [(cluster size, summary), ...]}.
    """
    key = config_fingerprint(dict(
        graph_size=graph_size,
        cluster_sizes=list(cluster_sizes),
        query_rate=query_rate,
        trials=trials,
        max_sources=max_sources,
    ))
    if key in _cache:
        return _cache[key]
    jobs = sweep_jobs() if jobs is None else jobs
    manifest = manifest_for(
        f"four_system_sweep_g{graph_size}",
        seed=0,
        graph_size=graph_size,
        cluster_sizes=list(cluster_sizes),
        query_rate=query_rate,
        trials=trials,
        max_sources=max_sources,
        jobs=jobs,
    )
    result: dict[str, list[tuple[int, ConfigurationSummary]]] = {}
    for label, graph_type, ttl, redundancy in _SYSTEMS:
        kwargs = dict(
            graph_type=graph_type,
            redundancy=redundancy,
            avg_outdegree=3.1,
            ttl=ttl,
        )
        if query_rate is not None:
            kwargs["query_rate"] = query_rate
        spec = SweepSpec(
            name=label,
            # graph_size rides in the grid so tiny bases (graph_size 100
            # with the default cluster_size 10) stay constructible.
            base=Configuration(**kwargs),
            grid={"graph_size": [graph_size], "cluster_size": cluster_sizes},
            trials=trials,
            seed=0,
            max_sources=max_sources,
        )
        sweep = run_sweep(spec, jobs=jobs)
        result[label] = [
            (point.value("cluster_size"), point.summary) for point in sweep
        ]
        manifest = manifest.merge(
            sweep.manifest, name=f"four_system_sweep_g{graph_size}"
        )
    write_manifest(manifest)
    if len(_cache) >= _CACHE_LIMIT:
        _cache.pop(next(iter(_cache)))
    _cache[key] = result
    return result


#: Where benchmark manifests land (next to the rendered result blocks).
MANIFEST_DIR = Path(__file__).parent / "results"


def write_manifest(manifest: RunManifest) -> None:
    """Seal a sweep manifest and persist it as
    ``results/<name>.manifest.json``: config hash, git rev, seed,
    per-phase wall-clock, peak RSS, metrics."""
    MANIFEST_DIR.mkdir(exist_ok=True)
    manifest.finish()
    manifest.to_json(MANIFEST_DIR / f"{manifest.name}.manifest.json")

"""Observability: metrics, tracing and run manifests (repo machinery).

This subsystem is *not* part of the paper's cost model — it measures the
reproduction itself (wall-clock per phase, message counters, memory) so
performance work has a baseline.  It is zero-dependency, thread-safe and
pay-for-what-you-use: the default registry/tracer are inert null objects
and instrumented code must be bit-identical with metrics on or off
(``tests/test_obs.py`` enforces neutrality).
"""

from .attribution import profile_instance
from .journal import replay_journal

__all__ = ["profile_instance", "replay_journal"]

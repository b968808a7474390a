"""Heartbeat/timeout failure detection for the self-healing overlay.

Recovery (Section 5.3's local adaptation rules) cannot react to a crash
the instant it happens: real super-peers learn about a dead partner by
missing heartbeats.  This module models that information delay as a
*detector* between the fault layer and the recovery layer:

* every partner slot is (conceptually) probed every
  ``heartbeat_interval`` seconds; a failure is *confirmed* after
  ``timeout_beats`` consecutive misses, so the detection lag for a crash
  at time t is ``timeout_beats * interval`` plus the phase offset of the
  next probe — uniform over one interval, drawn from the recovery RNG
  stream;
* a confirmed detection triggers the recovery policy's repair action;
* with ``false_positive_rate > 0`` the detector also *wrongly* suspects
  live partners (lossy heartbeats look like crashes).  A false suspicion
  is resolved by a verification probe — it costs repair traffic but
  triggers no repair, which is exactly how aggressive timeouts tax a
  real deployment.

The detector observes the :class:`~repro.sim.faults.FaultRuntime`
through its listener hooks and never touches the workload RNG stream, so
enabling it (with recovery) leaves the degraded run's workload draws
untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..codec import Codec
from .gossip import GossipSpec

__all__ = ["DETECTOR_MODES", "DetectorSpec", "FailureDetector"]

#: The failure-detection modes of :class:`DetectorSpec`.
DETECTOR_MODES = ("oracle", "gossip")


@dataclass(frozen=True)
class DetectorSpec(Codec):
    """Failure-detector parameters: the oracle's heartbeat/timeout pair,
    plus the control-plane ``mode`` switch.

    ``mode="oracle"`` is the centralized detector of this module: crashes
    are confirmed after ``timeout_beats`` missed heartbeats, for free.
    ``mode="gossip"`` swaps in :class:`repro.sim.gossip.GossipDetector`:
    detection emerges from (charged) heartbeats, m-of-n corroborated
    dead-node reports, and epidemic rumor spread, parameterized by the
    attached :class:`~repro.sim.gossip.GossipSpec` (defaulted when not
    given).  The oracle's fields are ignored in gossip mode.
    """

    heartbeat_interval: float = 5.0
    timeout_beats: int = 3
    false_positive_rate: float = 0.0
    mode: str = "oracle"
    gossip: GossipSpec | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.heartbeat_interval) or self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.timeout_beats < 1:
            raise ValueError("timeout_beats must be >= 1")
        if math.isnan(self.false_positive_rate):
            raise ValueError("false_positive_rate must not be NaN")
        if not 0.0 <= self.false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in [0, 1)")
        if self.mode not in DETECTOR_MODES:
            raise ValueError(
                f"mode must be one of {DETECTOR_MODES}, got {self.mode!r}"
            )
        if self.mode == "gossip" and self.gossip is None:
            object.__setattr__(self, "gossip", GossipSpec())

    @property
    def min_lag(self) -> float:
        """Fastest possible crash -> confirmation delay."""
        if self.mode == "gossip":
            return self.gossip.suspect_timeout
        return self.heartbeat_interval * self.timeout_beats

    @property
    def max_lag(self) -> float:
        """Slowest possible crash -> confirmation delay.

        In gossip mode this folds in the corroboration window: a dead
        declaration needs a suspicion timeout, a probe phase, and either
        m-of-n reports or the corroboration timeout, so the TTR bound of
        the chaos invariants widens by exactly that delay.
        """
        if self.mode == "gossip":
            return self.gossip.detection_bound
        return self.heartbeat_interval * (self.timeout_beats + 1)

    @property
    def probe_period(self) -> float:
        """Period of the detector's probing schedule (phase jitter unit)."""
        if self.mode == "gossip":
            return self.gossip.probe_interval
        return self.heartbeat_interval


class FailureDetector:
    """Turns raw crash/recover events into *confirmed* detections.

    Registers itself as the fault runtime's listener.  For each crash it
    schedules a confirmation after the heartbeat timeout (plus probe
    phase); a natural recovery before confirmation cancels it — the
    partner came back within the timeout, so nobody ever noticed.
    Confirmed detections call ``on_confirmed(cluster, partner)`` (the
    recovery policy's entry point).
    """

    def __init__(self, spec: DetectorSpec, runtime, rng,
                 on_confirmed, on_false_positive=None) -> None:
        self.spec = spec
        self.runtime = runtime
        self.rng = rng
        self.on_confirmed = on_confirmed
        self.on_false_positive = on_false_positive
        self.sim = None
        self._pending: dict[tuple[int, int], tuple[object, float]] = {}
        self._sweep = None

    def install(self, sim) -> None:
        """Bind to the simulator and start observing the fault runtime."""
        self.sim = sim
        self.runtime.listener = self
        if self.spec.false_positive_rate > 0.0:
            self._sweep = sim.every(self.spec.heartbeat_interval,
                                    self._false_positive_sweep)

    # --- FaultRuntime listener hooks -----------------------------------------

    def on_crash(self, cluster: int, partner: int, now: float) -> None:
        # Confirmation waits out timeout_beats missed heartbeats plus the
        # phase of the probe schedule relative to the crash instant.
        lag = self.spec.min_lag + float(
            self.rng.uniform(0.0, self.spec.heartbeat_interval)
        )
        handle = self.sim.schedule(lag, self._confirm, cluster, partner)
        self._pending[(cluster, partner)] = (handle, now)

    def on_recover(self, cluster: int, partner: int, now: float) -> None:
        pending = self._pending.pop((cluster, partner), None)
        if pending is not None:
            pending[0].cancel()

    # --- internal ------------------------------------------------------------

    def _confirm(self, cluster: int, partner: int) -> None:
        pending = self._pending.pop((cluster, partner), None)
        if pending is None or self.runtime.up[cluster, partner]:
            return  # stale: the slot recovered (or was promoted into)
        crashed_at = pending[1]
        lag = self.sim.now - crashed_at
        outcome = self.runtime.metrics
        outcome.detections += 1
        outcome.detection_lags.append(lag)
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.emit("detect", self.sim.now, cluster=cluster,
                        partner=partner, lag=lag)
        self.on_confirmed(cluster, partner)

    def _false_positive_sweep(self) -> None:
        """One heartbeat round's worth of spurious suspicions.

        Sampled in aggregate — binomial over all live slots — instead of
        per-slot timers, so a zero rate costs nothing and a small rate
        costs one draw per round.
        """
        runtime = self.runtime
        live_slots = int(runtime.up.sum())
        if live_slots == 0:
            return
        hits = int(self.rng.binomial(live_slots, self.spec.false_positive_rate))
        if hits == 0:
            return
        flat = np.nonzero(runtime.up.ravel())[0]
        chosen = self.rng.choice(flat, size=min(hits, flat.size), replace=False)
        for slot in np.atleast_1d(chosen):
            cluster, partner = divmod(int(slot), runtime.k)
            runtime.metrics.false_suspicions += 1
            if runtime.tracer.enabled:
                runtime.tracer.emit("false-suspicion", self.sim.now,
                                    cluster=cluster, partner=partner)
            if self.on_false_positive is not None:
                self.on_false_positive(cluster, partner)

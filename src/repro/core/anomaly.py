"""Online anomaly detection for workflow runs.

Reproduces the analysis layer the paper inherits from Samak et al.
("Online fault and anomaly detection for large-scale scientific
workflows", HPCC 2011): streaming per-job-type runtime models that
distinguish actual anomalies from normal variation.

Two detectors are provided:

* :class:`RobustRuntimeDetector` — per-transformation median/MAD score
  over a sliding window (robust z-score).  Insensitive to the heavy right
  tail of job runtimes.
* :class:`EwmaDetector` — exponentially weighted mean/variance, O(1)
  memory per type, for very-high-throughput streams.

Both consume invocation completions — either live from the message bus
(``watch_bus``) or post hoc from the archive (``scan_archive``).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from repro.netlogger.events import NLEvent
from repro.query.api import StampedeQuery
from repro.schema.events import Events

__all__ = [
    "Anomaly",
    "RobustRuntimeDetector",
    "EwmaDetector",
    "scan_archive",
    "detector_from_events",
]

# Consistency constant: MAD of a normal distribution is 0.6745 sigma.
_MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class Anomaly:
    """One flagged observation."""

    transformation: str
    runtime: float
    score: float
    kind: str  # 'slow' | 'fast' | 'failure'
    job_id: Optional[str] = None
    timestamp: float = 0.0

    def __str__(self) -> str:
        return (
            f"[{self.kind}] {self.transformation} job={self.job_id} "
            f"runtime={self.runtime:.1f}s score={self.score:.2f}"
        )


class RobustRuntimeDetector:
    """Sliding-window median/MAD anomaly detector, per job type.

    An observation is anomalous when its robust z-score exceeds
    ``threshold``.  The first ``min_samples`` observations of each type
    only train the model (no alerts) — cold-start suppression.
    """

    def __init__(
        self,
        threshold: float = 4.0,
        window: int = 200,
        min_samples: int = 5,
        flag_failures: bool = True,
    ):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.window = window
        self.min_samples = min_samples
        self.flag_failures = flag_failures
        self._samples: Dict[str, Deque[float]] = {}
        self.anomalies: List[Anomaly] = []
        self.observations = 0

    def observe(
        self,
        transformation: str,
        runtime: float,
        exitcode: int = 0,
        job_id: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> Optional[Anomaly]:
        """Feed one completed invocation; returns an Anomaly if flagged."""
        self.observations += 1
        if exitcode != 0 and self.flag_failures:
            anomaly = Anomaly(transformation, runtime, float("inf"), "failure",
                              job_id, timestamp)
            self.anomalies.append(anomaly)
            return anomaly
        window = self._samples.setdefault(transformation, deque(maxlen=self.window))
        anomaly: Optional[Anomaly] = None
        if len(window) >= self.min_samples:
            arr = np.asarray(window)
            med = float(np.median(arr))
            mad = float(np.median(np.abs(arr - med)))
            sigma = _MAD_TO_SIGMA * mad
            if sigma <= 0:
                # Degenerate window (constant runtimes): any deviation
                # beyond 10% of the median is suspicious.
                if med > 0 and abs(runtime - med) > 0.1 * med:
                    score = abs(runtime - med) / (0.1 * med) * self.threshold
                    kind = "slow" if runtime > med else "fast"
                    anomaly = Anomaly(transformation, runtime, score, kind,
                                      job_id, timestamp)
            else:
                score = (runtime - med) / sigma
                if abs(score) > self.threshold:
                    kind = "slow" if score > 0 else "fast"
                    anomaly = Anomaly(transformation, runtime, abs(score), kind,
                                      job_id, timestamp)
        window.append(runtime)
        if anomaly is not None:
            self.anomalies.append(anomaly)
        return anomaly

    def observe_event(self, event: NLEvent) -> Optional[Anomaly]:
        """Feed a stampede.inv.end event directly."""
        if event.event != Events.INV_END:
            return None
        return self.observe(
            transformation=str(event.get("transformation", "")),
            runtime=float(event.get("dur", 0.0)),
            exitcode=int(event.get("exitcode", 0)),
            job_id=str(event.get("job.id", "")) or None,
            timestamp=event.ts,
        )

    def baseline(self, transformation: str) -> Optional[float]:
        """Current median runtime for a type, or None if unseen."""
        window = self._samples.get(transformation)
        if not window:
            return None
        return float(np.median(np.asarray(window)))


class EwmaDetector:
    """Exponentially weighted mean/std anomaly detector, per job type."""

    def __init__(self, alpha: float = 0.1, threshold: float = 4.0,
                 min_samples: int = 5):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.threshold = threshold
        self.min_samples = min_samples
        # transformation -> (count, mean, variance)
        self._state: Dict[str, List[float]] = {}
        self.anomalies: List[Anomaly] = []

    def observe(
        self,
        transformation: str,
        runtime: float,
        job_id: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> Optional[Anomaly]:
        state = self._state.get(transformation)
        anomaly: Optional[Anomaly] = None
        if state is None:
            self._state[transformation] = [1, runtime, 0.0]
            return None
        count, mean, var = state
        if count >= self.min_samples and var > 0:
            score = (runtime - mean) / np.sqrt(var)
            if abs(score) > self.threshold:
                kind = "slow" if score > 0 else "fast"
                anomaly = Anomaly(transformation, runtime, abs(score), kind,
                                  job_id, timestamp)
                self.anomalies.append(anomaly)
        delta = runtime - mean
        mean += self.alpha * delta
        var = (1 - self.alpha) * (var + self.alpha * delta * delta)
        self._state[transformation] = [count + 1, mean, var]
        return anomaly

    def mean(self, transformation: str) -> Optional[float]:
        state = self._state.get(transformation)
        return state[1] if state else None


def detector_from_events(
    events: Iterable[NLEvent], detector: Optional[RobustRuntimeDetector] = None
) -> RobustRuntimeDetector:
    """Run a detector over an event stream (live-bus or replayed log)."""
    if detector is None:
        detector = RobustRuntimeDetector()
    for event in events:
        detector.observe_event(event)
    return detector


def scan_archive(
    query: StampedeQuery,
    wf_id: int,
    include_descendants: bool = True,
    detector: Optional[RobustRuntimeDetector] = None,
) -> RobustRuntimeDetector:
    """Post-hoc scan: replay archived invocations through a detector."""
    if detector is None:
        detector = RobustRuntimeDetector()
    wf_ids = [wf_id] + (
        [w.wf_id for w in query.descendant_workflows(wf_id)]
        if include_descendants
        else []
    )
    records = []
    for current in wf_ids:
        for inv in query.invocations(current):
            records.append(inv)
    records.sort(key=lambda i: i.start_time + i.remote_duration)
    for inv in records:
        detector.observe(
            transformation=inv.transformation,
            runtime=inv.remote_duration,
            exitcode=inv.exitcode,
            job_id=inv.abs_task_id,
            timestamp=inv.start_time + inv.remote_duration,
        )
    return detector

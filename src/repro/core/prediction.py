"""Workflow-level prediction (paper §IV, §VIII).

Two capabilities the paper attributes to the Stampede analysis layer:

* **Runtime prediction** — estimate remaining wall time of a running
  workflow from per-type mean runtimes and the observed parallelism, the
  "baseline run + extrapolation" provisioning workflow of §VII.
* **Failure prediction** — score the probability that a run will end in
  failure from basic windowed aggregations of high-level statistics
  (failure fraction, retry pressure, stall time), following the
  workflow-level analysis of Samak et al. [37].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.query.api import StampedeQuery
from repro.schema.events import SUCCESS

__all__ = [
    "RuntimeEstimate",
    "FailureSignals",
    "estimate_remaining_runtime",
    "failure_signals",
    "failure_score",
]


@dataclass
class RuntimeEstimate:
    """Remaining-work estimate for a (possibly running) workflow."""

    completed_invocations: int
    pending_tasks: int
    mean_runtime_by_type: Dict[str, float]
    remaining_serial_seconds: float
    observed_parallelism: float
    remaining_wall_seconds: float


@dataclass
class FailureSignals:
    """Windowed aggregations used as failure-prediction features."""

    jobs_seen: int
    failure_fraction: float
    retry_fraction: float
    recent_failure_fraction: float  # over the trailing window
    held_fraction: float


def estimate_remaining_runtime(
    query: StampedeQuery,
    wf_id: int,
    include_descendants: bool = True,
    default_runtime: Optional[float] = None,
) -> RuntimeEstimate:
    """Predict remaining wall time from per-type means and parallelism.

    Unseen task types fall back to ``default_runtime`` (or the global mean
    of observed runtimes when not given).
    """
    wf_ids = [wf_id] + (
        [w.wf_id for w in query.descendant_workflows(wf_id)]
        if include_descendants
        else []
    )
    runtimes_by_type: Dict[str, List[float]] = {}
    completed_tasks = set()
    spans: List[tuple] = []
    n_invocations = 0
    for current in wf_ids:
        for inv in query.invocations(current):
            n_invocations += 1
            runtimes_by_type.setdefault(inv.transformation, []).append(
                inv.remote_duration
            )
            spans.append((inv.start_time, inv.start_time + inv.remote_duration))
            if inv.abs_task_id is not None and inv.exitcode == SUCCESS:
                completed_tasks.add((current, inv.abs_task_id))

    means = {t: float(np.mean(v)) for t, v in runtimes_by_type.items()}
    all_runtimes = [r for v in runtimes_by_type.values() for r in v]
    fallback = (
        default_runtime
        if default_runtime is not None
        else (float(np.mean(all_runtimes)) if all_runtimes else 0.0)
    )

    remaining_serial = 0.0
    pending = 0
    for current in wf_ids:
        for task in query.tasks(current):
            if (current, task.abs_task_id) in completed_tasks:
                continue
            pending += 1
            remaining_serial += means.get(task.transformation, fallback)

    parallelism = _observed_parallelism(spans)
    remaining_wall = remaining_serial / parallelism if parallelism > 0 else remaining_serial
    return RuntimeEstimate(
        completed_invocations=n_invocations,
        pending_tasks=pending,
        mean_runtime_by_type=means,
        remaining_serial_seconds=remaining_serial,
        observed_parallelism=parallelism,
        remaining_wall_seconds=remaining_wall,
    )


def _observed_parallelism(spans: List[tuple]) -> float:
    """Mean number of concurrently running invocations over the busy time."""
    if not spans:
        return 1.0
    total_busy = sum(end - start for start, end in spans)
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    if wall <= 0:
        return float(len(spans))
    return max(1.0, total_busy / wall)


def failure_signals(
    query: StampedeQuery,
    wf_id: int,
    include_descendants: bool = True,
    window: int = 20,
) -> FailureSignals:
    """Compute the windowed aggregation features over job instances."""
    wf_ids = [wf_id] + (
        [w.wf_id for w in query.descendant_workflows(wf_id)]
        if include_descendants
        else []
    )
    outcomes: List[int] = []  # exitcodes in completion order
    retries = 0
    held = 0
    total_instances = 0
    for current in wf_ids:
        instances = query.job_instances(current)
        by_job: Dict[int, int] = {}
        for inst in instances:
            total_instances += 1
            by_job[inst.job_id] = max(by_job.get(inst.job_id, 0), inst.job_submit_seq)
            if inst.exitcode is not None:
                outcomes.append(inst.exitcode)
            states = [s.state for s in query.job_states(inst.job_instance_id)]
            if "JOB_HELD" in states:
                held += 1
        retries += sum(max(0, seq - 1) for seq in by_job.values())

    jobs_seen = len(outcomes)
    failure_fraction = (
        sum(1 for e in outcomes if e != 0) / jobs_seen if jobs_seen else 0.0
    )
    recent = outcomes[-window:]
    recent_failure_fraction = (
        sum(1 for e in recent if e != 0) / len(recent) if recent else 0.0
    )
    return FailureSignals(
        jobs_seen=jobs_seen,
        failure_fraction=failure_fraction,
        retry_fraction=retries / total_instances if total_instances else 0.0,
        recent_failure_fraction=recent_failure_fraction,
        held_fraction=held / total_instances if total_instances else 0.0,
    )


def failure_score(signals: FailureSignals) -> float:
    """Map the signals to a [0, 1] failure-risk score.

    A fixed logistic combination: recent failures dominate (a burst of
    failures late in the run is the classic precursor), overall failure
    fraction and retry pressure contribute, held jobs add drag.  Weights
    were chosen so an all-success run scores ~0 and a run whose trailing
    window is mostly failures scores > 0.9.
    """
    z = (
        -4.0
        + 6.0 * signals.recent_failure_fraction
        + 4.0 * signals.failure_fraction
        + 3.0 * signals.retry_fraction
        + 2.0 * signals.held_fraction
    )
    return float(1.0 / (1.0 + np.exp(-z)))

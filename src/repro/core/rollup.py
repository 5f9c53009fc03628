"""Incremental rollups: materialized statistics maintained at the writer.

The full-scan read path (``workflow_statistics``) recomputes Table I/II
aggregates from the base tables on every request — O(archive) per query.
This module maintains the same aggregates *incrementally*, inside the
loader's flush transaction, so dashboard reads become O(1) point lookups
regardless of archive size (the CMS-dashboard / WMArchive
rollup-near-the-writer pattern from PAPERS.md).

Consistency contract
--------------------
:class:`RollupMaintainer` observes the loader's journal: every buffered
insert/update is folded into an in-memory delta bundle, and
:meth:`RollupMaintainer.apply` replays that bundle inside the same
backend transaction that commits the batch rows and the checkpoint.
Therefore:

* rollup rows are exactly as durable and exactly as current as the
  event rows they summarize — a kill at any point leaves both sides of
  the boundary consistent, and resume re-derives the same deltas;
* every delta is **additive** or a **monotone merge** (min ``started``,
  max ``ended``/``restarts``, min/max runtimes), so re-running the
  read-modify-write after a transient rollback converges;
* ``rollup_meta.commit_seq`` increments once per applying flush — read
  caches invalidate on it instead of a TTL.

Reads (:func:`rollup_statistics`) return ``None`` when the archive has
no (or incomplete) rollup coverage, and ``workflow_statistics`` falls
back to the full scan; :func:`rebuild_rollups` backfills legacy
archives and :func:`verify_rollups` asserts parity with the scan.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    RollupHostBucketRow,
    RollupHostRow,
    RollupMetaRow,
    RollupTypeRow,
    RollupWorkflowRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.model.states import WorkflowState
from repro.schema.events import SUCCESS

__all__ = [
    "TIERS",
    "UNKNOWN_HOST",
    "RollupMaintainer",
    "commit_seq",
    "last_commit_ts",
    "rollup_statistics",
    "rebuild_rollups",
    "verify_rollups",
    "drop_rollups",
    "main",
]

#: downsampling tiers for the per-host time series, in seconds; buckets
#: are epoch-aligned (``floor(start_time / tier)``) so they merge across
#: workflows, shards, and rebuilds without re-binning
TIERS: Tuple[int, ...] = (60, 600, 3600)

#: hostname bucket for job instances not (yet) attached to a host —
#: mirrors the scan's ``hostname = "unknown"`` attribution
UNKNOWN_HOST = "unknown"

_META_SEQ = "commit_seq"
_META_TS = "last_commit_ts"


class _Bundle:
    """Pending rollup deltas for the next flush transaction."""

    __slots__ = (
        "wf_new",
        "wf_add",
        "wf_started",
        "wf_ended",
        "wf_restarts",
        "types",
        "hosts",
        "buckets",
    )

    def __init__(self) -> None:
        # wf_id -> identity fields of a brand-new rollup_workflow row
        self.wf_new: Dict[int, Dict[str, Any]] = {}
        # wf_id -> {column: additive delta} (may be negative: outcome moves)
        self.wf_add: Dict[int, Dict[str, float]] = {}
        self.wf_started: Dict[int, float] = {}  # min-merge
        self.wf_ended: Dict[int, Tuple[float, Optional[int]]] = {}  # max-merge
        self.wf_restarts: Dict[int, int] = {}  # max-merge
        # (wf_id, transformation) -> [count, succ, fail, min, max, total]
        self.types: Dict[Tuple[int, str], List[float]] = {}
        # (wf_id, hostname) -> [jobs, runtime]
        self.hosts: Dict[Tuple[int, str], List[float]] = {}
        # (wf_id, hostname, tier, bucket) -> runtime
        self.buckets: Dict[Tuple[int, str, int, int], float] = {}

    def empty(self) -> bool:
        return not (
            self.wf_new
            or self.wf_add
            or self.wf_started
            or self.wf_ended
            or self.wf_restarts
            or self.types
            or self.hosts
            or self.buckets
        )


class RollupMaintainer:
    """Folds the loader journal into rollup deltas; applies them in-txn.

    Observation happens as the loader buffers work (``observe_insert`` /
    ``observe_update``), tracking state (task outcomes, last attempts,
    host attachments) lives in JSON-serializable maps that ride the
    loader checkpoint, and :meth:`apply` runs inside ``_flush_once`` so
    a retried transaction re-reads and re-merges idempotently.  The
    bundle is cleared by :meth:`commit` only after the flush commits —
    a failed flush keeps both the journal and the bundle for the retry.
    """

    def __init__(self, archive: Any):
        self.archive = archive
        self._bundle = _Bundle()
        # -- tracking state (checkpointed) ---------------------------------
        # wf_id -> known abs_task_ids (tasks with a TaskRow)
        self._task_rows: Dict[int, Set[str]] = {}
        # wf_id -> {abs_task_id: counted outcome exitcode}
        self._task_outcome: Dict[int, Dict[str, int]] = {}
        # wf_id -> {abs_task_id: outcome seen before its task.info}
        self._orphan_outcome: Dict[int, Dict[str, int]] = {}
        # job_id -> [wf_id, attempts, max_submit_seq, last_exit or None]
        self._jobs: Dict[int, List[Any]] = {}
        # job_instance_id -> [wf_id, job_id, submit_seq]
        self._inst: Dict[int, List[int]] = {}
        # job_instance_id -> attached hostname
        self._inst_host: Dict[int, str] = {}
        # job instances marked as sub-workflow wrappers
        self._inst_subwf: Set[int] = set()
        # job_instance_id -> invocation wall already credited (for the
        # retroactive subtraction when a subwf mapping attaches later)
        self._inst_wall: Dict[int, float] = {}
        # host_id -> hostname
        self._hosts: Dict[int, str] = {}
        # unattached instances' credits parked under UNKNOWN_HOST:
        # job_instance_id -> [jobs, runtime, {(tier, bucket): runtime}]
        self._pending_host: Dict[int, List[Any]] = {}

    # -- delta helpers -------------------------------------------------------
    def _add(self, wf_id: int, column: str, delta: float) -> None:
        cols = self._bundle.wf_add.setdefault(wf_id, {})
        cols[column] = cols.get(column, 0) + delta

    def _host_add(self, wf_id: int, hostname: str, jobs: int, runtime: float) -> None:
        entry = self._bundle.hosts.setdefault((wf_id, hostname), [0, 0.0])
        entry[0] += jobs
        entry[1] += runtime

    def _bucket_add(
        self, wf_id: int, hostname: str, tier: int, bucket: int, runtime: float
    ) -> None:
        key = (wf_id, hostname, tier, bucket)
        self._bundle.buckets[key] = self._bundle.buckets.get(key, 0.0) + runtime

    # -- journal observation -------------------------------------------------
    def observe_insert(self, entity: Any) -> None:
        etype = type(entity)
        if etype is JobStateRow:
            inst = self._inst.get(entity.job_instance_id)
            if inst is not None:
                self._add(inst[0], "events", 1)
        elif etype is InvocationRow:
            self._on_invocation(entity)
        elif etype is JobInstanceRow:
            self._on_job_instance(entity)
        elif etype is TaskRow:
            self._on_task(entity)
        elif etype is JobRow:
            self._jobs[entity.job_id] = [entity.wf_id, 0, -1, None]
            self._add(entity.wf_id, "jobs_total", 1)
            self._add(entity.wf_id, "events", 1)
        elif etype is HostRow:
            self._hosts[entity.host_id] = entity.hostname
            self._add(entity.wf_id, "events", 1)
        elif etype is WorkflowStateRow:
            self._on_workflow_state(entity)
        elif etype is WorkflowRow:
            self._bundle.wf_new[entity.wf_id] = {
                "wf_uuid": entity.wf_uuid,
                "parent_wf_id": entity.parent_wf_id,
                "root_wf_id": entity.root_wf_id,
            }
            self._add(entity.wf_id, "events", 1)
        elif etype in (TaskEdgeRow, JobEdgeRow):
            self._add(entity.wf_id, "events", 1)
        # ObsEventRow and anything else: workflow-independent, no rollup

    def observe_update(
        self, etype: type, values: Dict[str, Any], where: Dict[str, Any]
    ) -> None:
        if etype is not JobInstanceRow:
            return
        ji_id = where.get("job_instance_id")
        if ji_id is None:
            return
        if "host_id" in values:
            self._on_host_attach(ji_id, values["host_id"])
        if "subwf_id" in values:
            self._on_subwf_attach(ji_id)
        if "exitcode" in values:
            self._on_instance_end(
                ji_id, values.get("exitcode"), values.get("local_duration")
            )

    # -- per-entity logic ----------------------------------------------------
    def _on_task(self, task: TaskRow) -> None:
        wf_id = task.wf_id
        self._task_rows.setdefault(wf_id, set()).add(task.abs_task_id)
        self._add(wf_id, "tasks_total", 1)
        self._add(wf_id, "events", 1)
        # an outcome that arrived before its task.info (tolerant-mode
        # ordering violation) starts counting now, like the scan would
        orphan = self._orphan_outcome.get(wf_id, {}).pop(task.abs_task_id, None)
        if orphan is not None:
            self._task_outcome.setdefault(wf_id, {})[task.abs_task_id] = orphan
            self._add(
                wf_id,
                "tasks_succeeded" if orphan == SUCCESS else "tasks_failed",
                1,
            )

    def _on_workflow_state(self, state: WorkflowStateRow) -> None:
        wf_id = state.wf_id
        bundle = self._bundle
        self._add(wf_id, "events", 1)
        restarts = bundle.wf_restarts.get(wf_id, 0)
        if state.restart_count > restarts:
            bundle.wf_restarts[wf_id] = state.restart_count
        if state.state == WorkflowState.WORKFLOW_STARTED.value:
            started = bundle.wf_started.get(wf_id)
            if started is None or state.timestamp < started:
                bundle.wf_started[wf_id] = state.timestamp
        elif state.state == WorkflowState.WORKFLOW_TERMINATED.value:
            ended = bundle.wf_ended.get(wf_id)
            # ties go to the later-observed event, matching the scan's
            # "last terminated state in timestamp order" rule
            if ended is None or state.timestamp >= ended[0]:
                bundle.wf_ended[wf_id] = (state.timestamp, state.status)

    def _on_job_instance(self, inst: JobInstanceRow) -> None:
        job = self._jobs.get(inst.job_id)
        if job is None:
            return  # instance of a job this maintainer never saw
        wf_id = job[0]
        seq = inst.job_submit_seq
        self._inst[inst.job_instance_id] = [wf_id, inst.job_id, seq]
        self._add(wf_id, "job_instances", 1)
        self._add(wf_id, "events", 1)
        job[1] += 1  # attempts
        if job[1] > 1:
            self._add(wf_id, "jobs_retries", 1)
        if seq >= job[2]:
            # this attempt is now the job's last: the previous last
            # attempt's outcome no longer decides the job
            last_exit = job[3]
            if last_exit is not None:
                self._add(
                    wf_id,
                    "jobs_succeeded" if last_exit == SUCCESS else "jobs_failed",
                    -1,
                )
            job[2] = seq
            job[3] = None
        # until a host attaches, the instance counts under "unknown"
        self._pending_host[inst.job_instance_id] = [1, 0.0, {}]
        self._host_add(wf_id, UNKNOWN_HOST, 1, 0.0)

    def _on_instance_end(
        self, ji_id: int, exitcode: Optional[int], local_duration: Optional[float]
    ) -> None:
        inst = self._inst.get(ji_id)
        if inst is None:
            return
        wf_id, job_id, seq = inst
        job = self._jobs.get(job_id)
        if job is not None and seq == job[2] and exitcode is not None:
            if job[3] is not None:
                self._add(
                    wf_id,
                    "jobs_succeeded" if job[3] == SUCCESS else "jobs_failed",
                    -1,
                )
            job[3] = exitcode
            self._add(
                wf_id,
                "jobs_succeeded" if exitcode == SUCCESS else "jobs_failed",
                1,
            )
        runtime = local_duration or 0.0
        if runtime:
            hostname = self._inst_host.get(ji_id)
            if hostname is None:
                pending = self._pending_host.setdefault(ji_id, [0, 0.0, {}])
                pending[1] += runtime
                self._host_add(wf_id, UNKNOWN_HOST, 0, runtime)
            else:
                self._host_add(wf_id, hostname, 0, runtime)

    def _on_host_attach(self, ji_id: int, host_id: Optional[int]) -> None:
        inst = self._inst.get(ji_id)
        hostname = self._hosts.get(host_id) if host_id is not None else None
        if inst is None or hostname is None:
            return
        if ji_id in self._inst_host:
            return  # engines emit one host_info per instance; dedupe
        wf_id = inst[0]
        self._inst_host[ji_id] = hostname
        pending = self._pending_host.pop(ji_id, None)
        if pending is not None:
            jobs, runtime, bins = pending
            if jobs or runtime:
                self._host_add(wf_id, UNKNOWN_HOST, -jobs, -runtime)
                self._host_add(wf_id, hostname, jobs, runtime)
            for (tier, bucket), dur in bins.items():
                self._bucket_add(wf_id, UNKNOWN_HOST, tier, bucket, -dur)
                self._bucket_add(wf_id, hostname, tier, bucket, dur)

    def _on_subwf_attach(self, ji_id: int) -> None:
        if ji_id in self._inst_subwf:
            return  # a re-resolved deferred map after a failed flush
        self._inst_subwf.add(ji_id)
        inst = self._inst.get(ji_id)
        credited = self._inst_wall.pop(ji_id, 0.0)
        if inst is not None and credited:
            # its invocations span the child run, whose own invocations
            # are already counted: take the credit back
            self._add(inst[0], "invocation_wall", -credited)

    def _on_invocation(self, inv: InvocationRow) -> None:
        wf_id = inv.wf_id
        ji_id = inv.job_instance_id
        duration = inv.remote_duration or 0.0
        ok = inv.exitcode == SUCCESS
        self._add(wf_id, "invocations", 1)
        self._add(wf_id, "events", 1)
        if ji_id not in self._inst_subwf:
            self._add(wf_id, "invocation_wall", duration)
            self._inst_wall[ji_id] = self._inst_wall.get(ji_id, 0.0) + duration
        # per-transformation breakdown (Table II)
        entry = self._bundle.types.get((wf_id, inv.transformation))
        if entry is None:
            self._bundle.types[(wf_id, inv.transformation)] = [
                1, 1 if ok else 0, 0 if ok else 1, duration, duration, duration,
            ]
        else:
            entry[0] += 1
            entry[1 if ok else 2] += 1
            entry[3] = min(entry[3], duration)
            entry[4] = max(entry[4], duration)
            entry[5] += duration
        # task outcome: any success wins (scan's _accumulate_counts rule)
        if inv.abs_task_id is not None:
            self._merge_task_outcome(wf_id, inv.abs_task_id, inv.exitcode)
        # per-host time series, one bucket per downsampling tier
        hostname = self._inst_host.get(ji_id)
        bins = None
        if hostname is None:
            pending = self._pending_host.setdefault(ji_id, [0, 0.0, {}])
            bins = pending[2]
            hostname = UNKNOWN_HOST
        for tier in TIERS:
            bucket = int(inv.start_time // tier)
            self._bucket_add(wf_id, hostname, tier, bucket, duration)
            if bins is not None:
                key = (tier, bucket)
                bins[key] = bins.get(key, 0.0) + duration

    def _merge_task_outcome(self, wf_id: int, abs_task_id: str, exitcode: int) -> None:
        if abs_task_id in self._task_rows.get(wf_id, ()):
            outcomes = self._task_outcome.setdefault(wf_id, {})
            prev = outcomes.get(abs_task_id)
            if prev is None:
                outcomes[abs_task_id] = exitcode
                self._add(
                    wf_id,
                    "tasks_succeeded" if exitcode == SUCCESS else "tasks_failed",
                    1,
                )
            elif prev != SUCCESS:
                if exitcode == SUCCESS:
                    self._add(wf_id, "tasks_failed", -1)
                    self._add(wf_id, "tasks_succeeded", 1)
                outcomes[abs_task_id] = exitcode
        else:
            orphans = self._orphan_outcome.setdefault(wf_id, {})
            prev = orphans.get(abs_task_id)
            if prev is None or prev != SUCCESS:
                orphans[abs_task_id] = exitcode

    # -- transactional apply -------------------------------------------------
    def apply(self, archive: Optional[Any] = None) -> Tuple[int, int]:
        """Merge the pending bundle into the rollup tables.

        Must run inside the flush transaction.  Read-modify-write per
        key: a transient rollback re-runs this against the restored
        rows, so the merge converges to the same state on every
        attempt.  Returns ``(rows_inserted, rows_updated)``.
        """
        archive = archive if archive is not None else self.archive
        bundle = self._bundle
        if bundle.empty():
            return (0, 0)
        inserted = updated = 0
        seq = int(_meta_value(archive, _META_SEQ, 0.0)) + 1
        wf_ids = (
            set(bundle.wf_new)
            | set(bundle.wf_add)
            | set(bundle.wf_started)
            | set(bundle.wf_ended)
            | set(bundle.wf_restarts)
        )
        for wf_id in sorted(wf_ids):
            row = (
                archive.query(RollupWorkflowRow).eq("wf_id", wf_id).first()
            )
            new = bundle.wf_new.get(wf_id, {})
            if row is None:
                row = RollupWorkflowRow(wf_id=wf_id, wf_uuid="")
                fresh = True
            else:
                fresh = False
            for column, value in new.items():
                setattr(row, column, value)
            for column, delta in bundle.wf_add.get(wf_id, {}).items():
                setattr(row, column, getattr(row, column) + delta)
            started = bundle.wf_started.get(wf_id)
            if started is not None and (row.started is None or started < row.started):
                row.started = started
            ended = bundle.wf_ended.get(wf_id)
            if ended is not None and (row.ended is None or ended[0] >= row.ended):
                row.ended, row.status = ended
            restarts = bundle.wf_restarts.get(wf_id)
            if restarts is not None and restarts > row.restarts:
                row.restarts = restarts
            row.updated_seq = seq
            if fresh:
                archive.insert(row)
                inserted += 1
            else:
                values = {f: getattr(row, f) for f in _WF_MUTABLE}
                archive.update(RollupWorkflowRow, values, {"wf_id": wf_id})
                updated += 1
        for (wf_id, transformation), delta in bundle.types.items():
            row = (
                archive.query(RollupTypeRow)
                .eq("wf_id", wf_id)
                .eq("transformation", transformation)
                .first()
            )
            if row is None:
                archive.insert(
                    RollupTypeRow(
                        wf_id=wf_id,
                        transformation=transformation,
                        count=int(delta[0]),
                        succeeded=int(delta[1]),
                        failed=int(delta[2]),
                        min_runtime=delta[3],
                        max_runtime=delta[4],
                        total_runtime=delta[5],
                    )
                )
                inserted += 1
            else:
                archive.update(
                    RollupTypeRow,
                    {
                        "count": row.count + int(delta[0]),
                        "succeeded": row.succeeded + int(delta[1]),
                        "failed": row.failed + int(delta[2]),
                        "min_runtime": min(row.min_runtime, delta[3]),
                        "max_runtime": max(row.max_runtime, delta[4]),
                        "total_runtime": row.total_runtime + delta[5],
                    },
                    {"wf_id": wf_id, "transformation": transformation},
                )
                updated += 1
        for (wf_id, hostname), (jobs, runtime) in bundle.hosts.items():
            row = (
                archive.query(RollupHostRow)
                .eq("wf_id", wf_id)
                .eq("hostname", hostname)
                .first()
            )
            if row is None:
                archive.insert(
                    RollupHostRow(
                        wf_id=wf_id,
                        hostname=hostname,
                        jobs=int(jobs),
                        runtime=runtime,
                    )
                )
                inserted += 1
            else:
                archive.update(
                    RollupHostRow,
                    {"jobs": row.jobs + int(jobs), "runtime": row.runtime + runtime},
                    {"wf_id": wf_id, "hostname": hostname},
                )
                updated += 1
        for (wf_id, hostname, tier, bucket), runtime in bundle.buckets.items():
            row = (
                archive.query(RollupHostBucketRow)
                .eq("wf_id", wf_id)
                .eq("hostname", hostname)
                .eq("tier", tier)
                .eq("bucket", bucket)
                .first()
            )
            if row is None:
                archive.insert(
                    RollupHostBucketRow(
                        wf_id=wf_id,
                        hostname=hostname,
                        tier=tier,
                        bucket=bucket,
                        runtime=runtime,
                    )
                )
                inserted += 1
            else:
                archive.update(
                    RollupHostBucketRow,
                    {"runtime": row.runtime + runtime},
                    {
                        "wf_id": wf_id,
                        "hostname": hostname,
                        "tier": tier,
                        "bucket": bucket,
                    },
                )
                updated += 1
        _meta_set(archive, _META_SEQ, float(seq))
        _meta_set(archive, _META_TS, time.time())
        return (inserted, updated)

    def commit(self) -> None:
        """Discard the applied bundle (call only after the flush commits)."""
        self._bundle = _Bundle()

    # -- checkpoint state ----------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """JSON-serializable tracking state (the bundle is *not* included:
        it commits in the same transaction as the checkpoint, so a resume
        re-derives any unflushed deltas from the re-read events)."""
        return {
            "task_rows": {
                str(wf): sorted(tasks) for wf, tasks in self._task_rows.items()
            },
            "task_outcome": {
                str(wf): dict(outcomes)
                for wf, outcomes in self._task_outcome.items()
            },
            "orphan_outcome": {
                str(wf): dict(outcomes)
                for wf, outcomes in self._orphan_outcome.items()
            },
            "jobs": {str(job): list(entry) for job, entry in self._jobs.items()},
            "inst": {str(ji): list(entry) for ji, entry in self._inst.items()},
            "inst_host": {str(ji): host for ji, host in self._inst_host.items()},
            "inst_subwf": sorted(self._inst_subwf),
            "inst_wall": {str(ji): wall for ji, wall in self._inst_wall.items()},
            "hosts": {str(hid): name for hid, name in self._hosts.items()},
            "pending_host": {
                str(ji): [
                    entry[0],
                    entry[1],
                    [[tier, bucket, dur] for (tier, bucket), dur in entry[2].items()],
                ]
                for ji, entry in self._pending_host.items()
            },
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._bundle = _Bundle()
        self._task_rows = {
            int(wf): set(tasks) for wf, tasks in state.get("task_rows", {}).items()
        }
        self._task_outcome = {
            int(wf): {str(t): int(e) for t, e in outcomes.items()}
            for wf, outcomes in state.get("task_outcome", {}).items()
        }
        self._orphan_outcome = {
            int(wf): {str(t): int(e) for t, e in outcomes.items()}
            for wf, outcomes in state.get("orphan_outcome", {}).items()
        }
        self._jobs = {
            int(job): [
                int(entry[0]),
                int(entry[1]),
                int(entry[2]),
                None if entry[3] is None else int(entry[3]),
            ]
            for job, entry in state.get("jobs", {}).items()
        }
        self._inst = {
            int(ji): [int(v) for v in entry]
            for ji, entry in state.get("inst", {}).items()
        }
        self._inst_host = {
            int(ji): str(host) for ji, host in state.get("inst_host", {}).items()
        }
        self._inst_subwf = {int(ji) for ji in state.get("inst_subwf", [])}
        self._inst_wall = {
            int(ji): float(wall) for ji, wall in state.get("inst_wall", {}).items()
        }
        self._hosts = {
            int(hid): str(name) for hid, name in state.get("hosts", {}).items()
        }
        self._pending_host = {
            int(ji): [
                int(entry[0]),
                float(entry[1]),
                {
                    (int(tier), int(bucket)): float(dur)
                    for tier, bucket, dur in entry[2]
                },
            ]
            for ji, entry in state.get("pending_host", {}).items()
        }


#: rollup_workflow columns apply() may change after the insert
_WF_MUTABLE = (
    "wf_uuid",
    "parent_wf_id",
    "root_wf_id",
    "events",
    "tasks_total",
    "tasks_succeeded",
    "tasks_failed",
    "jobs_total",
    "jobs_succeeded",
    "jobs_failed",
    "jobs_retries",
    "job_instances",
    "invocations",
    "invocation_wall",
    "started",
    "ended",
    "status",
    "restarts",
    "updated_seq",
)


# -- rollup_meta ------------------------------------------------------------
def _meta_value(archive: Any, key: str, default: float) -> float:
    row = archive.query(RollupMetaRow).eq("key", key).first()
    return row.value if row is not None else default


def _meta_set(archive: Any, key: str, value: float) -> None:
    if archive.update(RollupMetaRow, {"value": value}, {"key": key}) == 0:
        archive.insert(RollupMetaRow(key=key, value=value))


def commit_seq(archive: Any) -> int:
    """The rollup commit sequence: bumps once per applying flush.

    On a federated archive every source contributes its own counter;
    the sum is monotone across the set, which is all a cache-version
    needs.  Returns 0 for an archive with no rollups yet.
    """
    rows = archive.query(RollupMetaRow).eq("key", _META_SEQ).all()
    return int(sum(row.value for row in rows))


def last_commit_ts(archive: Any) -> Optional[float]:
    """Wall-clock time of the newest rollup commit (None before any)."""
    rows = archive.query(RollupMetaRow).eq("key", _META_TS).all()
    return max((row.value for row in rows), default=None)


def drop_rollups(archive: Any, wf_ids: List[int]) -> int:
    """Delete the rollup rows of the given workflows (tiering path).

    Runs in the caller's transaction; bumps the commit sequence so read
    caches notice the disappearance.  Returns rows removed.
    """
    if not wf_ids:
        return 0
    removed = 0
    for etype in (
        RollupWorkflowRow,
        RollupTypeRow,
        RollupHostRow,
        RollupHostBucketRow,
    ):
        removed += archive.delete(etype, {"wf_id": list(wf_ids)})
    if removed:
        _meta_set(archive, _META_SEQ, _meta_value(archive, _META_SEQ, 0.0) + 1)
        _meta_set(archive, _META_TS, time.time())
    return removed


# -- read path --------------------------------------------------------------
def rollup_statistics(
    archive_or_query: Any,
    wf_id: Optional[int] = None,
    wf_uuid: Optional[str] = None,
    include_descendants: bool = True,
    include_jobs: bool = True,
):
    """The ``workflow_statistics`` bundle served from rollup rows.

    O(descendants) point lookups instead of O(archive) scans.  Returns
    ``None`` when the workflow (or any descendant) has no rollup row —
    the caller falls back to the full scan.  The ``hosts`` breakdown
    keys its ``bins`` by the epoch-aligned 60 s bucket index rather
    than the scan's origin-relative bin; bin *sums* are identical.
    """
    from repro.core.statistics import (
        HostUsage,
        TypeBreakdown,
        WorkflowStatistics,
    )
    from repro.query.api import StampedeQuery, WorkflowSummaryCounts

    query = (
        archive_or_query
        if isinstance(archive_or_query, StampedeQuery)
        else StampedeQuery(archive_or_query)
    )
    archive = query.archive
    if wf_id is None:
        if wf_uuid is not None:
            wf = query.workflow_by_uuid(wf_uuid)
            if wf is None:
                raise ValueError(f"no workflow with uuid {wf_uuid!r}")
        else:
            roots = query.root_workflows()
            if len(roots) != 1:
                raise ValueError(
                    f"archive holds {len(roots)} root workflows; specify wf_id"
                )
            wf = roots[0]
        wf_id = wf.wf_id
    else:
        wf = query.workflow(wf_id)
        if wf is None:
            raise ValueError(f"no workflow with wf_id {wf_id}")

    descendants = query.descendant_workflows(wf_id) if include_descendants else []
    wf_ids = [wf_id] + [w.wf_id for w in descendants]
    rollups: Dict[int, RollupWorkflowRow] = {}
    for current in wf_ids:
        row = archive.query(RollupWorkflowRow).eq("wf_id", current).first()
        if row is None:
            return None  # incomplete coverage: let the scan answer
        rollups[current] = row

    counts = WorkflowSummaryCounts()
    cumulative = 0.0
    for current in wf_ids:
        row = rollups[current]
        counts.tasks_total += row.tasks_total
        counts.tasks_succeeded += row.tasks_succeeded
        counts.tasks_failed += row.tasks_failed
        counts.jobs_total += row.jobs_total
        counts.jobs_succeeded += row.jobs_succeeded
        counts.jobs_failed += row.jobs_failed
        counts.jobs_retries += row.jobs_retries
        cumulative += row.invocation_wall
    counts.tasks_incomplete = (
        counts.tasks_total - counts.tasks_succeeded - counts.tasks_failed
    )
    counts.jobs_incomplete = (
        counts.jobs_total - counts.jobs_succeeded - counts.jobs_failed
    )
    for sub in descendants:
        row = rollups[sub.wf_id]
        counts.subwf_total += 1
        if row.ended is None:
            counts.subwf_incomplete += 1
        elif row.status == SUCCESS:
            counts.subwf_succeeded += 1
        else:
            counts.subwf_failed += 1
        counts.subwf_retries += row.restarts

    root_row = rollups[wf_id]
    wall_time = (
        root_row.ended - root_row.started
        if root_row.started is not None and root_row.ended is not None
        else None
    )

    breakdown: Dict[str, TypeBreakdown] = {}
    for current in wf_ids:
        for trow in archive.query(RollupTypeRow).eq("wf_id", current).all():
            entry = breakdown.get(trow.transformation)
            if entry is None:
                breakdown[trow.transformation] = TypeBreakdown(
                    type_name=trow.transformation,
                    count=trow.count,
                    succeeded=trow.succeeded,
                    failed=trow.failed,
                    min_runtime=trow.min_runtime,
                    max_runtime=trow.max_runtime,
                    total_runtime=trow.total_runtime,
                )
            else:
                entry.count += trow.count
                entry.succeeded += trow.succeeded
                entry.failed += trow.failed
                entry.min_runtime = min(entry.min_runtime, trow.min_runtime)
                entry.max_runtime = max(entry.max_runtime, trow.max_runtime)
                entry.total_runtime += trow.total_runtime

    hosts: Dict[str, HostUsage] = {}
    for current in wf_ids:
        for hrow in archive.query(RollupHostRow).eq("wf_id", current).all():
            if not hrow.jobs and abs(hrow.runtime) <= 1e-9:
                continue  # fully moved off "unknown": an empty residue row
            usage = hosts.setdefault(hrow.hostname, HostUsage(hrow.hostname))
            usage.jobs += hrow.jobs
            usage.total_runtime += hrow.runtime
        for brow in (
            archive.query(RollupHostBucketRow)
            .eq("wf_id", current)
            .eq("tier", TIERS[0])
            .all()
        ):
            if abs(brow.runtime) <= 1e-9 and brow.hostname not in hosts:
                continue  # moved-off residue for a host with no real usage
            usage = hosts.setdefault(brow.hostname, HostUsage(brow.hostname))
            usage.bins[brow.bucket] = usage.bins.get(brow.bucket, 0.0) + brow.runtime

    return WorkflowStatistics(
        wf_id=wf_id,
        wf_uuid=wf.wf_uuid,
        wall_time=wall_time,
        cumulative_job_wall_time=cumulative,
        counts=counts,
        breakdown=sorted(breakdown.values(), key=lambda b: b.type_name),
        jobs=query.job_details(wf_id) if include_jobs else [],
        hosts=sorted(hosts.values(), key=lambda u: u.hostname),
    )


# -- rebuild / verify -------------------------------------------------------
def _scan_rollup(query: Any, wf: WorkflowRow) -> Tuple[
    RollupWorkflowRow,
    List[RollupTypeRow],
    List[RollupHostRow],
    List[RollupHostBucketRow],
]:
    """Compute one workflow's rollup rows from the base tables."""
    wf_id = wf.wf_id
    states = query.workflow_states(wf_id)
    started = next(
        (s.timestamp for s in states
         if s.state == WorkflowState.WORKFLOW_STARTED.value),
        None,
    )
    ended = status = None
    for s in states:
        if s.state == WorkflowState.WORKFLOW_TERMINATED.value:
            if ended is None or s.timestamp >= ended:
                ended, status = s.timestamp, s.status
    restarts = max((s.restart_count for s in states), default=0)

    tasks = query.tasks(wf_id)
    invocations = query.invocations(wf_id)
    task_outcome: Dict[str, int] = {}
    for inv in invocations:
        if inv.abs_task_id is not None:
            prev = task_outcome.get(inv.abs_task_id)
            if prev is None or prev != SUCCESS:
                task_outcome[inv.abs_task_id] = inv.exitcode
    tasks_succeeded = tasks_failed = 0
    for task in tasks:
        outcome = task_outcome.get(task.abs_task_id)
        if outcome is None:
            continue
        if outcome == SUCCESS:
            tasks_succeeded += 1
        else:
            tasks_failed += 1

    jobs = query.jobs(wf_id)
    instances = query.job_instances(wf_id)
    by_job: Dict[int, List[Any]] = {}
    for inst in instances:
        by_job.setdefault(inst.job_id, []).append(inst)
    jobs_succeeded = jobs_failed = jobs_retries = 0
    for job in jobs:
        attempts = sorted(by_job.get(job.job_id, []), key=lambda i: i.job_submit_seq)
        jobs_retries += max(0, len(attempts) - 1)
        if attempts and attempts[-1].exitcode is not None:
            if attempts[-1].exitcode == SUCCESS:
                jobs_succeeded += 1
            else:
                jobs_failed += 1

    subwf_instances = {
        inst.job_instance_id for inst in instances if inst.subwf_id is not None
    }
    invocation_wall = sum(
        inv.remote_duration
        for inv in invocations
        if inv.job_instance_id not in subwf_instances
    )

    types: Dict[str, List[float]] = {}
    for inv in invocations:
        duration = inv.remote_duration or 0.0
        ok = inv.exitcode == SUCCESS
        entry = types.get(inv.transformation)
        if entry is None:
            types[inv.transformation] = [
                1, 1 if ok else 0, 0 if ok else 1, duration, duration, duration,
            ]
        else:
            entry[0] += 1
            entry[1 if ok else 2] += 1
            entry[3] = min(entry[3], duration)
            entry[4] = max(entry[4], duration)
            entry[5] += duration

    hosts_by_id = {h.host_id: h for h in query.hosts(wf_id)}
    jobs_by_id = {j.job_id: j for j in jobs}
    host_usage: Dict[str, List[float]] = {}
    buckets: Dict[Tuple[str, int, int], float] = {}
    inv_by_instance: Dict[int, List[Any]] = {}
    for inv in invocations:
        inv_by_instance.setdefault(inv.job_instance_id, []).append(inv)
    for inst in instances:
        if inst.job_id not in jobs_by_id:
            continue
        host = hosts_by_id.get(inst.host_id) if inst.host_id else None
        hostname = host.hostname if host else UNKNOWN_HOST
        entry = host_usage.setdefault(hostname, [0, 0.0])
        entry[0] += 1
        entry[1] += inst.local_duration or 0.0
        for inv in inv_by_instance.get(inst.job_instance_id, []):
            for tier in TIERS:
                key = (hostname, tier, int(inv.start_time // tier))
                buckets[key] = buckets.get(key, 0.0) + inv.remote_duration

    # mirror the maintainer's tally exactly: every observed row insert of
    # this workflow counts — the workflow row itself, states, tasks and
    # task edges, jobs and job edges, instances, per-instance jobstates,
    # invocations, and host registrations
    jobstates = sum(
        len(query.job_states(inst.job_instance_id)) for inst in instances
    )
    events = (
        1
        + len(states)
        + len(tasks)
        + len(query.task_edges(wf_id))
        + len(jobs)
        + len(query.job_edges(wf_id))
        + len(instances)
        + jobstates
        + len(invocations)
        + len(query.hosts(wf_id))
    )
    row = RollupWorkflowRow(
        wf_id=wf_id,
        wf_uuid=wf.wf_uuid,
        parent_wf_id=wf.parent_wf_id,
        root_wf_id=wf.root_wf_id,
        events=events,
        tasks_total=len(tasks),
        tasks_succeeded=tasks_succeeded,
        tasks_failed=tasks_failed,
        jobs_total=len(jobs),
        jobs_succeeded=jobs_succeeded,
        jobs_failed=jobs_failed,
        jobs_retries=jobs_retries,
        job_instances=len(instances),
        invocations=len(invocations),
        invocation_wall=invocation_wall,
        started=started,
        ended=ended,
        status=status,
        restarts=restarts,
    )
    type_rows = [
        RollupTypeRow(
            wf_id=wf_id,
            transformation=name,
            count=int(e[0]),
            succeeded=int(e[1]),
            failed=int(e[2]),
            min_runtime=e[3],
            max_runtime=e[4],
            total_runtime=e[5],
        )
        for name, e in sorted(types.items())
    ]
    host_rows = [
        RollupHostRow(wf_id=wf_id, hostname=name, jobs=int(e[0]), runtime=e[1])
        for name, e in sorted(host_usage.items())
    ]
    bucket_rows = [
        RollupHostBucketRow(
            wf_id=wf_id, hostname=name, tier=tier, bucket=bucket, runtime=runtime
        )
        for (name, tier, bucket), runtime in sorted(buckets.items())
    ]
    return row, type_rows, host_rows, bucket_rows


def rebuild_rollups(archive: Any) -> int:
    """Backfill rollup rows for an existing archive from a full scan.

    Drops any existing rollup rows and recomputes everything in one
    transaction, then bumps the commit sequence.  Returns the number of
    workflows rolled up.
    """
    from repro.query.api import StampedeQuery

    query = StampedeQuery(archive)
    workflows = query.workflows()
    with archive.transaction():
        for etype in (
            RollupWorkflowRow,
            RollupTypeRow,
            RollupHostRow,
            RollupHostBucketRow,
        ):
            archive.delete(etype, {})
        seq = int(_meta_value(archive, _META_SEQ, 0.0)) + 1
        for wf in workflows:
            row, type_rows, host_rows, bucket_rows = _scan_rollup(query, wf)
            row.updated_seq = seq
            archive.insert(row)
            for entity in type_rows + host_rows + bucket_rows:
                archive.insert(entity)
        _meta_set(archive, _META_SEQ, float(seq))
        _meta_set(archive, _META_TS, time.time())
    return len(workflows)


def verify_rollups(archive: Any, tolerance: float = 1e-6) -> List[str]:
    """Assert rollup reads match the full-scan computation.

    Compares every workflow without descendants and every root with
    them.  Returns a list of human-readable mismatches (empty = parity).
    The host time bins are compared by *sum* — the rollup keys buckets
    absolutely while the scan bins relative to the run origin.
    """
    from repro.core.statistics import workflow_statistics
    from repro.query.api import StampedeQuery

    query = StampedeQuery(archive)
    mismatches: List[str] = []
    workflows = query.workflows()
    targets = [(w, False) for w in workflows]
    targets += [(w, True) for w in workflows if w.parent_wf_id is None]
    for wf, include_descendants in targets:
        rolled = rollup_statistics(
            query,
            wf_id=wf.wf_id,
            include_descendants=include_descendants,
            include_jobs=False,
        )
        label = f"wf_id={wf.wf_id} descendants={include_descendants}"
        if rolled is None:
            mismatches.append(f"{label}: no rollup coverage")
            continue
        scanned = workflow_statistics(
            query,
            wf_id=wf.wf_id,
            include_descendants=include_descendants,
            include_jobs=False,
            prefer_rollup=False,
        )
        mismatches.extend(
            f"{label}: {issue}"
            for issue in _diff_statistics(rolled, scanned, tolerance)
        )
    return mismatches


def _diff_statistics(rolled: Any, scanned: Any, tolerance: float) -> List[str]:
    issues: List[str] = []

    def close(a: Optional[float], b: Optional[float]) -> bool:
        if a is None or b is None:
            return a is None and b is None
        return abs(a - b) <= tolerance

    if not close(rolled.wall_time, scanned.wall_time):
        issues.append(f"wall_time {rolled.wall_time} != {scanned.wall_time}")
    if not close(rolled.cumulative_job_wall_time, scanned.cumulative_job_wall_time):
        issues.append(
            "cumulative_job_wall_time "
            f"{rolled.cumulative_job_wall_time} != "
            f"{scanned.cumulative_job_wall_time}"
        )
    for field in (
        "tasks_total", "tasks_succeeded", "tasks_failed", "tasks_incomplete",
        "jobs_total", "jobs_succeeded", "jobs_failed", "jobs_incomplete",
        "jobs_retries", "subwf_total", "subwf_succeeded", "subwf_failed",
        "subwf_incomplete", "subwf_retries",
    ):
        a = getattr(rolled.counts, field)
        b = getattr(scanned.counts, field)
        if a != b:
            issues.append(f"counts.{field} {a} != {b}")
    rolled_types = {b.type_name: b for b in rolled.breakdown}
    scanned_types = {b.type_name: b for b in scanned.breakdown}
    if set(rolled_types) != set(scanned_types):
        issues.append(
            f"breakdown types {sorted(rolled_types)} != {sorted(scanned_types)}"
        )
    else:
        for name, a in rolled_types.items():
            b = scanned_types[name]
            for attr in (
                "count", "succeeded", "failed",
                "min_runtime", "max_runtime", "total_runtime",
            ):
                if not close(getattr(a, attr), getattr(b, attr)):
                    issues.append(
                        f"breakdown[{name}].{attr} "
                        f"{getattr(a, attr)} != {getattr(b, attr)}"
                    )
    rolled_hosts = {u.hostname: u for u in rolled.hosts}
    scanned_hosts = {u.hostname: u for u in scanned.hosts}
    if set(rolled_hosts) != set(scanned_hosts):
        issues.append(
            f"hosts {sorted(rolled_hosts)} != {sorted(scanned_hosts)}"
        )
    else:
        for name, a in rolled_hosts.items():
            b = scanned_hosts[name]
            if a.jobs != b.jobs:
                issues.append(f"hosts[{name}].jobs {a.jobs} != {b.jobs}")
            if not close(a.total_runtime, b.total_runtime):
                issues.append(
                    f"hosts[{name}].total_runtime "
                    f"{a.total_runtime} != {b.total_runtime}"
                )
            if not close(sum(a.bins.values()), sum(b.bins.values())):
                issues.append(
                    f"hosts[{name}] bin sum "
                    f"{sum(a.bins.values())} != {sum(b.bins.values())}"
                )
    return issues


# -- CLI --------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``stampede-rollup``: rebuild / verify / inspect archive rollups."""
    parser = argparse.ArgumentParser(
        prog="stampede-rollup",
        description="Maintain and verify the archive's materialized rollups.",
    )
    parser.add_argument(
        "command",
        choices=("rebuild", "verify", "status"),
        help="rebuild: backfill rollups from a full scan; verify: assert "
        "rollup/scan parity; status: print commit sequence and coverage",
    )
    parser.add_argument(
        "connString",
        help="archive to operate on (connection string, sqlite path, or "
        "shard directory — rebuild/verify visit every shard)",
    )
    args = parser.parse_args(argv)
    from repro.archive.shard import open_archive

    target = open_archive(args.connString)
    archives = getattr(target, "sources", [target])
    if args.command == "rebuild":
        total = 0
        for archive in archives:
            total += rebuild_rollups(archive)
        print(f"rebuilt rollups for {total} workflow(s)")
        return 0
    if args.command == "verify":
        failures = 0
        for archive in archives:
            for issue in verify_rollups(archive):
                print(f"MISMATCH {issue}")
                failures += 1
        if failures:
            print(f"{failures} mismatch(es)")
            return 1
        print("rollups match the full-scan statistics")
        return 0
    # status
    for index, archive in enumerate(archives):
        seq = commit_seq(archive)
        ts = last_commit_ts(archive)
        lag = time.time() - ts if ts is not None else None
        covered = archive.count(RollupWorkflowRow)
        workflows = archive.count(WorkflowRow)
        print(
            f"source {index}: commit_seq={seq} "
            f"coverage={covered}/{workflows} workflows "
            + (f"lag={lag:.1f}s" if lag is not None else "lag=n/a")
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

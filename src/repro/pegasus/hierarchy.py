"""Hierarchical Pegasus workflows: sub-DAX jobs and rescue-DAG restarts.

Two capabilities of the real system the flat DAGMan runner doesn't cover:

* **Sub-workflow (DAX) jobs** — a job in the executable workflow whose
  payload is another abstract workflow, planned and executed as a child
  run with its own xwf.id, linked to the parent through
  ``stampede.xwf.map.subwf_job`` and ``parent.xwf.id`` (paper §IV-A
  "Sub-workflow: a workflow that is contained in another workflow").
* **Restarts** — re-running a failed workflow "rescue-DAG" style: jobs
  that already succeeded are not re-executed, and the new attempt's
  events carry an incremented ``restart_count`` (the attribute the
  paper's own example event shows).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.bus.client import EventSink
from repro.pegasus.abstract import AbstractWorkflow
from repro.pegasus.dagman import DAGManReport, DAGManRun
from repro.pegasus.executable import ExecutableJob, ExecutableWorkflow, JobType
from repro.pegasus.planner import Planner, PlannerConfig
from repro.pegasus.sites import SiteCatalog
from repro.schema.events import FAILURE, SUCCESS
from repro.util.simclock import SimClock
from repro.util.uuidgen import UUIDFactory, derive_uuid

__all__ = ["SubDaxJob", "HierarchicalRun", "run_hierarchical_workflow",
           "run_with_restarts"]


@dataclass
class SubDaxJob:
    """Declaration of a sub-workflow job inside a parent AW plan."""

    job_id: str
    workflow: AbstractWorkflow
    depends_on: List[str] = field(default_factory=list)  # parent AW task ids
    feeds: List[str] = field(default_factory=list)  # parent AW task ids


class HierarchicalRun:
    """Plans and executes a parent workflow with sub-DAX jobs.

    The parent's compute tasks and the sub-DAX jobs share one executable
    workflow; each sub-DAX job, when it becomes runnable, plans its child
    AW and runs it as a nested DAGManRun on the same clock.  The parent
    job only succeeds when the child run does.
    """

    def __init__(
        self,
        aw: AbstractWorkflow,
        sub_jobs: List[SubDaxJob],
        sink: EventSink,
        catalog: Optional[SiteCatalog] = None,
        planner_config: Optional[PlannerConfig] = None,
        clock: Optional[SimClock] = None,
        seed: int = 0,
        child_catalog: Optional[SiteCatalog] = None,
        child_planner_config: Optional[PlannerConfig] = None,
    ):
        self.aw = aw
        self.sub_jobs = {s.job_id: s for s in sub_jobs}
        self.sink = sink
        self.clock = clock if clock is not None else SimClock()
        self.seed = seed
        planner = Planner(catalog=catalog, config=planner_config)
        self.catalog = planner.catalog
        self.child_catalog = child_catalog or planner.catalog
        self.child_planner_config = child_planner_config or planner.config
        self.ew = planner.plan(aw)
        self._wire_sub_jobs()
        uuids = UUIDFactory(seed ^ 0x5B)
        self.xwf_id = uuids.new()
        self.parent_run = DAGManRun(
            aw, self.ew, sink, catalog=self.catalog, clock=self.clock,
            seed=seed, xwf_id=self.xwf_id, root_xwf_id=self.xwf_id,
        )
        self.child_runs: Dict[str, DAGManRun] = {}
        self._install_sub_dax_hooks()

    def _wire_sub_jobs(self) -> None:
        task_to_job = self.ew.task_to_job_map()
        for sub in self.sub_jobs.values():
            job = ExecutableJob(
                sub.job_id,
                JobType.DAX,
                executable="pegasus-plan",
                argv=f"--dax {sub.workflow.label}.dax",
                runtime_seconds=1.0,  # planning overhead; child adds the rest
                max_retries=0,
            )
            self.ew.add_job(job)
            for parent_task in sub.depends_on:
                self.ew.add_dependency(task_to_job[parent_task], sub.job_id)
            for child_task in sub.feeds:
                self.ew.add_dependency(sub.job_id, task_to_job[child_task])

    def _install_sub_dax_hooks(self) -> None:
        """Replace the parent's completion handling for DAX jobs: instead
        of finishing after their fixed runtime, they spawn the child run
        and complete when it terminates."""
        original_start = self.parent_run._start

        def start_with_dax(state, seq, site):
            job = state.job
            if job.job_type is not JobType.DAX:
                original_start(state, seq, site)
                return
            # occupy no site slot: the child run competes for slots itself
            now = self.clock.now
            hostname = "submit-host"
            self.parent_run.emitter.host_info(job, seq, "local", hostname, now)
            self.parent_run.emitter.main_start(job, seq, now)
            sub = self.sub_jobs[job.exec_job_id]
            child_xwf = derive_uuid(self.xwf_id, job.exec_job_id)
            self.parent_run.emitter.subwf_map(child_xwf, job.exec_job_id,
                                              seq, now)
            child = DAGManRun(
                sub.workflow,
                Planner(self.child_catalog,
                        self.child_planner_config).plan(sub.workflow),
                self.sink,
                catalog=self.child_catalog,
                clock=self.clock,
                seed=self.seed ^ hash(job.exec_job_id) & 0xFFFF,
                xwf_id=child_xwf,
                parent_xwf_id=self.xwf_id,
                root_xwf_id=self.xwf_id,
            )
            self.child_runs[job.exec_job_id] = child
            started_at = now

            # poll for child completion via the clock: when the child has
            # no jobs in flight and all done, close out the parent job
            def check_done():
                if child._in_flight > 0 or not all(
                    s.done or s.pending_parents > 0
                    for s in child._states.values()
                ):
                    self.clock.schedule(1.0, check_done)
                    return
                report = child.finalize(started_at)
                exitcode = 0 if report.ok else 1
                duration = self.clock.now - started_at
                self.parent_run.emitter.invocation(
                    job, seq, 1, None, "pegasus-plan", "pegasus-plan",
                    job.argv, started_at, duration, exitcode, "local",
                    hostname,
                )
                self.parent_run._complete(state, seq, _NullSite(), exitcode,
                                          duration)

            child.start()
            self.clock.schedule(1.0, check_done)

        self.parent_run._start = start_with_dax

    def run(self) -> DAGManReport:
        start = self.clock.now
        self.parent_run.start()
        self.clock.run()
        return self.parent_run.finalize(start)

    @property
    def report(self) -> DAGManReport:
        return self.parent_run.report


class _NullSite:
    """Slot accounting stand-in for DAX jobs (they hold no site slot)."""

    name = "local"
    busy = 1  # decremented by _complete back to 0

    def __init__(self):
        self.busy = 1

    @property
    def free_slots(self) -> int:
        return 0


def run_hierarchical_workflow(
    aw: AbstractWorkflow,
    sub_jobs: List[SubDaxJob],
    sink: EventSink,
    catalog: Optional[SiteCatalog] = None,
    planner_config: Optional[PlannerConfig] = None,
    seed: int = 0,
    child_catalog: Optional[SiteCatalog] = None,
    child_planner_config: Optional[PlannerConfig] = None,
) -> HierarchicalRun:
    """Plan + execute a parent workflow with sub-DAX jobs; returns the run."""
    run = HierarchicalRun(
        aw, sub_jobs, sink, catalog=catalog, planner_config=planner_config,
        seed=seed, child_catalog=child_catalog,
        child_planner_config=child_planner_config,
    )
    run.run()
    return run


def run_with_restarts(
    aw: AbstractWorkflow,
    sink: EventSink,
    catalog: Optional[SiteCatalog] = None,
    planner_config: Optional[PlannerConfig] = None,
    seed: int = 0,
    max_restarts: int = 2,
) -> List[DAGManRun]:
    """Run a workflow, restarting rescue-DAG style until success.

    Each restart reuses the same xwf.id with an incremented restart_count
    (the Stampede model: "execution of a workflow is called a run...
    restart_count: number of times workflow was restarted").  Jobs that
    succeeded in a previous attempt are pre-marked done and not rerun.
    """
    planner = Planner(catalog=catalog, config=planner_config)
    ew = planner.plan(aw)
    uuids = UUIDFactory(seed ^ 0x7E5C)
    xwf_id = uuids.new()
    clock = SimClock()
    succeeded: Set[str] = set()
    attempt_base: Dict[str, int] = {}
    runs: List[DAGManRun] = []
    for attempt in range(max_restarts + 1):
        run = DAGManRun(
            aw, ew, sink, catalog=planner.catalog, clock=clock,
            seed=seed + attempt * 7919, xwf_id=xwf_id,
        )
        started = clock.now
        run.start(
            precompleted=set(succeeded),
            restart_count=attempt,
            attempt_base=dict(attempt_base),
        )
        clock.run()
        run.finalize(started)
        runs.append(run)
        for state in run._states.values():
            if state.succeeded:
                succeeded.add(state.job.exec_job_id)
            attempt_base[state.job.exec_job_id] = max(
                attempt_base.get(state.job.exec_job_id, 0), state.attempts
            )
        if run.report.ok:
            break
    return runs

"""DAGMan-style executor: runs an executable workflow on the site catalog.

Models the Condor/DAGMan execution loop the Pegasus integration logged:
ready jobs are submitted to a site, wait in its remote queue, occupy a
slot, run their (possibly clustered) invocations, run a post-script, and
are retried on failure up to ``max_retries`` times — each attempt a new
job instance, exactly as the Stampede data model prescribes.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

import numpy as np

from repro.bus.client import EventSink
from repro.pegasus.abstract import AbstractWorkflow
from repro.pegasus.events import PegasusEventEmitter
from repro.pegasus.executable import ExecutableJob, ExecutableWorkflow
from repro.pegasus.planner import Planner, PlannerConfig
from repro.pegasus.sites import Site, SiteCatalog
from repro.schema.events import FAILURE, SUCCESS
from repro.util.simclock import SimClock
from repro.util.uuidgen import UUIDFactory

__all__ = ["DAGManReport", "DAGManRun", "run_pegasus_workflow"]

_POST_SCRIPT_SECONDS = 0.5
_SUBMIT_OVERHEAD = 0.2
_RUNTIME_NOISE_SIGMA = 0.10


@dataclass
class DAGManReport:
    """Outcome of one DAGMan run."""

    succeeded: int = 0
    failed: int = 0
    unready: int = 0  # never became runnable (upstream failure)
    retries: int = 0
    wall_time: float = 0.0
    status: int = SUCCESS

    @property
    def ok(self) -> bool:
        return self.status == SUCCESS


class _JobState:
    __slots__ = ("job", "attempts", "done", "succeeded", "pending_parents")

    def __init__(self, job: ExecutableJob, pending_parents: int):
        self.job = job
        self.attempts = 0
        self.done = False
        self.succeeded = False
        self.pending_parents = pending_parents


class DAGManRun:
    """One execution of an EW on a shared (or private) virtual clock."""

    def __init__(
        self,
        aw: AbstractWorkflow,
        ew: ExecutableWorkflow,
        sink: EventSink,
        catalog: Optional[SiteCatalog] = None,
        clock: Optional[SimClock] = None,
        seed: int = 0,
        xwf_id: Optional[str] = None,
        parent_xwf_id: Optional[str] = None,
        root_xwf_id: Optional[str] = None,
        raw_recorder=None,
        faults=None,
    ):
        self.aw = aw
        self.ew = ew
        self.catalog = catalog or SiteCatalog.default()
        self.clock = clock if clock is not None else SimClock()
        self.rng = np.random.Generator(np.random.PCG64(seed))
        uuids = UUIDFactory(seed ^ 0x9E6A)
        self.xwf_id = xwf_id or uuids.new()
        self.emitter = PegasusEventEmitter(
            sink,
            xwf_id=self.xwf_id,
            parent_xwf_id=parent_xwf_id,
            root_xwf_id=root_xwf_id,
        )
        self.report = DAGManReport()
        #: optional RawLogRecorder mirroring execution into the raw Condor
        #: log formats (jobstate.log + kickstart) for the normalizer path
        self.raw_recorder = raw_recorder
        #: optional EngineFaultInjector (repro.faults): consulted per
        #: (exec job id, attempt) to crash or hang attempts on demand
        self.faults = faults
        self._states: Dict[str, _JobState] = {}
        self._in_flight = 0
        self._sched_counter = 0

    # -- public API ------------------------------------------------------------
    def start(self, precompleted: Optional[set] = None,
              restart_count: int = 0,
              attempt_base: Optional[Dict[str, int]] = None) -> None:
        """Begin the run.

        ``precompleted`` lists exec job ids that succeeded in a previous
        attempt (rescue-DAG restart): they are recorded as done without
        re-execution, and the static section is not re-emitted.
        ``attempt_base`` carries each job's prior attempt count so
        job-instance submit sequences keep increasing across restarts.
        """
        now = self.clock.now
        self.restart_count = restart_count
        if restart_count == 0:
            self.emitter.plan(self.aw, self.ew, now)
            self.emitter.static_section(self.aw, self.ew, now)
        self.emitter.xwf_start(now, restart_count=restart_count)
        for job in self.ew.jobs():
            state = _JobState(job, len(self.ew.parents(job.exec_job_id)))
            if attempt_base:
                state.attempts = attempt_base.get(job.exec_job_id, 0)
            self._states[job.exec_job_id] = state
        for job_id in precompleted or ():
            state = self._states[job_id]
            state.done = True
            state.succeeded = True
            self.report.succeeded += 1
        for job_id, state in self._states.items():
            if state.done:
                for child_id in self.ew.children(job_id):
                    self._states[child_id].pending_parents -= 1
        for job_id, state in self._states.items():
            if not state.done and state.pending_parents == 0:
                self._submit(state)

    def run(self) -> DAGManReport:
        start = self.clock.now
        self.start()
        self.clock.run()
        self._finish(start)
        return self.report

    def finalize(self, started_at: float) -> DAGManReport:
        """Close out after an externally-driven clock drained."""
        self._finish(started_at)
        return self.report

    # -- internals --------------------------------------------------------------
    def _submit(self, state: _JobState) -> None:
        state.attempts += 1
        seq = state.attempts
        self._in_flight += 1
        self._sched_counter += 1
        sched_id = f"{self._sched_counter}.0"
        job = state.job
        now = self.clock.now
        self.emitter.submit_start(job, seq, sched_id, now)
        self.emitter.submit_end(job, seq, now + _SUBMIT_OVERHEAD)
        site = self._choose_site(job)
        self._record_jobstate(job, seq, "SUBMIT", sched_id, site.name, now)
        delay = site.queue_delay(self.rng) + _SUBMIT_OVERHEAD
        self.clock.schedule(delay, lambda: self._try_start(state, seq, site))

    def _record_jobstate(self, job, seq, jstate, sched_id, site_name, ts):
        if self.raw_recorder is None:
            return
        from repro.pegasus.condor_log import JobstateEntry

        self.raw_recorder.on_jobstate(
            JobstateEntry(
                ts=ts,
                exec_job_id=job.exec_job_id,
                state=jstate,
                sched_id=sched_id,
                site=site_name,
                job_submit_seq=seq,
            )
        )

    def _choose_site(self, job: ExecutableJob) -> Site:
        if job.site is not None:
            return self.catalog[job.site]
        best = self.catalog.best_free_site()
        if best is not None:
            return best
        # every slot busy: queue on the site with the shortest backlog
        return min(self.catalog.sites(), key=lambda s: s.backlog)

    def _try_start(self, state: _JobState, seq: int, site: Site) -> None:
        if site.free_slots <= 0:
            site.enqueue(lambda: self._start(state, seq, site))
            return
        self._start(state, seq, site)

    def _start(self, state: _JobState, seq: int, site: Site) -> None:
        site.busy += 1
        job = state.job
        now = self.clock.now
        hostname = site.pick_host(self.rng)
        self.emitter.host_info(job, seq, site.name, hostname, now)
        self.emitter.main_start(job, seq, now)
        self._record_jobstate(job, seq, "EXECUTE", f"{seq}.0", site.name, now)
        failed_attempt = site.attempt_fails(self.rng)
        hang_extra = 0.0
        if self.faults is not None:
            # injected faults ride the organic failure path: a crash is a
            # failed attempt (retried like any site failure), a hang
            # stretches the attempt's simulated wall time
            decision = self.faults.attempt(job.exec_job_id, seq)
            if decision.crash:
                failed_attempt = True
            hang_extra = decision.hang_seconds
        # clustered jobs run their tasks serially within the instance
        inv_specs = []
        if job.tasks:
            for task in job.tasks:
                duration = float(
                    task.runtime_estimate
                    * site.speed_factor
                    * self.rng.lognormal(0.0, _RUNTIME_NOISE_SIGMA)
                )
                inv_specs.append((task.task_id, task.transformation,
                                  task.argv, duration))
        else:
            duration = float(
                job.runtime_seconds
                * site.speed_factor
                * self.rng.lognormal(0.0, _RUNTIME_NOISE_SIGMA)
            )
            inv_specs.append((None, job.executable, job.argv, duration))
        # if the attempt fails, it fails during a uniformly chosen invocation
        fail_at = (
            int(self.rng.integers(0, len(inv_specs))) if failed_attempt else -1
        )
        start_ts = now
        total = 0.0
        for inv_seq, (task_id, transformation, argv, duration) in enumerate(
            inv_specs, start=1
        ):
            exitcode = 1 if inv_seq - 1 == fail_at else 0
            self.emitter.invocation(
                job, seq, inv_seq, task_id, transformation,
                job.executable or transformation, argv,
                start_ts + total, duration, exitcode, site.name, hostname,
            )
            if self.raw_recorder is not None:
                from repro.pegasus.condor_log import KickstartRecord

                self.raw_recorder.on_kickstart(
                    KickstartRecord(
                        exec_job_id=job.exec_job_id,
                        job_submit_seq=seq,
                        inv_seq=inv_seq,
                        transformation=transformation,
                        executable=job.executable or transformation,
                        start=start_ts + total,
                        duration=duration,
                        exitcode=exitcode,
                        site=site.name,
                        hostname=hostname,
                        argv=argv,
                        task_id=task_id,
                        cpu_time=duration * 0.95,
                    )
                )
            total += duration
            if exitcode != 0:
                break  # remaining invocations never run
        exitcode = 1 if failed_attempt else 0
        total += hang_extra
        self.clock.schedule(
            total, lambda: self._complete(state, seq, site, exitcode, total)
        )

    def _complete(
        self, state: _JobState, seq: int, site: Site, exitcode: int, duration: float
    ) -> None:
        job = state.job
        now = self.clock.now
        status = SUCCESS if exitcode == 0 else FAILURE
        self.emitter.main_term(job, seq, status, now)
        self.emitter.main_end(
            job, seq, site.name, exitcode, duration, now,
            stderr_text="transient site failure" if exitcode else "",
        )
        self.emitter.post_script(
            job, seq, now, now + _POST_SCRIPT_SECONDS, exitcode
        )
        sched = f"{seq}.0"
        self._record_jobstate(job, seq, "JOB_TERMINATED", sched, site.name, now)
        self._record_jobstate(
            job, seq, "JOB_SUCCESS" if exitcode == 0 else "JOB_FAILURE",
            sched, site.name, now,
        )
        self._record_jobstate(
            job, seq, "POST_SCRIPT_STARTED", sched, site.name, now
        )
        self._record_jobstate(
            job, seq,
            "POST_SCRIPT_SUCCESS" if exitcode == 0 else "POST_SCRIPT_FAILURE",
            sched, site.name, now + _POST_SCRIPT_SECONDS,
        )
        site.busy -= 1
        if hasattr(site, "release"):
            site.release()
        self._in_flight -= 1
        self.clock.schedule(
            _POST_SCRIPT_SECONDS, lambda: self._post_done(state, seq, exitcode)
        )

    def _post_done(self, state: _JobState, seq: int, exitcode: int) -> None:
        job = state.job
        if exitcode == 0:
            state.done = True
            state.succeeded = True
            self.report.succeeded += 1
            for child_id in self.ew.children(job.exec_job_id):
                child = self._states[child_id]
                child.pending_parents -= 1
                if child.pending_parents == 0 and not child.done:
                    self._submit(child)
        elif state.attempts <= job.max_retries:
            self.report.retries += 1
            self._submit(state)
        else:
            state.done = True
            self.report.failed += 1

    def _finish(self, started_at: float) -> None:
        self.report.unready = sum(
            1 for s in self._states.values() if not s.done
        )
        self.report.wall_time = self.clock.now - started_at
        self.report.status = (
            SUCCESS
            if self.report.failed == 0 and self.report.unready == 0
            else FAILURE
        )
        self.emitter.xwf_end(
            self.clock.now, self.report.status,
            restart_count=getattr(self, "restart_count", 0),
        )


def run_pegasus_workflow(
    aw: AbstractWorkflow,
    sink: EventSink,
    catalog: Optional[SiteCatalog] = None,
    planner_config: Optional[PlannerConfig] = None,
    clock: Optional[SimClock] = None,
    seed: int = 0,
    faults=None,
) -> DAGManRun:
    """Plan and execute an abstract workflow; returns the finished run."""
    planner = Planner(catalog=catalog, config=planner_config)
    ew = planner.plan(aw)
    run = DAGManRun(
        aw, ew, sink, catalog=planner.catalog, clock=clock, seed=seed,
        faults=faults,
    )
    run.run()
    return run

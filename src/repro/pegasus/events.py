"""Stampede event emission for the Pegasus-style engine.

The Pegasus log normalizer: everything DAGMan does is rendered as events
conforming to the shared YANG schema — the same stream shape the Triana
integration produces, which is the point of the paper.
"""
from __future__ import annotations

from typing import Optional

from repro.bus.client import EventSink
from repro.netlogger.events import NLEvent
from repro.pegasus.abstract import AbstractWorkflow
from repro.pegasus.executable import ExecutableJob, ExecutableWorkflow
from repro.schema.events import FAILURE, SUCCESS, Events

__all__ = ["PegasusEventEmitter"]


class PegasusEventEmitter:
    """Emits schema-conformant events for one workflow run."""

    def __init__(
        self,
        sink: EventSink,
        xwf_id: str,
        root_xwf_id: Optional[str] = None,
        parent_xwf_id: Optional[str] = None,
        submit_hostname: str = "submit.example.org",
        submit_dir: str = "/scratch/runs",
        user: str = "pegasus",
        planner_version: str = "pegasus-4.0-stampede",
    ):
        self.sink = sink
        self.xwf_id = xwf_id
        self.root_xwf_id = root_xwf_id or xwf_id
        self.parent_xwf_id = parent_xwf_id
        self.submit_hostname = submit_hostname
        self.submit_dir = submit_dir
        self.user = user
        self.planner_version = planner_version
        self.events_emitted = 0

    def _emit(self, name: str, ts: float, **attrs) -> None:
        attrs["xwf.id"] = self.xwf_id
        self.sink.emit(NLEvent(name, ts, attrs))
        self.events_emitted += 1

    # -- static section ------------------------------------------------------
    def plan(self, aw: AbstractWorkflow, ew: ExecutableWorkflow, ts: float) -> None:
        attrs = {
            "submit.hostname": self.submit_hostname,
            "dax.label": aw.label,
            "dax.version": aw.version,
            "dax.file": f"{aw.label}.dax",
            "dag.file.name": ew.dag_name,
            "planner.version": self.planner_version,
            "user": self.user,
            "submit_dir": self.submit_dir,
            "root.xwf.id": self.root_xwf_id,
        }
        if self.parent_xwf_id:
            attrs["parent.xwf.id"] = self.parent_xwf_id
        self._emit(Events.WF_PLAN, ts, **attrs)

    def static_section(
        self, aw: AbstractWorkflow, ew: ExecutableWorkflow, ts: float
    ) -> None:
        """task/job/edge/mapping events — all before any execution event."""
        self._emit(Events.STATIC_START, ts)
        for task in aw.tasks():
            self._emit(
                Events.TASK_INFO,
                ts,
                **{
                    "task.id": task.task_id,
                    "type_desc": "compute",
                    "transformation": task.transformation,
                    "argv": task.argv,
                },
            )
        for parent, child in aw.edges():
            self._emit(
                Events.TASK_EDGE, ts,
                **{"parent.task.id": parent, "child.task.id": child},
            )
        for job in ew.jobs():
            self._emit(
                Events.JOB_INFO,
                ts,
                **{
                    "job.id": job.exec_job_id,
                    "type_desc": str(job.job_type),
                    "clustered": int(job.clustered),
                    "max_retries": job.max_retries,
                    "executable": job.executable,
                    "argv": job.argv,
                    "task_count": job.task_count,
                },
            )
        for parent, child in ew.edges():
            self._emit(
                Events.JOB_EDGE, ts,
                **{"parent.job.id": parent, "child.job.id": child},
            )
        for task_id, job_id in ew.task_to_job_map().items():
            self._emit(
                Events.MAP_TASK_JOB, ts, **{"task.id": task_id, "job.id": job_id}
            )
        self._emit(Events.STATIC_END, ts)

    # -- run lifecycle -----------------------------------------------------------
    def xwf_start(self, ts: float, restart_count: int = 0) -> None:
        self._emit(Events.XWF_START, ts, restart_count=restart_count)

    def xwf_end(self, ts: float, status: int, restart_count: int = 0) -> None:
        self._emit(Events.XWF_END, ts, restart_count=restart_count, status=status)

    def subwf_map(self, subwf_id: str, job_id: str, submit_seq: int, ts: float) -> None:
        self._emit(
            Events.MAP_SUBWF_JOB, ts,
            **{"subwf.id": subwf_id, "job.id": job_id, "job_inst.id": submit_seq},
        )

    # -- job instance lifecycle ----------------------------------------------------
    def submit_start(self, job: ExecutableJob, seq: int, sched_id: str,
                     ts: float) -> None:
        self._emit(
            Events.JOB_INST_SUBMIT_START, ts,
            **{"job.id": job.exec_job_id, "job_inst.id": seq, "sched.id": sched_id},
        )

    def submit_end(self, job: ExecutableJob, seq: int, ts: float,
                   status: int = SUCCESS) -> None:
        self._emit(
            Events.JOB_INST_SUBMIT_END, ts,
            **{"job.id": job.exec_job_id, "job_inst.id": seq, "status": status},
        )

    def host_info(self, job: ExecutableJob, seq: int, site: str, hostname: str,
                  ts: float) -> None:
        self._emit(
            Events.JOB_INST_HOST_INFO, ts,
            **{
                "job.id": job.exec_job_id,
                "job_inst.id": seq,
                "site": site,
                "hostname": hostname,
            },
        )

    def main_start(self, job: ExecutableJob, seq: int, ts: float) -> None:
        self._emit(
            Events.JOB_INST_MAIN_START, ts,
            **{
                "job.id": job.exec_job_id,
                "job_inst.id": seq,
                "stdout.file": f"{job.exec_job_id}.out.{seq:03d}",
                "stderr.file": f"{job.exec_job_id}.err.{seq:03d}",
            },
        )

    def main_term(self, job: ExecutableJob, seq: int, status: int, ts: float) -> None:
        self._emit(
            Events.JOB_INST_MAIN_TERM, ts,
            **{"job.id": job.exec_job_id, "job_inst.id": seq, "status": status},
        )

    def main_end(
        self,
        job: ExecutableJob,
        seq: int,
        site: str,
        exitcode: int,
        duration: float,
        ts: float,
        stderr_text: str = "",
    ) -> None:
        attrs = {
            "job.id": job.exec_job_id,
            "job_inst.id": seq,
            "site": site,
            "user": self.user,
            "status": SUCCESS if exitcode == 0 else FAILURE,
            "exitcode": exitcode,
            "local.dur": round(duration, 6),
            "stdout.file": f"{job.exec_job_id}.out.{seq:03d}",
            "stderr.file": f"{job.exec_job_id}.err.{seq:03d}",
            "multiplier_factor": 1,
        }
        if stderr_text:
            attrs["stderr.text"] = stderr_text
        self._emit(Events.JOB_INST_MAIN_END, ts, **attrs)

    def post_script(self, job: ExecutableJob, seq: int, start_ts: float,
                    end_ts: float, exitcode: int) -> None:
        base = {"job.id": job.exec_job_id, "job_inst.id": seq}
        self._emit(Events.JOB_INST_POST_START, start_ts, **base)
        status = SUCCESS if exitcode == 0 else FAILURE
        self._emit(Events.JOB_INST_POST_TERM, end_ts, **base, status=status)
        self._emit(Events.JOB_INST_POST_END, end_ts, **base, status=status,
                   exitcode=exitcode)

    def invocation(
        self,
        job: ExecutableJob,
        seq: int,
        inv_seq: int,
        task_id: Optional[str],
        transformation: str,
        executable: str,
        argv: str,
        start_ts: float,
        duration: float,
        exitcode: int,
        site: str,
        hostname: str,
    ) -> None:
        base = {"job.id": job.exec_job_id, "job_inst.id": seq, "inv.id": inv_seq}
        if task_id is not None:
            base["task.id"] = task_id
        self._emit(Events.INV_START, start_ts, **base)
        self._emit(
            Events.INV_END,
            start_ts + duration,
            **base,
            **{
                "start_time": round(start_ts, 6),
                "dur": round(duration, 6),
                "remote_cpu_time": round(duration * 0.95, 6),
                "exitcode": exitcode,
                "transformation": transformation,
                "executable": executable,
                "argv": argv,
                "status": SUCCESS if exitcode == 0 else FAILURE,
                "site": site,
                "hostname": hostname,
            },
        )

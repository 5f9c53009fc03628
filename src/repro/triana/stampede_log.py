"""StampedeLog: maps Triana execution events to Stampede events (paper §V-B).

The Scheduler holds a StampedeLog object which listens for Triana
*Execution Events* and converts them to *Stampede Events*; it also creates
the events required for schema compliance that are not directly related to
Triana events, such as the mapping of tasks to units.

Mapping summary (paper §V-B):

* graph ``SCHEDULED``            → wf.plan + static section (task/job/edge/
                                   map events) + static.end
* graph ``RUNNING``              → xwf.start
* task ``SCHEDULED`` ("WOKEN")   → job_inst.submit.start / submit.end
* task ``RUNNING`` ← SCHEDULED   → job_inst.host.info + job_inst.main.start
* task ``RUNNING`` ← PAUSED      → job_inst.held.end
* task ``PAUSED``                → job_inst.held.start
* each unit process() completion → inv.start + inv.end (exit −1 on error)
* task ``COMPLETE`` / ``ERROR``  → job_inst.main.term + main.end
* task ``SUSPENDED``             → job_inst.abort.info
* graph terminal state           → xwf.end

Because Triana has no planning stage, tasks map one-to-one onto jobs.
"""
from __future__ import annotations

from typing import Dict, Optional

from repro.bus.client import EventSink
from repro.netlogger.events import NLEvent
from repro.schema.events import FAILURE, SUCCESS, Events
from repro.triana.execution import ExecutionEvent, ExecutionState
from repro.triana.scheduler import InvocationRecord, Scheduler

__all__ = ["StampedeLog"]


class StampedeLog:
    """Attaches to a Scheduler and emits the Stampede event stream."""

    def __init__(
        self,
        scheduler: Scheduler,
        sink: EventSink,
        xwf_id: str,
        parent_xwf_id: Optional[str] = None,
        root_xwf_id: Optional[str] = None,
        site: str = "local",
        hostname: str = "localhost",
        user: str = "triana",
        submit_dir: str = "/triana/runs",
        planner_version: str = "triana-4.0-stampede",
    ):
        self.scheduler = scheduler
        self.sink = sink
        self.xwf_id = xwf_id
        self.parent_xwf_id = parent_xwf_id
        self.root_xwf_id = root_xwf_id or xwf_id
        self.site = site
        self.hostname = hostname
        self.user = user
        self.submit_dir = submit_dir
        self.planner_version = planner_version
        self.events_emitted = 0
        self._js_seq: Dict[str, int] = {}  # task -> next jobstate seq
        self._durations: Dict[str, float] = {}  # task -> cumulative inv dur
        self._exitcodes: Dict[str, int] = {}  # task -> worst invocation exit
        self._stderr: Dict[str, str] = {}
        scheduler.add_execution_listener(self._on_execution_event)
        scheduler.add_invocation_listener(self._on_invocation)

    # -- emission helpers ----------------------------------------------------
    def _emit(self, name: str, ts: float, **attrs) -> None:
        attrs["xwf.id"] = self.xwf_id
        self.sink.emit(NLEvent(name, ts, attrs))
        self.events_emitted += 1

    def _next_js(self, task_name: str) -> int:
        seq = self._js_seq.get(task_name, 0)
        self._js_seq[task_name] = seq + 1
        return seq

    def emit_subwf_map(self, subwf_id: str, job_name: str, ts: float) -> None:
        """Record that job ``job_name`` of this workflow runs a sub-workflow."""
        self._emit(
            Events.MAP_SUBWF_JOB,
            ts,
            **{"subwf.id": subwf_id, "job.id": job_name, "job_inst.id": 1},
        )

    # -- static section --------------------------------------------------------
    def _emit_planning_events(self, ts: float) -> None:
        graph = self.scheduler.graph
        plan_attrs = {
            "submit.hostname": self.hostname,
            "dax.label": graph.name,
            "dag.file.name": f"{graph.name}.taskgraph",
            "planner.version": self.planner_version,
            "user": self.user,
            "submit_dir": self.submit_dir,
            "root.xwf.id": self.root_xwf_id,
        }
        if self.parent_xwf_id is not None:
            plan_attrs["parent.xwf.id"] = self.parent_xwf_id
        self._emit(Events.WF_PLAN, ts, **plan_attrs)
        self._emit(Events.STATIC_START, ts)
        for task in graph.tasks():
            self._emit(
                Events.TASK_INFO,
                ts,
                **{
                    "task.id": task.name,
                    "type_desc": task.unit.type_desc,
                    "transformation": task.unit.transformation,
                    "argv": " ".join(getattr(task.unit, "argv", []) or []),
                },
            )
        for parent, child in graph.edges():
            self._emit(
                Events.TASK_EDGE, ts,
                **{"parent.task.id": parent, "child.task.id": child},
            )
        for task in graph.tasks():
            # no planning stage: one job per task, never clustered
            self._emit(
                Events.JOB_INFO,
                ts,
                **{
                    "job.id": task.name,
                    "type_desc": task.unit.type_desc,
                    "clustered": 0,
                    "max_retries": 0,
                    "executable": task.unit.transformation,
                    "task_count": 1,
                },
            )
        for parent, child in graph.edges():
            self._emit(
                Events.JOB_EDGE, ts,
                **{"parent.job.id": parent, "child.job.id": child},
            )
        for task in graph.tasks():
            self._emit(
                Events.MAP_TASK_JOB, ts, **{"task.id": task.name, "job.id": task.name}
            )
        self._emit(Events.STATIC_END, ts)

    # -- listeners ---------------------------------------------------------------
    def _on_execution_event(self, event: ExecutionEvent) -> None:
        ts = event.time
        if event.is_graph:
            self._on_graph_event(event)
            return
        name = event.task_name
        ji = {"job.id": name, "job_inst.id": 1}
        if event.new_state is ExecutionState.SCHEDULED:
            if event.old_state is ExecutionState.NOT_INITIALIZED:
                # WOKEN: Job Submit Start, waiting for input data
                self._emit(
                    Events.JOB_INST_SUBMIT_START, ts,
                    **ji, **{"js.id": self._next_js(name), "sched.id": name},
                )
                self._emit(
                    Events.JOB_INST_SUBMIT_END, ts,
                    **ji, **{"js.id": self._next_js(name), "status": SUCCESS},
                )
        elif event.new_state is ExecutionState.RUNNING:
            if event.old_state is ExecutionState.PAUSED:
                self._emit(
                    Events.JOB_INST_HELD_END, ts,
                    **ji, **{"js.id": self._next_js(name), "status": SUCCESS},
                )
            elif event.old_state is ExecutionState.SCHEDULED:
                self._emit(
                    Events.JOB_INST_HOST_INFO, ts,
                    **ji,
                    **{
                        "js.id": self._next_js(name),
                        "site": self.site,
                        "hostname": self.hostname,
                    },
                )
                self._emit(
                    Events.JOB_INST_MAIN_START, ts,
                    **ji, **{"js.id": self._next_js(name)},
                )
        elif event.new_state is ExecutionState.PAUSED:
            self._emit(
                Events.JOB_INST_HELD_START, ts,
                **ji, **{"js.id": self._next_js(name), "reason": "paused in GUI"},
            )
        elif event.new_state in (ExecutionState.COMPLETE, ExecutionState.ERROR):
            exitcode = self._exitcodes.get(name, 0)
            status = SUCCESS if event.new_state is ExecutionState.COMPLETE else FAILURE
            if status == FAILURE and exitcode == 0:
                exitcode = 1
            self._emit(
                Events.JOB_INST_MAIN_TERM, ts,
                **ji, **{"js.id": self._next_js(name), "status": status},
            )
            attrs = {
                "js.id": self._next_js(name),
                "site": self.site,
                "user": self.user,
                "status": status,
                "exitcode": exitcode,
                "local.dur": round(self._durations.get(name, 0.0), 6),
                "stdout.file": f"{name}.out",
                "stderr.file": f"{name}.err",
            }
            if status == FAILURE and self._stderr.get(name):
                attrs["stderr.text"] = self._stderr[name]
            self._emit(Events.JOB_INST_MAIN_END, ts, **ji, **attrs)
        elif event.new_state is ExecutionState.SUSPENDED:
            self._emit(
                Events.JOB_INST_ABORT_INFO, ts,
                **ji, **{"js.id": self._next_js(name), "reason": event.detail or "stopped"},
            )

    def _on_graph_event(self, event: ExecutionEvent) -> None:
        ts = event.time
        if event.new_state is ExecutionState.SCHEDULED:
            self._emit_planning_events(ts)
        elif event.new_state is ExecutionState.RUNNING:
            self._emit(Events.XWF_START, ts, restart_count=0)
        elif event.new_state in (
            ExecutionState.COMPLETE,
            ExecutionState.ERROR,
            ExecutionState.SUSPENDED,
        ):
            status = SUCCESS if event.new_state is ExecutionState.COMPLETE else FAILURE
            self._emit(Events.XWF_END, ts, restart_count=0, status=status)

    def _on_invocation(self, record: InvocationRecord) -> None:
        name = record.task_name
        self._durations[name] = self._durations.get(name, 0.0) + record.duration
        if record.exitcode != 0:
            self._exitcodes[name] = record.exitcode
            self._stderr[name] = record.error_text
        base = {
            "job.id": name,
            "job_inst.id": 1,
            "inv.id": record.inv_seq,
            "task.id": name,
        }
        self._emit(Events.INV_START, record.start_time, **base)
        self._emit(
            Events.INV_END,
            record.start_time + record.duration,
            **base,
            **{
                "start_time": round(record.start_time, 6),
                "dur": round(record.duration, 6),
                "remote_cpu_time": round(record.duration * 0.92, 6),
                "exitcode": record.exitcode,
                "transformation": record.transformation,
                "executable": record.transformation,
                "argv": record.argv,
                "status": SUCCESS if record.exitcode == 0 else FAILURE,
                "site": self.site,
                "hostname": self.hostname,
            },
        )

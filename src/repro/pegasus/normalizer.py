"""The Pegasus log normalizer: raw Condor/DAGMan logs → Stampede BP events.

This is Fig. 1's "log normalizer" box: "workflow systems refer to this
data model to develop a workflow system-specific log normalizer that
converts the workflow logs to NetLogger-formatted logs that are
compatible with the model" (paper §IV).

Input: the planning context (AW + EW + run metadata) plus the two raw log
streams the Pegasus toolchain produces — ``jobstate.log`` and kickstart
invocation records.  Output: the same schema-conformant event stream the
in-engine emitter would have produced, suitable for ``nl_load``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netlogger.events import NLEvent
from repro.pegasus.abstract import AbstractWorkflow
from repro.pegasus.condor_log import JobstateEntry, KickstartRecord
from repro.pegasus.events import PegasusEventEmitter
from repro.pegasus.executable import ExecutableWorkflow
from repro.schema.events import FAILURE, SUCCESS, Events

__all__ = ["RawLogRecorder", "PegasusLogNormalizer", "normalize_run"]


class RawLogRecorder:
    """Collects raw log records during a DAGMan run (or from files)."""

    def __init__(self):
        self.jobstate: List[JobstateEntry] = []
        self.kickstart: List[KickstartRecord] = []

    def on_jobstate(self, entry: JobstateEntry) -> None:
        self.jobstate.append(entry)

    def on_kickstart(self, record: KickstartRecord) -> None:
        self.kickstart.append(record)

    def write(self, jobstate_writer=None, kickstart_writer=None) -> None:
        """Persist the collected records through the given writers."""
        if jobstate_writer is not None:
            for entry in self.jobstate:
                jobstate_writer.write(entry)
        if kickstart_writer is not None:
            for record in self.kickstart:
                kickstart_writer.write(record)


class _ListSink:
    """EventSink collecting into a list (internal)."""

    def __init__(self):
        self.events: List[NLEvent] = []

    def emit(self, event: NLEvent) -> None:
        self.events.append(event)


@dataclass
class _InstanceState:
    """Normalizer-side reconstruction of one job instance."""

    site: str = ""
    sched_id: str = ""
    execute_ts: Optional[float] = None
    post_start: Optional[float] = None
    hostname: Optional[str] = None
    emitted_host_info: bool = False


class PegasusLogNormalizer:
    """Stateful normalizer for one workflow run."""

    #: jobstate.log states handled; anything else raises in strict mode.
    _HANDLED = {
        "SUBMIT",
        "EXECUTE",
        "JOB_TERMINATED",
        "JOB_SUCCESS",
        "JOB_FAILURE",
        "POST_SCRIPT_STARTED",
        "POST_SCRIPT_TERMINATED",
        "POST_SCRIPT_SUCCESS",
        "POST_SCRIPT_FAILURE",
    }

    def __init__(
        self,
        aw: AbstractWorkflow,
        ew: ExecutableWorkflow,
        xwf_id: str,
        user: str = "pegasus",
        submit_hostname: str = "submit.example.org",
        submit_dir: str = "/scratch/runs",
        strict: bool = True,
    ):
        self.aw = aw
        self.ew = ew
        self.strict = strict
        self._sink = _ListSink()
        self._emitter = PegasusEventEmitter(
            self._sink,
            xwf_id=xwf_id,
            submit_hostname=submit_hostname,
            submit_dir=submit_dir,
            user=user,
        )
        self._instances: Dict[Tuple[str, int], _InstanceState] = {}
        self._started = False
        self._last_ts = 0.0
        self._any_failure = False

    # -- the normalization pass ------------------------------------------------
    def normalize(
        self,
        jobstate: Iterable[JobstateEntry],
        kickstart: Iterable[KickstartRecord],
    ) -> List[NLEvent]:
        """Produce the full BP event stream for the run."""
        merged = self._merge_streams(list(jobstate), list(kickstart))
        if not merged:
            return []
        first_ts = merged[0][0]
        self._emitter.plan(self.aw, self.ew, first_ts)
        self._emitter.static_section(self.aw, self.ew, first_ts)
        self._emitter.xwf_start(first_ts)
        self._started = True
        for ts, record in merged:
            self._last_ts = max(self._last_ts, ts)
            if isinstance(record, JobstateEntry):
                self._on_jobstate(record)
            else:
                self._on_kickstart(record)
        self._emitter.xwf_end(
            self._last_ts, FAILURE if self._any_failure else SUCCESS
        )
        return self._sink.events

    @staticmethod
    def _merge_streams(
        jobstate: List[JobstateEntry], kickstart: List[KickstartRecord]
    ) -> List[Tuple[float, object]]:
        """Merge both raw streams into one timestamp-ordered sequence.

        Kickstart records sort at their completion instant (they are only
        observable once the invocation finished), and before jobstate
        entries at the same instant so invocations precede main.term.
        """
        tagged: List[Tuple[float, int, int, object]] = []
        for i, entry in enumerate(jobstate):
            tagged.append((entry.ts, 1, i, entry))
        for i, record in enumerate(kickstart):
            tagged.append((record.start + record.duration, 0, i, record))
        tagged.sort(key=lambda t: (t[0], t[1], t[2]))
        return [(ts, rec) for ts, _, _, rec in tagged]

    # -- per-record handling -------------------------------------------------------
    def _state_for(self, exec_job_id: str, seq: int) -> _InstanceState:
        return self._instances.setdefault((exec_job_id, seq), _InstanceState())

    def _on_jobstate(self, entry: JobstateEntry) -> None:
        if entry.exec_job_id not in self.ew:
            if self.strict:
                raise ValueError(
                    f"jobstate.log references unknown job {entry.exec_job_id!r}"
                )
            return
        job = self.ew.job(entry.exec_job_id)
        seq = entry.job_submit_seq
        state = self._state_for(entry.exec_job_id, seq)
        ts = entry.ts
        if entry.state == "SUBMIT":
            state.site = entry.site
            state.sched_id = entry.sched_id
            self._emitter.submit_start(job, seq, entry.sched_id, ts)
            self._emitter.submit_end(job, seq, ts)
        elif entry.state == "EXECUTE":
            state.execute_ts = ts
            self._maybe_host_info(job, seq, state, ts)
            self._emitter.main_start(job, seq, ts)
        elif entry.state == "JOB_TERMINATED":
            self._emitter.main_term(job, seq, SUCCESS, ts)
        elif entry.state in ("JOB_SUCCESS", "JOB_FAILURE"):
            exitcode = 0 if entry.state == "JOB_SUCCESS" else 1
            if exitcode:
                self._any_failure = True
            duration = (
                ts - state.execute_ts if state.execute_ts is not None else 0.0
            )
            self._emitter.main_end(
                job, seq, state.site or entry.site, exitcode, duration, ts
            )
        elif entry.state == "POST_SCRIPT_STARTED":
            state.post_start = ts
        elif entry.state == "POST_SCRIPT_TERMINATED":
            pass  # folded into post.end below
        elif entry.state in ("POST_SCRIPT_SUCCESS", "POST_SCRIPT_FAILURE"):
            exitcode = 0 if entry.state == "POST_SCRIPT_SUCCESS" else 1
            start_ts = state.post_start if state.post_start is not None else ts
            self._emitter.post_script(job, seq, start_ts, ts, exitcode)
        elif self.strict:
            raise ValueError(f"unhandled jobstate {entry.state!r}")

    def _maybe_host_info(self, job, seq, state: _InstanceState, ts: float) -> None:
        if state.emitted_host_info:
            return
        hostname = state.hostname or f"{state.site or 'unknown'}-node0"
        self._emitter.host_info(job, seq, state.site or "unknown", hostname, ts)
        state.emitted_host_info = True

    def _on_kickstart(self, record: KickstartRecord) -> None:
        if record.exec_job_id not in self.ew:
            if self.strict:
                raise ValueError(
                    f"kickstart record references unknown job "
                    f"{record.exec_job_id!r}"
                )
            return
        job = self.ew.job(record.exec_job_id)
        state = self._state_for(record.exec_job_id, record.job_submit_seq)
        state.hostname = record.hostname
        self._emitter.invocation(
            job,
            record.job_submit_seq,
            record.inv_seq,
            record.task_id,
            record.transformation,
            record.executable,
            record.argv,
            record.start,
            record.duration,
            record.exitcode,
            record.site,
            record.hostname,
        )


def normalize_run(
    aw: AbstractWorkflow,
    ew: ExecutableWorkflow,
    xwf_id: str,
    jobstate: Iterable[JobstateEntry],
    kickstart: Iterable[KickstartRecord],
    **kwargs,
) -> List[NLEvent]:
    """One-shot normalization of a run's raw logs into BP events."""
    normalizer = PegasusLogNormalizer(aw, ew, xwf_id, **kwargs)
    return normalizer.normalize(jobstate, kickstart)

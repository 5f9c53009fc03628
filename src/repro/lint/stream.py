"""Event-stream analyzers: offline checks over NetLogger BP logs.

:class:`StreamLinter` is incremental — feed it one line (or one parsed
event) at a time and it returns the findings that line triggered; call
:meth:`StreamLinter.finish` at end of stream for the whole-stream checks
(unmatched start/end pairs, unresolved sub-workflow references).  That
shape lets the same analyzer serve the offline ``stampede-lint`` CLI and
the loader's ``nl-load --lint`` quarantine mode.

Checks per line/event:
  * BP grammar (STL101) and duplicate attribute names (STL106);
  * schema conformance against the compiled YANG registry (STL102-105);
  * lifecycle legality via the explicit transition table in
    ``repro.model.states`` (STL107, STL108);
  * start/end pairing (STL109, STL110);
  * per-entity timestamp monotonicity (STL111);
  * identifier integrity — events referencing workflows/jobs/tasks never
    declared by the static section (STL112);
  * exact duplicate delivery (STL113).
"""
from __future__ import annotations

import os
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Set,
    TextIO,
    Tuple,
    Union,
)

from repro.lint.config import LintConfig
from repro.lint.rules import Finding, make_finding
from repro.model.states import (
    END_JOB_STATES,
    JobState,
    WorkflowState,
    is_valid_transition,
)
from repro.netlogger.bp import BPParseError, parse_bp_pairs
from repro.netlogger.events import Level, NLEvent
from repro.schema.compiler import SchemaRegistry
from repro.schema.events import SUCCESS, Events
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.util.timeutil import parse_ts

__all__ = ["StreamLinter", "lint_bp"]

_VIOLATION_RULES = {
    "unknown-event": "STL102",
    "missing": "STL103",
    "unknown-attr": "STL104",
    "bad-type": "STL105",
}

# Event name -> implied job state; callables resolve on the event's status.
_STATE_OF: Dict[str, Union[JobState, Callable[[int], JobState]]] = {
    Events.JOB_INST_PRE_START: JobState.PRE_SCRIPT_STARTED,
    Events.JOB_INST_PRE_TERM: JobState.PRE_SCRIPT_TERMINATED,
    Events.JOB_INST_PRE_END: lambda status: (
        JobState.PRE_SCRIPT_SUCCESS if status == SUCCESS
        else JobState.PRE_SCRIPT_FAILURE
    ),
    Events.JOB_INST_SUBMIT_START: JobState.SUBMIT,
    Events.JOB_INST_HELD_START: JobState.JOB_HELD,
    Events.JOB_INST_HELD_END: JobState.JOB_RELEASED,
    Events.JOB_INST_MAIN_START: JobState.EXECUTE,
    Events.JOB_INST_MAIN_TERM: JobState.JOB_TERMINATED,
    Events.JOB_INST_MAIN_END: lambda status: (
        JobState.JOB_SUCCESS if status == SUCCESS else JobState.JOB_FAILURE
    ),
    Events.JOB_INST_POST_START: JobState.POST_SCRIPT_STARTED,
    Events.JOB_INST_POST_TERM: JobState.POST_SCRIPT_TERMINATED,
    Events.JOB_INST_POST_END: lambda status: (
        JobState.POST_SCRIPT_SUCCESS if status == SUCCESS
        else JobState.POST_SCRIPT_FAILURE
    ),
    Events.JOB_INST_ABORT_INFO: JobState.JOB_ABORTED,
}

# start event -> matching end event (pair scope: per workflow or instance).
_PAIRS: Dict[str, str] = {
    Events.XWF_START: Events.XWF_END,
    Events.STATIC_START: Events.STATIC_END,
    Events.JOB_INST_PRE_START: Events.JOB_INST_PRE_END,
    Events.JOB_INST_SUBMIT_START: Events.JOB_INST_SUBMIT_END,
    Events.JOB_INST_HELD_START: Events.JOB_INST_HELD_END,
    Events.JOB_INST_MAIN_START: Events.JOB_INST_MAIN_END,
    Events.JOB_INST_POST_START: Events.JOB_INST_POST_END,
    Events.INV_START: Events.INV_END,
}
_END_TO_START = {end: start for start, end in _PAIRS.items()}


class StreamLinter:
    """Stateful lint pass over one BP event stream."""

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        registry: Optional[SchemaRegistry] = None,
        path: str = "<stream>",
    ):
        self.config = config or LintConfig()
        self.path = path
        self._validator = EventValidator(
            registry or STAMPEDE_SCHEMA,
            allow_unknown_events=self.config.allow_unknown_events,
            allow_unknown_attrs=self.config.allow_unknown_attrs,
        )
        self.events_seen = 0
        # identity declarations, per the static section of each workflow
        self._workflows: Set[str] = set()
        self._tasks: Dict[str, Set[str]] = {}  # xwf -> task ids
        self._jobs: Dict[str, Set[str]] = {}  # xwf -> exec job ids
        self._orphans_reported: Set[Tuple[str, str]] = set()
        # lifecycle
        self._job_state: Dict[Tuple, Optional[JobState]] = {}
        self._wf_state: Dict[str, WorkflowState] = {}
        # pairing: (start_event, scope key) -> [open count, last line]
        self._open_pairs: Dict[Tuple, List[int]] = {}
        # monotonicity: entity key -> (last ts, last line)
        self._last_ts: Dict[Tuple, Tuple[float, int]] = {}
        # duplicate delivery
        self._seen_signatures: Set[Tuple] = set()

    # ------------------------------------------------------------- feeding --
    def feed_line(
        self, line: str, lineno: int = 0
    ) -> Tuple[Optional[NLEvent], List[Finding]]:
        """Lint one raw BP line.

        Returns the parsed event (None when the line is unusable) and the
        findings it triggered.  Blank lines and ``#`` comments yield
        ``(None, [])``.
        """
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None, []
        try:
            pairs = parse_bp_pairs(stripped)
        except BPParseError as exc:
            return None, self.config.apply(
                [make_finding("STL101", str(exc), self.path, lineno)]
            )

        findings: List[Finding] = []
        attrs: Dict[str, str] = {}
        for name, value in pairs:
            if name in attrs:
                findings.append(
                    make_finding(
                        "STL106",
                        f"attribute {name!r} appears more than once "
                        "(last occurrence wins)",
                        self.path,
                        lineno,
                    )
                )
            attrs[name] = value

        for required in ("ts", "event"):
            if required not in attrs:
                findings.append(
                    make_finding(
                        "STL101",
                        f"missing required attribute {required!r}",
                        self.path,
                        lineno,
                    )
                )
        if any(f.rule_id == "STL101" for f in findings):
            return None, self.config.apply(findings)

        try:
            ts = parse_ts(attrs.pop("ts"))
        except (ValueError, TypeError) as exc:
            findings.append(
                make_finding(
                    "STL101", f"unparseable timestamp: {exc}", self.path, lineno
                )
            )
            return None, self.config.apply(findings)
        event_name = attrs.pop("event")
        level_text = attrs.pop("level", "Info")
        try:
            level = Level.parse(level_text)
        except ValueError:
            findings.append(
                make_finding(
                    "STL105",
                    f"unknown NetLogger level {level_text!r}",
                    self.path,
                    lineno,
                    context={"attribute": "level"},
                )
            )
            level = Level.INFO
        event = NLEvent(event_name, ts, attrs, level=level)
        findings.extend(self._feed_parsed(event, lineno))
        return event, self.config.apply(findings)

    def feed(self, event: NLEvent, lineno: int = 0) -> List[Finding]:
        """Lint one already-parsed event (e.g. straight off the bus)."""
        return self.config.apply(self._feed_parsed(event, lineno))

    # ------------------------------------------------------------- checks --
    def _feed_parsed(self, event: NLEvent, lineno: int) -> List[Finding]:
        self.events_seen += 1
        findings: List[Finding] = []
        findings.extend(self._check_schema(event, lineno))
        findings.extend(self._check_duplicate(event, lineno))
        findings.extend(self._check_monotonic(event, lineno))
        findings.extend(self._check_identity(event, lineno))
        findings.extend(self._check_lifecycle(event, lineno))
        findings.extend(self._check_pairs(event, lineno))
        return findings

    def _check_schema(self, event: NLEvent, lineno: int) -> List[Finding]:
        findings = []
        for violation in self._validator.validate_attrs(event.event, event.attrs):
            findings.append(
                make_finding(
                    _VIOLATION_RULES[violation.kind],
                    str(violation),
                    self.path,
                    lineno,
                    context={"event": event.event, "attribute": violation.attribute},
                )
            )
        return findings

    def _check_duplicate(self, event: NLEvent, lineno: int) -> List[Finding]:
        signature = (
            event.event,
            event.ts,
            tuple(sorted((k, str(v)) for k, v in event.attrs.items())),
        )
        if signature in self._seen_signatures:
            return [
                make_finding(
                    "STL113",
                    f"duplicate delivery of {event.event} at ts={event.ts}",
                    self.path,
                    lineno,
                    context={"event": event.event},
                )
            ]
        self._seen_signatures.add(signature)
        return []

    def _entity_key(self, event: NLEvent) -> Tuple:
        xwf = str(event.get("xwf.id", ""))
        if event.event.startswith("stampede.job_inst.") or event.event.startswith(
            "stampede.inv."
        ):
            return (xwf, str(event.get("job.id", "")), str(event.get("job_inst.id", "")))
        return (xwf,)

    def _check_monotonic(self, event: NLEvent, lineno: int) -> List[Finding]:
        key = self._entity_key(event)
        last = self._last_ts.get(key)
        self._last_ts[key] = (event.ts, lineno)
        if last is not None and event.ts < last[0]:
            entity = "/".join(str(part) for part in key if part) or "stream"
            return [
                make_finding(
                    "STL111",
                    f"{event.event} at ts={event.ts} is earlier than the "
                    f"previous event for {entity} (ts={last[0]}, line {last[1]})",
                    self.path,
                    lineno,
                    context={"event": event.event},
                )
            ]
        return []

    def _orphan(
        self, kind: str, ident: str, event: NLEvent, lineno: int
    ) -> List[Finding]:
        if (kind, ident) in self._orphans_reported:
            return []
        self._orphans_reported.add((kind, ident))
        return [
            make_finding(
                "STL112",
                f"{event.event} references unknown {kind} {ident!r}",
                self.path,
                lineno,
                context={"event": event.event, kind: ident},
            )
        ]

    def _check_identity(self, event: NLEvent, lineno: int) -> List[Finding]:
        findings: List[Finding] = []
        xwf = str(event.get("xwf.id", ""))
        if event.event == Events.WF_PLAN:
            self._workflows.add(xwf)
            self._tasks.setdefault(xwf, set())
            self._jobs.setdefault(xwf, set())
            return findings
        if xwf not in self._workflows:
            findings.extend(self._orphan("workflow", xwf, event, lineno))
            return findings  # nothing to resolve job/task ids against

        tasks = self._tasks.setdefault(xwf, set())
        jobs = self._jobs.setdefault(xwf, set())
        if event.event == Events.TASK_INFO:
            ref = str(event.get("task.id", ""))
            if ref in tasks:
                findings.append(
                    make_finding(
                        "STL003",
                        f"task {ref!r} declared more than once "
                        f"(repeated {event.event})",
                        self.path,
                        lineno,
                        context={"event": event.event, "task": ref},
                    )
                )
            tasks.add(ref)
        elif event.event == Events.JOB_INFO:
            ref = str(event.get("job.id", ""))
            if ref in jobs:
                findings.append(
                    make_finding(
                        "STL003",
                        f"job {ref!r} declared more than once "
                        f"(repeated {event.event})",
                        self.path,
                        lineno,
                        context={"event": event.event, "job": ref},
                    )
                )
            jobs.add(ref)
        elif event.event == Events.TASK_EDGE:
            for attr in ("parent.task.id", "child.task.id"):
                ref = str(event.get(attr, ""))
                if ref not in tasks:
                    findings.extend(self._orphan("task", f"{xwf}/{ref}", event, lineno))
        elif event.event == Events.JOB_EDGE:
            for attr in ("parent.job.id", "child.job.id"):
                ref = str(event.get(attr, ""))
                if ref not in jobs:
                    findings.extend(self._orphan("job", f"{xwf}/{ref}", event, lineno))
        elif event.event == Events.MAP_TASK_JOB:
            task_ref = str(event.get("task.id", ""))
            job_ref = str(event.get("job.id", ""))
            if task_ref not in tasks:
                findings.extend(
                    self._orphan("task", f"{xwf}/{task_ref}", event, lineno)
                )
            if job_ref not in jobs:
                findings.extend(self._orphan("job", f"{xwf}/{job_ref}", event, lineno))
        elif event.event.startswith("stampede.job_inst.") or event.event.startswith(
            "stampede.inv."
        ):
            job_ref = str(event.get("job.id", ""))
            if job_ref not in jobs:
                findings.extend(self._orphan("job", f"{xwf}/{job_ref}", event, lineno))
            task_ref = event.get("task.id")
            if task_ref is not None and str(task_ref) not in tasks:
                findings.extend(
                    self._orphan("task", f"{xwf}/{task_ref}", event, lineno)
                )
        return findings

    def _check_lifecycle(self, event: NLEvent, lineno: int) -> List[Finding]:
        if event.event in (Events.XWF_START, Events.XWF_END):
            return self._check_wf_lifecycle(event, lineno)
        implied = _STATE_OF.get(event.event)
        if implied is None:
            return []
        if callable(implied):
            try:
                status = int(str(event.get("status", SUCCESS)))
            except ValueError:
                status = SUCCESS  # bad status already reported by STL105
            state = implied(status)
        else:
            state = implied
        key = (
            str(event.get("xwf.id", "")),
            str(event.get("job.id", "")),
            str(event.get("job_inst.id", "")),
        )
        current = self._job_state.get(key)
        findings: List[Finding] = []
        entity = f"job {key[1]!r} instance {key[2]}"
        if current in END_JOB_STATES:
            findings.append(
                make_finding(
                    "STL108",
                    f"{event.event} for {entity} arrived after "
                    f"end state {current}",
                    self.path,
                    lineno,
                    context={"event": event.event, "state": str(current)},
                )
            )
        elif not is_valid_transition(current, state):
            was = str(current) if current is not None else "<initial>"
            findings.append(
                make_finding(
                    "STL107",
                    f"{event.event} implies illegal transition "
                    f"{was} -> {state} for {entity}",
                    self.path,
                    lineno,
                    context={"event": event.event, "from": was, "to": str(state)},
                )
            )
        # resync on the observed state either way, so one missing event
        # doesn't cascade a finding onto every later event
        if current not in END_JOB_STATES:
            self._job_state[key] = state
        return findings

    def _check_wf_lifecycle(self, event: NLEvent, lineno: int) -> List[Finding]:
        xwf = str(event.get("xwf.id", ""))
        state = (
            WorkflowState.WORKFLOW_STARTED
            if event.event == Events.XWF_START
            else WorkflowState.WORKFLOW_TERMINATED
        )
        current = self._wf_state.get(xwf)
        self._wf_state[xwf] = state
        if not is_valid_transition(current, state):
            was = str(current) if current is not None else "<initial>"
            return [
                make_finding(
                    "STL107",
                    f"{event.event} implies illegal transition "
                    f"{was} -> {state} for workflow {xwf!r}",
                    self.path,
                    lineno,
                    context={"event": event.event, "from": was, "to": str(state)},
                )
            ]
        return []

    def _pair_scope(self, event: NLEvent) -> Tuple:
        xwf = str(event.get("xwf.id", ""))
        if event.event.startswith("stampede.job_inst."):
            return (xwf, str(event.get("job.id", "")), str(event.get("job_inst.id", "")))
        if event.event.startswith("stampede.inv."):
            return (
                xwf,
                str(event.get("job.id", "")),
                str(event.get("job_inst.id", "")),
                str(event.get("inv.id", "")),
            )
        return (xwf,)

    def _check_pairs(self, event: NLEvent, lineno: int) -> List[Finding]:
        if event.event in _PAIRS:
            key = (event.event, self._pair_scope(event))
            entry = self._open_pairs.setdefault(key, [0, lineno])
            entry[0] += 1
            entry[1] = lineno
            return []
        start_name = _END_TO_START.get(event.event)
        if start_name is None:
            return []
        key = (start_name, self._pair_scope(event))
        entry = self._open_pairs.get(key)
        if entry is None or entry[0] <= 0:
            return [
                make_finding(
                    "STL110",
                    f"{event.event} without a preceding {start_name} "
                    f"for {'/'.join(map(str, key[1]))}",
                    self.path,
                    lineno,
                    context={"event": event.event},
                )
            ]
        entry[0] -= 1
        return []

    # -------------------------------------------------------------- finish --
    def finish(self) -> List[Finding]:
        """End-of-stream checks: unmatched starts, unresolved subworkflows."""
        findings: List[Finding] = []
        for (start_name, scope), (count, lineno) in sorted(
            self._open_pairs.items(), key=lambda item: item[1][1]
        ):
            if count > 0:
                findings.append(
                    make_finding(
                        "STL109",
                        f"{count} {start_name} event(s) for "
                        f"{'/'.join(map(str, scope))} never matched by "
                        f"{_PAIRS[start_name]}",
                        self.path,
                        lineno,
                        context={"event": start_name},
                    )
                )
        return self.config.apply(findings)


def lint_bp(
    source: Union[str, os.PathLike, TextIO],
    path: str = "<stream>",
    config: Optional[LintConfig] = None,
    registry: Optional[SchemaRegistry] = None,
) -> List[Finding]:
    """Lint a whole BP log (path, text with newlines, or file object)."""
    if isinstance(source, (str, os.PathLike)) and os.path.exists(str(source)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        if path == "<stream>":
            path = str(source)
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)
    linter = StreamLinter(config=config, registry=registry, path=path)
    findings: List[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        _event, line_findings = linter.feed_line(line, lineno)
        findings.extend(line_findings)
    findings.extend(linter.finish())
    return findings

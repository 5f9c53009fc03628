"""Loader coverage for the less-travelled event types: pre-scripts, held
states, abort, image info, and tolerant-mode behaviours."""
import pytest

from repro.loader.nl_load import load_events, make_loader
from repro.loader.stampede_loader import LoaderError
from repro.model.entities import (
    HostRow,
    JobInstanceRow,
    WorkflowRow,
)
from repro.netlogger.events import NLEvent
from repro.query import StampedeQuery
from repro.schema.events import Events

from tests.helpers import XWF, diamond_events


def _prefix_events():
    """The static prefix (plan + static section) plus one submit."""
    events = diamond_events()
    end_idx = next(
        i for i, e in enumerate(events) if e.event == Events.STATIC_END
    )
    return events[: end_idx + 1]


def ev(name, ts, **attrs):
    attrs.setdefault("xwf.id", XWF)
    return NLEvent(name, ts, attrs)


def ji(name, ts, job="a", seq=1, **attrs):
    return ev(name, ts, **{"job.id": job, "job_inst.id": seq}, **attrs)


class TestPreScriptEvents:
    def test_pre_script_states_recorded(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_PRE_START, 11.1),
            ji(Events.JOB_INST_PRE_TERM, 11.5, status=0),
            ji(Events.JOB_INST_PRE_END, 11.6, status=0, exitcode=0),
        ]
        loader = load_events(events)
        q = StampedeQuery(loader.archive)
        states = [s.state for s in q.job_states(1)]
        assert states == [
            "SUBMIT",
            "PRE_SCRIPT_STARTED",
            "PRE_SCRIPT_TERMINATED",
            "PRE_SCRIPT_SUCCESS",
        ]

    def test_pre_script_failure(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_PRE_END, 11.6, status=-1, exitcode=2),
        ]
        loader = load_events(events)
        q = StampedeQuery(loader.archive)
        assert q.last_job_state(1).state == "PRE_SCRIPT_FAILURE"


class TestHeldAndAbort:
    def test_held_cycle(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_HELD_START, 12.0, reason="user paused"),
            ji(Events.JOB_INST_HELD_END, 15.0, status=0),
        ]
        loader = load_events(events)
        states = [
            s.state
            for s in StampedeQuery(loader.archive).job_states(1)
        ]
        assert "JOB_HELD" in states and "JOB_RELEASED" in states
        assert states.index("JOB_HELD") < states.index("JOB_RELEASED")

    def test_abort_recorded(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_ABORT_INFO, 12.0, reason="stop button"),
            ev(Events.XWF_END, 13.0, restart_count=0, status=-1),
        ]
        loader = load_events(events)
        q = StampedeQuery(loader.archive)
        assert q.last_job_state(1).state == "JOB_ABORTED"
        assert q.workflow_status(1) == -1

    def test_image_info_accepted_noop(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_IMAGE_INFO, 12.0, size=123456),
        ]
        loader = load_events(events)
        assert loader.stats.events_by_type[Events.JOB_INST_IMAGE_INFO] == 1


class TestPostScriptFailure:
    def test_post_failure_state(self):
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.JOB_INST_POST_START, 12.0),
            ji(Events.JOB_INST_POST_END, 12.5, status=-1, exitcode=1),
        ]
        loader = load_events(events)
        q = StampedeQuery(loader.archive)
        assert q.last_job_state(1).state == "POST_SCRIPT_FAILURE"


class TestTolerantMode:
    def test_all_execution_no_static(self):
        """A stream with nothing but execution events still loads."""
        events = [
            ji(Events.JOB_INST_SUBMIT_START, 1.0),
            ji(Events.JOB_INST_MAIN_START, 2.0),
            ji(Events.JOB_INST_MAIN_END, 5.0, site="s", status=0, exitcode=0,
               **{"local.dur": 3.0}),
        ]
        loader = load_events(events, strict=False)
        assert loader.archive.count(WorkflowRow) == 1
        assert loader.archive.count(JobInstanceRow) == 1
        (inst,) = loader.archive.query(JobInstanceRow).all()
        assert inst.local_duration == 3.0

    def test_host_info_before_submit_tolerant(self):
        events = [
            ji(Events.JOB_INST_HOST_INFO, 1.0, site="s", hostname="h"),
        ]
        loader = load_events(events, strict=False)
        assert loader.archive.count(HostRow) == 1
        assert loader.archive.count(JobInstanceRow) == 1

    def test_strict_rejects_same_stream(self):
        events = [ji(Events.JOB_INST_HOST_INFO, 1.0, site="s", hostname="h")]
        with pytest.raises(LoaderError):
            load_events(events, strict=True)

    def test_subwf_map_before_child_plan_resolves_later(self):
        """MAP_SUBWF_JOB arriving before the child's wf.plan is deferred
        and applied once the child appears."""
        child = "deadbeef-0000-4111-8222-333333333333"
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.MAP_SUBWF_JOB, 12.0, **{"subwf.id": child}),
        ]
        # child plan arrives afterwards
        child_plan = NLEvent(
            Events.WF_PLAN,
            13.0,
            {
                "xwf.id": child,
                "submit.hostname": "h",
                "dag.file.name": "c.dag",
                "planner.version": "t",
                "submit_dir": "/x",
                "root.xwf.id": XWF,
                "parent.xwf.id": XWF,
            },
        )
        loader = load_events(events + [child_plan])
        q = StampedeQuery(loader.archive)
        (inst,) = q.job_instances(1)
        child_wf = q.workflow_by_uuid(child)
        assert inst.subwf_id == child_wf.wf_id
        assert child_wf.parent_wf_id == 1

    def test_subwf_map_tolerant_synthesizes_parent(self):
        """In tolerant mode a MAP_SUBWF_JOB for a never-seen parent must
        not crash: the parent is synthesized and the map stays deferred
        until (if ever) the child's plan and job instance both exist."""
        child = "deadbeef-0000-4111-8222-333333333333"
        loader = make_loader(strict=False)
        loader.process(
            ji(Events.MAP_SUBWF_JOB, 1.0, **{"subwf.id": child})
        )
        loader.flush()
        # parent placeholder exists; the map is parked, not dropped
        assert loader.archive.count(WorkflowRow) == 1
        assert loader._deferred_subwf == [(child, "a", 1, 1)]

        # the child plan alone is not enough (no job instance yet) ...
        loader.process(
            NLEvent(
                Events.WF_PLAN,
                2.0,
                {
                    "xwf.id": child,
                    "submit.hostname": "h",
                    "dag.file.name": "c.dag",
                    "planner.version": "t",
                    "submit_dir": "/x",
                    "root.xwf.id": XWF,
                    "parent.xwf.id": XWF,
                },
            )
        )
        loader.flush()
        assert loader._deferred_subwf  # still pending

        # ... until the parent's job instance appears
        loader.process(ji(Events.JOB_INST_SUBMIT_START, 3.0))
        loader.flush()
        assert loader._deferred_subwf == []
        q = StampedeQuery(loader.archive)
        (inst,) = q.job_instances(1)
        assert inst.subwf_id == q.workflow_by_uuid(child).wf_id

    def test_unresolvable_subwf_map_survives_flushes(self):
        """A map whose child never planned keeps riding along without
        being re-applied or lost across repeated flushes."""
        events = _prefix_events() + [
            ev(Events.XWF_START, 10.0, restart_count=0),
            ji(Events.JOB_INST_SUBMIT_START, 11.0),
            ji(Events.MAP_SUBWF_JOB, 12.0, **{"subwf.id": "never-planned"}),
        ]
        loader = load_events(events)
        pending = list(loader._deferred_subwf)
        assert len(pending) == 1
        loader.flush()
        loader.flush()
        assert loader._deferred_subwf == pending
        (inst,) = StampedeQuery(loader.archive).job_instances(1)
        assert inst.subwf_id is None


class TestStatsEdgeCases:
    def test_events_per_second_zero_wall_seconds(self):
        """A loader that never ran process_all (wall clock unset) reports
        a 0 rate instead of dividing by zero."""
        loader = make_loader()
        loader.process(
            ev(
                Events.WF_PLAN,
                0.0,
                **{
                    "submit.hostname": "s",
                    "dag.file.name": "d",
                    "planner.version": "1",
                    "submit_dir": "/",
                    "root.xwf.id": XWF,
                },
            )
        )
        assert loader.stats.events_processed == 1
        assert loader.stats.wall_seconds == 0.0
        assert loader.stats.events_per_second == 0.0

    def test_events_per_second_normal(self):
        loader = make_loader()
        loader.stats.events_processed = 100
        loader.stats.wall_seconds = 0.5
        assert loader.stats.events_per_second == 200.0

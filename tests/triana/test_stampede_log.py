import pytest

from repro.loader.nl_load import load_events
from repro.model.entities import InvocationRow, JobRow, TaskRow, WorkflowRow
from repro.query import StampedeQuery
from repro.schema.events import Events
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, ConstantUnit, FailingUnit, GatherUnit
from repro.util.uuidgen import derive_uuid

XWF = derive_uuid("tests", "triana-log")


def run_logged(graph, xwf=XWF, **log_kwargs):
    sink = MemoryAppender()
    sched = Scheduler(graph, seed=1)
    log = StampedeLog(sched, sink, xwf_id=xwf, **log_kwargs)
    report = sched.run()
    return sink.events, report, log


def small_graph():
    g = TaskGraph("small")
    a = g.add(ConstantUnit("a", [1]))
    b = g.add(CallableUnit("b", lambda ins: ins[0]))
    g.connect(a, b)
    return g


class TestStampedeLogStream:
    def test_all_events_schema_valid(self):
        events, _, _ = run_logged(small_graph())
        validator = EventValidator(STAMPEDE_SCHEMA)
        report = validator.validate(events)
        assert report.ok, report.violations[:5]

    def test_static_before_execution(self):
        events, _, _ = run_logged(small_graph())
        names = [e.event for e in events]
        static_end = names.index(Events.STATIC_END)
        first_exec = names.index(Events.JOB_INST_SUBMIT_START)
        assert static_end < first_exec
        assert names[0] == Events.WF_PLAN
        assert names[-1] == Events.XWF_END

    def test_one_to_one_task_job_mapping(self):
        events, _, _ = run_logged(small_graph())
        maps = [e for e in events if e.event == Events.MAP_TASK_JOB]
        assert {(str(e["task.id"]), str(e["job.id"])) for e in maps} == {
            ("a", "a"),
            ("b", "b"),
        }

    def test_invocation_per_task(self):
        events, _, _ = run_logged(small_graph())
        inv_ends = [e for e in events if e.event == Events.INV_END]
        assert len(inv_ends) == 2
        for e in inv_ends:
            assert float(e["dur"]) > 0
            assert int(e["exitcode"]) == 0

    def test_error_sets_minus_one_codes(self):
        g = TaskGraph("bad")
        src = g.add(ConstantUnit("src", 1))
        bad = g.add(FailingUnit("bad", message="kaboom"))
        g.connect(src, bad)
        events, report, _ = run_logged(g)
        assert not report.ok
        inv = next(
            e for e in events
            if e.event == Events.INV_END and str(e["job.id"]) == "bad"
        )
        assert int(e_status := inv["status"]) == -1
        main_end = next(
            e for e in events
            if e.event == Events.JOB_INST_MAIN_END and str(e["job.id"]) == "bad"
        )
        assert int(main_end["status"]) == -1
        assert "kaboom" in str(main_end.get("stderr.text", ""))
        xwf_end = next(e for e in events if e.event == Events.XWF_END)
        assert int(xwf_end["status"]) == -1

    def test_pause_emits_held_events(self):
        g = small_graph()
        sink = MemoryAppender()
        sched = Scheduler(g, seed=1)
        StampedeLog(sched, sink, xwf_id=XWF)
        sched.start()
        sched.pause()
        sched.resume()
        sched.clock.run()
        sched.finalize()
        names = [e.event for e in sink.events]
        assert Events.JOB_INST_HELD_START in names
        assert Events.JOB_INST_HELD_END in names
        assert names.index(Events.JOB_INST_HELD_START) < names.index(
            Events.JOB_INST_HELD_END
        )

    def test_stop_emits_abort(self):
        g = small_graph()
        sink = MemoryAppender()
        sched = Scheduler(g, seed=1)
        StampedeLog(sched, sink, xwf_id=XWF)
        sched.start()
        sched.stop()
        sched.clock.run()
        names = [e.event for e in sink.events]
        assert Events.JOB_INST_ABORT_INFO in names
        xwf_end = next(e for e in sink.events if e.event == Events.XWF_END)
        assert int(xwf_end["status"]) == -1

    def test_parent_uuid_recorded(self):
        events, _, _ = run_logged(
            small_graph(), parent_xwf_id=derive_uuid("tests", "parent")
        )
        plan = next(e for e in events if e.event == Events.WF_PLAN)
        assert str(plan["parent.xwf.id"]) == derive_uuid("tests", "parent")


class TestLoadability:
    def test_loads_into_archive(self):
        events, _, _ = run_logged(small_graph())
        loader = load_events(events)
        assert loader.archive.count(WorkflowRow) == 1
        assert loader.archive.count(TaskRow) == 2
        assert loader.archive.count(JobRow) == 2
        assert loader.archive.count(InvocationRow) == 2

    def test_query_metrics_after_run(self):
        events, report, _ = run_logged(small_graph())
        loader = load_events(events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        wall = q.workflow_wall_time(wf.wf_id)
        assert wall == pytest.approx(report.wall_time, abs=0.2)
        details = q.job_details(wf.wf_id)
        assert len(details) == 2
        for d in details:
            assert d.exitcode == 0
            assert d.runtime > 0
            assert d.hostname == "localhost"
            assert d.queue_time is not None and d.queue_time >= 0

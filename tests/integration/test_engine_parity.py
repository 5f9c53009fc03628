"""The paper's central claim: one monitoring infrastructure serves two
independently developed engines.  Both engines' event streams flow through
the SAME schema, loader, archive and tools without any engine-specific
handling."""
import pytest

from repro.core.analyzer import analyze
from repro.core.statistics import workflow_statistics
from repro.loader.nl_load import load_events, make_loader
from repro.pegasus import PlannerConfig, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, ConstantUnit, GatherUnit
from repro.util.uuidgen import derive_uuid
from repro.workloads import diamond


def triana_diamond_events():
    """The diamond workflow executed by the Triana engine."""
    g = TaskGraph("diamond")
    a = g.add(ConstantUnit("a", 1, seconds=10.0))
    b = g.add(CallableUnit("b", lambda ins: ins[0], seconds=10.0))
    c = g.add(CallableUnit("c", lambda ins: ins[0], seconds=10.0))
    d = g.add(GatherUnit("d", seconds=10.0))
    g.connect(a, b)
    g.connect(a, c)
    g.connect(b, d)
    g.connect(c, d)
    sink = MemoryAppender()
    sched = Scheduler(g, seed=0)
    StampedeLog(sched, sink, xwf_id=derive_uuid("parity", "triana"))
    sched.run()
    return sink.events


def pegasus_diamond_events():
    """The same logical workflow executed by the Pegasus engine."""
    sink = MemoryAppender()
    run_pegasus_workflow(
        diamond(runtime=10.0),
        sink,
        planner_config=PlannerConfig(
            cluster_size=1, add_create_dir=False, add_stage_in=False,
            add_stage_out=False,
        ),
        seed=0,
    )
    return sink.events


class TestEngineParity:
    def test_both_streams_validate_against_one_schema(self):
        validator = EventValidator(STAMPEDE_SCHEMA)
        assert validator.validate(triana_diamond_events()).ok
        assert validator.validate(pegasus_diamond_events()).ok

    def test_one_loader_loads_both_without_configuration(self):
        loader = make_loader()
        loader.process_all(triana_diamond_events())
        loader.process_all(pegasus_diamond_events())
        q = StampedeQuery(loader.archive)
        assert len(q.workflows()) == 2

    def test_same_tools_answer_same_questions(self):
        loader = make_loader()
        loader.process_all(triana_diamond_events())
        loader.process_all(pegasus_diamond_events())
        q = StampedeQuery(loader.archive)
        for wf in q.workflows():
            stats = workflow_statistics(q, wf_id=wf.wf_id)
            assert stats.counts.tasks_total == 4
            assert stats.counts.tasks_succeeded == 4
            assert stats.wall_time is not None and stats.wall_time > 20
            analysis = analyze(q, wf_id=wf.wf_id)
            assert analysis.ok

    def test_structural_equivalence_in_archive(self):
        triana = load_events(triana_diamond_events())
        pegasus = load_events(pegasus_diamond_events())
        tq = StampedeQuery(triana.archive)
        pq = StampedeQuery(pegasus.archive)
        twf, pwf = tq.workflows()[0], pq.workflows()[0]
        # identical AW structure lands in the archive from both engines
        t_tasks = {t.abs_task_id for t in tq.tasks(twf.wf_id)}
        p_tasks = {t.abs_task_id for t in pq.tasks(pwf.wf_id)}
        assert t_tasks == p_tasks == {"a", "b", "c", "d"}
        t_edges = {
            (e.parent_abs_task_id, e.child_abs_task_id)
            for e in tq.task_edges(twf.wf_id)
        }
        p_edges = {
            (e.parent_abs_task_id, e.child_abs_task_id)
            for e in pq.task_edges(pwf.wf_id)
        }
        assert t_edges == p_edges

    def test_engine_differences_visible_not_breaking(self):
        """Pegasus planning artifacts (clustering, aux jobs) coexist in the
        same archive without special-casing."""
        sink = MemoryAppender()
        run_pegasus_workflow(
            diamond(runtime=10.0), sink,
            planner_config=PlannerConfig(cluster_size=2), seed=0,
        )
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        jobs = q.jobs(wf.wf_id)
        # 4 tasks map onto fewer compute jobs + aux jobs
        assert len(jobs) != 4
        counts = q.summary_counts(wf.wf_id)
        assert counts.tasks_total == 4  # tasks still counted at AW level

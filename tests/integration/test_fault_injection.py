"""Fault injection across the whole stack: a failing unit inside one
TrianaCloud bundle must surface in the bundle's report, the root monitor,
the archive, and the analyzer's hierarchical drill-down."""
import pytest

from repro.core.analyzer import analyze, render_analysis
from repro.core.prediction import failure_score, failure_signals
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.triana.bundles import WorkflowBundle, register_unit_codec
from repro.triana.cloud import CloudJoinUnit, TrianaCloudBroker
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import ConstantUnit, ExecUnit, FailingUnit, ZipperUnit
from repro.util.simclock import SimClock
from repro.util.uuidgen import derive_uuid

# FailingUnit needs a codec so it can travel in a bundle
register_unit_codec(
    "failing",
    FailingUnit,
    lambda u: {"message": u.message},
    lambda name, kw: FailingUnit(name, message=kw["message"]),
)


def make_bundle(name: str, broken: bool) -> WorkflowBundle:
    g = TaskGraph(name)
    src = g.add(ConstantUnit("input", ["w"]))
    for i in range(3):
        if broken and i == 1:
            worker = g.add(FailingUnit(f"exec{i}", message="disk full"))
        else:
            worker = g.add(ExecUnit(f"exec{i}", ["run"], base_seconds=5.0))
        g.connect(src, worker)
    z = g.add(ZipperUnit("zip"))
    for i in range(3):
        g.connect(g[f"exec{i}"], z)
    return WorkflowBundle.from_graph(g)


@pytest.fixture(scope="module")
def faulty_run():
    clock = SimClock()
    sink = MemoryAppender()
    broker = TrianaCloudBroker(clock, sink, n_nodes=2)
    root = TaskGraph("faulty-meta")
    join_unit = CloudJoinUnit("monitor", broker)
    root.add(join_unit)
    scheduler = Scheduler(root, clock=clock, seed=0)
    root_xwf = derive_uuid("faults", "root")
    log = StampedeLog(scheduler, sink, xwf_id=root_xwf)
    broker.attach_parent(log)
    join_unit.bind(scheduler)
    scheduler.start()
    for i in range(4):
        broker.submit(make_bundle(f"bundle-{i}", broken=(i == 2)).to_json(),
                      submitting_job="monitor")
    clock.run()
    scheduler.finalize()
    return sink, scheduler, broker, root_xwf


class TestFaultPropagation:
    def test_broken_bundle_fails(self, faulty_run):
        sink, scheduler, broker, root_xwf = faulty_run
        outcomes = {r.bundle.name: r.report.ok for r in broker.runs}
        assert outcomes == {
            "bundle-0": True,
            "bundle-1": True,
            "bundle-2": False,
            "bundle-3": True,
        }

    def test_root_monitor_fails(self, faulty_run):
        sink, scheduler, broker, root_xwf = faulty_run
        assert not scheduler.report.ok
        assert scheduler.report.errored == 1  # the monitor task

    def test_archive_reflects_hierarchy(self, faulty_run):
        sink, scheduler, broker, root_xwf = faulty_run
        q = StampedeQuery(load_events(sink.events).archive)
        root = q.workflow_by_uuid(root_xwf)
        assert q.workflow_status(root.wf_id) == -1
        counts = q.summary_counts(root.wf_id)
        assert counts.subwf_total == 4
        assert counts.subwf_failed == 1
        assert counts.subwf_succeeded == 3
        assert counts.tasks_failed >= 1

    def test_analyzer_drills_into_failed_bundle(self, faulty_run):
        sink, scheduler, broker, root_xwf = faulty_run
        q = StampedeQuery(load_events(sink.events).archive)
        root = q.workflow_by_uuid(root_xwf)
        analysis = analyze(q, wf_id=root.wf_id)
        assert not analysis.ok
        # default drill-down recurses ONLY into the failed sub-workflow
        assert len(analysis.sub_analyses) == 1
        sub = analysis.sub_analyses[0]
        (failed_job,) = sub.failed_jobs
        assert failed_job.exec_job_id == "exec1"
        assert "disk full" in (failed_job.stderr_text or "")
        text = render_analysis(analysis)
        assert "exec1" in text and "disk full" in text

    def test_failure_score_elevated(self, faulty_run):
        sink, scheduler, broker, root_xwf = faulty_run
        q = StampedeQuery(load_events(sink.events).archive)
        root = q.workflow_by_uuid(root_xwf)
        signals = failure_signals(q, root.wf_id)
        assert signals.failure_fraction > 0
        assert failure_score(signals) > failure_score(
            failure_signals(q, q.sub_workflows(root.wf_id)[0].wf_id)
        )

    def test_deadlocked_zipper_incomplete(self, faulty_run):
        """In the broken bundle, the zipper never got exec1's output."""
        sink, scheduler, broker, root_xwf = faulty_run
        q = StampedeQuery(load_events(sink.events).archive)
        root = q.workflow_by_uuid(root_xwf)
        broken = next(
            w for w in q.sub_workflows(root.wf_id)
            if q.workflow_status(w.wf_id) == -1
        )
        counts = q.summary_counts(broken.wf_id, include_descendants=False)
        assert counts.jobs_incomplete >= 1  # the starving zipper

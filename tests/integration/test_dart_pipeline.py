"""End-to-end reproduction of the paper's §VI/§VII experiment pipeline:

Triana engine → Stampede events → AMQP bus → nl_load → relational archive
→ stampede_statistics / stampede_analyzer — with Table I's exact counts.
"""
import threading

import pytest

from repro.bus.broker import Broker
from repro.bus.client import BusSink
from repro.core.analyzer import analyze
from repro.core.reports import render_summary
from repro.core.statistics import workflow_statistics
from repro.core.timeseries import bundle_progress
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events, load_from_bus, make_loader
from repro.model.entities import WorkflowStateRow
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender


@pytest.fixture(scope="module")
def dart_run():
    """One full 306-command DART run, loaded into an archive."""
    sink = MemoryAppender()
    res = run_dart_experiment(sink, seed=0)
    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    root = q.workflow_by_uuid(res.root_xwf_id)
    return sink, res, q, root


class TestTableOne:
    def test_exact_counts(self, dart_run):
        _, res, q, root = dart_run
        counts = q.summary_counts(root.wf_id)
        # Table I, reproduced exactly
        assert counts.tasks_total == 367
        assert counts.tasks_succeeded == 367
        assert counts.tasks_failed == 0
        assert counts.jobs_total == 367
        assert counts.jobs_succeeded == 367
        assert counts.subwf_total == 20
        assert counts.subwf_succeeded == 20
        assert counts.jobs_retries == 0

    def test_wall_times_in_band(self, dart_run):
        _, res, q, root = dart_run
        stats = workflow_statistics(q, wf_id=root.wf_id)
        # paper: 661 s wall, 40 224 s cumulative; shape: cumulative/wall ≈ 60
        assert 450 < stats.wall_time < 1000
        assert 30_000 < stats.cumulative_job_wall_time < 50_000
        ratio = stats.cumulative_job_wall_time / stats.wall_time
        assert 35 < ratio < 90

    def test_summary_rendering(self, dart_run):
        _, res, q, root = dart_run
        text = render_summary(workflow_statistics(q, wf_id=root.wf_id))
        assert " 367 " in text.replace("367", " 367 ", 1) or "367" in text
        assert "Workflow cumulative job wall time" in text


class TestEventStream:
    def test_every_event_schema_valid(self, dart_run):
        sink, *_ = dart_run
        report = EventValidator(STAMPEDE_SCHEMA).validate(sink.events)
        assert report.ok, report.violations[:3]

    def test_static_precedes_execution_per_workflow(self, dart_run):
        sink, *_ = dart_run
        static_done = set()
        for event in sink.events:
            xwf = str(event.get("xwf.id"))
            if event.event == "stampede.static.end":
                static_done.add(xwf)
            if event.event.startswith("stampede.job_inst") or event.event.startswith(
                "stampede.inv"
            ):
                assert xwf in static_done, (
                    f"execution event {event.event} before static.end for {xwf}"
                )

    def test_all_hosts_are_cloud_nodes(self, dart_run):
        sink, *_ = dart_run
        hosts = {
            str(e["hostname"])
            for e in sink.events
            if e.event == "stampede.job_inst.host.info"
            and str(e["hostname"]) != "dart-desktop"
        }
        assert hosts == {f"trianaworker{i}" for i in range(8)}


class TestFigureSeven:
    def test_twenty_progress_series(self, dart_run):
        _, res, q, root = dart_run
        series = bundle_progress(q, root.wf_id)
        assert len(series) == 20
        for s in series:
            assert s.points, s.label
            # every bundle finishes within the workflow wall time
            assert s.completion_time <= res.wall_time + 1.0

    def test_bundles_finish_in_waves(self, dart_run):
        _, res, q, root = dart_run
        series = bundle_progress(q, root.wf_id)
        finishes = sorted(s.completion_time for s in series)
        # the spread between first and last completion is substantial
        assert finishes[-1] - finishes[0] > 30.0


class TestAnalyzer:
    def test_clean_run_analysis(self, dart_run):
        _, res, q, root = dart_run
        analysis = analyze(q, wf_id=root.wf_id)
        assert analysis.ok


class TestRealTimeBusLoading:
    def test_live_loading_concurrent_with_run(self):
        """Events published to the bus during the run are loaded in real
        time by a loader thread — the paper's deployment architecture."""
        broker = Broker()
        broker.declare_queue("stampede", durable=True)
        broker.bind_queue("stampede", "stampede.#")
        loader = make_loader()

        def consume():
            load_from_bus(
                broker,
                queue_name="stampede",
                durable=True,
                loader=loader,
                until=lambda ld: ld.archive.query(WorkflowStateRow)
                .eq("state", "WORKFLOW_TERMINATED")
                .count()
                >= 4,  # root + 3 bundles
            )

        thread = threading.Thread(target=consume)
        thread.start()
        from repro.dart.sweep import sweep_grid

        commands = [c.line for c in sweep_grid()[:12]]
        res = run_dart_experiment(
            BusSink(broker), seed=4, n_nodes=2, chunk_size=4, commands=commands
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        q = StampedeQuery(loader.archive)
        root = q.workflow_by_uuid(res.root_xwf_id)
        counts = q.summary_counts(root.wf_id)
        assert counts.tasks_total == 12 + 9 + 1
        assert counts.tasks_succeeded == counts.tasks_total

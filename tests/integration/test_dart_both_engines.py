"""The strongest form of the paper's generality claim: the SAME DART
experiment executed by both engines, monitored by the same infrastructure,
producing the same Table I accounting."""
import pytest

from repro.dart.pegasus_variant import run_dart_pegasus
from repro.dart.sweep import sweep_grid
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender

COMMANDS = [c.line for c in sweep_grid()[:48]]
CHUNK = 16  # -> 3 bundles


@pytest.fixture(scope="module")
def both_runs():
    triana_sink = MemoryAppender()
    triana = run_dart_experiment(
        triana_sink, seed=0, n_nodes=3, chunk_size=CHUNK, commands=COMMANDS
    )
    pegasus_sink = MemoryAppender()
    pegasus = run_dart_pegasus(
        pegasus_sink, seed=0, n_nodes=3, chunk_size=CHUNK, commands=COMMANDS
    )
    tq = StampedeQuery(load_events(triana_sink.events).archive)
    pq = StampedeQuery(load_events(pegasus_sink.events).archive)
    troot = tq.workflow_by_uuid(triana.root_xwf_id)
    proot = pq.workflow_by_uuid(pegasus.xwf_id)
    return (triana_sink, triana, tq, troot), (pegasus_sink, pegasus, pq, proot)


class TestSameExperimentBothEngines:
    def test_both_succeed(self, both_runs):
        (_, triana, *_), (_, pegasus, *_) = both_runs
        assert triana.root_report.ok
        assert pegasus.ok

    def test_both_streams_validate(self, both_runs):
        (tsink, *_), (psink, *_) = both_runs
        validator = EventValidator(STAMPEDE_SCHEMA)
        assert validator.validate(tsink.events).ok
        assert validator.validate(psink.events).ok

    def test_identical_task_accounting(self, both_runs):
        (_, _, tq, troot), (_, _, pq, proot) = both_runs
        tc = tq.summary_counts(troot.wf_id)
        pc = pq.summary_counts(proot.wf_id)
        # 48 execs + 3 bundles x 3 aux + 1 parent task = 58
        assert tc.tasks_total == pc.tasks_total == 58
        assert tc.tasks_succeeded == pc.tasks_succeeded == 58
        assert tc.subwf_total == pc.subwf_total == 3
        assert tc.subwf_succeeded == pc.subwf_succeeded == 3
        assert tc.tasks_failed == pc.tasks_failed == 0

    def test_engine_differences_visible(self, both_runs):
        """Triana: 1:1 task/job; Pegasus adds sub-DAX wrapper jobs."""
        (_, _, tq, troot), (_, _, pq, proot) = both_runs
        tc = tq.summary_counts(troot.wf_id)
        pc = pq.summary_counts(proot.wf_id)
        assert tc.jobs_total == tc.tasks_total  # no planning stage
        assert pc.jobs_total == pc.tasks_total + 3  # + sub-DAX jobs

    def test_cumulative_times_comparable(self, both_runs):
        """Same duration model -> cumulative job wall time within 15%."""
        (_, _, tq, troot), (_, _, pq, proot) = both_runs
        t_cum = tq.cumulative_job_wall_time(troot.wf_id)
        p_cum = pq.cumulative_job_wall_time(proot.wf_id)
        assert t_cum > 0 and p_cum > 0
        assert abs(t_cum - p_cum) / max(t_cum, p_cum) < 0.15

    def test_same_tools_same_reports(self, both_runs):
        from repro.core.reports import render_summary
        from repro.core.statistics import workflow_statistics

        (_, _, tq, troot), (_, _, pq, proot) = both_runs
        for q, root in ((tq, troot), (pq, proot)):
            text = render_summary(workflow_statistics(q, wf_id=root.wf_id))
            assert "58" in text
            assert "Workflow cumulative job wall time" in text

    def test_bundle_progress_from_both(self, both_runs):
        from repro.core.timeseries import bundle_progress

        (_, _, tq, troot), (_, _, pq, proot) = both_runs
        t_series = bundle_progress(tq, troot.wf_id)
        p_series = bundle_progress(pq, proot.wf_id)
        assert len(t_series) == len(p_series) == 3
        for s in t_series + p_series:
            assert s.final_cumulative_runtime > 0

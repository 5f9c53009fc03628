import os

import pytest

from repro.core.reports import render_host_timeline, write_report_files
from repro.core.statistics import HostUsage, host_breakdown, workflow_statistics
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery

from tests.helpers import diamond_events


class TestHostTimeline:
    def test_renders_bins(self):
        hosts = [
            HostUsage("node1", jobs=3, total_runtime=30.0,
                      bins={0: 10.0, 2: 20.0}),
            HostUsage("node2", jobs=1, total_runtime=5.0, bins={1: 5.0}),
        ]
        text = render_host_timeline(hosts, bin_seconds=60.0)
        assert "t0" in text and "t60" in text and "t120" in text
        lines = text.splitlines()
        node1 = next(l for l in lines if l.startswith("node1"))
        assert node1.split() == ["node1", "10", "0", "20"]

    def test_empty(self):
        assert "no host usage" in render_host_timeline([])

    def test_from_real_run(self):
        loader = load_events(diamond_events())
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        hosts = host_breakdown(q, wf.wf_id, bin_seconds=5.0)
        text = render_host_timeline(hosts, bin_seconds=5.0)
        assert "node1" in text


class TestWriteReportFiles:
    def test_writes_all_files(self, tmp_path):
        loader = load_events(diamond_events())
        stats = workflow_statistics(loader.archive)
        paths = write_report_files(stats, tmp_path / "reports")
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["breakdown.txt", "hosts.txt", "jobs.txt", "summary.txt"]
        breakdown = (tmp_path / "reports" / "breakdown.txt").read_text()
        assert "tr_a" in breakdown
        jobs = (tmp_path / "reports" / "jobs.txt").read_text()
        assert "InvocationDuration" in jobs and "QueueTime" in jobs

    def test_cli_output_dir(self, tmp_path, capsys):
        from repro.core.statistics import main
        from repro.loader.nl_load import main as nl_main
        from repro.netlogger.stream import write_events

        bp = tmp_path / "run.bp"
        db = tmp_path / "run.db"
        write_events(bp, diamond_events())
        nl_main([str(bp), "stampede_loader", f"connString=sqlite:///{db}"])
        rc = main([f"sqlite:///{db}", "-o", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.txt").exists()


class TestDashboardExtraEndpoints:
    @pytest.fixture
    def dart_archive(self):
        from repro.dart.sweep import sweep_grid
        from repro.dart.workflow import run_dart_experiment
        from repro.triana.appender import MemoryAppender

        sink = MemoryAppender()
        commands = [c.line for c in sweep_grid()[:8]]
        res = run_dart_experiment(sink, seed=6, n_nodes=2, chunk_size=4,
                                  commands=commands)
        return load_events(sink.events).archive, res

    def test_progress_endpoint(self, dart_archive):
        from repro.core.dashboard import DashboardData
        from repro.query import StampedeQuery

        archive, res = dart_archive
        q = StampedeQuery(archive)
        root = q.workflow_by_uuid(res.root_xwf_id)
        payload = DashboardData(archive).progress_payload(root.wf_id)
        assert len(payload["series"]) == 2
        for series in payload["series"]:
            points = series["points"]
            assert points == sorted(points)

    def test_anomalies_endpoint(self, dart_archive):
        from repro.core.dashboard import DashboardData
        from repro.query import StampedeQuery

        archive, res = dart_archive
        q = StampedeQuery(archive)
        root = q.workflow_by_uuid(res.root_xwf_id)
        payload = DashboardData(archive).anomalies_payload(root.wf_id)
        assert payload["observations"] == 8 + 6 + 1

    def test_http_routes(self, dart_archive):
        import json
        import urllib.request

        from repro.core.dashboard import Dashboard

        archive, res = dart_archive
        with Dashboard(archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/progress", timeout=5
            ) as resp:
                assert resp.status == 200
                json.loads(resp.read())
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/anomalies", timeout=5
            ) as resp:
                assert resp.status == 200

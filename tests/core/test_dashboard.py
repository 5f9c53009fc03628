import json
import urllib.error
import urllib.request

import pytest

from repro.core.dashboard import Dashboard, DashboardData
from repro.loader.nl_load import load_events
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.obs.metrics import MetricsRegistry

from tests.helpers import diamond_events


@pytest.fixture
def archive():
    return load_events(diamond_events()).archive


class TestDashboardData:
    def test_workflows_payload(self, archive):
        data = DashboardData(archive)
        payload = data.workflows_payload()
        assert len(payload["workflows"]) == 1
        wf = payload["workflows"][0]
        assert wf["state"] == "success"
        assert wf["dag_file_name"] == "diamond.dag"

    def test_workflow_payload(self, archive):
        data = DashboardData(archive)
        payload = data.workflow_payload(1)
        assert payload["counts"]["jobs_total"] == 4
        assert payload["wall_time"] == pytest.approx(23.0, abs=0.1)
        assert len(payload["breakdown"]) == 4

    def test_jobs_payload(self, archive):
        data = DashboardData(archive)
        payload = data.jobs_payload(1)
        assert len(payload["jobs"]) == 4
        assert payload["jobs"][0]["hostname"] == "node1"

    def test_failed_state(self):
        archive = load_events(diamond_events(fail_job="b")).archive
        data = DashboardData(archive)
        assert data.workflows_payload()["workflows"][0]["state"] == "failed"

    def test_running_state(self):
        events = diamond_events()[:-1]  # drop xwf.end
        archive = load_events(events).archive
        data = DashboardData(archive)
        assert data.workflows_payload()["workflows"][0]["state"] == "running"

    def test_index_html(self, archive):
        html = DashboardData(archive).index_html()
        assert "<table" in html
        assert "diamond.dag" in html


class TestDashboardHttp:
    def test_endpoints(self, archive):
        with Dashboard(archive) as dash:
            base = dash.url

            def get(path):
                with urllib.request.urlopen(base + path, timeout=5) as resp:
                    return resp.status, resp.read().decode()

            status, body = get("/")
            assert status == 200 and "Stampede Dashboard" in body

            status, body = get("/api/workflows")
            assert status == 200
            assert len(json.loads(body)["workflows"]) == 1

            status, body = get("/api/workflow/1")
            assert json.loads(body)["counts"]["jobs_total"] == 4

            status, body = get("/api/workflow/1/jobs")
            assert len(json.loads(body)["jobs"]) == 4

    def test_404(self, archive):
        with Dashboard(archive) as dash:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(dash.url + "/nope", timeout=5)
            assert err.value.code == 404

    def test_unknown_workflow_id_404(self, archive):
        with Dashboard(archive) as dash:
            for path in ("/api/workflow/999", "/api/workflow/999/jobs"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(dash.url + path, timeout=5)
                assert err.value.code == 404, path

    def test_malformed_api_path_400(self, archive):
        with Dashboard(archive) as dash:
            for path in ("/api/workflow/abc", "/api/workflow/1/bogus", "/api/"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(dash.url + path, timeout=5)
                assert err.value.code == 400, path

    def test_metrics_endpoint_content_type(self, archive):
        reg = MetricsRegistry()
        reg.counter("dash_test_total").inc(3)
        with Dashboard(archive, metrics=reg) as dash:
            with urllib.request.urlopen(dash.url + "/metrics", timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                body = resp.read().decode()
        assert "dash_test_total 3" in body

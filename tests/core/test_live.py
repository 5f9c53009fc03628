"""Streaming read layer (repro.core.live): single-flight cache + SSE.

The contract under test: N concurrent viewers cost one computation per
archive commit (the commit-sequence cache), and a streaming viewer sees
an immediate snapshot followed by monotone progress frames — counters
only grow, ``running`` only resolves forward — no matter when it
connects relative to the load.
"""
import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.dashboard import Dashboard, DashboardData
from repro.core.live import LiveFeed, ReadCache
from repro.loader.nl_load import load_events, make_loader
from repro.obs.metrics import MetricsRegistry

from tests.helpers import diamond_events

XWF2 = "22222222-3333-4444-8555-666666666666"


def _parse_frame(raw):
    """One SSE frame -> (event name, id or None, decoded data payload)."""
    text = raw.decode() if isinstance(raw, bytes) else raw
    event = frame_id = data = None
    for line in text.strip().split("\n"):
        key, _, value = line.partition(": ")
        if key == "event":
            event = value
        elif key == "id":
            frame_id = int(value)
        elif key == "data":
            data = json.loads(value)
    return event, frame_id, data


def _split_frames(body: bytes):
    return [f for f in body.split(b"\n\n") if f.strip()]


@pytest.fixture
def loader():
    return load_events(diamond_events())


class TestReadCache:
    def test_hit_after_miss(self, loader):
        cache = ReadCache(loader.archive)
        calls = []

        def compute():
            calls.append(1)
            return {"n": len(calls)}

        assert cache.get("k", compute) == {"n": 1}
        assert cache.get("k", compute) == {"n": 1}
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_commit_invalidates_not_ttl(self, loader):
        """The entry lives exactly until the commit sequence moves: no
        recompute while the archive is quiet, one recompute after."""
        cache = ReadCache(loader.archive)
        calls = []
        for _ in range(5):
            cache.get("k", lambda: calls.append(1))
        assert len(calls) == 1
        loader.process_all(diamond_events(xwf=XWF2))
        cache.get("k", lambda: calls.append(1))
        cache.get("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_no_rollup_coverage_bypasses(self):
        # commit_seq == 0 means no invalidation signal exists; serving a
        # cached value would be stale forever, so every request computes
        norollup = load_events(diamond_events(), rollup=False)
        cache = ReadCache(norollup.archive)
        calls = []
        for _ in range(3):
            cache.get("k", lambda: calls.append(1))
        assert len(calls) == 3
        assert cache.stats()["hits"] == 0

    def test_single_flight_coalesces_concurrent_readers(self, loader):
        cache = ReadCache(loader.archive)
        release = threading.Event()
        computes = []

        def slow():
            computes.append(1)
            release.wait(5)
            return "value"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get("k", slow)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)  # let every thread reach the flight
        release.set()
        for t in threads:
            t.join(5)
        assert results == ["value"] * 8
        assert len(computes) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_leader_failure_does_not_poison_key(self, loader):
        cache = ReadCache(loader.archive)
        attempts = []

        def compute():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(RuntimeError):
            cache.get("k", compute)
        assert cache.get("k", compute) == "ok"

    def test_waiters_retry_after_leader_failure(self, loader):
        """A leader that dies mid-compute wakes its waiters; one of them
        becomes the new leader and the rest share its result."""
        cache = ReadCache(loader.archive)
        entered = threading.Event()
        release = threading.Event()
        guard = threading.Lock()
        state = {"first": True}

        def compute():
            with guard:
                first = state["first"]
                state["first"] = False
            if first:
                entered.set()
                release.wait(5)
                raise RuntimeError("leader died")
            return "recovered"

        results, errors = [], []

        def worker():
            try:
                results.append(cache.get("k", compute))
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads[0].start()
        assert entered.wait(5)
        for t in threads[1:]:
            t.start()
        time.sleep(0.05)  # park the waiters on the doomed flight
        release.set()
        for t in threads:
            t.join(5)
        assert len(errors) == 1
        assert results == ["recovered"] * 3


class TestLiveFeed:
    def test_wait_for_change_immediate_on_stale_since(self, loader):
        feed = LiveFeed(loader.archive)
        start = time.monotonic()
        current = feed.wait_for_change(-1, timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert current == feed.version() > 0

    def test_wait_for_change_times_out_unchanged(self, loader):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        seq = feed.version()
        start = time.monotonic()
        assert feed.wait_for_change(seq, timeout=0.15) == seq
        assert time.monotonic() - start >= 0.15

    def test_snapshot_unknown_workflow_raises(self, loader):
        with pytest.raises(KeyError):
            LiveFeed(loader.archive).snapshot(999)

    def test_snapshot_degrades_without_rollups(self):
        norollup = load_events(diamond_events(), rollup=False)
        snap = LiveFeed(norollup.archive).snapshot(1)
        assert snap["state"] == "success"
        assert snap["commit_seq"] == 0
        assert "events" not in snap  # state-only fallback

    def test_sse_snapshot_then_idle(self, loader):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        frames = list(feed.sse_events(wf_id=1, timeout=0.1))
        assert len(frames) == 2
        name, frame_id, data = _parse_frame(frames[0])
        assert name == "progress"
        assert frame_id == data["commit_seq"] > 0
        assert data["state"] == "success"
        assert data["jobs_succeeded"] == data["jobs_total"] > 0
        name, _, idle = _parse_frame(frames[1])
        assert name == "idle"
        assert idle["commit_seq"] == data["commit_seq"]

    def test_sse_limit_caps_progress_frames(self, loader):
        frames = list(
            LiveFeed(loader.archive).sse_events(wf_id=1, limit=1, timeout=5.0)
        )
        assert len(frames) == 1
        assert _parse_frame(frames[0])[0] == "progress"

    def test_sse_connect_mid_load_is_monotonic(self):
        """A viewer that connects halfway through ingest gets the current
        truth immediately, then frames whose counters only grow until the
        workflow resolves."""
        events = list(diamond_events(retries={"c": 2}))
        cut = len(events) // 2
        loader = make_loader(batch_size=5)
        loader.process_all(events[:cut])

        feed = LiveFeed(loader.archive, poll_interval=0.01)
        gen = feed.sse_events(wf_id=1, timeout=2.0)
        name, _, first = _parse_frame(next(gen))
        assert name == "progress"
        assert first["state"] == "running"  # mid-load truth, not zero

        loader.process_all(events[cut:])
        seen = [first]
        for _ in range(20):
            name, _, data = _parse_frame(next(gen))
            if name == "idle":
                break
            seen.append(data)
            if data["state"] == "success":
                break
        assert seen[-1]["state"] == "success"
        for prev, cur in zip(seen, seen[1:]):
            for field in (
                "events",
                "tasks_succeeded",
                "jobs_succeeded",
                "invocations",
                "commit_seq",
            ):
                assert cur[field] >= prev[field], field
            # running only resolves forward
            assert not (prev["state"] != "running" and cur["state"] == "running")


class TestDashboardStreamingHttp:
    def test_concurrent_identical_requests_one_computation(self, loader):
        """The regression the cache exists to prevent: N viewers of one
        endpoint must trigger exactly one computation, not N scans."""
        with Dashboard(loader.archive) as dash:
            url = dash.url + "/api/workflow/1"
            barrier = threading.Barrier(8)
            bodies = []
            errors = []

            def fetch():
                barrier.wait(5)
                try:
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        bodies.append(resp.read())
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not errors
            assert len(set(bodies)) == 1  # every viewer saw the same payload
            stats = dash.data.cache.stats()
            assert stats["misses"] == 1
            assert stats["hits"] == 7

    def test_sse_over_http(self, loader):
        with Dashboard(loader.archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/stream?timeout=0.1", timeout=10
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "text/event-stream"
                frames = _split_frames(resp.read())
            assert [_parse_frame(f)[0] for f in frames] == ["progress", "idle"]
            _, _, data = _parse_frame(frames[0])
            assert data["wf_id"] == 1

    def test_global_stream_lists_all_workflows(self, loader):
        loader.process_all(diamond_events(xwf=XWF2))
        with Dashboard(loader.archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/stream?limit=1", timeout=10
            ) as resp:
                frames = _split_frames(resp.read())
            _, _, data = _parse_frame(frames[0])
            assert len(data["workflows"]) == 2

    def test_client_disconnect_leaves_server_healthy(self, loader):
        with Dashboard(loader.archive) as dash:
            host, port = dash.address
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("GET", "/api/workflow/1/stream?timeout=1")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.read(16)  # first frame started flowing
            conn.close()  # hang up mid-stream
            # the handler swallows the broken pipe; the server keeps serving
            with urllib.request.urlopen(
                dash.url + "/api/workflows", timeout=10
            ) as after:
                assert after.status == 200

    def test_long_poll(self, loader):
        with Dashboard(loader.archive) as dash:
            # since=-1: immediate snapshot
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/poll?since=-1", timeout=10
            ) as resp:
                data = json.loads(resp.read())
            assert data["state"] == "success"
            seq = data["commit_seq"]
            assert seq > 0
            # since=current: blocks for the timeout, then returns unchanged
            start = time.monotonic()
            with urllib.request.urlopen(
                dash.url + f"/api/poll?since={seq}&timeout=0.2", timeout=10
            ) as resp:
                data = json.loads(resp.read())
            assert time.monotonic() - start >= 0.2
            assert data["commit_seq"] == seq

    def test_stream_error_contract(self, loader):
        with Dashboard(loader.archive) as dash:
            for path, code in (
                ("/api/workflow/999/stream", 404),
                ("/api/workflow/999/poll", 404),
                ("/api/workflow/1/stream?limit=abc", 400),
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(dash.url + path, timeout=10)
                assert err.value.code == code, path

    def test_metrics_under_streaming_load(self, loader):
        registry = MetricsRegistry()
        with Dashboard(loader.archive, metrics=registry) as dash:
            for _ in range(3):
                urllib.request.urlopen(
                    dash.url + "/api/workflows", timeout=10
                ).read()
            for _ in range(2):
                urllib.request.urlopen(
                    dash.url + "/api/workflow/1/stream?limit=1", timeout=10
                ).read()
            with urllib.request.urlopen(dash.url + "/metrics", timeout=10) as resp:
                body = resp.read().decode()
        for name in (
            "stampede_dashboard_cache_hits_total",
            "stampede_dashboard_cache_misses_total",
            "stampede_dashboard_streams_total",
            "stampede_dashboard_stream_events_total",
            "stampede_rollup_commit_seq",
            "stampede_rollup_lag_seconds",
        ):
            assert name in body, name
        assert "stampede_dashboard_cache_hits_total 2" in body
        assert "stampede_dashboard_streams_total 2" in body


class TestDashboardDataCaching:
    def test_every_payload_routes_through_cache(self, loader):
        data = DashboardData(loader.archive)
        data.workflows_payload()
        data.workflow_payload(1)
        data.jobs_payload(1)
        data.progress_payload(1)
        data.gantt_payload(1)
        data.anomalies_payload(1)
        misses = data.cache.stats()["misses"]
        # a second identical round costs nothing new
        data.workflows_payload()
        data.workflow_payload(1)
        data.jobs_payload(1)
        data.progress_payload(1)
        data.gantt_payload(1)
        data.anomalies_payload(1)
        stats = data.cache.stats()
        assert stats["misses"] == misses == 6
        assert stats["hits"] == 6

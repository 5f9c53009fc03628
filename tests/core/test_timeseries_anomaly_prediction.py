import numpy as np
import pytest

from repro.core.anomaly import (
    EwmaDetector,
    RobustRuntimeDetector,
    detector_from_events,
    scan_archive,
)
from repro.core.prediction import (
    estimate_remaining_runtime,
    failure_score,
    failure_signals,
)
from repro.core.timeseries import bundle_progress, throughput_series
from repro.dart.sweep import sweep_grid
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.netlogger.events import NLEvent
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender

from tests.helpers import diamond_events


@pytest.fixture(scope="module")
def dart_loaded():
    sink = MemoryAppender()
    commands = [c.line for c in sweep_grid()[:24]]
    res = run_dart_experiment(sink, seed=5, n_nodes=3, chunk_size=8,
                              commands=commands)
    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    root = q.workflow_by_uuid(res.root_xwf_id)
    return q, root, res


class TestBundleProgress:
    def test_one_series_per_bundle(self, dart_loaded):
        q, root, res = dart_loaded
        series = bundle_progress(q, root.wf_id)
        assert len(series) == 3

    def test_monotone_cumulative(self, dart_loaded):
        q, root, _ = dart_loaded
        for s in bundle_progress(q, root.wf_id):
            values = [p[1] for p in s.points]
            assert values == sorted(values)
            assert s.final_cumulative_runtime > 0
            assert s.completion_time > 0

    def test_final_matches_invocation_sum(self, dart_loaded):
        q, root, _ = dart_loaded
        for s in bundle_progress(q, root.wf_id):
            total = sum(i.remote_duration for i in q.invocations(s.wf_id))
            assert s.final_cumulative_runtime == pytest.approx(total)

    def test_sampling(self, dart_loaded):
        q, root, _ = dart_loaded
        (s, *_) = bundle_progress(q, root.wf_id)
        times = np.linspace(0, s.completion_time, 50)
        sampled = s.sample(times)
        assert sampled[0] <= sampled[-1]
        assert sampled[-1] == pytest.approx(s.final_cumulative_runtime)
        # before anything completed: zero
        assert s.sample(np.array([-1.0]))[0] == 0.0

    def test_throughput_series(self, dart_loaded):
        q, root, _ = dart_loaded
        times, counts = throughput_series(q, root.wf_id, bin_seconds=30.0)
        assert counts.sum() == 24 + 3 * 3 + 1  # execs + aux + monitor
        assert len(times) == len(counts)

    def test_empty_throughput(self):
        loader = load_events([])
        q = StampedeQuery(loader.archive)
        times, counts = throughput_series(q, wf_id=1)
        assert len(times) == 0


class TestRobustDetector:
    def test_flags_slow_outlier(self):
        det = RobustRuntimeDetector(threshold=4.0, min_samples=5)
        for _ in range(30):
            det.observe("t", 10.0 + np.random.default_rng(1).normal(0, 0.1))
        anomaly = det.observe("t", 100.0)
        assert anomaly is not None
        assert anomaly.kind == "slow"
        assert anomaly.score > 4.0

    def test_cold_start_suppression(self):
        det = RobustRuntimeDetector(min_samples=5)
        for value in (1.0, 100.0, 1.0, 100.0):
            assert det.observe("t", value) is None

    def test_normal_variation_not_flagged(self):
        rng = np.random.default_rng(2)
        det = RobustRuntimeDetector(threshold=5.0)
        anomalies = [
            det.observe("t", float(rng.normal(60, 5))) for _ in range(500)
        ]
        flagged = [a for a in anomalies if a is not None]
        assert len(flagged) < 5  # << 1% false positive rate

    def test_failures_flagged(self):
        det = RobustRuntimeDetector()
        anomaly = det.observe("t", 5.0, exitcode=1)
        assert anomaly is not None and anomaly.kind == "failure"

    def test_constant_runtimes_degenerate_window(self):
        det = RobustRuntimeDetector(min_samples=3)
        for _ in range(10):
            det.observe("t", 10.0)
        anomaly = det.observe("t", 20.0)
        assert anomaly is not None and anomaly.kind == "slow"

    def test_per_type_isolation(self):
        det = RobustRuntimeDetector(min_samples=3)
        for _ in range(10):
            det.observe("fast", 1.0)
            det.observe("slow", 100.0)
        assert det.observe("slow", 100.0) is None  # normal for its type
        assert det.baseline("fast") == 1.0
        assert det.baseline("unseen") is None

    def test_observe_event(self):
        det = RobustRuntimeDetector(min_samples=2)
        for i in range(5):
            ev = NLEvent(
                "stampede.inv.end", float(i),
                {"transformation": "t", "dur": 10.0, "exitcode": 0,
                 "job.id": f"j{i}"},
            )
            det.observe_event(ev)
        assert det.observations == 5
        ignored = det.observe_event(NLEvent("stampede.xwf.start", 0.0))
        assert ignored is None

    def test_detector_from_events_stream(self):
        events = diamond_events(fail_job="c")
        det = detector_from_events(events)
        assert any(a.kind == "failure" for a in det.anomalies)

    def test_scan_archive(self, dart_loaded):
        q, root, _ = dart_loaded
        det = scan_archive(q, root.wf_id)
        assert det.observations == 24 + 3 * 3 + 1
        # clean run: no failures flagged
        assert not any(a.kind == "failure" for a in det.anomalies)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RobustRuntimeDetector(threshold=0)


class TestEwmaDetector:
    def test_flags_outlier(self):
        det = EwmaDetector(alpha=0.2, threshold=4.0, min_samples=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            det.observe("t", float(rng.normal(10, 0.5)))
        anomaly = det.observe("t", 50.0)
        assert anomaly is not None and anomaly.kind == "slow"

    def test_adapts_to_drift(self):
        det = EwmaDetector(alpha=0.3, threshold=6.0)
        for i in range(200):
            det.observe("t", 10.0 + i * 0.05)  # slow drift
        assert det.mean("t") > 15.0
        assert len(det.anomalies) == 0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.0)


class TestPrediction:
    def test_remaining_zero_when_done(self, dart_loaded):
        q, root, _ = dart_loaded
        est = estimate_remaining_runtime(q, root.wf_id)
        assert est.pending_tasks == 0
        assert est.remaining_wall_seconds == 0.0
        assert est.observed_parallelism >= 1.0

    def test_remaining_for_partial_run(self):
        # replay only the first half of a diamond run
        events = diamond_events()
        half = events[: len(events) // 2 + 4]
        loader = load_events(half)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        est = estimate_remaining_runtime(q, wf.wf_id)
        assert est.pending_tasks > 0
        assert est.remaining_serial_seconds > 0

    def test_failure_signals_clean_run(self):
        loader = load_events(diamond_events())
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        signals = failure_signals(q, wf.wf_id)
        assert signals.failure_fraction == 0.0
        assert failure_score(signals) < 0.1

    def test_failure_signals_bad_run(self):
        loader = load_events(
            diamond_events(fail_job="c", retries={"b": 2, "d": 2})
        )
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        signals = failure_signals(q, wf.wf_id)
        assert signals.failure_fraction > 0.3
        assert failure_score(signals) > 0.5

    def test_score_monotone_in_recent_failures(self):
        from repro.core.prediction import FailureSignals

        low = FailureSignals(10, 0.1, 0.0, 0.0, 0.0)
        high = FailureSignals(10, 0.1, 0.0, 0.9, 0.0)
        assert failure_score(high) > failure_score(low)

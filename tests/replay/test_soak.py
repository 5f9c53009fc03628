"""The soak driver: storm + chaos + kill/resume, and its gates."""
import pytest

from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.store import StampedeArchive
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.faults.plan import FaultPlan
from repro.loader.checkpoint import CheckpointManager
from repro.loader.nl_load import load_events, load_from_bus
from repro.loader.stampede_loader import StampedeLoader
from repro.replay.shape import ConstantRate
from repro.replay.soak import run_soak, storm_stream
from repro.replay.trace import repeat_trace, trace_from_events

from tests.helpers import diamond_events

CHAOS = {
    "seed": 4321,
    "bus": {"drop": 0.08, "duplicate": 0.08, "reorder": 0.08, "reorder_depth": 4},
}


def small_storm(copies=40):
    return repeat_trace(trace_from_events(diamond_events()), copies, salt="soak-test")


class TestRunSoak:
    def test_chaos_kill_resume_storm_passes_all_gates(self, tmp_path):
        storm = small_storm()
        report = run_soak(
            storm,
            str(tmp_path),
            plan=FaultPlan.from_dict(CHAOS),
            shape=ConstantRate(20_000),
            batch_size=50,
            queue_max=500,
            min_throughput=10.0,
        )
        assert report.killed and report.resumed
        assert report.faults["total_injected"] > 0  # chaos actually armed
        assert report.row_diff == []
        assert report.dlq_events == 0 and report.broker_dlq_depth == 0
        assert report.stranded_messages == 0
        assert report.events == len(storm)
        assert report.passed, [g.to_dict() for g in report.gates if not g.ok]

    def test_clean_run_without_kill(self, tmp_path):
        report = run_soak(
            small_storm(copies=10),
            str(tmp_path),
            plan=None,
            kill=False,
            batch_size=50,
            min_throughput=10.0,
        )
        assert not report.killed and not report.resumed
        assert report.faults == {}
        assert "kill_resume" not in {g.name for g in report.gates}
        assert report.passed

    def test_trace_factory_streams_and_counts(self, tmp_path):
        base = trace_from_events(diamond_events())
        report = run_soak(
            lambda: storm_stream(base, 5, salt="factory"),
            str(tmp_path),
            kill=False,
            batch_size=50,
            min_throughput=10.0,
        )
        assert report.events == 5 * len(base)
        assert report.row_diff == []
        assert report.passed

    def test_failed_gate_fails_the_report(self, tmp_path):
        report = run_soak(
            small_storm(copies=5),
            str(tmp_path),
            kill=False,
            batch_size=50,
            min_throughput=1e12,  # unreachable on purpose
        )
        assert not report.passed
        failed = {g.name for g in report.gates if not g.ok}
        assert failed == {"throughput_ev_s"}
        assert report.to_dict()["passed"] is False

    def test_report_serializes(self, tmp_path):
        report = run_soak(
            small_storm(copies=3),
            str(tmp_path),
            kill=False,
            batch_size=50,
            min_throughput=1.0,
        )
        data = report.to_dict()
        assert data["row_identical"] is True
        assert {g["name"] for g in data["gates"]} >= {"row_diff", "dlq_leakage"}
        assert isinstance(report.to_json(), str)


class TestResequencerFloorCheckpoint:
    """The loader change the soak leans on: per-publisher sequence floors
    survive a kill, so the resumed resequencer never treats the tail of
    the stream as a giant gap (and never discards chaos-delayed
    redeliveries as stale)."""

    def test_floor_is_checkpointed_and_restored(self, tmp_path):
        events = diamond_events()
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        publisher = EventPublisher(broker, publisher_id="pub-A")
        for event in events:
            publisher.publish(event)

        db = f"sqlite:///{tmp_path}/resume.db"
        archive = StampedeArchive.open(db)
        loader = StampedeLoader(
            archive, batch_size=5, checkpoint=CheckpointManager(archive, "q")
        )
        original, seen = loader.process, []

        def dying(event):
            if len(seen) >= 12:
                raise RuntimeError("killed mid-stream")
            seen.append(event)
            original(event)

        loader.process = dying
        with pytest.raises(RuntimeError):
            load_from_bus(
                broker,
                queue_name="q",
                durable=True,
                loader=loader,
                until=lambda _ld: len(broker.queue("q")) == 0,
                poll_timeout=0.01,
            )
        archive.close()

        archive2 = StampedeArchive.open(db)
        loader2 = StampedeLoader(
            archive2, batch_size=5, checkpoint=CheckpointManager(archive2, "q")
        )
        loader2.resume()
        # the committed prefix's sequences are behind us: floor > 1
        assert loader2.resumed_reseq.get("pub-A", 1) > 1

    def test_resumed_load_is_lossless(self, tmp_path):
        events = diamond_events()
        baseline_loader = load_events(events)
        baseline = canonical_dump(baseline_loader.archive)
        baseline_loader.archive.close()

        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        publisher = EventPublisher(broker, publisher_id="pub-A")
        for event in events:
            publisher.publish(event)

        db = f"sqlite:///{tmp_path}/resume.db"
        archive = StampedeArchive.open(db)
        loader = StampedeLoader(
            archive, batch_size=5, checkpoint=CheckpointManager(archive, "q")
        )
        original, seen = loader.process, []

        def dying(event):
            if len(seen) >= 12:
                raise RuntimeError("killed mid-stream")
            seen.append(event)
            original(event)

        loader.process = dying
        with pytest.raises(RuntimeError):
            load_from_bus(
                broker,
                queue_name="q",
                durable=True,
                loader=loader,
                until=lambda _ld: len(broker.queue("q")) == 0,
                poll_timeout=0.01,
            )
        archive.close()

        archive2 = StampedeArchive.open(db)
        loader2 = StampedeLoader(
            archive2, batch_size=5, checkpoint=CheckpointManager(archive2, "q")
        )
        load_from_bus(
            broker,
            queue_name="q",
            durable=True,
            loader=loader2,
            resume=True,
            until=lambda _ld: len(broker.queue("q")) == 0,
            poll_timeout=0.01,
        )
        diff = diff_canonical(baseline, canonical_dump(archive2))
        archive2.close()
        assert diff == []

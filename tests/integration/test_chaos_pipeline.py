"""The chaos acceptance suite: end-to-end resilience of the pipeline.

One seeded :class:`FaultPlan` throws everything at the loader at once —
message drops, duplicate deliveries, reorderings, a forced consumer
disconnect, injected archive lock failures, poison payloads — and the
final archive must still come out **row for row identical** (surrogate
keys included) to a fault-free baseline run.  That identity is the
paper-level claim the resilience layer exists to defend: monitoring data
is not allowed to be lost, duplicated, or misordered by infrastructure
failures.
"""
import json

import pytest

from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.faults import ChaosBroker, FaultPlan
from repro.loader.dlq import DLQ_TABLE
from repro.loader.nl_load import load_from_bus, make_loader
from repro.loader.nl_load import main as nl_load_main
from repro.netlogger.stream import write_events

from tests.helpers import diamond_events
from tests.loader.test_checkpoint_resume import dump_archive

QUEUE = "stampede"

#: the acceptance scenario from the issue: drops + duplicates + reorders,
#: one forced consumer disconnect mid-stream, two archive lock failures
CHAOS_SPEC = {
    "seed": 1234,
    "bus": {
        "drop": 0.15,
        "duplicate": 0.15,
        "reorder": 0.15,
        "reorder_depth": 4,
        "disconnect_after": [30],
    },
    "archive": {"fail_transactions": [2, 5]},
}

POISON = [
    "ts=garbage this is not a BP line",
    "event=stampede.inv.end level=Info",  # missing its timestamp
]


def bind_queue(broker):
    broker.declare_queue(QUEUE, durable=True)
    broker.bind_queue(QUEUE, "stampede.#")


def publish_stream(broker, poison=False):
    """The diamond event stream; optionally two poison payloads mixed in.

    Poison messages are stamped under their own publisher id so chaos
    duplicates of them dedupe like any other message — a quarantine must
    happen exactly once per distinct poison event.
    """
    publisher = EventPublisher(broker)
    events = diamond_events()
    for i, event in enumerate(events):
        if poison and i in (10, 35):
            n = 1 if i == 10 else 2
            broker.publish(
                "stampede.inv.end",
                POISON[n - 1],
                headers={"x-publisher": "poison-pub", "x-seq": n},
            )
        publisher.publish(event)
    return len(events)


def baseline_run():
    broker = Broker()
    bind_queue(broker)
    publish_stream(broker)
    loader = make_loader(batch_size=10)
    load_from_bus(broker, queue_name=QUEUE, durable=True, loader=loader)
    return loader


def chaos_run(spec=CHAOS_SPEC, poison=True):
    plan = FaultPlan.from_dict(spec)
    broker = ChaosBroker(plan)
    bind_queue(broker)
    publish_stream(broker, poison=poison)
    loader = make_loader(batch_size=10)
    loader.archive.db = plan.wrap_database(loader.archive.db)
    load_from_bus(
        broker, queue_name=QUEUE, durable=True, loader=loader, dead_letter=True
    )
    return loader, plan


class TestChaosAcceptance:
    def test_archive_identical_to_fault_free_baseline(self):
        baseline = dump_archive(baseline_run().archive)
        loader, plan = chaos_run()

        # the chaos actually happened...
        stats = plan.stats
        assert stats.messages_dropped > 0
        assert stats.messages_duplicated > 0
        assert stats.messages_reordered > 0
        assert stats.disconnects == 1
        assert stats.archive_faults == 2
        assert stats.total_injected > 0

        # ...the resilience layer observed and survived it...
        lstats = loader.stats
        assert lstats.redelivered_events > 0
        assert lstats.duplicates_skipped > 0
        assert lstats.reconnects == 1
        assert lstats.retries >= 2

        # ...and the archive is row-for-row what a clean run produces
        assert dump_archive(loader.archive) == baseline

    def test_poison_events_quarantined_exactly_once(self):
        loader, _ = chaos_run()
        # stamped poisons dedupe like any delivery: exactly one
        # quarantine per distinct poison event, chaos notwithstanding
        assert loader.stats.dlq_events == 2
        assert loader.archive.db.count(DLQ_TABLE) == 2

    def test_chaos_is_reproducible_from_the_seed(self):
        first_loader, first_plan = chaos_run()
        second_loader, second_plan = chaos_run()
        assert first_plan.stats.to_dict() == second_plan.stats.to_dict()
        assert (
            first_loader.stats.duplicates_skipped
            == second_loader.stats.duplicates_skipped
        )
        assert dump_archive(first_loader.archive) == dump_archive(
            second_loader.archive
        )

    def test_bus_only_chaos_needs_no_dead_letter(self):
        spec = {
            "seed": 77,
            "bus": {"drop": 0.2, "duplicate": 0.2, "reorder": 0.2},
        }
        baseline = dump_archive(baseline_run().archive)
        loader, plan = chaos_run(spec=spec, poison=False)
        assert plan.stats.total_injected > 0
        assert dump_archive(loader.archive) == baseline


class TestFaultsCLI:
    def test_nl_load_runs_under_a_fault_plan(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"seed": 5, "archive": {"fail_transactions": [1]}}))
        rc = nl_load_main(
            [
                str(bp),
                "stampede_loader",
                "connString=sqlite:///:memory:",
                "--faults",
                str(spec),
                "-v",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "retries" in out

    def test_bad_fault_spec_is_a_clean_error(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"bus": {"no_such_fault": 1}}))
        from repro.faults import FaultPlanError

        with pytest.raises(FaultPlanError):
            nl_load_main([str(bp), "--faults", str(spec)])

"""Chaos smoke benchmark: the resilience layer under a seeded fault plan.

Runs one Pegasus/CyberShake event stream through the pipeline twice —
once over a clean broker and archive, once through a :class:`FaultPlan`
injecting message drops, duplicates, reorders, a forced consumer
disconnect, transient archive lock failures, and poison payloads — then
checks the chaotic archive is **row-for-row identical** (surrogate keys
included) to the fault-free baseline and that every poison event landed
in the dead-letter queue. That identity is the resilience layer's whole
contract; a mismatch is a regression and exits nonzero.

Standalone, for CI::

    python benchmarks/bench_chaos.py --scale 5 --seed 1234 -o chaos-smoke.json

The JSON output records the injected-fault counters (what the plan threw
at the pipeline) alongside the recovery counters (what the loader did
about it), so a PR artifact shows both sides of every chaos run.
"""
import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.faults import ChaosBroker, FaultPlan
from repro.loader.nl_load import load_from_bus, make_loader
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

QUEUE = "stampede"

ALL_ROWS = [
    WorkflowRow,
    WorkflowStateRow,
    TaskRow,
    TaskEdgeRow,
    JobRow,
    JobEdgeRow,
    JobInstanceRow,
    JobStateRow,
    InvocationRow,
    HostRow,
]

POISON_BODY = "ts=garbage this is not a BP line"


def _chaos_spec(seed: int) -> dict:
    """The acceptance scenario at smoke scale: drops + duplicates +
    reorders, one forced consumer disconnect, two archive lock failures."""
    return {
        "seed": seed,
        "bus": {
            "drop": 0.1,
            "duplicate": 0.1,
            "reorder": 0.1,
            "reorder_depth": 4,
            "disconnect_after": [40],
        },
        "archive": {"fail_transactions": [2, 5]},
    }


def _events_for(n_ruptures: int, seed: int = 0):
    sink = MemoryAppender()
    catalog = SiteCatalog(
        [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
    )
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=catalog,
        planner_config=PlannerConfig(cluster_size=8),
        seed=seed,
    )
    return list(sink.events)


def _dump(archive) -> dict:
    """Every row of every Fig. 3 table, surrogate keys included."""
    return {
        row_type.__name__: sorted(
            dataclasses.astuple(r) for r in archive.query(row_type).all()
        )
        for row_type in ALL_ROWS
    }


def _publish(broker, events, poison_every: int = 0) -> int:
    """Bind the loader queue, publish the stream, optionally mixing in
    poison payloads every ``poison_every`` events.

    Poison messages are stamped under their own publisher id so chaos
    duplicates of them dedupe like any other delivery — the DLQ must end
    up with exactly one entry per distinct poison event.
    """
    broker.declare_queue(QUEUE, durable=True)
    broker.bind_queue(QUEUE, "stampede.#")
    publisher = EventPublisher(broker)
    poisoned = 0
    for i, event in enumerate(events):
        if poison_every and i and i % poison_every == 0:
            poisoned += 1
            broker.publish(
                "stampede.inv.end",
                POISON_BODY,
                headers={"x-publisher": "poison-pub", "x-seq": poisoned},
            )
        publisher.publish(event)
    return poisoned


def _recovery_stats(stats) -> dict:
    return {
        "events_processed": stats.events_processed,
        "rows_inserted": stats.rows_inserted,
        "flushes": stats.flushes,
        "retries": stats.retries,
        "redelivered_events": stats.redelivered_events,
        "duplicates_skipped": stats.duplicates_skipped,
        "reconnects": stats.reconnects,
        "dlq_events": stats.dlq_events,
        "spilled_events": stats.spilled_events,
        "spill_drains": stats.spill_drains,
        "archive_outages": stats.archive_outages,
    }


def _baseline_run(events, batch_size: int):
    broker = Broker()
    _publish(broker, events)
    loader = make_loader(batch_size=batch_size)
    start = time.perf_counter()
    load_from_bus(broker, queue_name=QUEUE, durable=True, loader=loader)
    return loader, time.perf_counter() - start


def _chaos_run(events, seed: int, batch_size: int, poison_every: int):
    plan = FaultPlan.from_dict(_chaos_spec(seed))
    broker = ChaosBroker(plan)
    poisoned = _publish(broker, events, poison_every=poison_every)
    loader = make_loader(batch_size=batch_size)
    loader.archive.db = plan.wrap_database(loader.archive.db)
    start = time.perf_counter()
    load_from_bus(
        broker, queue_name=QUEUE, durable=True, loader=loader, dead_letter=True
    )
    return loader, plan, poisoned, time.perf_counter() - start


def smoke(
    n_ruptures: int = 5,
    seed: int = 1234,
    batch_size: int = 100,
    poison_every: int = 150,
) -> dict:
    events = _events_for(n_ruptures)
    clean_loader, clean_wall = _baseline_run(events, batch_size)
    loader, plan, poisoned, chaos_wall = _chaos_run(
        events, seed, batch_size, poison_every
    )
    baseline_match = _dump(loader.archive) == _dump(clean_loader.archive)
    return {
        "scale": {"n_ruptures": n_ruptures, "events": len(events)},
        "seed": seed,
        "batch_size": batch_size,
        "poison_published": poisoned,
        "injected": plan.stats.to_dict(),
        "recovery": _recovery_stats(loader.stats),
        "baseline": {
            "wall_seconds": clean_wall,
            "rows_inserted": clean_loader.stats.rows_inserted,
        },
        "chaos_wall_seconds": chaos_wall,
        "baseline_match": baseline_match,
        "poison_all_quarantined": loader.stats.dlq_events == poisoned,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos resilience smoke benchmark (JSON output)."
    )
    parser.add_argument("--scale", type=int, default=5, metavar="N_RUPTURES")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("-b", "--batch-size", type=int, default=100)
    parser.add_argument(
        "--poison-every",
        type=int,
        default=150,
        help="inject a poison payload every N events (0 disables)",
    )
    parser.add_argument("-o", "--output", metavar="PATH", help="write JSON here")
    args = parser.parse_args(argv)

    results = smoke(
        n_ruptures=args.scale,
        seed=args.seed,
        batch_size=args.batch_size,
        poison_every=args.poison_every,
    )
    payload = json.dumps(results, indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
    print(payload)

    # the smoke gates: chaos must actually have happened, and the
    # resilience layer must have erased every trace of it from the data
    if results["injected"]["total_injected"] == 0:
        print("FAIL: the fault plan injected nothing", file=sys.stderr)
        return 1
    if not results["baseline_match"]:
        print(
            "FAIL: chaos archive diverged from the fault-free baseline",
            file=sys.stderr,
        )
        return 1
    if not results["poison_all_quarantined"]:
        print(
            f"FAIL: {results['poison_published']} poison event(s) published "
            f"but {results['recovery']['dlq_events']} quarantined",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

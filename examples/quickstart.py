#!/usr/bin/env python
"""Quickstart: monitor one workflow end-to-end in ~40 lines.

Builds a small Triana task graph, executes it with Stampede logging onto
an in-process AMQP bus, loads the events into a relational archive with
nl_load, and prints the stampede-statistics reports.

Run:  python examples/quickstart.py
"""
from repro.bus.broker import Broker
from repro.bus.client import BusSink, EventConsumer
from repro.core.reports import render_all
from repro.core.statistics import workflow_statistics
from repro.loader.nl_load import make_loader
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, ConstantUnit, GatherUnit
from repro.util.uuidgen import UUIDFactory


def main() -> None:
    # 1. a four-task diamond workflow: load -> (clean, stats) -> report
    graph = TaskGraph("quickstart")
    load = graph.add(ConstantUnit("load", list(range(100)), seconds=2.0))
    clean = graph.add(
        CallableUnit("clean", lambda ins: [x for x in ins[0] if x % 2 == 0],
                     seconds=5.0)
    )
    stats = graph.add(
        CallableUnit("stats", lambda ins: sum(ins[0]) / len(ins[0]), seconds=4.0)
    )
    report = graph.add(GatherUnit("report", seconds=1.0))
    graph.connect(load, clean)
    graph.connect(load, stats)
    graph.connect(clean, report)
    graph.connect(stats, report)

    # 2. wire the engine to the monitoring bus
    broker = Broker()
    consumer = EventConsumer(broker, "stampede.#", queue_name="monitoring")
    scheduler = Scheduler(graph, seed=0)
    StampedeLog(scheduler, BusSink(broker), xwf_id=UUIDFactory(0).new())

    # 3. run (on the virtual clock: finishes instantly in real time)
    engine_report = scheduler.run()
    print(f"engine: {engine_report.completed} tasks completed, "
          f"wall time {engine_report.wall_time:.1f}s (simulated)\n")

    # 4. load the event stream into the archive
    loader = make_loader("sqlite:///:memory:")
    loader.process_all(consumer.drain())

    # 5. query it with stampede-statistics
    print(render_all(workflow_statistics(loader.archive)))


if __name__ == "__main__":
    main()

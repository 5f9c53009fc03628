#!/usr/bin/env python
"""Real-time monitoring: bus-fed loader + the embedded web dashboard.

Reproduces the paper's deployment loop (Fig. 1): the engine publishes to
the AMQP bus while nl_load drains the queue into the archive on a loader
thread, and the Python dashboard serves live status over HTTP.

Run:  python examples/streaming_dashboard.py
(The dashboard binds an ephemeral localhost port; the script fetches its
own endpoints to show what a browser would see, then exits.)
"""
import json
import threading
import urllib.request

from repro.bus.broker import Broker
from repro.bus.client import BusSink
from repro.core.dashboard import Dashboard
from repro.dart.sweep import sweep_grid
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_from_bus, make_loader
from repro.model.entities import WorkflowStateRow


def main() -> None:
    broker = Broker()
    broker.declare_queue("stampede", durable=True)
    broker.bind_queue("stampede", "stampede.#")
    loader = make_loader("sqlite:///:memory:")

    # loader thread: drains the bus until every workflow has terminated
    def consume():
        load_from_bus(
            broker,
            queue_name="stampede",
            durable=True,
            loader=loader,
            until=lambda ld: ld.archive.query(WorkflowStateRow)
            .eq("state", "WORKFLOW_TERMINATED").count() >= 5,  # root + 4
        )

    thread = threading.Thread(target=consume)
    thread.start()

    # a scaled-down DART run publishing live to the bus
    commands = [c.line for c in sweep_grid()[:32]]
    result = run_dart_experiment(
        BusSink(broker), seed=0, n_nodes=4, chunk_size=8, commands=commands
    )
    thread.join(timeout=30)
    print(f"run complete ({result.n_bundles} bundles); "
          f"loader stored {loader.stats.rows_inserted} rows\n")

    with Dashboard(loader.archive) as dash:
        print(f"dashboard serving at {dash.url}\n")

        def get(path):
            with urllib.request.urlopen(dash.url + path, timeout=5) as resp:
                return json.loads(resp.read())

        workflows = get("/api/workflows")["workflows"]
        print("GET /api/workflows ->")
        for wf in workflows:
            print(f"  wf_id={wf['wf_id']} {wf['state']:8s} {wf['dag_file_name']}")

        root = next(w for w in workflows if w["parent_wf_id"] is None)
        summary = get(f"/api/workflow/{root['wf_id']}")
        print(f"\nGET /api/workflow/{root['wf_id']} ->")
        print(f"  wall_time: {summary['wall_time']:.0f}s")
        print(f"  cumulative: {summary['cumulative_job_wall_time']:.0f}s")
        print(f"  tasks: {summary['counts']['tasks_succeeded']}"
              f"/{summary['counts']['tasks_total']} succeeded")


if __name__ == "__main__":
    main()

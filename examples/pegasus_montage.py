#!/usr/bin/env python
"""Pegasus-style run: plan a Montage mosaic workflow and execute it.

Demonstrates the planning stage Triana lacks — task clustering and
auxiliary stage-in/stage-out jobs — and shows the SAME monitoring tools
reporting on the result, which is the paper's generality claim.

Run:  python examples/pegasus_montage.py
"""
from repro.core.reports import render_all
from repro.core.statistics import workflow_statistics
from repro.loader.nl_load import load_events
from repro.pegasus import Planner, PlannerConfig, Site, SiteCatalog, DAGManRun
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import montage


def main() -> None:
    aw = montage(n_images=16)
    print(f"abstract workflow: {len(aw)} tasks, {len(aw.edges())} edges, "
          f"critical path {aw.critical_path_seconds():.0f}s")

    catalog = SiteCatalog(
        [
            Site("local", slots=2, mean_queue_delay=0.1, hosts_per_site=1),
            Site("grid", slots=16, mean_queue_delay=6.0, hosts_per_site=8,
                 speed_factor=0.8),
        ]
    )
    planner = Planner(
        catalog,
        PlannerConfig(cluster_size=4, add_registration=True, add_cleanup=True),
    )
    ew = planner.plan(aw)
    clustered = sum(1 for j in ew.compute_jobs() if j.clustered)
    print(f"executable workflow: {len(ew)} jobs "
          f"({clustered} clustered, "
          f"{len(ew) - len(ew.compute_jobs())} auxiliary)\n")

    sink = MemoryAppender()
    run = DAGManRun(aw, ew, sink, catalog=catalog, seed=7)
    report = run.run()
    print(f"DAGMan: {report.succeeded} jobs succeeded, "
          f"{report.retries} retries, wall time {report.wall_time:.0f}s\n")

    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    print(render_all(workflow_statistics(q)))


if __name__ == "__main__":
    main()

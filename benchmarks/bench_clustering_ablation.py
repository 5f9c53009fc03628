"""Clustering ablation (the planner design choice §VII motivates:
"if a user notices that there are long scheduling delays, they may choose
to restructure their workflows so that each job does a larger unit of
work").

Sweeps cluster_size over a queue-delay-dominated site and measures: jobs
submitted, total queue time paid, events emitted, and makespan.  Expected
shape: clustering cuts per-job queue overhead and event volume, at the
cost of reduced parallelism at large cluster sizes.
"""
import pytest

from repro.loader.nl_load import load_events
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

RESULTS = {}


def _run(cluster_size: int):
    catalog = SiteCatalog(
        [Site("queueing", slots=16, mean_queue_delay=20.0, hosts_per_site=8)]
    )
    sink = MemoryAppender()
    run = run_pegasus_workflow(
        cybershake(n_ruptures=40),
        sink,
        catalog=catalog,
        planner_config=PlannerConfig(cluster_size=cluster_size),
        seed=1,
    )
    return sink, run


@pytest.mark.parametrize("cluster_size", [1, 4, 16])
def test_clustering_ablation(benchmark, cluster_size):
    sink, run = _run(cluster_size)

    loader = benchmark(lambda: load_events(sink.events, batch_size=500))
    q = StampedeQuery(loader.archive)
    wf = q.workflows()[0]
    details = q.job_details(wf.wf_id)
    total_queue = sum(d.queue_time or 0.0 for d in details)
    RESULTS[cluster_size] = {
        "jobs": len(details),
        "events": len(sink.events),
        "queue": total_queue,
        "makespan": run.report.wall_time,
    }
    print(
        f"\ncluster={cluster_size}: {len(details)} jobs, "
        f"{len(sink.events)} events, total queue {total_queue:.0f}s, "
        f"makespan {run.report.wall_time:.0f}s"
    )
    if len(RESULTS) == 3:
        # more clustering -> fewer jobs, fewer events, less queue time paid
        assert RESULTS[1]["jobs"] > RESULTS[4]["jobs"] > RESULTS[16]["jobs"]
        assert RESULTS[1]["events"] > RESULTS[16]["events"]
        assert RESULTS[1]["queue"] > RESULTS[16]["queue"]


def test_normalizer_throughput(benchmark):
    """The raw-log path (jobstate + kickstart -> BP events) keeps up."""
    from repro.pegasus import (
        DAGManRun,
        Planner,
        PlannerConfig,
        RawLogRecorder,
        normalize_run,
    )

    catalog = SiteCatalog(
        [Site("pool", slots=32, mean_queue_delay=1.0, hosts_per_site=8)]
    )
    planner = Planner(catalog, PlannerConfig(cluster_size=4))
    aw = cybershake(n_ruptures=60)
    ew = planner.plan(aw)
    recorder = RawLogRecorder()
    sink = MemoryAppender()
    run = DAGManRun(aw, ew, sink, catalog=catalog, seed=2,
                    raw_recorder=recorder)
    run.run()

    events = benchmark(
        normalize_run, aw, ew, run.xwf_id, recorder.jobstate,
        recorder.kickstart,
    )
    rate = len(events) / benchmark.stats.stats.mean
    print(f"\nnormalizer: {len(events)} events at {rate:,.0f} events/s")
    assert rate > 5_000

#!/usr/bin/env python
"""Corpus mining across many runs (the paper's §VIII future work).

Executes an ensemble of workflows — Montage, Epigenomics, LIGO Inspiral
and CyberShake shapes over two sites — into ONE archive, then mines it:

* per-transformation runtime distributions across all runs,
* per-site reliability and queueing,
* cross-run runtime prediction for a new (bigger) workflow, checked
  against an actual run of that workflow.

Run:  python examples/corpus_mining.py
"""
from repro.core.corpus import build_corpus_report, predict_workflow_runtime
from repro.loader.nl_load import make_loader
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake, epigenomics, ligo_inspiral, montage


def main() -> None:
    catalog = SiteCatalog(
        [
            Site("campus_cluster", slots=24, mean_queue_delay=3.0,
                 hosts_per_site=12),
            Site("osg_pool", slots=64, mean_queue_delay=15.0,
                 failure_rate=0.10, speed_factor=1.3, hosts_per_site=32),
        ]
    )
    ensemble = [
        ("montage", lambda s: montage(n_images=12), 3),
        ("epigenomics", lambda s: epigenomics(n_lanes=3, splits_per_lane=3), 2),
        ("ligo", lambda s: ligo_inspiral(n_blocks=3, templates_per_block=4), 2),
        ("cybershake", lambda s: cybershake(n_ruptures=25), 1),
    ]
    loader = make_loader("sqlite:///:memory:")
    total_runs = 0
    run_seed = 0  # unique per run: seeds determine the workflow UUIDs
    for name, factory, repeats in ensemble:
        for seed in range(repeats):
            run_seed += 1
            sink = MemoryAppender()
            run = run_pegasus_workflow(
                factory(seed), sink, catalog=catalog,
                planner_config=PlannerConfig(cluster_size=4), seed=run_seed,
            )
            loader.process_all(sink.events)
            total_runs += 1
            print(f"  ran {name} (seed {seed}): "
                  f"{run.report.succeeded} jobs, {run.report.retries} retries, "
                  f"{run.report.wall_time:.0f}s")
    print(f"\narchive holds {total_runs} runs; mining...\n")

    query = StampedeQuery(loader.archive)
    corpus = build_corpus_report(query)
    print(f"corpus: {corpus.workflows} workflows, "
          f"{corpus.total_invocations} invocations, "
          f"{len(corpus.transformations)} transformation types\n")

    print("slowest transformations (mean seconds across all runs):")
    for profile in corpus.slowest_transformations(top=6):
        print(f"  {profile.transformation:22s} n={profile.invocations:4d} "
              f"mean={profile.mean:7.1f}  p95={profile.p95:7.1f}  "
              f"fail={profile.failure_rate:.1%}")

    print("\nsite reliability:")
    for site in corpus.least_reliable_sites():
        print(f"  {site.site:16s} instances={site.instances:4d} "
              f"failure_rate={site.failure_rate:.1%} "
              f"mean_queue={site.mean_queue_time:.1f}s")

    # provisioning: predict a new, larger Montage before running it
    new_aw = montage(n_images=30)
    prediction = predict_workflow_runtime(new_aw, corpus, parallelism=24)
    print(f"\nprediction for montage(n_images=30) at parallelism 24:")
    print(f"  serial work     : {prediction['serial_seconds']:.0f}s")
    print(f"  critical path   : {prediction['critical_path_seconds']:.0f}s")
    print(f"  queue overhead  : {prediction['queue_overhead_seconds']:.0f}s")
    print(f"  predicted wall  : {prediction['predicted_wall_seconds']:.0f}s "
          f"(coverage {prediction['coverage']:.0%})")

    sink = MemoryAppender()
    actual = run_pegasus_workflow(
        new_aw, sink, catalog=catalog,
        planner_config=PlannerConfig(cluster_size=4), seed=999,
    )
    print(f"  actual wall     : {actual.report.wall_time:.0f}s")


if __name__ == "__main__":
    main()

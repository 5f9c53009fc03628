#!/usr/bin/env python
"""Troubleshooting with stampede-analyzer and the anomaly detector.

Runs a CyberShake-shaped workflow on a flaky site (transient failures +
one permanently broken transformation + injected stragglers), then:

* stampede_analyzer drills into the failures with captured stderr;
* the online anomaly detector flags the stragglers that succeeded but
  ran far outside their type's runtime distribution.

Run:  python examples/troubleshooting_failures.py
"""
import numpy as np

from repro.core.analyzer import analyze, render_analysis
from repro.core.anomaly import RobustRuntimeDetector, scan_archive
from repro.core.prediction import failure_score, failure_signals
from repro.loader.nl_load import load_events
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake


def main() -> None:
    aw = cybershake(n_ruptures=20)
    # inject stragglers: a few synthesis tasks are 10x slower
    rng = np.random.default_rng(0)
    straggler_ids = []
    for task in aw.tasks():
        if task.transformation == "SeismogramSynthesis" and rng.random() < 0.08:
            task.runtime_estimate *= 10
            straggler_ids.append(task.task_id)

    catalog = SiteCatalog(
        [Site("hpc", slots=24, mean_queue_delay=4.0, failure_rate=0.18,
              hosts_per_site=12)]
    )
    sink = MemoryAppender()
    run = run_pegasus_workflow(
        aw, sink, catalog=catalog,
        planner_config=PlannerConfig(cluster_size=4, max_retries=0),
        seed=3,
    )
    print(f"run finished: ok={run.report.ok} "
          f"succeeded={run.report.succeeded} failed={run.report.failed} "
          f"retries={run.report.retries}\n")

    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    wf = q.workflows()[0]

    print("=" * 72)
    print("stampede-analyzer output")
    print("=" * 72)
    print(render_analysis(analyze(q, wf_id=wf.wf_id)))

    print()
    print("=" * 72)
    print("online anomaly detection (robust z-score per transformation)")
    print("=" * 72)
    detector = scan_archive(q, wf.wf_id,
                            detector=RobustRuntimeDetector(threshold=4.0))
    slow = [a for a in detector.anomalies if a.kind == "slow"]
    failures = [a for a in detector.anomalies if a.kind == "failure"]
    print(f"{detector.observations} invocations scanned: "
          f"{len(slow)} stragglers, {len(failures)} failures flagged")
    for anomaly in slow[:10]:
        print("  ", anomaly)
    print(f"\n(injected stragglers: {len(straggler_ids)}; "
          f"baseline SeismogramSynthesis median "
          f"{detector.baseline('SeismogramSynthesis'):.0f}s)")

    print()
    signals = failure_signals(q, wf.wf_id)
    print(f"workflow failure-risk score: {failure_score(signals):.2f} "
          f"(failure fraction {signals.failure_fraction:.2f}, "
          f"retry fraction {signals.retry_fraction:.2f})")


if __name__ == "__main__":
    main()

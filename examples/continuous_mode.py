#!/usr/bin/env python
"""Triana continuous mode: a data-driven streaming workflow.

The paper's §V-A describes Triana's second execution mode — components
"run continuously, where a component continuously waits for data, until
it is released through a local condition" — and §VIII leaves a
data-driven continuous-mode experiment as future work.  This example
implements it: a source streams signal chunks into an energy detector
that releases the workflow once accumulated energy crosses a threshold,
producing a job with MANY invocations (one per chunk) under one job
instance, exactly as the Stampede model intends.

Run:  python examples/continuous_mode.py
"""
import numpy as np

from repro.core.statistics import workflow_statistics
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, StreamSourceUnit, ThresholdSinkUnit
from repro.util.uuidgen import UUIDFactory


def main() -> None:
    rng = np.random.default_rng(0)
    # 200 chunks of synthetic detector samples; energy ramps up over time
    chunks = [rng.normal(0, 1 + i / 40.0, 64) for i in range(200)]

    graph = TaskGraph("streaming-analysis")
    source = graph.add(StreamSourceUnit("sensor", chunks, seconds=0.5))
    energy = graph.add(
        CallableUnit("energy", lambda ins: float(np.sum(ins[0] ** 2)),
                     seconds=0.8)
    )
    trigger = graph.add(ThresholdSinkUnit("trigger", threshold=25_000.0,
                                          seconds=0.2))
    graph.connect(source, energy)
    graph.connect(energy, trigger)

    sink = MemoryAppender()
    scheduler = Scheduler(graph, seed=0, mode="continuous")
    StampedeLog(scheduler, sink, xwf_id=UUIDFactory(7).new())
    report = scheduler.run()

    chunks_consumed = scheduler.instances["energy"].invocations
    print(f"workflow released after {chunks_consumed} chunks "
          f"(threshold {trigger.unit.threshold:.0f}, "
          f"accumulated {trigger.unit.total:.0f})")
    print(f"simulated wall time: {report.wall_time:.1f}s, "
          f"{report.invocations} invocations total\n")

    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    wf = q.workflows()[0]

    # one job instance per task, many invocations per instance
    print("invocations per job (one job instance each):")
    for job in q.jobs(wf.wf_id):
        (inst,) = q.job_instances_for_job(job.job_id)
        invs = q.invocations_for_instance(inst.job_instance_id)
        print(f"  {job.exec_job_id:8s} instance=1 invocations={len(invs)}")

    stats = workflow_statistics(q, wf_id=wf.wf_id)
    print(f"\ncumulative invocation time: "
          f"{stats.cumulative_job_wall_time:.1f}s over "
          f"{stats.wall_time:.1f}s wall "
          f"(streaming keeps all three units busy concurrently)")


if __name__ == "__main__":
    main()

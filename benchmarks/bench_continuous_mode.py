"""Continuous-mode (streaming) execution — the §VIII future-work
experiment, benchmarked.

Shape assertions: one job instance per task with MANY invocations (the
data model extension §V-B describes), early release via the local
condition, and loader throughput on multi-invocation streams comparable
to single-step streams.
"""
import pytest

from repro.dart.streaming import run_streaming_dart
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender

NOTES = [220.0, 261.6, 329.6, 392.0, 440.0, 523.3]


def test_streaming_pipeline(benchmark):
    """Full continuous-mode pipeline: synth + SHS + engine + loading."""

    def pipeline():
        sink = MemoryAppender()
        res = run_streaming_dart(
            sink, notes=NOTES, frames_per_note=6, target_voiced_frames=30,
            seed=0,
        )
        loader = load_events(sink.events)
        return res, loader

    res, loader = benchmark(pipeline)
    assert res.report.ok
    q = StampedeQuery(loader.archive)
    wf = q.workflow_by_uuid(res.xwf_id)
    analysis = q.job_by_exec_id(wf.wf_id, "shs-analysis")
    (inst,) = q.job_instances_for_job(analysis.job_id)
    invocations = q.invocations_for_instance(inst.job_instance_id)
    # one instance, many invocations: the §V-B mapping
    assert len(invocations) > 10
    counts = q.summary_counts(wf.wf_id)
    assert counts.jobs_total == 3
    print(
        f"\nstreaming: {res.frames_streamed} frames, "
        f"{len(invocations)} invocations on one job instance, "
        f"{len(res.contour)} voiced frames tracked"
    )


def test_early_release_saves_work(benchmark):
    """The local condition releases the run before the stream drains."""

    def run_with_target(target):
        sink = MemoryAppender()
        res = run_streaming_dart(
            sink, notes=NOTES, frames_per_note=8, target_voiced_frames=target,
            seed=1,
        )
        return res

    res_small = benchmark.pedantic(
        lambda: run_with_target(6), rounds=3, iterations=1
    )
    res_full = run_with_target(10_000)  # never satisfied: full drain
    assert res_small.invocations < res_full.invocations
    assert res_full.frames_streamed == len(NOTES) * 8
    print(
        f"\nearly release: {res_small.invocations} invocations vs "
        f"{res_full.invocations} for the full drain"
    )

"""Workflow-level failure prediction quality (refs [22], [37]).

"Workflow-level analysis aims to predict workflow failures from basic
aggregations on high-level statistics."  This bench generates a corpus of
runs over sites of varying health, scores each run from its PARTIAL event
stream (the first 60% of events — mid-run, when prediction is useful),
and checks that the score separates runs that go on to fail from runs
that finish clean.
"""
import numpy as np
import pytest

from repro.core.prediction import failure_score, failure_signals
from repro.loader.nl_load import load_events
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import fan


def _run_and_score(failure_rate: float, seed: int):
    catalog = SiteCatalog(
        [Site("pool", slots=8, mean_queue_delay=1.0,
              failure_rate=failure_rate, hosts_per_site=4)]
    )
    sink = MemoryAppender()
    run = run_pegasus_workflow(
        fan(width=16), sink, catalog=catalog,
        planner_config=PlannerConfig(max_retries=1, add_create_dir=False,
                                     add_stage_in=False, add_stage_out=False),
        seed=seed,
    )
    # mid-run view: first 60% of the event stream
    events = list(sink.events)
    partial = events[: int(len(events) * 0.6)]
    loader = load_events(partial, strict=False)
    q = StampedeQuery(loader.archive)
    wf = q.workflows()[0]
    score = failure_score(failure_signals(q, wf.wf_id))
    return score, run.report.ok


def test_failure_prediction_separates_outcomes(benchmark):
    def evaluate():
        clean_scores, failing_scores = [], []
        for seed in range(10):
            score, ok = _run_and_score(failure_rate=0.0, seed=seed)
            clean_scores.append(score)
        for seed in range(10):
            score, ok = _run_and_score(failure_rate=0.45, seed=100 + seed)
            if ok:
                continue  # retries saved it: not a failing run
            failing_scores.append(score)
        return clean_scores, failing_scores

    clean, failing = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert failing, "no failing runs generated; raise the failure rate"
    clean_mean = float(np.mean(clean))
    failing_mean = float(np.mean(failing))
    print(
        f"\nmid-run failure scores: clean {clean_mean:.3f} "
        f"vs failing {failing_mean:.3f} "
        f"({len(clean)} clean / {len(failing)} failing runs)"
    )
    # separation: every clean run scores below every failing run's mean
    assert failing_mean > clean_mean * 3
    assert max(clean) < failing_mean

"""The full 306-command DART experiment on BOTH engines, through one
monitoring pipeline — the end-to-end cost of the paper's architecture and
the cross-engine comparison of the user experience (§V-A).
"""
import pytest

from repro.dart.pegasus_variant import run_dart_pegasus
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender

SUMMARIES = {}


@pytest.mark.parametrize("engine", ["triana", "pegasus"])
def test_dart_full_run_both_engines(benchmark, engine):
    """benchmark = engine execution + event emission + loading + querying."""

    def pipeline():
        sink = MemoryAppender()
        if engine == "triana":
            res = run_dart_experiment(sink, seed=0)
            xwf = res.root_xwf_id
            wall = res.wall_time
        else:
            res = run_dart_pegasus(sink, seed=0)
            xwf = res.xwf_id
            wall = res.wall_time
        loader = load_events(sink.events, batch_size=1000)
        q = StampedeQuery(loader.archive)
        root = q.workflow_by_uuid(xwf)
        counts = q.summary_counts(root.wf_id)
        cumulative = q.cumulative_job_wall_time(root.wf_id)
        return counts, wall, cumulative, len(sink.events)

    counts, wall, cumulative, n_events = benchmark.pedantic(
        pipeline, rounds=3, iterations=1
    )
    # Table I accounting identical across engines
    assert counts.tasks_total == 367
    assert counts.tasks_succeeded == 367
    assert counts.subwf_total == 20
    SUMMARIES[engine] = (wall, cumulative, n_events)
    print(
        f"\n{engine}: wall {wall:.0f}s, cumulative {cumulative:.0f}s, "
        f"{n_events} events, pipeline {benchmark.stats.stats.mean:.2f}s real"
    )
    if len(SUMMARIES) == 2:
        t_wall, t_cum, _ = SUMMARIES["triana"]
        p_wall, p_cum, _ = SUMMARIES["pegasus"]
        print(
            f"cross-engine: wall {t_wall:.0f}s vs {p_wall:.0f}s, "
            f"cumulative {t_cum:.0f}s vs {p_cum:.0f}s (paper: 661 / 40224)"
        )
        # both engines land in the paper's band
        for wall_v, cum_v in ((t_wall, t_cum), (p_wall, p_cum)):
            assert 400 < wall_v < 1100
            assert 30_000 < cum_v < 50_000

#!/usr/bin/env python
"""The paper's §VI experiment: the DART music-information-retrieval sweep.

Executes 306 SHS parameter-sweep commands as 20 SHIWA bundles on an
8-node TrianaCloud, loads the live event stream, and prints:

* Table I   — the stampede-statistics summary,
* Table II  — breakdown.txt for one sub-workflow,
* Tables III/IV — jobs.txt for the same sub-workflow,
* Fig. 7    — an ASCII rendering of bundle progress-to-completion,
* the sweep's scientific result (best SHS parameters found).

Run:  python examples/dart_parameter_sweep.py [seed]
"""
import sys

import numpy as np

from repro.core.reports import (
    render_breakdown,
    render_jobs,
    render_jobs_timing,
    render_summary,
)
from repro.core.statistics import job_rows, job_type_breakdown, workflow_statistics
from repro.core.timeseries import bundle_progress
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender


def ascii_progress(series, width=64) -> str:
    """Fig. 7 as text: one row per bundle, '#' marks progress over time."""
    t_max = max(s.completion_time for s in series)
    times = np.linspace(0, t_max, width)
    lines = [f"wall-clock 0 .. {t_max:.0f}s  (cumulative runtime per bundle)"]
    for s in sorted(series, key=lambda s: s.label):
        samples = s.sample(times)
        final = s.final_cumulative_runtime
        row = "".join(
            "#" if v >= final else ("+" if v > 0 else ".") for v in samples
        )
        lines.append(f"{s.label:>16} |{row}| {final:7.0f}s")
    return "\n".join(lines)


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    print("running the DART sweep (306 commands, 20 bundles, 8 nodes)...")
    sink = MemoryAppender()
    result = run_dart_experiment(sink, seed=seed)
    print(f"done: {len(sink)} Stampede events emitted; "
          f"simulated wall time {result.wall_time:.0f}s\n")

    loader = load_events(sink.events)
    q = StampedeQuery(loader.archive)
    root = q.workflow_by_uuid(result.root_xwf_id)

    print("=" * 72)
    print("Table I — stampede-statistics summary")
    print("=" * 72)
    print(render_summary(workflow_statistics(q, wf_id=root.wf_id)))

    sub = q.sub_workflows(root.wf_id)[-1]  # the small trailing bundle
    print()
    print("=" * 72)
    print(f"Table II — breakdown.txt for sub-workflow {sub.dag_file_name}")
    print("=" * 72)
    print(render_breakdown(job_type_breakdown(q, sub.wf_id)))

    rows = job_rows(q, sub.wf_id)
    print()
    print("=" * 72)
    print("Tables III & IV — jobs.txt for the same sub-workflow")
    print("=" * 72)
    print(render_jobs(rows))
    print()
    print(render_jobs_timing(rows))

    print()
    print("=" * 72)
    print("Fig. 7 — progress to completion of the 20 bundles")
    print("=" * 72)
    print(ascii_progress(bundle_progress(q, root.wf_id)))

    best = result.best_result
    print()
    print("sweep result: best SHS parameters "
          f"harmonics={best['harmonics']} compression={best['compression']} "
          f"window={best['window']} (accuracy {best['accuracy']:.2f})")


if __name__ == "__main__":
    main()

"""Property tests across the whole pipeline: any engine run, loaded into
the archive, satisfies the data model's referential and counting
invariants."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loader.nl_load import load_events
from repro.model.entities import (
    InvocationRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    TaskRow,
)
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import random_layered_dag


@given(
    n_tasks=st.integers(2, 25),
    cluster=st.integers(1, 4),
    failure_rate=st.sampled_from([0.0, 0.0, 0.3]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_archive_invariants_hold_for_any_run(n_tasks, cluster, failure_rate, seed):
    aw = random_layered_dag(n_tasks, n_layers=4, seed=seed)
    catalog = SiteCatalog(
        [Site("s", slots=8, failure_rate=failure_rate, mean_queue_delay=1.0)]
    )
    sink = MemoryAppender()
    run = run_pegasus_workflow(
        aw, sink, catalog=catalog,
        planner_config=PlannerConfig(cluster_size=cluster, max_retries=2),
        seed=seed,
    )
    loader = load_events(sink.events)
    archive = loader.archive
    q = StampedeQuery(archive)
    wf = q.workflows()[0]

    # counting invariants
    assert archive.count(TaskRow) == n_tasks
    assert archive.count(JobRow) == len(run.ew)
    counts = q.summary_counts(wf.wf_id)
    assert counts.jobs_total == len(run.ew)
    assert (
        counts.jobs_succeeded + counts.jobs_failed + counts.jobs_incomplete
        == counts.jobs_total
    )
    assert counts.jobs_succeeded == run.report.succeeded
    assert counts.jobs_failed == run.report.failed
    assert counts.jobs_retries == run.report.retries

    # referential integrity: invocations -> job instances -> jobs
    instance_ids = {
        i.job_instance_id for i in archive.query(JobInstanceRow).all()
    }
    job_ids = {j.job_id for j in archive.query(JobRow).all()}
    for inv in archive.query(InvocationRow).all():
        assert inv.job_instance_id in instance_ids
    for inst in archive.query(JobInstanceRow).all():
        assert inst.job_id in job_ids

    # task mapping: every task maps to an existing job
    for task in archive.query(TaskRow).all():
        assert task.job_id in job_ids

    # jobstate sequences are dense per instance
    for inst_id in instance_ids:
        states = (
            archive.query(JobStateRow).eq("job_instance_id", inst_id)
            .order_by("jobstate_submit_seq").all()
        )
        assert [s.jobstate_submit_seq for s in states] == list(range(len(states)))

    # wall time covers every invocation
    wall = q.workflow_wall_time(wf.wf_id)
    assert wall is not None and wall >= 0
    for inv in q.invocations(wf.wf_id):
        assert inv.remote_duration >= 0

import pytest

from repro.loader.nl_load import load_events
from repro.pegasus import (
    PlannerConfig,
    Site,
    SiteCatalog,
    SubDaxJob,
    run_hierarchical_workflow,
    run_with_restarts,
)
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender
from repro.workloads import chain, diamond, fan


def flat_catalog(failure_rate=0.0, seed_slots=16):
    return SiteCatalog(
        [Site("pool", slots=seed_slots, mean_queue_delay=0.5,
              failure_rate=failure_rate, hosts_per_site=4)]
    )


class TestSubDaxJobs:
    def run_parent_with_sub(self, seed=0):
        parent = diamond(runtime=5.0, label="parent")
        sub = SubDaxJob(
            "subdax_analysis",
            chain(3, runtime=5.0, label="child"),
            depends_on=["a"],
            feeds=["d"],
        )
        sink = MemoryAppender()
        run = run_hierarchical_workflow(
            parent, [sub], sink, catalog=flat_catalog(), seed=seed,
            planner_config=PlannerConfig(add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
        )
        return sink, run

    def test_parent_and_child_succeed(self):
        sink, run = self.run_parent_with_sub()
        assert run.report.ok
        child = run.child_runs["subdax_analysis"]
        assert child.report.ok
        assert child.report.succeeded == len(child.ew)

    def test_events_schema_valid(self):
        sink, run = self.run_parent_with_sub()
        assert EventValidator(STAMPEDE_SCHEMA).validate(sink.events).ok

    def test_hierarchy_in_archive(self):
        sink, run = self.run_parent_with_sub()
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        root = q.workflow_by_uuid(run.xwf_id)
        subs = q.sub_workflows(root.wf_id)
        assert len(subs) == 1
        assert subs[0].parent_wf_id == root.wf_id
        counts = q.summary_counts(root.wf_id)
        assert counts.subwf_total == 1
        assert counts.subwf_succeeded == 1
        # parent tasks + child tasks
        assert counts.tasks_total == 4 + 3

    def test_child_respects_parent_dependencies(self):
        """The sub-DAX job runs after 'a' and before 'd'."""
        sink, run = self.run_parent_with_sub()
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        root = q.workflow_by_uuid(run.xwf_id)
        parent_details = {d.exec_job_id: d for d in q.job_details(root.wf_id)}
        child_wf = q.sub_workflows(root.wf_id)[0]
        child_start = q.workflow_states(child_wf.wf_id)[0].timestamp
        # 'd' must not start before the child workflow terminated
        d_states = {
            s.state: s.timestamp
            for s in q.job_states(
                next(
                    i.job_instance_id
                    for i in q.job_instances(root.wf_id)
                    if parent_details and i.job_id == q.job_by_exec_id(
                        root.wf_id, "d"
                    ).job_id
                )
            )
        }
        child_end = q.workflow_states(child_wf.wf_id)[-1].timestamp
        assert d_states["EXECUTE"] >= child_end - 1e-6

    def test_failed_child_fails_parent_job(self):
        parent = diamond(runtime=5.0, label="parent")
        sub = SubDaxJob(
            "subdax_bad",
            fan(width=4, runtime=5.0, label="child"),
            depends_on=["a"],
            feeds=["d"],
        )
        sink = MemoryAppender()
        run = run_hierarchical_workflow(
            parent, [sub], sink,
            catalog=flat_catalog(),  # the parent's site is reliable
            seed=1,
            planner_config=PlannerConfig(add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
            # the child runs on a broken resource pool
            child_catalog=SiteCatalog(
                [Site("dead", slots=8, mean_queue_delay=0.1,
                      failure_rate=0.999, hosts_per_site=2)]
            ),
            child_planner_config=PlannerConfig(add_create_dir=False,
                                               add_stage_in=False,
                                               add_stage_out=False,
                                               max_retries=0),
        )
        assert not run.report.ok
        assert not run.child_runs["subdax_bad"].report.ok
        # 'd' depends on the failed sub-DAX job: never became runnable
        assert run.report.unready >= 1


class TestRestarts:
    def test_clean_run_needs_no_restart(self):
        sink = MemoryAppender()
        runs = run_with_restarts(
            fan(width=6), sink, catalog=flat_catalog(), seed=0
        )
        assert len(runs) == 1
        assert runs[0].report.ok

    def test_restart_recovers_failed_run(self):
        # high transient failure + no retries: first attempt fails some
        # jobs; restarts eventually complete the workflow
        sink = MemoryAppender()
        runs = run_with_restarts(
            fan(width=12),
            sink,
            catalog=flat_catalog(failure_rate=0.35),
            planner_config=PlannerConfig(max_retries=0,
                                         add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
            seed=3,
            max_restarts=10,
        )
        assert len(runs) > 1
        assert runs[-1].report.ok
        # later attempts do not rerun succeeded jobs
        total_executed = sum(
            sum(1 for s in r._states.values() if s.attempts > 0
                and s.attempts > (0 if r is runs[0] else -1))
            for r in runs
        )
        assert runs[-1].report.succeeded == 14  # split+join+12 workers

    def test_restart_counts_in_events(self):
        sink = MemoryAppender()
        runs = run_with_restarts(
            fan(width=12),
            sink,
            catalog=flat_catalog(failure_rate=0.35),
            planner_config=PlannerConfig(max_retries=0,
                                         add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
            seed=3,
            max_restarts=10,
        )
        starts = [e for e in sink.events if e.event == "stampede.xwf.start"]
        counts = [int(e["restart_count"]) for e in starts]
        assert counts == list(range(len(runs)))

    def test_restarted_run_loads_as_one_workflow(self):
        sink = MemoryAppender()
        runs = run_with_restarts(
            fan(width=12),
            sink,
            catalog=flat_catalog(failure_rate=0.35),
            planner_config=PlannerConfig(max_retries=0,
                                         add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
            seed=3,
            max_restarts=10,
        )
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        assert len(q.workflows()) == 1  # one workflow, several runs
        wf = q.workflows()[0]
        assert q.workflow_status(wf.wf_id) == 0  # last run succeeded
        counts = q.summary_counts(wf.wf_id)
        assert counts.jobs_succeeded == 14
        # submit sequences increased across restarts
        seqs = [i.job_submit_seq for i in q.job_instances(wf.wf_id)]
        assert max(seqs) >= 2

    def test_gives_up_after_max_restarts(self):
        sink = MemoryAppender()
        runs = run_with_restarts(
            fan(width=6),
            sink,
            catalog=flat_catalog(failure_rate=0.95),
            planner_config=PlannerConfig(max_retries=0,
                                         add_create_dir=False,
                                         add_stage_in=False,
                                         add_stage_out=False),
            seed=0,
            max_restarts=2,
        )
        assert len(runs) == 3
        assert not runs[-1].report.ok

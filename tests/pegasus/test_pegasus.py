import pytest

from repro.loader.nl_load import load_events
from repro.model.entities import JobInstanceRow, JobRow, TaskRow
from repro.pegasus import (
    AbstractTask,
    AbstractWorkflow,
    DAGManRun,
    JobType,
    Planner,
    PlannerConfig,
    Site,
    SiteCatalog,
    run_pegasus_workflow,
)
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender
from repro.workloads import diamond, fan, montage


class TestAbstractWorkflow:
    def test_build_and_query(self):
        aw = diamond()
        assert len(aw) == 4
        assert aw.roots() == ["a"]
        assert aw.leaves() == ["d"]
        assert aw.parents("d") == ["b", "c"]

    def test_cycle_rejected(self):
        aw = AbstractWorkflow("w")
        aw.add_task(AbstractTask("a", "t"))
        aw.add_task(AbstractTask("b", "t"))
        aw.add_dependency("a", "b")
        with pytest.raises(Exception):
            aw.add_dependency("b", "a")

    def test_duplicate_task_rejected(self):
        aw = AbstractWorkflow("w")
        aw.add_task(AbstractTask("a", "t"))
        with pytest.raises(ValueError):
            aw.add_task(AbstractTask("a", "t"))

    def test_critical_path(self):
        aw = diamond(runtime=10.0)
        assert aw.critical_path_seconds() == 30.0


class TestPlanner:
    def test_no_clustering_one_job_per_task(self):
        ew = Planner(config=PlannerConfig(cluster_size=1)).plan(diamond())
        compute = ew.compute_jobs()
        assert len(compute) == 4
        assert all(not j.clustered for j in compute)

    def test_clustering_groups_by_level_and_transformation(self):
        ew = Planner(config=PlannerConfig(cluster_size=8)).plan(fan(width=8))
        compute = ew.compute_jobs()
        # split + join unclustered; 8 work tasks merge into one job
        merged = [j for j in compute if j.clustered]
        assert len(merged) == 1
        assert merged[0].task_count == 8
        assert len(compute) == 3

    def test_cluster_size_respected(self):
        ew = Planner(config=PlannerConfig(cluster_size=3)).plan(fan(width=8))
        merged = sorted(j.task_count for j in ew.compute_jobs() if j.clustered)
        assert merged == [2, 3, 3]

    def test_auxiliary_jobs_added(self):
        ew = Planner().plan(diamond())
        types = {j.job_type for j in ew.jobs()}
        assert JobType.CREATE_DIR in types
        assert JobType.STAGE_IN in types
        assert JobType.STAGE_OUT in types

    def test_auxiliary_jobs_precede_and_follow_compute(self):
        ew = Planner().plan(diamond())
        order = ew.topological_order()
        assert order.index("create_dir_0") < order.index("stage_in_0")
        assert order.index("stage_in_0") < order.index("a")
        assert order.index("d") < order.index("stage_out_0")

    def test_optional_registration_and_cleanup(self):
        config = PlannerConfig(add_registration=True, add_cleanup=True)
        ew = Planner(config=config).plan(diamond())
        ids = {j.exec_job_id for j in ew.jobs()}
        assert "register_0" in ids and "cleanup_0" in ids

    def test_task_to_job_map_covers_all_tasks(self):
        aw = montage(n_images=6)
        ew = Planner(config=PlannerConfig(cluster_size=4)).plan(aw)
        mapping = ew.task_to_job_map()
        assert set(mapping) == {t.task_id for t in aw.tasks()}

    def test_plan_preserves_dependencies(self):
        aw = diamond()
        ew = Planner(config=PlannerConfig(cluster_size=1)).plan(aw)
        order = ew.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")


class TestSites:
    def test_catalog_default(self):
        catalog = SiteCatalog.default()
        assert len(catalog) == 2
        assert catalog.total_slots() > 0

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            SiteCatalog([Site("x"), Site("x")])

    def test_best_free_site(self):
        catalog = SiteCatalog([Site("small", slots=2), Site("big", slots=10)])
        assert catalog.best_free_site().name == "big"
        catalog["big"].busy = 10
        assert catalog.best_free_site().name == "small"
        catalog["small"].busy = 2
        assert catalog.best_free_site() is None

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            Site("x", failure_rate=1.5)


class TestDAGManRun:
    def test_successful_run(self):
        sink = MemoryAppender()
        run = run_pegasus_workflow(diamond(), sink, seed=2)
        assert run.report.ok
        assert run.report.succeeded == len(run.ew)
        assert run.report.wall_time > 0

    def test_events_schema_valid(self):
        sink = MemoryAppender()
        run_pegasus_workflow(montage(n_images=5), sink, seed=3)
        report = EventValidator(STAMPEDE_SCHEMA).validate(sink.events)
        assert report.ok, report.violations[:5]

    def test_deterministic(self):
        s1, s2 = MemoryAppender(), MemoryAppender()
        r1 = run_pegasus_workflow(diamond(), s1, seed=7)
        r2 = run_pegasus_workflow(diamond(), s2, seed=7)
        assert r1.report.wall_time == r2.report.wall_time
        assert [e.to_bp() for e in s1.events] == [e.to_bp() for e in s2.events]

    def test_failures_and_retries(self):
        catalog = SiteCatalog(
            [Site("flaky", slots=4, failure_rate=0.4, mean_queue_delay=0.5)]
        )
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            fan(width=12), sink, catalog=catalog, seed=11
        )
        assert run.report.retries > 0

    def test_permanent_failure_blocks_descendants(self):
        catalog = SiteCatalog(
            [Site("dead", slots=4, failure_rate=0.999, mean_queue_delay=0.1)]
        )
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            diamond(), sink, catalog=catalog,
            planner_config=PlannerConfig(max_retries=1), seed=5,
        )
        assert not run.report.ok
        assert run.report.failed >= 1
        assert run.report.unready >= 1

    def test_clustered_jobs_have_multiple_invocations(self):
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            fan(width=6), sink,
            planner_config=PlannerConfig(cluster_size=6), seed=2,
        )
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        merged_job = next(
            j for j in q.jobs(wf.wf_id) if j.exec_job_id.startswith("merge_")
        )
        assert merged_job.clustered
        insts = q.job_instances_for_job(merged_job.job_id)
        invs = q.invocations_for_instance(insts[0].job_instance_id)
        assert len(invs) == 6
        assert all(i.abs_task_id is not None for i in invs)

    def test_queue_time_visible_in_archive(self):
        catalog = SiteCatalog(
            [Site("busy", slots=1, mean_queue_delay=5.0, hosts_per_site=1)]
        )
        sink = MemoryAppender()
        run_pegasus_workflow(fan(width=4), sink, catalog=catalog, seed=4)
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        details = q.job_details(wf.wf_id)
        assert any(d.queue_time and d.queue_time > 1.0 for d in details)

    def test_retry_instances_in_archive(self):
        catalog = SiteCatalog(
            [Site("flaky", slots=8, failure_rate=0.5, mean_queue_delay=0.2)]
        )
        sink = MemoryAppender()
        run = run_pegasus_workflow(fan(width=10), sink, catalog=catalog, seed=13)
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        counts = q.summary_counts(wf.wf_id)
        assert counts.jobs_retries == run.report.retries

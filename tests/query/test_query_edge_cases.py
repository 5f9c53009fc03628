"""Query-API edge cases: empty workflows, missing hosts, detail fallbacks."""
import pytest

from repro.loader.nl_load import load_events, make_loader
from repro.model.entities import (
    JobInstanceRow,
    JobRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.query import StampedeQuery

from tests.helpers import diamond_events


@pytest.fixture
def empty_q():
    return StampedeQuery(make_loader().archive)


class TestEmptyArchive:
    def test_no_workflows(self, empty_q):
        assert empty_q.workflows() == []
        assert empty_q.root_workflows() == []

    def test_missing_lookups(self, empty_q):
        assert empty_q.workflow(1) is None
        assert empty_q.workflow_by_uuid("x") is None
        assert empty_q.workflow_wall_time(1) is None
        assert empty_q.workflow_status(1) is None

    def test_empty_collections(self, empty_q):
        assert empty_q.tasks(1) == []
        assert empty_q.jobs(1) == []
        assert empty_q.job_instances(1) == []
        assert empty_q.invocations(1) == []
        assert empty_q.hosts(1) == []
        assert empty_q.job_details(1) == []
        assert empty_q.failed_job_instances(1) == []

    def test_empty_counts(self, empty_q):
        counts = empty_q.summary_counts(1)
        assert counts.tasks_total == 0
        assert counts.jobs_total == 0
        assert empty_q.cumulative_job_wall_time(1) == 0.0


class TestPartialData:
    def test_instance_without_host(self):
        """A job instance with no host.info still renders details."""
        archive = make_loader().archive
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u"))
        archive.insert(JobRow(job_id=1, wf_id=1, exec_job_id="j"))
        archive.insert(
            JobInstanceRow(job_instance_id=1, job_id=1, job_submit_seq=1,
                           local_duration=5.0, exitcode=0)
        )
        q = StampedeQuery(archive)
        (detail,) = q.job_details(1)
        assert detail.hostname is None
        assert detail.queue_time is None  # no jobstates recorded
        assert detail.runtime == 5.0
        assert detail.invocation_duration is None  # no invocations

    def test_instance_with_dangling_host_id(self):
        archive = make_loader().archive
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u"))
        archive.insert(JobRow(job_id=1, wf_id=1, exec_job_id="j"))
        archive.insert(
            JobInstanceRow(job_instance_id=1, job_id=1, job_submit_seq=1,
                           host_id=999)
        )
        q = StampedeQuery(archive)
        (detail,) = q.job_details(1)
        assert detail.hostname is None

    def test_orphan_instance_ignored_in_details(self):
        """Instances whose job row is missing don't crash job_details."""
        archive = make_loader().archive
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u"))
        archive.insert(JobRow(job_id=1, wf_id=1, exec_job_id="j"))
        archive.insert(
            JobInstanceRow(job_instance_id=7, job_id=999, job_submit_seq=1)
        )
        q = StampedeQuery(archive)
        assert q.job_details(1) == []

    def test_multiple_terminations_last_wins(self):
        archive = make_loader().archive
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u"))
        archive.insert_many(
            [
                WorkflowStateRow(wf_id=1, state="WORKFLOW_STARTED",
                                 timestamp=0.0, restart_count=0),
                WorkflowStateRow(wf_id=1, state="WORKFLOW_TERMINATED",
                                 timestamp=10.0, restart_count=0, status=-1),
                WorkflowStateRow(wf_id=1, state="WORKFLOW_STARTED",
                                 timestamp=20.0, restart_count=1),
                WorkflowStateRow(wf_id=1, state="WORKFLOW_TERMINATED",
                                 timestamp=30.0, restart_count=1, status=0),
            ]
        )
        q = StampedeQuery(archive)
        assert q.workflow_status(1) == 0  # the restart's outcome
        assert q.workflow_wall_time(1) == 30.0  # first start to last end

    def test_task_failure_then_retry_success_counts_succeeded(self):
        loader = load_events(diamond_events(retries={"c": 1}))
        q = StampedeQuery(loader.archive)
        counts = q.summary_counts(1)
        # the retried task ultimately succeeded
        assert counts.tasks_succeeded == 4
        assert counts.tasks_failed == 0
        assert counts.jobs_retries == 1

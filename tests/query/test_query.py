import pytest

from repro.dart.sweep import sweep_grid
from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender

from tests.helpers import diamond_events


@pytest.fixture
def q():
    return StampedeQuery(load_events(diamond_events()).archive)


class TestWorkflowQueries:
    def test_workflows_and_lookup(self, q):
        wfs = q.workflows()
        assert len(wfs) == 1
        wf = wfs[0]
        assert q.workflow(wf.wf_id).wf_uuid == wf.wf_uuid
        assert q.workflow_by_uuid(wf.wf_uuid).wf_id == wf.wf_id
        assert q.workflow(999) is None

    def test_root_workflows(self, q):
        assert len(q.root_workflows()) == 1

    def test_wall_time_and_status(self, q):
        wf = q.workflows()[0]
        assert q.workflow_wall_time(wf.wf_id) == pytest.approx(23.0, abs=0.1)
        assert q.workflow_status(wf.wf_id) == 0

    def test_status_none_while_running(self):
        q = StampedeQuery(load_events(diamond_events()[:-1]).archive)
        wf = q.workflows()[0]
        assert q.workflow_status(wf.wf_id) is None
        assert q.workflow_wall_time(wf.wf_id) is None


class TestStructureQueries:
    def test_tasks_and_edges(self, q):
        wf = q.workflows()[0]
        assert [t.abs_task_id for t in q.tasks(wf.wf_id)] == ["a", "b", "c", "d"]
        assert len(q.task_edges(wf.wf_id)) == 4
        assert len(q.job_edges(wf.wf_id)) == 4

    def test_job_by_exec_id(self, q):
        wf = q.workflows()[0]
        job = q.job_by_exec_id(wf.wf_id, "b")
        assert job is not None and job.exec_job_id == "b"
        assert q.job_by_exec_id(wf.wf_id, "zzz") is None


class TestExecutionQueries:
    def test_job_states_sequence(self, q):
        wf = q.workflows()[0]
        inst = q.job_instances(wf.wf_id)[0]
        states = q.job_states(inst.job_instance_id)
        assert [s.jobstate_submit_seq for s in states] == list(range(len(states)))
        assert q.last_job_state(inst.job_instance_id).state == "JOB_SUCCESS"

    def test_invocations_link_tasks(self, q):
        wf = q.workflows()[0]
        invs = q.invocations(wf.wf_id)
        assert {i.abs_task_id for i in invs} == {"a", "b", "c", "d"}

    def test_hosts(self, q):
        wf = q.workflows()[0]
        (host,) = q.hosts(wf.wf_id)
        assert host.hostname == "node1"
        assert q.host(host.host_id).ip == "10.0.0.1"

    def test_cumulative_job_wall_time(self, q):
        wf = q.workflows()[0]
        assert q.cumulative_job_wall_time(wf.wf_id) == pytest.approx(16.0)


class TestHierarchyQueries:
    @pytest.fixture(scope="class")
    def dart_q(self):
        sink = MemoryAppender()
        commands = [c.line for c in sweep_grid()[:8]]
        res = run_dart_experiment(sink, seed=9, n_nodes=2, chunk_size=4,
                                  commands=commands)
        return StampedeQuery(load_events(sink.events).archive), res

    def test_parent_child_links(self, dart_q):
        q, res = dart_q
        root = q.workflow_by_uuid(res.root_xwf_id)
        subs = q.sub_workflows(root.wf_id)
        assert len(subs) == 2
        for sub in subs:
            assert sub.parent_wf_id == root.wf_id
            assert sub.root_wf_id == root.wf_id

    def test_descendants(self, dart_q):
        q, res = dart_q
        root = q.workflow_by_uuid(res.root_xwf_id)
        desc = q.descendant_workflows(root.wf_id)
        assert len(desc) == 2

    def test_summary_counts_include_descendants(self, dart_q):
        q, res = dart_q
        root = q.workflow_by_uuid(res.root_xwf_id)
        counts = q.summary_counts(root.wf_id)
        assert counts.subwf_total == 2
        assert counts.subwf_succeeded == 2
        # 8 execs + 2*(unit+zipper+Output_0) + monitor
        assert counts.tasks_total == 8 + 6 + 1
        assert counts.tasks_succeeded == counts.tasks_total

    def test_summary_counts_exclude_descendants(self, dart_q):
        q, res = dart_q
        root = q.workflow_by_uuid(res.root_xwf_id)
        counts = q.summary_counts(root.wf_id, include_descendants=False)
        assert counts.tasks_total == 1
        assert counts.subwf_total == 0

"""Canonical merge/diff on empty and partially-loaded archives.

A soak run's mid-kill snapshot — or any loader that died before seeing
the plan events — leaves an archive whose foreign keys can dangle.  The
contract under test: :func:`canonical_dump` must render such archives
deterministically (sentinel keys, never ``KeyError``) so that
:func:`diff_canonical` *reports* the missing rows instead of the
comparison crashing before it starts.
"""
import pytest

from repro.archive.merge import canonical_dump, diff_canonical, merge_canonical
from repro.archive.store import StampedeArchive
from repro.loader.nl_load import load_events
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    WorkflowRow,
)

from tests.helpers import diamond_events


@pytest.fixture
def baseline():
    loader = load_events(diamond_events())
    dump = canonical_dump(loader.archive)
    loader.archive.close()
    return dump


class TestEmptyArchive:
    def test_dump_of_empty_archive(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        dump = canonical_dump(archive)
        assert all(rows == [] for rows in dump.values())
        archive.close()

    def test_diff_reports_every_missing_table(self, baseline):
        archive = StampedeArchive.open("sqlite:///:memory:")
        problems = diff_canonical(baseline, canonical_dump(archive))
        archive.close()
        populated = {t for t, rows in baseline.items() if rows}
        assert populated  # the diamond stream fills the core tables
        reported = {p.split(":", 1)[0] for p in problems}
        assert reported == populated
        for problem in problems:
            assert "missing" in problem

    def test_merge_with_empty_is_identity(self, baseline):
        archive = StampedeArchive.open("sqlite:///:memory:")
        merged = merge_canonical(baseline, canonical_dump(archive))
        archive.close()
        assert diff_canonical(baseline, merged) == []


class TestPartialLoad:
    """A loader killed mid-stream: prefix of the events, rest missing."""

    def test_partial_archive_diffs_without_crashing(self, baseline):
        events = diamond_events()
        partial = load_events(events[: len(events) // 2], batch_size=5)
        problems = diff_canonical(baseline, canonical_dump(partial.archive))
        partial.archive.close()
        assert problems  # half the stream is gone; the diff must say so
        assert any("missing" in p for p in problems)

    def test_partial_archive_is_a_subset_on_append_only_tables(self, baseline):
        # job_instance/workflow rows mutate as the lifecycle progresses, so a
        # snapshot legitimately differs there; state/structure tables are
        # append-only and a prefix load must be a strict row subset
        events = diamond_events()
        partial = load_events(events[: len(events) // 2], batch_size=5)
        dump = canonical_dump(partial.archive)
        partial.archive.close()
        for table in ("workflowstate", "jobstate", "task", "task_edge", "job_edge"):
            for row in dump.get(table, []):
                assert row in baseline.get(table, []), (table, row)


class TestDanglingForeignKeys:
    """Rows whose parents never arrived rewrite to sentinel keys."""

    @pytest.fixture
    def torn(self):
        # a torn snapshot: children present, every parent missing
        archive = StampedeArchive.open("sqlite:///:memory:")
        with archive.transaction():
            archive.insert(JobRow(job_id=1, wf_id=99, exec_job_id="orphan_j"))
            archive.insert(
                JobInstanceRow(job_instance_id=1, job_id=77, job_submit_seq=1)
            )
            archive.insert(
                JobStateRow(job_instance_id=55, state="SUBMIT", timestamp=1.0)
            )
            archive.insert(
                InvocationRow(
                    invocation_id=1, job_instance_id=55, wf_id=99, task_submit_seq=1
                )
            )
            archive.insert(
                HostRow(host_id=1, wf_id=99, site="s", hostname="node-x")
            )
        yield archive
        archive.close()

    def test_dump_uses_sentinels_instead_of_raising(self, torn):
        # sentinels are surrogate-free: the same torn row must render
        # identically no matter which shard (and hence which local
        # surrogate-id sequence) it landed in
        dump = canonical_dump(torn)
        assert dump["job"][0][0] == "<missing workflow>"
        assert dump["job_instance"][0][0] == "<missing job>"
        assert dump["jobstate"][0][0] == "<missing job-instance>"
        assert dump["invocation"][0][0] == "<missing job-instance>"
        assert dump["host"][0][0] == "<missing workflow>"

    def test_dump_is_deterministic(self, torn):
        assert canonical_dump(torn) == canonical_dump(torn)

    def test_diff_against_healthy_archive_reports(self, torn, baseline):
        problems = diff_canonical(baseline, canonical_dump(torn))
        assert problems
        # dangling rows surface as "extra" rows, missing parents as "missing"
        assert any("extra" in p for p in problems)
        assert any("missing" in p for p in problems)

    def test_present_parent_still_uses_natural_key(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        with archive.transaction():
            archive.insert(WorkflowRow(wf_id=1, wf_uuid="wf-real"))
            archive.insert(JobRow(job_id=1, wf_id=1, exec_job_id="j1"))
            archive.insert(JobRow(job_id=2, wf_id=2, exec_job_id="j2"))
        dump = canonical_dump(archive)
        archive.close()
        keys = {row[0] for row in dump["job"]}
        assert keys == {"wf-real", "<missing workflow>"}

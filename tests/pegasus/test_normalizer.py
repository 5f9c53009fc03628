"""The raw-log path: DAGMan writes jobstate.log + kickstart records, the
normalizer converts them to BP events, and the archive built from the
normalized stream matches the archive built from the direct stream."""
import io

import pytest

from repro.loader.nl_load import load_events
from repro.pegasus import (
    DAGManRun,
    JobstateEntry,
    JobstateLogWriter,
    KickstartRecord,
    KickstartWriter,
    Planner,
    PlannerConfig,
    RawLogRecorder,
    Site,
    SiteCatalog,
    normalize_run,
    parse_jobstate_log,
    parse_kickstart_records,
)
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender
from repro.workloads import diamond, fan


class TestRawFormats:
    def test_jobstate_roundtrip(self):
        entry = JobstateEntry(1331642138.5, "create_dir_0", "SUBMIT",
                              "42.0", "pool", 1)
        back = JobstateEntry.from_line(entry.to_line())
        assert back == entry

    def test_jobstate_malformed(self):
        with pytest.raises(ValueError):
            JobstateEntry.from_line("not a jobstate line")

    def test_jobstate_file_io(self, tmp_path):
        path = tmp_path / "jobstate.log"
        entries = [
            JobstateEntry(1.0, "a", "SUBMIT", "1.0", "s", 1),
            JobstateEntry(2.0, "a", "EXECUTE", "1.0", "s", 1),
        ]
        with JobstateLogWriter(path) as writer:
            for e in entries:
                writer.write(e)
        assert list(parse_jobstate_log(path)) == entries

    def test_jobstate_skips_comments(self):
        text = "# header\n1.0 a SUBMIT 1.0 s - 1\n\n"
        entries = list(parse_jobstate_log(io.StringIO(text)))
        assert len(entries) == 1

    def test_kickstart_roundtrip(self):
        record = KickstartRecord(
            exec_job_id="merge_0",
            job_submit_seq=2,
            inv_seq=3,
            transformation="analyze",
            executable="/bin/analyze",
            start=100.5,
            duration=74.25,
            exitcode=1,
            site="pool",
            hostname="pool-node3",
            argv="--x 1 --y 2",
            task_id="t0005",
            cpu_time=70.0,
        )
        back = KickstartRecord.from_xml(record.to_xml())
        assert back == record

    def test_kickstart_optional_fields(self):
        record = KickstartRecord(
            exec_job_id="j", job_submit_seq=1, inv_seq=1,
            transformation="t", executable="e", start=0.0, duration=1.0,
            exitcode=0, site="s", hostname="h",
        )
        back = KickstartRecord.from_xml(record.to_xml())
        assert back.task_id is None
        assert back.cpu_time is None
        assert back.argv == ""

    def test_kickstart_bad_xml(self):
        with pytest.raises(ValueError):
            KickstartRecord.from_xml("<notinv/>")

    def test_kickstart_file_io(self, tmp_path):
        path = tmp_path / "kickstart.rec"
        record = KickstartRecord(
            exec_job_id="j", job_submit_seq=1, inv_seq=1,
            transformation="t", executable="e", start=0.0, duration=1.0,
            exitcode=0, site="s", hostname="h",
        )
        with KickstartWriter(path) as writer:
            writer.write(record)
            writer.write(record)
        assert list(parse_kickstart_records(path)) == [record, record]


def _run_with_raw(aw, seed=0, failure_rate=0.0, max_retries=3):
    catalog = SiteCatalog(
        [Site("pool", slots=16, mean_queue_delay=1.0,
              failure_rate=failure_rate, hosts_per_site=4)]
    )
    planner = Planner(catalog, PlannerConfig(cluster_size=2,
                                             max_retries=max_retries))
    ew = planner.plan(aw)
    direct_sink = MemoryAppender()
    recorder = RawLogRecorder()
    run = DAGManRun(aw, ew, direct_sink, catalog=catalog, seed=seed,
                    raw_recorder=recorder)
    run.run()
    return run, ew, direct_sink.events, recorder


class TestNormalizer:
    def test_normalized_events_schema_valid(self):
        run, ew, direct, recorder = _run_with_raw(diamond())
        events = normalize_run(
            run.aw, ew, run.xwf_id, recorder.jobstate, recorder.kickstart
        )
        assert EventValidator(STAMPEDE_SCHEMA).validate(events).ok

    def test_archives_equivalent(self):
        """Direct pipeline and raw-log pipeline agree on the archive."""
        run, ew, direct, recorder = _run_with_raw(fan(width=8), seed=4)
        normalized = normalize_run(
            run.aw, ew, run.xwf_id, recorder.jobstate, recorder.kickstart
        )
        qa = StampedeQuery(load_events(direct).archive)
        qb = StampedeQuery(load_events(normalized).archive)
        wa, wb = qa.workflows()[0], qb.workflows()[0]
        assert wa.wf_uuid == wb.wf_uuid
        ca = qa.summary_counts(wa.wf_id)
        cb = qb.summary_counts(wb.wf_id)
        assert ca == cb
        # invocation durations identical record-by-record
        inva = sorted((i.abs_task_id or "", i.remote_duration)
                      for i in qa.invocations(wa.wf_id))
        invb = sorted((i.abs_task_id or "", i.remote_duration)
                      for i in qb.invocations(wb.wf_id))
        assert inva == invb

    def test_failures_and_retries_preserved(self):
        run, ew, direct, recorder = _run_with_raw(
            fan(width=10), seed=11, failure_rate=0.4
        )
        assert run.report.retries > 0
        normalized = normalize_run(
            run.aw, ew, run.xwf_id, recorder.jobstate, recorder.kickstart
        )
        q = StampedeQuery(load_events(normalized).archive)
        wf = q.workflows()[0]
        counts = q.summary_counts(wf.wf_id)
        assert counts.jobs_retries == run.report.retries
        assert counts.jobs_succeeded == run.report.succeeded

    def test_roundtrip_through_files(self, tmp_path):
        """Raw logs persisted to disk, re-parsed, then normalized."""
        run, ew, direct, recorder = _run_with_raw(diamond(), seed=2)
        jpath = tmp_path / "jobstate.log"
        kpath = tmp_path / "kickstart.rec"
        recorder.write(JobstateLogWriter(jpath), KickstartWriter(kpath))
        events = normalize_run(
            run.aw, ew, run.xwf_id,
            parse_jobstate_log(jpath), parse_kickstart_records(kpath),
        )
        q = StampedeQuery(load_events(events).archive)
        wf = q.workflows()[0]
        assert q.summary_counts(wf.wf_id).jobs_succeeded == len(ew)

    def test_unknown_job_strict(self):
        run, ew, direct, recorder = _run_with_raw(diamond())
        bogus = JobstateEntry(1.0, "ghost_job", "SUBMIT", "1.0", "s", 1)
        with pytest.raises(ValueError):
            normalize_run(run.aw, ew, run.xwf_id,
                          [bogus] + recorder.jobstate, recorder.kickstart)

    def test_unknown_job_tolerant(self):
        run, ew, direct, recorder = _run_with_raw(diamond())
        bogus = JobstateEntry(1.0, "ghost_job", "SUBMIT", "1.0", "s", 1)
        events = normalize_run(
            run.aw, ew, run.xwf_id,
            [bogus] + recorder.jobstate, recorder.kickstart, strict=False,
        )
        assert events  # bogus entry silently dropped

    def test_empty_logs(self):
        run, ew, direct, recorder = _run_with_raw(diamond())
        assert normalize_run(run.aw, ew, run.xwf_id, [], []) == []

import pytest

from repro.netlogger.events import NLEvent
from repro.netlogger.filters import (
    by_pattern,
    by_time_window,
    by_workflow,
    event_counts,
    sample,
    split_by_workflow,
)

from tests.helpers import XWF, diamond_events


class TestFilters:
    def test_by_pattern(self):
        events = diamond_events()
        inv = list(by_pattern(events, "stampede.inv.#"))
        assert len(inv) == 8  # 4 inv.start + 4 inv.end
        assert all(e.event.startswith("stampede.inv") for e in inv)

    def test_by_pattern_exact(self):
        events = diamond_events()
        assert len(list(by_pattern(events, "stampede.xwf.start"))) == 1

    def test_by_workflow(self):
        other = "99999999-8888-4777-8666-555555555555"
        mixed = diamond_events() + diamond_events(xwf=other)
        ours = list(by_workflow(mixed, XWF))
        assert len(ours) == len(diamond_events())
        assert all(str(e.get("xwf.id")) == XWF for e in ours)

    def test_by_time_window(self):
        events = diamond_events()
        early = list(by_time_window(events, end=10.0))
        late = list(by_time_window(events, start=10.0))
        assert len(early) + len(late) == len(events)
        assert all(e.ts < 10.0 for e in early)
        both = list(by_time_window(events, start=5.0, end=15.0))
        assert all(5.0 <= e.ts < 15.0 for e in both)

    def test_sample_deterministic_and_keeps_lifecycle(self):
        events = diamond_events()
        a = list(sample(events, 0.3, seed=5))
        b = list(sample(events, 0.3, seed=5))
        assert [e.event for e in a] == [e.event for e in b]
        names = [e.event for e in a]
        assert "stampede.xwf.start" in names
        assert "stampede.xwf.end" in names
        assert len(a) < len(events)

    def test_sample_bounds(self):
        events = diamond_events()
        assert len(list(sample(events, 1.0))) == len(events)
        only_lifecycle = list(sample(events, 0.0))
        assert all(e.event.startswith("stampede.xwf") for e in only_lifecycle)
        with pytest.raises(ValueError):
            list(sample(events, 1.5))

    def test_split_by_workflow(self):
        other = "99999999-8888-4777-8666-555555555555"
        mixed = diamond_events() + diamond_events(xwf=other)
        streams = split_by_workflow(mixed)
        assert set(streams) == {XWF, other}
        assert len(streams[XWF]) == len(streams[other])

    def test_event_counts(self):
        counts = event_counts(diamond_events())
        assert counts["stampede.inv.end"] == 4
        assert counts["stampede.task.info"] == 4
        assert counts["stampede.xwf.end"] == 1


class TestGantt:
    def test_gantt_rows(self):
        from repro.core.timeseries import gantt
        from repro.loader.nl_load import load_events
        from repro.query import StampedeQuery

        loader = load_events(diamond_events())
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        rows = gantt(q, wf.wf_id)
        assert len(rows) == 4
        for row in rows:
            assert row.hostname == "node1"
            assert row.submit is not None
            assert row.submit <= row.start <= row.end
            q_span = row.queue_span
            r_span = row.run_span
            assert q_span[1] == r_span[0]
            assert r_span[1] - r_span[0] == pytest.approx(4.0, abs=0.1)
        # sorted by start time
        starts = [r.start for r in rows]
        assert starts == sorted(starts)

    def test_gantt_incomplete_instance(self):
        from repro.core.timeseries import gantt
        from repro.loader.nl_load import load_events
        from repro.query import StampedeQuery

        # drop the tail so job 'd' never finishes
        events = diamond_events()
        cut = [e for e in events if not (
            e.event.startswith("stampede.job_inst.main")
            and str(e.get("job.id")) == "d"
        ) and e.event != "stampede.xwf.end"]
        loader = load_events(cut)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        rows = gantt(q, wf.wf_id)
        incomplete = next(r for r in rows if r.exec_job_id == "d")
        assert incomplete.end is None
        assert incomplete.run_span is None

from repro.core.reports import render_gantt
from repro.core.timeseries import GanttRow, gantt
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery

from tests.helpers import diamond_events


class TestRenderGantt:
    def test_real_run(self):
        loader = load_events(diamond_events())
        q = StampedeQuery(loader.archive)
        rows = gantt(q, 1)
        text = render_gantt(rows, width=40)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 jobs
        assert "#" in text and "." in text
        assert "node1" in text

    def test_empty(self):
        assert "no timed job" in render_gantt([])

    def test_unfinished_instance_rendered_queued(self):
        rows = [
            GanttRow("a", 1, "h", submit=0.0, start=None, end=None),
            GanttRow("b", 1, "h", submit=0.0, start=5.0, end=10.0),
        ]
        text = render_gantt(rows, width=20)
        a_line = next(l for l in text.splitlines() if l.startswith("a"))
        assert "#" not in a_line  # never started: only queue dots
        assert "." in a_line

    def test_zero_span(self):
        rows = [GanttRow("a", 1, "h", submit=1.0, start=1.0, end=1.0)]
        text = render_gantt(rows)
        assert "a" in text  # degenerate span does not crash

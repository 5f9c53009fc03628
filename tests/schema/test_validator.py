import pytest

from repro.netlogger.events import NLEvent
from repro.schema.events import Events
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator

XWF = "ea17e8ac-02ac-4909-b5e3-16e367392556"


@pytest.fixture
def validator():
    return EventValidator(STAMPEDE_SCHEMA)


def xwf_start(**extra):
    attrs = {"xwf.id": XWF, "restart_count": 0}
    attrs.update(extra)
    return NLEvent(Events.XWF_START, 100.0, attrs)


class TestEventValidator:
    def test_valid_event(self, validator):
        assert validator.validate_event(xwf_start()) == []

    def test_missing_mandatory(self, validator):
        ev = NLEvent(Events.XWF_START, 100.0, {"xwf.id": XWF})
        violations = validator.validate_event(ev)
        assert [v.kind for v in violations] == ["missing"]
        assert violations[0].attribute == "restart_count"

    def test_bad_type(self, validator):
        violations = validator.validate_event(xwf_start(restart_count="many"))
        assert [v.kind for v in violations] == ["bad-type"]

    def test_unknown_event(self, validator):
        ev = NLEvent("stampede.nope", 0.0)
        assert [v.kind for v in validator.validate_event(ev)] == ["unknown-event"]

    def test_unknown_event_allowed(self):
        v = EventValidator(STAMPEDE_SCHEMA, allow_unknown_events=True)
        assert v.validate_event(NLEvent("custom.thing", 0.0)) == []

    def test_unknown_attr(self, validator):
        violations = validator.validate_event(xwf_start(custom="x"))
        assert [v.kind for v in violations] == ["unknown-attr"]

    def test_unknown_attr_allowed(self):
        v = EventValidator(STAMPEDE_SCHEMA, allow_unknown_attrs=True)
        assert v.validate_event(xwf_start(custom="x")) == []

    def test_check_raises(self, validator):
        with pytest.raises(ValueError):
            validator.check(NLEvent("stampede.nope", 0.0))
        validator.check(xwf_start())

    def test_validate_stream_report(self, validator):
        events = [xwf_start(), NLEvent("stampede.nope", 0.0), xwf_start()]
        report = validator.validate(events)
        assert report.events_checked == 3
        assert len(report.violations) == 1
        assert not report.ok
        assert "3 event" in report.summary()

    def test_ok_report(self, validator):
        report = validator.validate([xwf_start()])
        assert report.ok
        assert "OK" in report.summary()

    def test_paper_log_line_validates(self, validator):
        line = (
            "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start level=Info "
            "xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 restart_count=0"
        )
        assert validator.validate_event(NLEvent.from_bp(line)) == []

    def test_violation_str(self, validator):
        (violation,) = validator.validate_event(
            NLEvent(Events.XWF_START, 0.0, {"xwf.id": XWF})
        )
        text = str(violation)
        assert "missing" in text and "restart_count" in text

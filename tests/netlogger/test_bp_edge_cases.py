"""BP quoting/escaping edge cases and duplicate-attribute handling."""
import pytest

from repro.netlogger.bp import (
    BPParseError,
    format_bp_line,
    parse_bp_line,
    parse_bp_pairs,
    quote_value,
)

TS = "ts=2012-03-13T12:00:00.000000Z event=e.v"


class TestQuotingEdgeCases:
    def test_empty_value_round_trips(self):
        attrs = parse_bp_line(f'{TS} msg=""')
        assert attrs["msg"] == ""
        assert 'msg=""' in format_bp_line(attrs)

    def test_value_of_only_spaces(self):
        attrs = parse_bp_line(f'{TS} msg="   "')
        assert attrs["msg"] == "   "

    def test_embedded_quote(self):
        attrs = parse_bp_line(f'{TS} msg="say \\"hi\\""')
        assert attrs["msg"] == 'say "hi"'

    def test_embedded_backslash(self):
        attrs = parse_bp_line(f'{TS} path="C:\\\\tmp\\\\x"')
        assert attrs["path"] == "C:\\tmp\\x"

    def test_backslash_then_quote(self):
        # literal backslash immediately before the closing quote
        attrs = parse_bp_line(f'{TS} msg="end\\\\"')
        assert attrs["msg"] == "end\\"

    def test_equals_inside_quotes(self):
        attrs = parse_bp_line(f'{TS} expr="a=b=c"')
        assert attrs["expr"] == "a=b=c"

    def test_dangling_escape_rejected(self):
        with pytest.raises(BPParseError):
            parse_bp_line(f'{TS} msg="trailing\\')

    def test_unterminated_quote_rejected(self):
        with pytest.raises(BPParseError):
            parse_bp_line(f'{TS} msg="never closed')

    def test_quote_value_chooses_minimal_form(self):
        assert quote_value("plain") == "plain"
        assert quote_value("has space") == '"has space"'
        assert quote_value("") == '""'
        assert quote_value('q"q') == '"q\\"q"'

    @pytest.mark.parametrize("value", [
        "", " ", "a b", 'a"b', "a\\b", "a=b", 'mix "of \\ all=things ',
        "tab\tinside", "unicode ✓ value",
    ])
    def test_round_trip_stability(self, value):
        attrs = {"ts": "2012-03-13T12:00:00.000000Z", "event": "e.v",
                 "msg": value}
        line1 = format_bp_line(attrs)
        parsed = parse_bp_line(line1)
        assert parsed["msg"] == value
        # serialize -> parse -> serialize is a fixed point
        assert format_bp_line(parsed) == line1


class TestDuplicateAttributes:
    LINE = f"{TS} x=1 x=2"

    def test_default_last_occurrence_wins(self):
        assert parse_bp_line(self.LINE)["x"] == "2"

    def test_strict_raises(self):
        with pytest.raises(BPParseError) as err:
            parse_bp_line(self.LINE, strict=True)
        assert "duplicate" in str(err.value)

    def test_strict_accepts_clean_line(self):
        attrs = parse_bp_line(f"{TS} x=1 y=2", strict=True)
        assert attrs["x"] == "1" and attrs["y"] == "2"

    def test_parse_bp_pairs_preserves_duplicates(self):
        pairs = parse_bp_pairs(self.LINE)
        assert pairs.count(("x", "1")) == 1
        assert pairs.count(("x", "2")) == 1

    def test_parse_bp_pairs_preserves_order(self):
        pairs = parse_bp_pairs(f"{TS} b=1 a=2 b=3")
        names = [k for k, _ in pairs]
        assert names == ["ts", "event", "b", "a", "b"]

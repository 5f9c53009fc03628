import pytest

from repro.schema.compiler import compile_module
from repro.schema.events import Events
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.yang.parser import parse_yang
from repro.schema.yang.types import TypeRegistry, YangTypeError


def resolve(text: str, typedefs: str = ""):
    registry = TypeRegistry()
    if typedefs:
        for stmt in parse_yang(typedefs):
            registry.register_typedef(stmt)
    (stmt,) = parse_yang(text)
    return registry.resolve(stmt)


class TestTypes:
    def test_string_plain(self):
        t = resolve("type string;")
        t.check("anything at all")

    def test_string_pattern(self):
        t = resolve(r'type string { pattern "[a-z]+"; }')
        t.check("abc")
        with pytest.raises(YangTypeError):
            t.check("ABC")

    def test_string_length(self):
        t = resolve('type string { length "2..4"; }')
        t.check("abc")
        with pytest.raises(YangTypeError):
            t.check("a")
        with pytest.raises(YangTypeError):
            t.check("abcde")

    def test_uint32(self):
        t = resolve("type uint32;")
        t.check("0")
        t.check("4294967295")
        with pytest.raises(YangTypeError):
            t.check("-1")
        with pytest.raises(YangTypeError):
            t.check("4294967296")
        with pytest.raises(YangTypeError):
            t.check("abc")

    def test_int32_range_restriction(self):
        t = resolve('type int32 { range "0..10"; }')
        t.check("5")
        with pytest.raises(YangTypeError):
            t.check("11")

    def test_decimal64(self):
        t = resolve("type decimal64;")
        t.check("74.0")
        t.check("-1")
        with pytest.raises(YangTypeError):
            t.check("x")

    def test_boolean(self):
        t = resolve("type boolean;")
        for ok in ("true", "false", "0", "1", "True"):
            t.check(ok)
        with pytest.raises(YangTypeError):
            t.check("yes")

    def test_enumeration(self):
        t = resolve("type enumeration { enum A; enum B; }")
        t.check("A")
        with pytest.raises(YangTypeError):
            t.check("C")

    def test_union(self):
        t = resolve("type union { type uint32; type enumeration { enum X; } }")
        t.check("5")
        t.check("X")
        with pytest.raises(YangTypeError):
            t.check("Y")

    def test_typedef_resolution(self):
        t = resolve(
            "type myint;", typedefs='typedef myint { type uint8 { range "0..1"; } }'
        )
        t.check("1")
        with pytest.raises(YangTypeError):
            t.check("2")

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            resolve("type nosuch;")

    def test_duplicate_typedef_rejected(self):
        registry = TypeRegistry()
        (td,) = parse_yang("typedef t { type string; }")
        registry.register_typedef(td)
        with pytest.raises(ValueError):
            registry.register_typedef(td)


MINI_MODULE = """
module mini {
    typedef score { type uint8 { range "0..100"; } }
    grouping base {
        leaf ts { type string; mandatory true; }
    }
    container mini.event {
        description "An event";
        uses base;
        leaf value { type score; mandatory true; }
        leaf note { type string; }
    }
}
"""


class TestCompiler:
    def test_compile_mini_module(self):
        reg = compile_module(MINI_MODULE)
        assert reg.module_name == "mini"
        schema = reg.get("mini.event")
        assert schema is not None
        assert set(schema.leaves) == {"ts", "value", "note"}
        assert schema.leaves["value"].mandatory
        assert not schema.leaves["note"].mandatory
        assert schema.description == "An event"

    def test_grouping_flattened(self):
        reg = compile_module(MINI_MODULE)
        assert "ts" in reg.get("mini.event").leaves

    def test_unknown_grouping(self):
        bad = "module m { container c { uses nothere; } }"
        with pytest.raises(ValueError):
            compile_module(bad)

    def test_duplicate_container(self):
        bad = "module m { container c { } container c { } }"
        with pytest.raises(ValueError):
            compile_module(bad)


class TestStampedeSchema:
    def test_all_events_compiled(self):
        assert len(STAMPEDE_SCHEMA) == len(Events.all())

    def test_base_event_in_every_schema(self):
        for name in STAMPEDE_SCHEMA.event_names():
            schema = STAMPEDE_SCHEMA.get(name)
            assert "ts" in schema.leaves, name
            assert schema.leaves["ts"].mandatory, name
            assert "xwf.id" in schema.leaves, name

    def test_xwf_start_restart_count(self):
        schema = STAMPEDE_SCHEMA.get(Events.XWF_START)
        assert schema.leaves["restart_count"].mandatory
        assert schema.leaves["restart_count"].type_name == "uint32"

    def test_job_inst_events_share_ids(self):
        for name in STAMPEDE_SCHEMA.event_names():
            if name.startswith("stampede.job_inst."):
                schema = STAMPEDE_SCHEMA.get(name)
                assert "job.id" in schema.leaves, name
                assert "job_inst.id" in schema.leaves, name

    def test_inv_end_mandatories(self):
        schema = STAMPEDE_SCHEMA.get(Events.INV_END)
        for attr in ("start_time", "dur", "exitcode", "transformation", "status"):
            assert schema.leaves[attr].mandatory, attr

    def test_uuid_type_checks(self):
        leaf = STAMPEDE_SCHEMA.get(Events.XWF_START).leaves["xwf.id"]
        leaf.yang_type.check("ea17e8ac-02ac-4909-b5e3-16e367392556")
        with pytest.raises(YangTypeError):
            leaf.yang_type.check("not-a-uuid")

    def test_nl_ts_union_accepts_both_forms(self):
        leaf = STAMPEDE_SCHEMA.get(Events.XWF_START).leaves["ts"]
        leaf.yang_type.check("2012-03-13T12:35:38.000000Z")
        leaf.yang_type.check("1331642138.5")
        with pytest.raises(YangTypeError):
            leaf.yang_type.check("yesterday")

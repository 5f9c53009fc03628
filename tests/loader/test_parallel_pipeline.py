"""The parallel ingest pipeline: ordering, error policy, end-to-end
row identity, and the insert-path caches it leans on.

The contract under test is the tentpole invariant: ``--workers N`` may
only change *how fast* events reach the archive, never *what* reaches
it.  Every worker/parse-mode combination must produce an archive
row-for-row identical (surrogate keys included) to the sequential
loader's — including under a seeded fault plan.
"""
import random

import pytest

from repro.archive.store import StampedeArchive
from repro.bus.client import EventPublisher
from repro.faults import ChaosBroker, FaultPlan
from repro.loader.nl_load import load_file, load_from_bus, make_loader
from repro.loader.nl_load import main as nl_load_main
from repro.loader.pipeline import ParsePool, process_pool_available
from repro.loader.stampede_loader import StampedeLoader
from repro.netlogger.bp import BPParseError
from repro.netlogger.stream import write_events
from repro.orm import (
    Column,
    Integer,
    MemoryDatabase,
    SqliteDatabase,
    Table,
    Text,
)
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

from tests.helpers import diamond_events
from tests.integration.test_chaos_pipeline import (
    CHAOS_SPEC,
    QUEUE,
    baseline_run,
    bind_queue,
    publish_stream,
)
from tests.loader.test_checkpoint_resume import dump_archive


def cybershake_events(n_ruptures: int = 5, seed: int = 0):
    sink = MemoryAppender()
    catalog = SiteCatalog(
        [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
    )
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=catalog,
        planner_config=PlannerConfig(cluster_size=8),
        seed=seed,
    )
    return list(sink.events)


@pytest.fixture(scope="module")
def cybershake_bp(tmp_path_factory):
    path = tmp_path_factory.mktemp("bp") / "cybershake.bp"
    events = cybershake_events()
    write_events(str(path), events)
    return path, len(events)


def _load(path, **kwargs):
    loader = StampedeLoader(StampedeArchive.open("sqlite:///:memory:"))
    load_file(str(path), loader, **kwargs)
    return loader


# ---------------------------------------------------------------------------
# ParsePool unit behavior
# ---------------------------------------------------------------------------

class TestParsePool:
    def test_pooled_results_preserve_input_order(self):
        lines = [
            (f"ts={i}.5 event=order.test n={i}", i) for i in range(2000)
        ]
        with ParsePool(workers=4, chunk_size=16) as pool:
            out = list(pool.results(lines))
        assert len(out) == 2000
        for i, (outcome, line, meta) in enumerate(out):
            assert meta == i
            assert line == lines[i][0]
            assert outcome.attrs["n"] == str(i)
        assert pool.lines_parsed == 2000
        assert pool.chunks_parsed == 125

    def test_inline_pool_matches_pooled(self):
        lines = [(f"ts={i} event=a.b x={i}", i) for i in range(500)]
        with ParsePool(workers=0) as inline, ParsePool(workers=3) as pooled:
            a = [(o.event, o.ts, o.attrs) for o, _, _ in inline.results(lines)]
            b = [(o.event, o.ts, o.attrs) for o, _, _ in pooled.results(lines)]
        assert a == b

    def test_bad_lines_surface_per_line(self):
        lines = [
            ("ts=1 event=good.one", 0),
            ("this is not bp", 1),
            ("ts=3 event=good.two", 2),
        ]
        with ParsePool(workers=2, chunk_size=1) as pool:
            out = list(pool.results(lines))
        assert out[0][0].event == "good.one"
        assert isinstance(out[1][0], Exception)
        assert out[2][0].event == "good.two"

    def test_events_error_policies(self):
        lines = [("ts=1 event=ok", 1), ("garbage", 2), ("ts=3 event=ok2", 3)]
        with ParsePool(workers=2, chunk_size=1) as pool:
            with pytest.raises(BPParseError):
                list(pool.events(iter(lines), on_error="raise"))
            good = list(pool.events(iter(lines), on_error="skip"))
            assert [meta for _, meta in good] == [1, 3]
            seen = []
            list(pool.events(iter(lines), on_error=lambda m, l, e: seen.append(m)))
            assert seen == [2]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParsePool(workers=-1)
        with pytest.raises(ValueError):
            ParsePool(mode="fiber")
        with pytest.raises(ValueError):
            ParsePool(parse_mode="sloppy")
        with pytest.raises(ValueError):
            ParsePool(chunk_size=0)


# ---------------------------------------------------------------------------
# end-to-end row identity: workers/parse-mode must not change the archive
# ---------------------------------------------------------------------------

class TestRowIdentity:
    def test_workers4_identical_to_workers1_on_cybershake(self, cybershake_bp):
        path, n_events = cybershake_bp
        sequential = _load(path, workers=1)
        parallel = _load(path, workers=4)
        assert sequential.stats.events_processed == n_events
        assert parallel.stats.events_processed == n_events
        assert dump_archive(parallel.archive) == dump_archive(sequential.archive)

    def test_workers0_and_strict_identical(self, cybershake_bp):
        path, _ = cybershake_bp
        dumps = [
            dump_archive(_load(path, workers=w, parse_mode=m).archive)
            for w, m in [(0, "fast"), (0, "strict"), (4, "strict")]
        ]
        assert dumps[0] == dumps[1] == dumps[2]

    @pytest.mark.skipif(
        not process_pool_available(), reason="no process pool on this platform"
    )
    def test_process_mode_identical(self, cybershake_bp):
        path, _ = cybershake_bp
        thread = _load(path, workers=2, worker_mode="thread")
        process = _load(path, workers=2, worker_mode="process")
        assert dump_archive(process.archive) == dump_archive(thread.archive)

    def test_chaos_run_with_workers4_is_row_identical(self):
        baseline = dump_archive(baseline_run().archive)
        plan = FaultPlan.from_dict(CHAOS_SPEC)
        broker = ChaosBroker(plan)
        bind_queue(broker)
        publish_stream(broker, poison=True)
        loader = make_loader(batch_size=10)
        loader.archive.db = plan.wrap_database(loader.archive.db)
        load_from_bus(
            broker,
            queue_name=QUEUE,
            durable=True,
            loader=loader,
            dead_letter=True,
            workers=4,
        )
        assert plan.stats.total_injected > 0
        assert loader.stats.dlq_events == 2
        assert dump_archive(loader.archive) == baseline

    def test_bus_chaos_with_string_bodies_and_workers(self):
        """Raw BP strings on the wire (not NLEvent objects) exercise the
        pool on the bus path; the archive must still match the baseline."""
        baseline = dump_archive(baseline_run().archive)
        plan = FaultPlan.from_dict({"seed": 9, "bus": {"drop": 0.1, "duplicate": 0.1}})
        broker = ChaosBroker(plan)
        bind_queue(broker)
        publisher = EventPublisher(broker)
        for event in diamond_events():
            publisher.publish(event)
        loader = make_loader(batch_size=10)
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader, workers=2
        )
        assert dump_archive(loader.archive) == baseline


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_workers_flag(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        db = tmp_path / "out.db"
        rc = nl_load_main(
            [str(bp), "stampede_loader", f"connString=sqlite:///{db}", "-w", "4"]
        )
        assert rc == 0
        parallel = StampedeArchive.open(f"sqlite:///{db}")
        db2 = tmp_path / "seq.db"
        assert (
            nl_load_main([str(bp), "stampede_loader", f"connString=sqlite:///{db2}"])
            == 0
        )
        sequential = StampedeArchive.open(f"sqlite:///{db2}")
        assert dump_archive(parallel) == dump_archive(sequential)

    def test_parse_mode_strict_flag(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        rc = nl_load_main(
            [
                str(bp),
                "stampede_loader",
                "connString=sqlite:///:memory:",
                "--parse-mode",
                "strict",
            ]
        )
        assert rc == 0

    def test_profile_flag_writes_pstats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        out = tmp_path / "load.pstats"
        rc = nl_load_main(
            [
                str(bp),
                "stampede_loader",
                "connString=sqlite:///:memory:",
                "--profile",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists() and out.stat().st_size > 0
        assert "profile written to" in capsys.readouterr().err

    def test_workers_with_lint_rejected(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        with pytest.raises(SystemExit):
            nl_load_main([str(bp), "--lint", "-w", "2"])

    def test_negative_workers_rejected(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        with pytest.raises(SystemExit):
            nl_load_main([str(bp), "-w", "-1"])


# ---------------------------------------------------------------------------
# insert-path caches: max-id cache + memory pk index
# ---------------------------------------------------------------------------

def _table():
    return Table(
        "things",
        [
            Column("id", Integer(), primary_key=True),
            Column("name", Text(), nullable=False),
        ],
    )


@pytest.fixture(params=["sqlite", "memory"])
def cache_db(request):
    if request.param == "sqlite":
        database = SqliteDatabase(":memory:")
        yield database
        database.close()
    else:
        yield MemoryDatabase()


class TestInsertPathCaches:
    def test_max_value_tracks_inserts(self, cache_db):
        table = _table()
        cache_db.create_tables([table])
        assert cache_db.max_value(table, "id") is None
        cache_db.insert(table, {"id": 7, "name": "a"})
        assert cache_db.max_value(table, "id") == 7
        cache_db.insert_many(table, [{"id": 9, "name": "b"}, {"id": 3, "name": "c"}])
        # cached max must have been bumped, not stale-served
        assert cache_db.max_value(table, "id") == 9

    def test_max_cache_survives_interleaved_updates(self, cache_db):
        table = _table()
        cache_db.create_tables([table])
        cache_db.insert(table, {"id": 1, "name": "a"})
        assert cache_db.max_value(table, "id") == 1
        # rewriting the cached column must invalidate, not stale-serve
        cache_db.update(table, {"id": 5}, {"name": "a"})
        assert cache_db.max_value(table, "id") == 5

    def test_max_cache_dropped_on_rollback(self):
        database = SqliteDatabase(":memory:")
        table = _table()
        database.create_tables([table])
        database.insert(table, {"id": 1, "name": "a"})
        assert database.max_value(table, "id") == 1
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert(table, {"id": 50, "name": "doomed"})
                raise RuntimeError("boom")
        # the rolled-back row must not linger in the cache
        assert database.max_value(table, "id") == 1
        database.close()

    def test_memory_update_by_pk_uses_index(self, cache_db):
        table = _table()
        cache_db.create_tables([table])
        rows = [{"id": i, "name": f"n{i}"} for i in range(200)]
        random.Random(3).shuffle(rows)
        cache_db.insert_many(table, rows)
        assert cache_db.update(table, {"name": "hit"}, {"id": 137}) == 1
        assert cache_db.update(table, {"name": "miss"}, {"id": 9999}) == 0
        from repro.orm import Query

        got = cache_db.select(Query(table).eq("id", 137))
        assert got[0]["name"] == "hit"

    def test_memory_pk_rewrite_degrades_safely(self):
        database = MemoryDatabase()
        table = _table()
        database.create_tables([table])
        database.insert_many(table, [{"id": i, "name": f"n{i}"} for i in range(10)])
        # move a row to a new pk — the index can no longer be trusted
        assert database.update(table, {"id": 100}, {"id": 4}) == 1
        from repro.orm import Query

        assert database.select(Query(table).eq("id", 100))[0]["name"] == "n4"
        assert database.select(Query(table).eq("id", 4)) == []
        # updates by pk still correct after degradation
        assert database.update(table, {"name": "moved"}, {"id": 100}) == 1
        assert database.select(Query(table).eq("id", 100))[0]["name"] == "moved"

    def test_memory_duplicate_pk_degrades_safely(self):
        database = MemoryDatabase()
        table = _table()
        database.create_tables([table])
        database.insert(table, {"id": 1, "name": "first"})
        database.insert(table, {"id": 1, "name": "second"})  # no constraint check
        # both rows must be visible to a pk-filtered update (scan semantics)
        assert database.update(table, {"name": "both"}, {"id": 1}) == 2

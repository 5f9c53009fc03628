"""The workloads.  Each returns a :class:`Outcome`; ``run.py`` turns it
into the printed result.  Both are open loop: the input arrives on a
schedule, whatever the system does.

* ``file-sharded``: a BP log that grows at a fixed rate, caught up every
  few seconds by ``nl-load LOG --resume --shard-dir DIR`` (checkpointed,
  two shards), with a dashboard over the shard set polled for freshness.
* ``live``: a bursty publisher -> ``stampede-bus serve`` ->
  ``nl-load --bus`` into a copy of a history larger than sqlite's page
  cache, served by a ``stampede-dashboard`` that an open-loop reader
  polls and browses.

Constants below are the benchmark's definition; a change to any of them
is a change of benchmark, not of the program.
"""
from __future__ import annotations

import bisect
import json
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import inputs
import tracing
from system import (Freshness, Proc, Reader, Timeline, archive_bytes,
                    check_archive, child_env, median, now, pct, poll_paths,
                    sleep_until, stop_all, wait_visible)

#: file-sharded: events appended to the log per second, and the period
#: of the catch-up loader.  A catch-up of ~4,500 events takes about
#: 1.1 s of a 3 s period, so the loader keeps up in the host's slow
#: phases too, and freshness is set by the period more than by speed.
FILE_RATE = 1500.0
FILE_PERIOD = 3.0
#: polls of /api/poll per second beside the catch-ups
POLL_HZ = 10.0
#: repeated set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: live offered load: BurstTrain(base, burst, period, fraction), a mean
#: of 700 ev/s.  The host's speed swings by up to 2x within minutes; a
#: mean near the drain capacity of its slow phases turned freshness from
#: ~250 ms into seconds, so the load stays well under it.
BUS_BASE_RATE = 400.0
BUS_BURST_RATE = 1600.0
BUS_PERIOD = 2.0
BUS_BURST_FRACTION = 0.25
#: the live reader: requests per second (the dashboard is about half busy
#: serving them) and its cycle, a viewer that mostly polls progress and
#: now and then opens a page.  The whole-archive endpoints (poll,
#: workflows) cost ~50 ms each on the history, the point reads ~5 ms.
READ_RATE = 10.0
READ_MIX = ("poll", "workflow", "poll", "progress", "poll",
            "jobs", "poll", "workflows", "poll")
#: a run whose generator ran later than this is invalid, not slow
LATE_LIMIT_S = 0.5
#: events in one copy of the mixed trace
COPY_EVENTS = 7259


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    work: Path
    cache: Path
    #: every process the run started, for the peak-RSS metric
    procs: List[Proc] = field(default_factory=list)

    def launch(self, role: str, args, tag: str, **kwargs) -> Proc:
        proc = Proc(self.work, role, args, tag, **kwargs)
        self.procs.append(proc)
        return proc


@dataclass
class Outcome:
    events: int
    ingest_eps: float
    setup_s: float
    #: CPU seconds of the ingest processes (loaders, bus server)
    ingest_cpu_s: float
    #: every freshness sample, for the count
    freshness_ms: List[float]
    freshness_p50_ms: float
    freshness_p99_ms: float
    query_ms: List[float]
    archive_bytes: int
    attempted: int
    failed: int
    problems: List[str]
    #: how far the load generator ran behind its schedule
    late_max_s: float = 0.0
    #: how far the reader ran behind: the system's queueing, not invalid
    reader_late_s: float = 0.0
    reader_lateness: List[float] = field(default_factory=list)
    endpoint_ms: Dict[str, List[float]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


# -- file-sharded ---------------------------------------------------------------

def _catch_up(ctx: Ctx, log: Path, shards: Path, tag: str, trace: bool = False) -> Proc:
    return ctx.launch("nl-load", [str(log), "--resume", "--shard-dir", str(shards)],
                      tag, trace=trace, ready=False)


def _finish(proc: Proc) -> None:
    rc = proc.wait()
    if rc != 0:
        raise RuntimeError(f"nl-load {proc.tag} exited {rc}: {proc.tail()}")


def _setup_file(ctx: Ctx) -> float:
    """The catch-up command on an empty log and an empty shard set."""
    from repro.archive.shard import ShardSet

    empty = ctx.work / "empty.bp"
    empty.write_text("")
    walls = []
    for i in range(SETUP_REPEATS):
        shards = ctx.work / f"setup{i}-shards"
        ShardSet.create(shards, 2).close()
        proc = _catch_up(ctx, empty, shards, f"setup{i}")
        _finish(proc)
        walls.append(proc.ended - proc.launched)
    return median(walls)


def file_sharded(ctx: Ctx) -> Outcome:
    from repro.archive.shard import ShardSet

    n = int(ctx.seconds * FILE_RATE)
    bp = inputs.storm_file(ctx.cache, ctx.seed, -(-n // COPY_EVENTS), "file")
    lines = inputs.read_lines(bp)[:n]
    offsets = [i / FILE_RATE for i in range(n)]
    ref = inputs.Reference(lines)
    invs = inputs.inv_positions(lines)
    setup = _setup_file(ctx)

    shards, log = ctx.work / "shards", ctx.work / "workflow.bp"
    ShardSet.create(shards, 2).close()
    log.write_text("")
    dash = ctx.launch("dashboard-shards", [str(shards)], "dash", trace=ctx.trace)
    fresh = Freshness()
    reader = Reader(dash.wait_ready(), POLL_HZ, poll_paths, fresh)
    reader.warm(["/api/poll?since=-1"])
    #: (traced, events appended before it, process) per catch-up
    loads: List[Tuple[bool, int, Proc]] = []
    late = 0.0
    origin = now() + 0.1
    for idx, uuid, k in invs:
        fresh.expect(uuid, k, origin + offsets[idx])
    reader.start(origin)
    try:
        sent = 0
        with open(log, "a", encoding="utf-8") as fh:
            while sent < n:
                tick = origin + (len(loads) + 1) * FILE_PERIOD
                sleep_until(tick)
                late = max(late, now() - tick)
                # a catch-up still running holds the next one back: that
                # wait is the system's, and it shows in freshness
                if loads:
                    _finish(loads[-1][2])
                upto = bisect.bisect_right(offsets, now() - origin)
                # the loader never sees a line being written: lines go
                # out between catch-ups, each at or after its due time
                fh.write("".join(line + "\n" for line in lines[sent:upto]))
                fh.flush()
                traced = ctx.trace and len(loads) % 2 == 1
                loads.append((traced, upto - sent,
                              _catch_up(ctx, log, shards, f"load{len(loads)}", traced)))
                sent = upto
        _finish(loads[-1][2])
        reader.stop()
        t_visible = wait_visible(reader, ref.events, timeout=60.0)
        reader.digest()
        dash.stop()
    finally:
        stop_all([dash] + [p for _, _, p in loads])
    problems, missing = check_archive(str(shards), ref, shards)
    freshness = [s * 1000.0 for s in fresh.samples]
    plain = [(k, p) for t, k, p in loads if not t]
    print(f"  {len(loads)} catch-ups of " + " ".join(str(k) for _, k, _ in loads)
          + " events; CPU (s) " + " ".join(f"{p.cpu_s():.2f}" for _, _, p in loads),
          flush=True)
    out = Outcome(
        events=n, ingest_eps=n / (t_visible - origin), setup_s=setup,
        ingest_cpu_s=sum(p.cpu_s() for _, p in plain) * n / sum(k for k, _ in plain),
        freshness_ms=freshness, freshness_p50_ms=median(freshness),
        freshness_p99_ms=pct(freshness, 99.0),
        query_ms=reader.all_latencies(), archive_bytes=archive_bytes(shards),
        attempted=n + reader.requests, failed=missing + reader.failures + len(problems),
        problems=problems, late_max_s=late, reader_late_s=reader.late_max,
        reader_lateness=reader.lateness, endpoint_ms=dict(reader.latency),
    )
    if ctx.trace:
        out.layers = _file_layers([(k, p) for t, k, p in loads if t], plain, dash)
    return out


# -- live -----------------------------------------------------------------------

def _live_stack(ctx: Ctx, tag: str, trace: bool,
                db: Path) -> Tuple[List[Proc], str, str, float]:
    """Bus server -> bus loader -> dashboard over ``db``, each started
    once the one before it is ready.  Returns (procs, bus url, dashboard
    url, start-up seconds)."""
    procs: List[Proc] = []
    t0 = now()
    try:
        bus = ctx.launch("bus", ["serve", "--port", "0", "--announce",
                                 str(ctx.work / f"{tag}-bus.ready")], f"{tag}-bus")
        procs.append(bus)
        bus_url = bus.wait_ready()
        loader = ctx.launch("nl-load", [
            "--bus", bus_url, "stampede_loader", f"connString=sqlite:///{db}",
            "--idle-exit", "600"], f"{tag}-loader", trace=trace)
        procs.append(loader)
        loader.wait_ready()
        dash = ctx.launch("dashboard", [f"sqlite:///{db}"], f"{tag}-dash", trace=trace)
        procs.append(dash)
        dash_url = dash.wait_ready()
    except BaseException:
        stop_all(procs)
        raise
    return procs, bus_url, dash_url, now() - t0


def _stop_stack(procs: List[Proc]) -> None:
    for proc in reversed(procs):
        proc.stop()


def live(ctx: Ctx) -> Outcome:
    from repro.replay.shape import BurstTrain

    history = inputs.history(ctx.cache)
    with open(history / "meta.pickle", "rb") as fh:
        meta = pickle.load(fh)
    shape = BurstTrain(BUS_BASE_RATE, BUS_BURST_RATE, BUS_PERIOD, BUS_BURST_FRACTION)
    offsets: List[float] = []
    while True:
        off = shape.offset(len(offsets), 0.0)
        if off >= ctx.seconds:
            break
        offsets.append(off)
    lines = inputs.storm_lines(ctx.seed, -(-len(offsets) // 7259), "live")[: len(offsets)]
    bp = ctx.work / "live-input.bp"
    bp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    ref = inputs.Reference(lines)
    ref.events += meta["events"]
    invs = inputs.inv_positions(lines)
    live_uuids = {inputs.workflow_of(line) for line in lines}

    # one copy serves every set-up: a stack that is only started and
    # stopped writes no rows (the history oracle checks that)
    db = ctx.work / "live.db"
    shutil.copyfile(history / "history.db", db)
    walls = []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        procs, bus_url, dash_url, wall = _live_stack(
            ctx, f"stack{i}", ctx.trace and last, db)
        walls.append(wall)
        if not last:
            _stop_stack(procs)
    setup = median(walls)
    bus, loader, dash = procs
    start_bytes = archive_bytes(db)
    fresh = Freshness(base_invocations=meta["invocations"])
    live_ids: List[int] = []
    historic = meta["historic_wf_id"]

    def paths(i: int) -> Tuple[str, str]:
        kind = READ_MIX[i % len(READ_MIX)]
        if kind == "workflows":
            return kind, "/api/workflows"
        if kind == "poll":
            return kind, "/api/poll?since=-1"
        if kind == "jobs":
            return kind, f"/api/workflow/{historic}/jobs"
        wf = live_ids[(i // len(READ_MIX)) % len(live_ids)] if live_ids else historic
        if kind == "workflow":
            return kind, f"/api/workflow/{wf}"
        return kind, f"/api/workflow/{wf}/progress"

    reader = Reader(dash_url, READ_RATE, paths, fresh)
    reader.warm([paths(i)[1] for i in range(len(READ_MIX))], rounds=1)
    spec = ctx.work / "publish.json"
    spec.write_text(json.dumps({"url": bus_url, "bp": str(bp), "offsets": offsets,
                                "inv_index": [idx for idx, _, _ in invs]}))
    ready, result = ctx.work / "publish.ready", ctx.work / "publish.out.json"
    generator = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "publish.py"),
         str(spec), str(ready), str(result)],
        env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        while not ready.exists():
            if generator.poll() is not None:
                raise RuntimeError(f"publisher failed: {generator.stderr.read().decode()}")
            time.sleep(0.005)
        origin = float(ready.read_text())
        for idx, uuid, k in invs:
            fresh.expect(uuid, k, origin + offsets[idx])
        reader.start(origin)
        # the point reads follow the first live workflows once visible
        deadline = origin + ctx.seconds
        while not live_ids and now() < deadline:
            sleep_until(now() + 0.25)
            rows = reader.peek_workflows()
            live_ids[:] = [r["wf_id"] for r in rows if r["wf_uuid"] in live_uuids]
        _, err = generator.communicate(timeout=ctx.seconds + 60)
        if generator.returncode != 0:
            raise RuntimeError(f"publisher failed: {err.decode()}")
        published = json.loads(result.read_text())
        fresh.sent = Timeline([tuple(p) for p in published["timeline"]])
        reader.stop()
        t_visible = wait_visible(reader, ref.events, timeout=60.0)
        reader.digest()
        _stop_stack(procs)
    finally:
        if generator.poll() is None:
            generator.kill()
            generator.wait()
        stop_all(procs)
    size = archive_bytes(db) - start_bytes
    problems, missing = check_archive(f"sqlite:///{db}", ref, history=meta["floors"])
    freshness = [s * 1000.0 for s in fresh.samples]
    out = Outcome(
        events=len(lines), ingest_eps=len(lines) / (t_visible - origin), setup_s=setup,
        ingest_cpu_s=loader.cpu_s() + bus.cpu_s(),
        freshness_ms=freshness, freshness_p50_ms=median(freshness),
        freshness_p99_ms=pct(freshness, 99.0),
        query_ms=reader.all_latencies(),
        archive_bytes=size, attempted=len(lines) + reader.requests,
        failed=missing + reader.failures + len(problems)
        + (len(lines) - published["published"]),
        problems=problems, late_max_s=published["late_max_s"],
        reader_late_s=reader.late_max, reader_lateness=reader.lateness,
        endpoint_ms=dict(reader.latency),
    )
    if ctx.trace:
        # the loader here idles between events, so its wall time says
        # nothing about tracing overhead or the stage ledger: those two
        # are measured on file-sharded's catch-ups and read 0 here
        loader_led = tracing.ledger(tracing.load(str(loader.trace_file)))
        layers = _trace_layers([loader_led],
                               [tracing.ledger(tracing.load(str(dash.trace_file)))])
        layers["process.startup_s"], layers["process.import_s"] = _startup(
            loader, loader_led["meta"])
        layers["bus.publish_s"] = published["publish_s"]
        layers["bus.backlog_max"] = float(fresh.backlog_max)
        rt = layers.pop("_round_trips") + published["round_trips"]
        layers["bus.round_trips_per_event"] = rt / len(lines)
        out.layers = layers
    return out


# -- per-layer metrics ----------------------------------------------------------

def _merge(ledgers: List[dict]) -> dict:
    out: Dict[str, dict] = {"calls": {}, "self": {}, "total": {}, "counters": {}}
    flush_ms: List[float] = []
    for led in ledgers:
        for key in ("calls", "self", "total", "counters"):
            for name, value in led[key].items():
                out[key][name] = out[key].get(name, 0) + value
        flush_ms += led["flush_ms"]
    out["flush_ms"] = flush_ms
    return out


def _trace_layers(loader_ledgers: List[dict], dash_ledgers: List[dict]) -> Dict[str, float]:
    """Per-layer metrics, summed over loader and dashboard ledgers."""
    lo = _merge(loader_ledgers)
    da = _merge(dash_ledgers)

    def s(name: str, src: dict = lo) -> float:
        return src["self"].get(name, 0.0)

    def c(name: str, src: dict = lo) -> float:
        return src["calls"].get(name, 0)

    def k(name: str, src: dict = lo) -> float:
        return src["counters"].get(name, 0.0)

    routed = [v for name, v in lo["counters"].items() if name.startswith("shard.routed.")]
    # a writer thread's busy time, summed over the loader processes
    writer_busy: Dict[str, float] = {}
    for led in loader_ledgers:
        for t, v in led["busy"].items():
            if not t.startswith("MainThread"):
                name = t.split("#", 1)[0]
                writer_busy[name] = writer_busy.get(name, 0.0) + v
    hits, misses = k("live.cache_hits", da), k("live.cache_misses", da)
    gets = c("bus.get")
    return {
        "netlogger.parse_s": s("netlogger.parse"),
        "netlogger.read_s": s("netlogger.read"),
        "netlogger.events": c("netlogger.parse"),
        "netlogger.bytes": k("netlogger.bytes"),
        "loader.process_s": s("loader.process"),
        "loader.flush_s": s("loader.flush"),
        "loader.flushes": k("loader.flushes"),
        "loader.flush_p99_ms": pct(lo["flush_ms"], 99.0) if lo["flush_ms"] else 0.0,
        "loader.retries": k("loader.retries"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.export_state_s": s("checkpoint.export_state"),
        "checkpoint.saves": c("checkpoint.save"),
        # the last process's final state blob, not a sum over processes
        "checkpoint.state_bytes": (loader_ledgers[-1]["counters"]
                                   .get("checkpoint.state_bytes", 0.0)),
        "orm.coerce_s": s("orm.coerce"),
        "orm.rows": k("orm.rows"),
        "orm.insert_s": s("orm.insert"),
        "orm.update_s": s("orm.update"),
        "archive.txn_s": s("archive.txn"),
        "rollup.observe_s": s("rollup.observe"),
        "rollup.apply_s": s("rollup.apply"),
        "rollup.rows_written": k("rollup.rows_written"),
        "shard.route_s": s("shard.route"),
        "shard.flush_barrier_s": s("shard.flush_barrier"),
        "shard.skew": (max(routed) / (sum(routed) / len(routed))) if routed and sum(routed) else 0.0,
        "shard.writer_busy_max_s": max(writer_busy.values(), default=0.0),
        "bus.publish_s": 0.0,
        "bus.get_s": s("bus.get"),
        "bus.gets": gets,
        "bus.ack_s": s("bus.ack"),
        "bus.acks": c("bus.ack"),
        "bus.useful_get_ratio": (k("bus.messages") / gets) if gets else 0.0,
        "bus.round_trips_per_event": 0.0,
        "_round_trips": k("bus.round_trips"),
        "live.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "live.cache_misses": misses,
        "statistics.workflow_statistics_s": s("statistics.workflow_statistics", da),
        "query.job_details_s": s("query.job_details", da),
    }


def _startup(proc: Proc, meta: dict) -> Tuple[float, float]:
    """(interpreter start-up, imports) of one traced process, in seconds."""
    return meta["start"] - proc.launched, meta["imported"] - meta["start"]


def _ledger_gap(proc: Proc, led: dict) -> Tuple[float, float, float]:
    """(startup, import, unaccounted share) of one traced loader process:
    wall runs from launch to the end of ``main``; covered time is
    interpreter start-up, imports and the self time of every span on the
    main thread."""
    meta = led["meta"]
    wall = meta["end"] - proc.launched
    startup, imported = _startup(proc, meta)
    main_thread = [t for t in led["busy"] if t.startswith("MainThread")]
    covered = startup + imported + sum(led["busy"][t] for t in main_thread)
    return startup, imported, max(0.0, 1.0 - covered / wall)


def _cpu_per_event(loads: List[Tuple[int, Proc]]) -> float:
    return sum(p.cpu_s() for _, p in loads) / sum(k for k, _ in loads)


def _file_layers(traced: List[Tuple[int, Proc]], plain: List[Tuple[int, Proc]],
                 dash: Proc) -> Dict[str, float]:
    """Per-layer metrics over the traced catch-ups (every other one)."""
    ledgers = [tracing.ledger(tracing.load(str(p.trace_file))) for _, p in traced]
    layers = _trace_layers(ledgers, [tracing.ledger(tracing.load(str(dash.trace_file)))])
    layers.pop("_round_trips")
    gaps = [_ledger_gap(p, led) for (_, p), led in zip(traced, ledgers)]
    layers["process.startup_s"] = median([g[0] for g in gaps])
    layers["process.import_s"] = median([g[1] for g in gaps])
    layers["trace.unaccounted_share"] = median([g[2] for g in gaps])
    # CPU per event of the traced catch-ups against the untraced ones;
    # each process reports its CPU before it writes its spans out
    layers["trace.overhead_share"] = 1.0 - _cpu_per_event(plain) / _cpu_per_event(traced)
    return layers


WORKLOADS = {
    "file-sharded": file_sharded,
    "live": live,
}

"""Span recording around the public functions of each pipeline layer.

Nothing here edits the program: :func:`install` replaces attributes on
the imported classes and modules of *this* process with thin wrappers
that record ``(name, start, end, parent)`` per call on a per-thread
list.  Spans stay in memory; :meth:`Recorder.dump` writes them once, at
exit.  The bench reads the dumps back with :func:`load` and folds them
into per-layer self times with :func:`ledger`.

Self time of a span is its duration minus the durations of its direct
children.  Children of one span never overlap (they run on the span's
own thread, one after another), so the subtraction is exact.
"""
from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.monotonic  # CLOCK_MONOTONIC: one clock for every process


class Recorder:
    """Per-thread span lists plus a few counters taken at the call sites."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: Dict[int, Tuple[str, List[list]]] = {}
        self._names: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = defaultdict(float)
        #: objects whose final state is read at dump time
        self.captured: Dict[str, Any] = {}

    def _state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            thread = threading.current_thread()
            with self._lock:
                self._threads[thread.ident or 0] = (thread.name, local.spans)
            return local.spans, local.stack

    def _name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        post: Optional[Callable[["Recorder", tuple, Any], None]] = None,
    ) -> Callable:
        nid = self._name_id(name)
        state = self._state

        def traced(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            record = [nid, now(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_cm(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning a context manager: the span covers
        the ``with`` body, not just the call that builds the manager."""
        nid = self._name_id(name)
        state = self._state

        @contextmanager
        def traced(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            record = [nid, now(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                record[2] = now()
                stack.pop()

        return traced

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span as ``[name id, start us, end us, parent]``,
        times in whole microseconds after ``meta["base"]``."""
        names = [n for n, _ in sorted(self._names.items(), key=lambda kv: kv[1])]
        counters = dict(self.counters)
        for key, read in self.captured.items():
            counters.update(read())
        base = meta["base"]
        with self._lock:
            threads = [
                {"ident": ident, "name": tname, "spans": [
                    [nid, int((t0 - base) * 1e6), int((t1 - base) * 1e6) if t1 else -1, parent]
                    for nid, t0, t1, parent in spans
                ]}
                for ident, (tname, spans) in self._threads.items()
            ]
        payload = {"meta": meta, "names": names, "counters": counters,
                   "threads": threads}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- what gets wrapped ----------------------------------------------------------

def _count(key: str, amount: Callable[[tuple, Any], float]):
    def post(rec: Recorder, args: tuple, result: Any) -> None:
        rec.counters[key] += amount(args, result)
    return post


def _capture(key: str, read: Callable[[Any], Dict[str, float]]):
    """Remember every receiver (``self``) and read it at dump time;
    counters of several instances are summed by :func:`ledger`."""
    seen: set = set()

    def post(rec: Recorder, args: tuple, result: Any) -> None:
        obj = args[0]
        if id(obj) not in seen:
            seen.add(id(obj))
            rec.captured[f"{key}@{id(obj)}"] = lambda: {
                f"{name}@{id(obj)}": value for name, value in read(obj).items()
            }
    return post


def _keep_last(key: str):
    def post(rec: Recorder, args: tuple, result: Any) -> None:
        rec.captured[key] = lambda: {
            key: float(len(json.dumps(result, separators=(",", ":"))))
        }
    return post


def _patch(owner: Any, attr: str, replacement: Callable) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(replacement))
    else:
        setattr(owner, attr, replacement)


def _raw(owner: Any, attr: str) -> Callable:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points in this process."""
    from repro.archive import shard
    from repro.archive.store import StampedeArchive
    from repro.bus import net
    from repro.core import dashboard, live, rollup, statistics
    from repro.loader import checkpoint, nl_load, stampede_loader
    from repro.netlogger import events as nl_events
    from repro.orm import database, table
    from repro.query import api

    def spans(owner, attrs, post=None):
        for attr, name in attrs.items():
            _patch(owner, attr, rec.wrap(name, _raw(owner, attr), post))

    # netlogger: one parse per event, plus the checkpointing file reader
    spans(nl_events.NLEvent, {"from_bp": "netlogger.parse"},
          _count("netlogger.bytes", lambda a, r: len(a[1])))
    read = nl_load.read_events_with_offsets

    def timed_reader(*args, **kwargs):
        return _TimedIter(rec.wrap("netlogger.read", iter(read(*args, **kwargs)).__next__))

    nl_load.read_events_with_offsets = timed_reader

    # loader + checkpoint
    spans(stampede_loader.StampedeLoader, {"process": "loader.process"},
          _capture("loader", lambda s: {"loader.retries": float(s.stats.retries),
                                        "loader.flushes": float(s.stats.flushes)}))
    spans(stampede_loader.StampedeLoader, {"flush": "loader.flush"})
    spans(stampede_loader.StampedeLoader, {"export_state": "checkpoint.export_state"},
          _keep_last("checkpoint.state_bytes"))
    spans(checkpoint.CheckpointManager, {"save": "checkpoint.save"})

    # orm + archive
    spans(table.Table, {"coerce_row": "orm.coerce"})
    spans(database.SqliteDatabase, {"insert_many": "orm.insert"},
          _count("orm.rows", lambda a, r: float(r or 0)))
    spans(database.SqliteDatabase, {"insert": "orm.insert"},
          _count("orm.rows", lambda a, r: 1.0))
    spans(database.SqliteDatabase, {"update": "orm.update"})
    _patch(StampedeArchive, "transaction",
           rec.wrap_cm("archive.txn", _raw(StampedeArchive, "transaction")))

    # rollups
    spans(rollup.RollupMaintainer,
          {"observe_insert": "rollup.observe", "observe_update": "rollup.observe"})
    spans(rollup.RollupMaintainer, {"apply": "rollup.apply"},
          _count("rollup.rows_written", lambda a, r: float(sum(r))))

    # shards: the front-end router and the flush barrier
    spans(shard.ShardedLoader, {"process": "shard.route"},
          _capture("shard", lambda s: {f"shard.routed.{i}": float(n)
                                       for i, n in enumerate(s.routed)}))
    spans(shard.ShardedLoader, {"flush": "shard.flush_barrier"})

    # the bus consumer (the publisher is the bench's own process, which
    # times its publish calls itself)
    spans(net.RemoteConsumer, {"get_message": "bus.get"},
          _count("bus.messages", lambda a, r: 0.0 if r is None else 1.0))
    spans(net.RemoteConsumer, {"ack": "bus.ack"})
    request = net._ClientConn.request

    def counted_request(self, frame):  # a round trip, counted, not timed
        rec.counters["bus.round_trips"] += 1
        return request(self, frame)

    net._ClientConn.request = counted_request

    # read side
    for attr in list(vars(dashboard.DashboardData)):
        if attr.endswith("_payload"):
            spans(dashboard.DashboardData, {attr: f"dashboard.{attr}"})
    spans(live.ReadCache, {"get": "live.cache_get"},
          _capture("live", lambda c: {"live.cache_hits": float(c.hits),
                                      "live.cache_misses": float(c.misses)}))
    wrapped_stats = rec.wrap("statistics.workflow_statistics",
                             statistics.workflow_statistics)
    statistics.workflow_statistics = wrapped_stats
    dashboard.workflow_statistics = wrapped_stats
    spans(api.StampedeQuery, {"job_details": "query.job_details"})


class _TimedIter:
    def __init__(self, next_fn: Callable) -> None:
        self._next = next_fn

    def __iter__(self) -> "_TimedIter":
        return self

    def __next__(self):
        return self._next()


# -- reading dumps back ---------------------------------------------------------

def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def ledger(dump: Dict[str, Any]) -> Dict[str, Any]:
    """Per span name: calls, total and self seconds, plus per-thread
    top-level busy time and the durations of every flush."""
    names = dump["names"]
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = {}
    per_thread_calls: Dict[str, Dict[str, int]] = {}
    flush_ms: List[float] = []
    for thread in dump["threads"]:
        spans = thread["spans"]
        child = [0.0] * len(spans)
        top = 0.0
        counts: Dict[str, int] = defaultdict(int)
        for nid, start, end, parent in spans:
            if end < 0:  # still open at exit (a blocked reader)
                continue
            dur = (end - start) / 1e6
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        for i, (nid, start, end, parent) in enumerate(spans):
            if end < 0:
                continue
            name = names[nid]
            dur = (end - start) / 1e6
            calls[name] += 1
            counts[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if name == "loader.flush":
                flush_ms.append(dur * 1000.0)
        key = f"{thread['name']}#{thread['ident']}"
        busy[key] = top
        per_thread_calls[key] = dict(counts)
    counters: Dict[str, float] = defaultdict(float)
    for key, value in dump.get("counters", {}).items():
        counters[key.split("@", 1)[0]] += value
    return {
        "calls": dict(calls),
        "total": dict(total),
        "self": dict(self_s),
        "busy": busy,
        "thread_calls": per_thread_calls,
        "flush_ms": flush_ms,
        "counters": dict(counters),
        "meta": dump.get("meta", {}),
    }

"""The system's processes, the open-loop clients, and the oracles.

Processes are started through ``entry.py`` (the real CLI ``main`` plus
bench-owned readiness and span hooks) with ``src`` on ``PYTHONPATH``.
There are at most two clients, each holding one connection at a time:
the dashboard reader, a thread of the bench process, and on ``live`` the
publisher, a process of its own (``publish.py``).
"""
from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

now = time.monotonic


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Proc:
    """One system process launched through ``entry.py``."""

    def __init__(self, workdir: Path, role: str, args: Sequence[str], tag: str,
                 trace: bool = False, ready: bool = True):
        self.tag = tag
        self.ready_file = workdir / f"{tag}.ready"
        self.trace_file = workdir / f"{tag}.trace.json" if trace else None
        self.log = workdir / f"{tag}.log"
        self.exit_file = workdir / f"{tag}.exit.json"
        for path in (self.ready_file, self.trace_file, self.exit_file):
            if path is not None and path.exists():
                path.unlink()
        cmd = [sys.executable, str(HERE / "entry.py"), role,
               str(self.trace_file) if trace else "-",
               str(self.ready_file) if ready else "-", *args]
        env = child_env()
        env["PERFBENCH_EXIT_FILE"] = str(self.exit_file)
        self.launched = now()
        with open(self.log, "wb") as log:
            self.popen = subprocess.Popen(
                cmd, cwd=str(workdir), env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.ended: Optional[float] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        deadline = now() + timeout
        while not self.ready_file.exists():
            if self.popen.poll() is not None:
                raise RuntimeError(f"{self.tag} exited before ready: {self.tail()}")
            if now() > deadline:
                raise RuntimeError(f"{self.tag} not ready after {timeout}s")
            time.sleep(0.005)
        return self.ready_file.read_text().strip()

    def wait(self, timeout: float = 120.0) -> int:
        rc = self.popen.wait(timeout=timeout)
        if self.ended is None:
            self.ended = now()
        return rc

    def stop(self, timeout: float = 20.0) -> int:
        """^C, then wait; a process that ignores it is killed."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
        try:
            return self.wait(timeout)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
            raise RuntimeError(f"{self.tag} did not stop on SIGINT")

    def _exit_report(self) -> dict:
        try:
            return json.loads(self.exit_file.read_text())
        except (OSError, ValueError):
            return {}

    def peak_rss_mb(self) -> float:
        """The process's own peak RSS (VmHWM), as it reported at exit."""
        return self._exit_report().get("hwm_kb", 0) / 1024.0

    def cpu_s(self) -> float:
        """The process's CPU seconds, as it reported at exit (NaN if it
        did not report: it was killed)."""
        return float(self._exit_report().get("cpu_s", "nan"))

    def tail(self, n: int = 1500) -> str:
        try:
            return self.log.read_text(errors="replace")[-n:]
        except OSError:
            return ""


def stop_all(procs: Sequence[Optional[Proc]]) -> None:
    """Best-effort teardown for error paths: nothing is left running."""
    for proc in procs:
        if proc is not None and proc.popen.poll() is None:
            proc.popen.kill()
            proc.popen.wait()


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def http_get(host: str, port: int, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def sleep_until(deadline: float) -> None:
    while True:
        remaining = deadline - now()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.5))


def run_schedule(offsets: Sequence[float], origin: float,
                 send: Callable[[int, int], None]) -> float:
    """Send item ``i`` at ``origin + offsets[i]`` (open loop); everything
    already due goes out in one ``send(i, j)``.  Returns the largest
    lateness: how far the generator itself ran behind its schedule."""
    late = 0.0
    i = 0
    n = len(offsets)
    while i < n:
        due = origin + offsets[i]
        sleep_until(due)
        t = now()
        late = max(late, t - due)
        j = i
        while j < n and origin + offsets[j] <= t:
            j += 1
        send(i, j)
        i = j
    return late


class Timeline:
    """When each inv.end went out: ``(t, sent so far)`` after every send
    that carried one, as the generator recorded it."""

    def __init__(self, points: Optional[List[Tuple[float, int]]] = None) -> None:
        self.points: List[Tuple[float, int]] = points or []

    def at(self, t: float) -> int:
        i = bisect.bisect_right(self.points, (t, float("inf")))
        return self.points[i - 1][1] if i else 0


class Freshness:
    """Time from an inv.end's send time to the first poll snapshot whose
    workflow (matched by ``wf_uuid``) shows ``invocations >= k``."""

    def __init__(self, base_invocations: int = 0) -> None:
        self._pending: Dict[str, deque] = defaultdict(deque)
        self.samples: List[float] = []
        #: set once the generator has reported (for ``backlog_max``)
        self.sent = Timeline()
        self._base = base_invocations
        #: largest (inv.end sent) - (invocations visible) seen by a poll
        self.backlog_max = 0

    def expect(self, uuid: str, k: int, due: float) -> None:
        self._pending[uuid].append((k, due))

    def observe(self, rows: List[dict], seen_at: float) -> None:
        visible = sum(r["invocations"] for r in rows) - self._base
        self.backlog_max = max(self.backlog_max, self.sent.at(seen_at) - visible)
        for row in rows:
            queue = self._pending.get(row["wf_uuid"])
            while queue and queue[0][0] <= row["invocations"]:
                _, due = queue.popleft()
                self.samples.append(max(0.0, seen_at - due))


class Reader:
    """Open-loop dashboard client on one connection at a time.

    Request ``i`` is due at ``origin + i / rate`` for endpoint
    ``paths(i)``.  A request that waited for its predecessor's answer is
    timed from its due time to its last byte, so a stall also delays the
    requests queued behind it; one sent on time is timed from its send.  Every
    ``/api/poll`` answer feeds :class:`Freshness` — after the run, so
    that decoding the snapshots never delays a request.
    """

    def __init__(self, url: str, rate: float, paths: Callable[[int], Tuple[str, str]],
                 freshness: Freshness):
        host_port = url.split("://", 1)[1]
        host, port = host_port.rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.rate = rate
        self.paths = paths
        self.freshness = freshness
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.requests = 0
        self.failures = 0
        self.late_max = 0.0
        self.lateness: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None
        #: undecoded poll answers: (received at, body)
        self._polls: List[Tuple[float, bytes]] = []

    def poll_once(self) -> dict:
        """One poll outside the schedule (kept for :meth:`digest` too)."""
        status, body = http_get(self.host, self.port, "/api/poll?since=-1")
        if status != 200:
            raise RuntimeError(f"poll answered {status}")
        self._polls.append((now(), body))
        return json.loads(body)

    def peek_workflows(self) -> List[dict]:
        """The rows of the newest poll answer so far (decoded here, once)."""
        if not self._polls:
            return []
        return json.loads(self._polls[-1][1])["workflows"]

    def warm(self, paths: Sequence[str], rounds: int = 3) -> None:
        """Untimed requests, so the first timed ones do not pay for the
        server's lazy imports and cold caches."""
        for _ in range(rounds):
            for path in paths:
                status, _ = http_get(self.host, self.port, path)
                if status != 200:
                    raise RuntimeError(f"warm-up {path} answered {status}")

    def start(self, origin: float) -> "Reader":
        self._thread = threading.Thread(target=self._run, args=(origin,),
                                        name="reader", daemon=True)
        self._thread.start()
        return self

    def _run(self, origin: float) -> None:
        try:
            i = 0
            done = origin
            while not self._stop.is_set():
                due = origin + i / self.rate
                # still busy with the previous answer at the due time: the
                # system held this request back, so it is timed from its
                # due time; otherwise from when it went out, so that the
                # reader's own wake-up delay is not charged to the system
                held = done > due
                sleep_until(due)
                if self._stop.is_set():
                    break
                sent = now()
                self.late_max = max(self.late_max, sent - due)
                self.lateness.append((sent - due) * 1000.0)
                endpoint, path = self.paths(i)
                i += 1
                try:
                    status, body = http_get(self.host, self.port, path)
                except OSError:
                    status, body = 0, b""
                done = now()
                self.requests += 1
                self.latency[endpoint].append((done - (due if held else sent)) * 1000.0)
                if status != 200:
                    self.failures += 1
                    continue
                if endpoint == "poll":
                    self._polls.append((done, body))
        except BaseException as exc:  # surfaced by stop()
            self.error = exc

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("reader thread did not stop")
        if self.error is not None:
            raise RuntimeError(f"reader failed: {self.error!r}")

    def digest(self) -> None:
        """Feed every poll answer, in arrival order, to :class:`Freshness`."""
        for done, body in self._polls:
            self.freshness.observe(json.loads(body)["workflows"], done)
        self._polls.clear()

    def all_latencies(self) -> List[float]:
        return [v for vals in self.latency.values() for v in vals]


def poll_paths(_i: int) -> Tuple[str, str]:
    return "poll", "/api/poll?since=-1"


def wait_visible(reader: Reader, want_events: int, timeout: float) -> float:
    """Poll until ``want_events`` are visible; returns when they were."""
    deadline = now() + timeout
    while True:
        visible = sum(r["events"] for r in reader.poll_once()["workflows"])
        if visible >= want_events:
            return now()
        if now() > deadline:
            raise RuntimeError(f"only {visible}/{want_events} events visible "
                               f"after {timeout}s")
        time.sleep(0.02)


# -- oracles --------------------------------------------------------------------

def archive_bytes(path: Path) -> int:
    """Bytes of an archive (a sqlite file or a shard directory) once its
    write-ahead log is folded back in, so the size does not depend on
    when sqlite last checkpointed."""
    import sqlite3

    files = sorted(path.rglob("*.db")) if path.is_dir() else [path]
    total = 0
    for db in files:
        conn = sqlite3.connect(db)
        try:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            conn.close()
        total += db.stat().st_size
    if path.is_dir():  # the manifest and any long-term segments
        total += sum(p.stat().st_size for p in path.rglob("*")
                     if p.is_file() and p.suffix not in (".db", ".db-wal", ".db-shm"))
    return total


def _floors() -> Dict[type, str]:
    """Entity -> the id column that grows as a loader appends rows."""
    from repro.model import entities as e

    by_wf = (e.WorkflowRow, e.WorkflowStateRow, e.TaskRow, e.TaskEdgeRow, e.JobRow,
             e.JobEdgeRow, e.InvocationRow, e.HostRow, e.RollupWorkflowRow)
    by_ji = (e.JobInstanceRow, e.JobStateRow)
    return {**{t: "wf_id" for t in by_wf}, **{t: "job_instance_id" for t in by_ji}}


def history_floors(archive) -> Dict[str, object]:
    """Max ids and per-table row counts of a prebuilt archive."""
    from repro.model import entities as e

    wf = max((w.wf_id for w in archive.query(e.WorkflowRow).all()), default=0)
    ji = max((j.job_instance_id for j in archive.query(e.JobInstanceRow).all()), default=0)
    counts = {t.__name__: archive.count(t) for t in _floors()}
    return {"wf_id": wf, "job_instance_id": ji, "counts": counts}


class AppendedView:
    """Read view of only the rows appended on top of a prebuilt history.

    Loaders allocate ids as ``MAX(id) + 1``, so every appended row has a
    workflow (or job-instance) id above the history's largest one.  The
    view adds that bound to every entity query, which lets the oracles
    check a run's own rows without re-reading the whole history.
    """

    def __init__(self, archive, floors: Dict[str, object]):
        self._archive = archive
        self._rules = {t: (col, floors[col]) for t, col in _floors().items()}

    def query(self, entity_type):
        q = self._archive.query(entity_type)
        rule = self._rules.get(entity_type)
        return q if rule is None else q.where(rule[0], ">", rule[1])

    def __getattr__(self, name):
        return getattr(self._archive, name)


def check_archive(spec: str, ref, shard_dir: Optional[Path] = None,
                  history: Optional[Dict[str, object]] = None) -> Tuple[List[str], int]:
    """Run every oracle on a finished archive.

    Returns ``(problems, events_missing)``.  The oracles: the canonical
    dump equals the reference load; rollups equal a full scan; every
    workflow's ``invocations`` equals the input's inv.end count; the DLQ
    is empty.  With ``history`` (an archive the run appended to) the dump
    and rollup checks cover the appended rows, and the history's row
    counts must be unchanged.
    """
    from repro.archive.merge import canonical_dump, diff_canonical
    from repro.archive.shard import ShardSet, open_archive
    from repro.core.live import LiveFeed
    from repro.core.rollup import verify_rollups
    from repro.loader.dlq import DeadLetterQueue

    problems: List[str] = []
    archive = open_archive(spec)
    try:
        checked = archive if history is None else AppendedView(archive, history)
        problems += [f"dump: {p}"
                     for p in diff_canonical(ref.dump, canonical_dump(checked))]
        problems += [f"rollup: {p}" for p in verify_rollups(checked)]
        rows = LiveFeed(archive).snapshot()["workflows"]
        got = {r["wf_uuid"]: r["invocations"] for r in rows}
        for uuid, want in ref.invocations.items():
            if got.get(uuid) != want:
                problems.append(f"invocations: {uuid} has {got.get(uuid)}, input has {want}")
        visible = sum(r["events"] for r in rows)
        if history is not None:
            for etype, (col, floor) in AppendedView(archive, history)._rules.items():
                kept = archive.query(etype).where(col, "<=", floor).count()
                if kept != history["counts"][etype.__name__]:
                    problems.append(f"history: {etype.__name__} has {kept} rows, "
                                    f"built with {history['counts'][etype.__name__]}")
    finally:
        close = getattr(archive, "close", None)
        if close is not None:
            close()
    if shard_dir is not None:
        shards = ShardSet.open(shard_dir)
        dead = sum(DeadLetterQueue(a).count() for a in shards.archives)
        shards.close()
    else:
        from repro.archive.store import StampedeArchive

        single = StampedeArchive.open(spec)
        dead = DeadLetterQueue(single).count()
        single.close()
    if dead:
        problems.append(f"dlq: {dead} dead-lettered event(s)")
    return problems, max(0, ref.events - visible) + dead

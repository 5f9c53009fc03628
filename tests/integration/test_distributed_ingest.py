"""Distributed ingest acceptance: N loaders, one stream, zero drift.

The paper's multi-consumer story (Sec. 3: several loaders share the
monitoring bus) upgraded to a hard guarantee: loader *processes*
consuming one event stream through a consumer group must archive,
between them, row for row what a single sequential loader would —
under a clean run AND under bus chaos.  "Row for row" is checked on
the canonical (surrogate-free) dump from :mod:`repro.archive.merge`,
which keeps duplicates, so a double-committed event fails the diff
instead of hiding inside set semantics.

Three CyberShake workflows are interleaved into one stream so the
group actually splits work: partitioning is by root workflow id, and
the chosen seeds land on partitions owned by different members.
"""
import itertools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.archive import StampedeArchive
from repro.archive.merge import canonical_dump, diff_canonical, merge_canonical
from repro.bus.broker import Broker
from repro.bus.net import BrokerServer, RemoteConsumer
from repro.faults import ChaosBroker, FaultPlan
from repro.loader.nl_load import load_events, load_from_bus, make_loader
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import write_events
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: three workflows whose root ids land on partitions owned by *both*
#: members of a two-member group (partitions=4): seeds 1 and 2 hash to
#: partition 3, seed 3 to partition 0 — verified deterministic (crc32
#: over seeded uuids)
EVENT_SEEDS = (1, 2, 3)
PARTITIONS = 4
GROUP = "loaders"

CHAOS_SPEC = {
    "seed": 4321,
    "bus": {"drop": 0.1, "duplicate": 0.1, "reorder": 0.1, "reorder_depth": 4},
}


def _events_for(seed):
    sink = MemoryAppender()
    run_pegasus_workflow(
        cybershake(n_ruptures=2),
        sink,
        catalog=SiteCatalog(
            [Site("pool", slots=16, mean_queue_delay=1.0, hosts_per_site=4)]
        ),
        planner_config=PlannerConfig(cluster_size=4),
        seed=seed,
    )
    return list(sink.events)


def _normalize(events):
    """Round-trip through the BP codec once.

    Events cross the wire as BP text, which formats timestamps at
    microsecond precision and stringifies attrs; the sequential baseline
    must be built from the same values or the canonical diff flags
    nothing but float formatting.  The codec is idempotent, so paths
    that re-encode (file → publisher → TCP) stay byte-stable.
    """
    return [NLEvent.from_bp(e.to_bp()) for e in events]


@pytest.fixture(scope="module")
def stream():
    streams = [_events_for(s) for s in EVENT_SEEDS]
    return _normalize(
        event
        for batch in itertools.zip_longest(*streams)
        for event in batch
        if event is not None
    )


@pytest.fixture(scope="module")
def baseline(stream):
    return canonical_dump(load_events(stream, batch_size=50).archive)


def _await_commit_floors(group, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if all(
            group.committed(p) == group.published_seq(p)
            for p in range(group.partitions)
        ) and sum(group.published_seq(p) for p in range(group.partitions)):
            return True
        time.sleep(0.05)
    return False


def _group(broker):
    for group in broker.groups():
        if group.name == GROUP:
            return group
    return None


def _subenv():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestCleanSubprocessIngest:
    def test_two_nl_load_processes_match_sequential_baseline(
        self, stream, baseline, tmp_path
    ):
        """The full stack, processes and all: an in-test BrokerServer,
        two real ``nl-load --bus`` loader processes joined to one
        consumer group, one ``stampede-bus publish`` process replaying
        the BP log."""
        bp = tmp_path / "events.bp"
        write_events(bp, stream)
        dbs = [tmp_path / f"out{i}.db" for i in range(2)]
        broker = Broker()
        with BrokerServer(broker) as server:
            loaders = [
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.loader.nl_load",
                        "--bus", server.url,
                        "--group", GROUP,
                        "--member-id", f"m{i}",
                        "--partitions", str(PARTITIONS),
                        "--idle-exit", "3.0",
                        "stampede_loader", f"connString=sqlite:///{db}",
                    ],
                    env=_subenv(),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                for i, db in enumerate(dbs)
            ]
            try:
                # both members joined server-side before anything is
                # published: partition queues exist from the first event
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    group = _group(broker)
                    if group is not None and len(group.members()) == 2:
                        break
                    time.sleep(0.05)
                group = _group(broker)
                assert group is not None and len(group.members()) == 2

                publish = subprocess.run(
                    [
                        sys.executable, "-m", "repro.bus.cli",
                        "publish", str(bp), "--bus", server.url,
                    ],
                    env=_subenv(),
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
                assert publish.returncode == 0, publish.stderr
                assert f"published {len(stream)} events" in publish.stdout

                assert _await_commit_floors(group), (
                    "commit floors never reached the published high-water marks: "
                    + str([
                        (group.committed(p), group.published_seq(p))
                        for p in range(PARTITIONS)
                    ])
                )
                outs = []
                for proc in loaders:
                    out, _ = proc.communicate(timeout=60)
                    outs.append(out)
                    assert proc.returncode == 0, out
            finally:
                for proc in loaders:
                    if proc.poll() is None:
                        proc.kill()

        dumps = [
            canonical_dump(StampedeArchive.open(f"sqlite:///{db}"))
            for db in dbs
        ]
        assert diff_canonical(baseline, merge_canonical(*dumps)) == []
        # the split actually happened: neither loader saw the whole stream
        for dump, out in zip(dumps, outs):
            assert 0 < len(dump["workflow"]) < len(EVENT_SEEDS), out

    def test_stampede_bus_serve_announce_roundtrip(self, tmp_path):
        """`stampede-bus serve --announce` end to end: the url file
        appears atomically, a consumer can subscribe, a publisher
        process can feed it."""
        events = _normalize(_events_for(1)[:40])
        bp = tmp_path / "events.bp"
        write_events(bp, events)
        announce = tmp_path / "bus.url"
        serve = subprocess.Popen(
            [
                sys.executable, "-m", "repro.bus.cli",
                "serve", "--port", "0", "--announce", str(announce),
            ],
            env=_subenv(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 20
            while not announce.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert announce.exists(), "server never announced its url"
            url = announce.read_text().strip()
            assert url.startswith("tcp://")
            consumer = RemoteConsumer(url, queue_name="q", durable=True)
            publish = subprocess.run(
                [
                    sys.executable, "-m", "repro.bus.cli",
                    "publish", str(bp), "--bus", url,
                ],
                env=_subenv(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert publish.returncode == 0, publish.stderr
            got = []
            deadline = time.monotonic() + 15
            while len(got) < len(events) and time.monotonic() < deadline:
                event = consumer.get(timeout=0.5)
                if event is not None:
                    got.append(event)
            assert got == events
            consumer.cancel()
        finally:
            serve.kill()
            serve.wait(timeout=10)


class TestChaosIngest:
    def _run_members(self, url, n, stop, **kwargs):
        loaders = [make_loader(batch_size=25) for _ in range(n)]
        threads = [
            threading.Thread(
                target=load_from_bus,
                args=(url,),
                kwargs=dict(
                    group=GROUP,
                    member_id=f"m{i}",
                    partitions=PARTITIONS,
                    loader=loaders[i],
                    poll_timeout=0.05,
                    until=lambda _ld: stop.is_set(),
                    **kwargs,
                ),
            )
            for i in range(n)
        ]
        for t in threads:
            t.start()
        return loaders, threads

    def test_two_members_survive_drop_duplicate_reorder(self, stream, baseline):
        """Chaos on the delivery path (drops → redelivery, duplicate
        publishes, bounded reorder) across a real TCP hop: the merged
        archives still match the sequential baseline row for row."""
        plan = FaultPlan.from_dict(CHAOS_SPEC)
        broker = ChaosBroker(plan)
        with BrokerServer(broker) as server:
            stop = threading.Event()
            loaders, threads = self._run_members(server.url, 2, stop)
            deadline = time.monotonic() + 20
            while _group(broker) is None or len(_group(broker).members()) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            from repro.bus.client import EventPublisher

            EventPublisher(broker).publish_all(stream)
            group = _group(broker)
            assert _await_commit_floors(group, deadline=60.0)
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

        stats = plan.stats
        assert stats.messages_dropped > 0
        assert stats.messages_duplicated > 0
        assert stats.messages_reordered > 0
        assert group.publish_duplicates == stats.messages_duplicated
        merged = merge_canonical(
            *(canonical_dump(ld.archive) for ld in loaders)
        )
        assert diff_canonical(baseline, merged) == []
        assert all(ld.stats.events_processed > 0 for ld in loaders)
        assert sum(ld.stats.redelivered_events for ld in loaders) > 0
        assert sum(ld.stats.duplicates_skipped for ld in loaders) == 0

    def test_scripted_disconnect_same_member_rejoin_exactly_once(
        self, stream, baseline
    ):
        """A forced mid-stream disconnect severs the member; the loader
        reconnects under the same member id, so the redelivered
        committed-but-unacked window dedupes against its surviving
        resequencer — exactly-once, now across a process boundary.

        One member on purpose: a *cross*-member handover of uncommitted
        work is at-least-once by design (the old member's in-flight
        batch commits on connection loss while the new member re-reads
        it), so the exactly-once claim is per member identity.
        """
        plan = FaultPlan.from_dict(
            {"seed": 99, "bus": {"disconnect_after": [60]}}
        )
        broker = ChaosBroker(plan)
        with BrokerServer(broker) as server:
            stop = threading.Event()
            loaders, threads = self._run_members(server.url, 1, stop)
            deadline = time.monotonic() + 20
            while _group(broker) is None or not _group(broker).members():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            from repro.bus.client import EventPublisher

            EventPublisher(broker).publish_all(stream)
            group = _group(broker)
            assert _await_commit_floors(group, deadline=60.0)
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

        assert plan.stats.disconnects == 1
        loader = loaders[0]
        assert loader.stats.reconnects >= 1
        assert diff_canonical(baseline, canonical_dump(loader.archive)) == []

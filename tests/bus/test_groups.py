"""Consumer groups: partitioned fan-out with exactly-once commits.

The group layer is what lets N loader processes share one event stream
without double-archiving: the router partitions by root workflow id and
stamps gapless per-partition sequences, members rewrite those stamps
into per-ownership publisher identities the downstream Resequencer can
dedupe, and acks advance broker-side commit floors that survive member
churn.  The acceptance test at the bottom is the distributed-ingest
claim in miniature: two in-process members must archive, between them,
row for row what a single loader would.
"""
import threading

import pytest

from repro.archive.merge import canonical_dump, diff_canonical, merge_canonical
from repro.bus.broker import Broker, ConnectionLostError
from repro.bus.client import EventPublisher
from repro.bus.groups import (
    HEADER_PART_KEY,
    HEADER_PARTITION,
    HEADER_PART_SEQ,
    GroupConsumer,
    PartitionKeyer,
    partition_for,
)
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.loader.nl_load import load_events, load_from_bus, make_loader

from tests.helpers import diamond_events


class TestPartitionFor:
    def test_stable_across_calls_and_instances(self):
        # crc32, not hash(): the same key must land on the same partition
        # in every process, or a restarted loader re-shards the stream
        assert partition_for("wf-1", 8) == partition_for("wf-1", 8)
        assert 0 <= partition_for("anything", 8) < 8

    def test_spreads_keys(self):
        parts = {partition_for(f"wf-{i}", 8) for i in range(64)}
        assert len(parts) > 1


class TestPartitionKeyer:
    def test_learns_root_from_plan_event(self):
        keyer = PartitionKeyer()
        keyer.key_for({"xwf.id": "sub-1", "root.xwf.id": "root-A"}, default="d")
        # later events of sub-1 carry no root stamp; the keyer remembers
        assert keyer.key_for({"xwf.id": "sub-1"}, default="d") == "root-A"

    def test_falls_back_to_own_id_then_default(self):
        keyer = PartitionKeyer()
        assert keyer.key_for({"xwf.id": "lonely"}, default="d") == "lonely"
        assert keyer.key_for({}, default="d") == "d"

    def test_lru_bound(self):
        keyer = PartitionKeyer(max_entries=2)
        keyer.learn("a", "ra")
        keyer.learn("b", "rb")
        keyer.learn("c", "rc")
        assert keyer.key_for({"xwf.id": "a"}, default="d") == "a"  # evicted
        assert keyer.key_for({"xwf.id": "c"}, default="d") == "rc"


class TestRouting:
    def test_workflow_stays_on_one_partition(self):
        broker = Broker()
        group = broker.declare_group("loaders", partitions=8)
        EventPublisher(broker).publish_all(diamond_events())
        depths = [len(group.queue(p)) for p in range(8)]
        assert sum(depths) == len(diamond_events())
        assert sum(1 for d in depths if d) == 1  # single root workflow

    def test_part_seq_is_gapless_per_partition(self):
        broker = Broker()
        group = broker.declare_group("loaders", partitions=4)
        pub = EventPublisher(broker)
        for xwf in ("wf-a", "wf-b", "wf-c"):
            pub.publish_all(diamond_events(xwf=xwf))
        for p in range(4):
            seqs = []
            while True:
                msg = group.queue(p).get(timeout=0.0)
                if msg is None:
                    break
                seqs.append(msg.header(HEADER_PART_SEQ))
            assert seqs == list(range(1, len(seqs) + 1))
            assert group.published_seq(p) == len(seqs)

    def test_part_key_header_overrides_derivation(self):
        broker = Broker()
        group = broker.declare_group("loaders", partitions=8)
        want = partition_for("pinned", 8)
        broker.publish("stampede.x", "raw", headers={HEADER_PART_KEY: "pinned"})
        msg = group.queue(want).get(timeout=0.0)
        assert msg is not None and msg.header(HEADER_PARTITION) == want

    def test_publish_side_duplicate_absorbed_by_hwm(self):
        broker = Broker()
        group = broker.declare_group("loaders", partitions=4)
        hdrs = {HEADER_PUBLISHER: "pub", HEADER_SEQ: 1}
        broker.publish("stampede.x", "once", headers=dict(hdrs))
        broker.publish("stampede.x", "again", headers=dict(hdrs))
        assert group.publish_duplicates == 1
        assert group.routed == 1
        assert sum(len(group.queue(p)) for p in range(4)) == 1

    def test_group_and_queue_both_receive(self):
        broker = Broker()
        broker.declare_queue("plain", durable=True)
        broker.bind_queue("plain", "stampede.#")
        broker.declare_group("loaders", partitions=2)
        delivered = broker.publish("stampede.x", "body")
        assert delivered == 2  # the bound queue plus the group partition

    def test_redeclare_same_params_idempotent_mismatch_raises(self):
        broker = Broker()
        g1 = broker.declare_group("loaders", partitions=4)
        assert broker.declare_group("loaders", partitions=4) is g1
        with pytest.raises(ValueError):
            broker.declare_group("loaders", partitions=8)


class TestRebalance:
    def test_single_member_owns_everything(self):
        broker = Broker()
        m = broker.join_group("loaders", partitions=8)
        assert m.partitions() == list(range(8))

    def test_second_member_takes_half_sticky(self):
        broker = Broker()
        a = broker.join_group("loaders", member_id="a", partitions=8)
        before = set(a.partitions())
        b = broker.join_group("loaders", member_id="b", partitions=8)
        group = broker.group("loaders")
        assign = group.assignment()
        assert sorted(len(v) for v in assign.values()) == [4, 4]
        # sticky: a kept a subset of what it had, nothing swapped around
        assert set(a.partitions()) < before
        assert set(a.partitions()) | set(b.partitions()) == before

    def test_leave_returns_partitions_to_survivor(self):
        broker = Broker()
        a = broker.join_group("loaders", member_id="a", partitions=8)
        b = broker.join_group("loaders", member_id="b", partitions=8)
        b.leave()
        assert a.partitions() == list(range(8))
        assert broker.group("loaders").members() == ["a"]

    def test_rebalance_requeues_unacked_of_revoked_partitions(self):
        broker = Broker()
        a = broker.join_group("loaders", member_id="a", partitions=2)
        EventPublisher(broker).publish_all(diamond_events())
        msg = a.get(timeout=0.5)
        assert msg is not None  # in flight, unacked
        part = int(msg.header(HEADER_PARTITION))
        broker.join_group("loaders", member_id="b", partitions=2)
        owner = {
            p: m for m, ps in broker.group("loaders").assignment().items()
            for p in ps
        }
        if owner[part] == "b":
            # the in-flight delivery was revoked: acking is refused and
            # the message went back on the partition queue for b
            with pytest.raises(ValueError):
                a.ack(msg.delivery_tag)
        else:
            a.ack(msg.delivery_tag)  # still owned: ack flows through


class TestCommitFloors:
    def test_ack_advances_floor(self):
        broker = Broker()
        m = broker.join_group("loaders", partitions=1)
        EventPublisher(broker).publish_all(diamond_events())
        group = broker.group("loaders")
        seen = 0
        while True:
            msg = m.get(timeout=0.2)
            if msg is None:
                break
            seen += 1
            m.ack(msg.delivery_tag)
        assert seen == len(diamond_events())
        assert group.committed(0) == group.published_seq(0)

    def test_delivery_at_or_below_floor_is_dropped(self):
        broker = Broker()
        m = broker.join_group("loaders", partitions=1)
        EventPublisher(broker).publish_all(diamond_events())
        group = broker.group("loaders")
        while True:
            msg = m.get(timeout=0.2)
            if msg is None:
                break
            m.ack(msg.delivery_tag)
        floor = group.committed(0)
        assert floor == group.published_seq(0) >= 1
        # a redelivery of a committed message (e.g. after a handover)
        # must be settled silently, not delivered twice
        group.queue(0).put(
            "stampede.x",
            "stale",
            headers={HEADER_PARTITION: 0, HEADER_PART_SEQ: floor},
        )
        assert m.get(timeout=0.5) is None
        assert m.duplicates_dropped == 1


class TestPublisherIdentity:
    def _drain_some(self, member, n):
        out = []
        for _ in range(n):
            msg = member.get(timeout=0.5)
            assert msg is not None
            out.append(msg)
        return out

    def test_stamps_are_rebased_per_ownership(self):
        broker = Broker()
        m = broker.join_group("loaders", member_id="a", partitions=1)
        EventPublisher(broker).publish_all(diamond_events())
        first, second = self._drain_some(m, 2)
        assert first.header(HEADER_PUBLISHER) == "loaders/p0@g1"
        assert first.header(HEADER_SEQ) == 1
        assert second.header(HEADER_SEQ) == 2

    def test_same_member_rejoin_keeps_identity(self):
        """A reconnect must not mint a new publisher stream: the member's
        surviving resequencer state is exactly what dedupes the
        committed-but-redelivered window."""
        broker = Broker()
        m = broker.join_group("loaders", member_id="a", partitions=1)
        EventPublisher(broker).publish_all(diamond_events())
        msgs = self._drain_some(m, 3)
        m.ack(msgs[0].delivery_tag)  # floor = 1; 2 and 3 stay in flight
        stamp = msgs[1].header(HEADER_PUBLISHER)
        m.disconnect()
        with pytest.raises(ConnectionLostError):
            m.get(timeout=0.0)
        m2 = broker.join_group("loaders", member_id="a", partitions=1)
        redelivered = m2.get(timeout=0.5)
        # same publisher identity AND a sequence inside the already-
        # delivered window: a resequencer that released seqs 2 and 3
        # recognizes the redelivery as a duplicate instead of a new stream
        assert redelivered.header(HEADER_PUBLISHER) == stamp
        assert redelivered.header(HEADER_SEQ) in (2, 3)

    def test_new_owner_gets_new_generation_rebased_at_floor(self):
        broker = Broker()
        a = broker.join_group("loaders", member_id="a", partitions=1)
        EventPublisher(broker).publish_all(diamond_events())
        msgs = self._drain_some(a, 2)
        for msg in msgs:
            a.ack(msg.delivery_tag)
        a.leave()
        b = broker.join_group("loaders", member_id="b", partitions=1)
        msg = b.get(timeout=0.5)
        # generation bumped (a held g1), sequence restarts at 1 relative
        # to the committed floor — b's fresh resequencer needs no seed
        assert msg.header(HEADER_PUBLISHER) == "loaders/p0@g2"
        assert msg.header(HEADER_SEQ) == 1


class TestGroupConsumer:
    def test_reconnect_keeps_member_id(self):
        broker = Broker()
        consumer = GroupConsumer(broker, "loaders", partitions=2)
        member_id = consumer.member.member_id
        consumer.member.disconnect()
        assert not consumer.connected
        consumer.reconnect()
        assert consumer.connected
        assert consumer.member.member_id == member_id
        assert consumer.reconnects == 1
        consumer.cancel()

    def test_drain_yields_events(self):
        broker = Broker()
        consumer = GroupConsumer(broker, "loaders", partitions=2)
        EventPublisher(broker).publish_all(diamond_events())
        events = consumer.drain()
        assert len(events) == len(diamond_events())
        group = broker.group("loaders")
        assert all(
            group.committed(p) == group.published_seq(p) for p in range(2)
        )


class TestTwoMemberIngestIdentity:
    """The distributed-ingest acceptance claim, in-process.

    Three workflows interleaved onto one group; two concurrent
    ``load_from_bus`` members split them by root workflow id.  The
    canonical merge of both archives must be row-identical to a single
    sequential loader over the same stream — any double-commit, lost
    event, or cross-member leak shows up as a diff.
    """

    WFS = ("wf-aaaa", "wf-bbbb", "wf-cccc")

    def _events(self):
        streams = [diamond_events(xwf=x) for x in self.WFS]
        out = []
        for batch in zip(*streams):  # interleave the three workflows
            out.extend(batch)
        return out

    def test_merged_archives_match_sequential_baseline(self):
        events = self._events()

        baseline = load_events(events, loader=make_loader(batch_size=10))
        want = canonical_dump(baseline.archive)

        broker = Broker()
        broker.declare_group("loaders", partitions=4)
        loaders = [make_loader(batch_size=7) for _ in range(2)]
        done = threading.Event()

        def run(i):
            load_from_bus(
                broker,
                group="loaders",
                member_id=f"m{i}",
                partitions=4,
                loader=loaders[i],
                poll_timeout=0.05,
                until=lambda _ld: done.is_set(),
            )

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        EventPublisher(broker).publish_all(events)
        group = broker.group("loaders")
        for _ in range(400):
            if all(
                group.committed(p) == group.published_seq(p)
                for p in range(4)
            ):
                break
            done.wait(0.05)
        done.set()
        for t in threads:
            t.join(timeout=15)
            assert not t.is_alive()

        # every partition fully committed: nothing lost, nothing stuck
        assert all(
            group.committed(p) == group.published_seq(p) for p in range(4)
        )
        merged = merge_canonical(
            canonical_dump(loaders[0].archive),
            canonical_dump(loaders[1].archive),
        )
        assert diff_canonical(want, merged) == []
        # both members actually archived something (3 roots over 2 members)
        assert all(
            ld.stats.events_processed > 0 for ld in loaders
        )

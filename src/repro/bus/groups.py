"""Consumer groups: N loaders share one topic stream without double-commit.

The broker's topic exchange fans a matching publish out to *every* bound
queue — the right shape for independent subscribers (dashboard, anomaly
detector, archiver), the wrong shape for *scaling one subscriber out*:
two loaders bound to the same pattern would each archive every event.
A :class:`ConsumerGroup` gives the Kafka-style alternative the WMArchive
paper motivates for multi-agent ingest:

* a matching publish is routed to exactly **one** of the group's
  partition queues, chosen by hashing the event's **root workflow id**
  (learned from ``stampede.xwf.plan`` events flowing through the
  router, so a sub-workflow lands with its root and cross-table links
  stay inside one archive);
* the router stamps each message with a per-partition sequence
  (``x-part``/``x-part-seq``) and dedupes publish-side duplicates by
  per-publisher high-water mark, so a partition queue carries a gapless
  per-partition stream;
* group members own disjoint partition subsets (sticky assignment:
  joins and leaves move as few partitions as possible), and every
  delivery is rewritten to carry a *per-partition-ownership* publisher
  stamp, so the member's existing
  :class:`~repro.bus.reliable.Resequencer` + ack-after-commit machinery
  upgrades delivery to exactly-once per partition — the same machinery,
  unchanged, that defends the single-consumer path;
* acks advance a broker-side **commit floor** per partition (the
  consumer-group offset); redeliveries at or below the floor are
  dropped as duplicates even across a member restart.

Delivery guarantees, honestly stated: exactly-once per partition while
a partition's ownership is stable (including disconnect/reconnect of the
*same* member, whose resequencer state dedupes the committed-but-unacked
window); a handover to a *different* member is at-least-once for that
window, exactly as for any AMQP consumer crash before ack.
"""
from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bus.queues import Message, MessageQueue, ack_each, take_messages
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.bus.topic import topic_matches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (broker wires us in)
    from repro.bus.broker import Broker

__all__ = [
    "HEADER_GROUP",
    "HEADER_PARTITION",
    "HEADER_PART_SEQ",
    "HEADER_PART_KEY",
    "HEADER_ORIG_PUBLISHER",
    "HEADER_ORIG_SEQ",
    "ConsumerGroup",
    "GroupMember",
    "GroupConsumer",
    "PartitionKeyer",
]

HEADER_GROUP = "x-group"
HEADER_PARTITION = "x-part"
HEADER_PART_SEQ = "x-part-seq"
#: explicit partition key, stamped by remote publishers whose bodies
#: reach the router as opaque BP strings
HEADER_PART_KEY = "x-part-key"
#: the original end-to-end publisher stamp, preserved for provenance
#: after the member rewrite replaces ``x-publisher``/``x-seq``
HEADER_ORIG_PUBLISHER = "x-orig-publisher"
HEADER_ORIG_SEQ = "x-orig-seq"

#: ``GroupMember.get`` waits on one partition queue at a time; with
#: several assigned partitions the wait is sliced so no queue is starved
#: longer than this (still a condition-variable park, not a busy spin).
_MULTI_QUEUE_WAIT_SLICE = 0.02


class _Unset:
    """Sentinel distinguishing "caller passed nothing" from an explicit
    ``timeout=None`` (which must mean "block forever", as everywhere
    else); the real default is the broker's ``DEFAULT_POLL_TIMEOUT``,
    imported lazily to dodge the module cycle."""


_UNSET = _Unset()


def partition_for(key: str, partitions: int) -> int:
    """Stable partition choice: crc32, not ``hash()`` (which is salted
    per process and would scatter a workflow across restarts)."""
    return zlib.crc32(key.encode("utf-8")) % partitions


class PartitionKeyer:
    """Derives the partition key — the *root* workflow id — per event.

    Partitioning by root (not by each sub-workflow's own id) keeps a
    workflow hierarchy in one member's archive, so ``subwf_id`` links
    resolve locally.  Only ``*.xwf.plan`` events carry ``root.xwf.id``;
    the keyer learns the mapping from plan events as they flow through
    (plan precedes every other event of that workflow on any compliant
    stream) and falls back to the workflow's own id, then the supplied
    default.  The learned map is bounded LRU-style.
    """

    def __init__(self, max_entries: int = 100_000):
        self.max_entries = max_entries
        self._roots: "OrderedDict[str, str]" = OrderedDict()

    def learn(self, xwf: str, root: str) -> None:
        self._roots[xwf] = root
        self._roots.move_to_end(xwf)
        while len(self._roots) > self.max_entries:
            self._roots.popitem(last=False)

    def key_for(self, attrs, default: str) -> str:
        xwf = attrs.get("xwf.id")
        root = attrs.get("root.xwf.id")
        if root is not None and xwf is not None:
            self.learn(str(xwf), str(root))
        if xwf is None:
            return default
        return self._roots.get(str(xwf), str(xwf))


class ConsumerGroup:
    """One named group over one topic pattern: router + membership.

    Constructed via :meth:`repro.bus.broker.Broker.declare_group`; the
    broker calls :meth:`route` for every matching publish.
    """

    def __init__(
        self,
        broker: "Broker",
        name: str,
        pattern: str,
        partitions: int = 8,
        exchange: str = "stampede",
    ):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.broker = broker
        self.name = name
        self.pattern = pattern
        self.partitions = partitions
        self.exchange = exchange
        self._lock = threading.Lock()
        self._keyer = PartitionKeyer()
        #: per-partition publish sequence counters (1-based, gapless)
        self._seqs: List[int] = [0] * partitions
        #: per-original-publisher high-water mark: publish-side dedupe
        self._hwm: Dict[str, int] = {}
        #: per-partition committed (acked) sequence floor
        self._floors: List[int] = [0] * partitions
        #: partition -> owning member id (absent = unowned)
        self._owners: Dict[int, str] = {}
        #: partition -> ownership generation (bumped on owner *change*)
        self._gens: List[int] = [0] * partitions
        #: (partition, member) -> rebase floor frozen at assignment time
        self._bases: Dict[Tuple[int, str], int] = {}
        #: partition -> last member that owned it (sticky preference)
        self._last_owner: Dict[int, str] = {}
        self._members: Dict[str, "GroupMember"] = {}
        self._member_seq = 0
        self.routed = 0
        self.publish_duplicates = 0  # publish-side dupes the router absorbed
        self._queues: List[MessageQueue] = [
            broker.declare_queue(self.partition_queue_name(i), durable=True)
            for i in range(partitions)
        ]

    def partition_queue_name(self, partition: int) -> str:
        return f"g.{self.name}.{partition}"

    def queue(self, partition: int) -> MessageQueue:
        return self._queues[partition]

    # -- routing (called by Broker.publish) -----------------------------------
    def matches(self, routing_key: str, exchange: str) -> bool:
        return exchange == self.exchange and topic_matches(self.pattern, routing_key)

    def route(
        self,
        routing_key: str,
        body: object,
        headers: Optional[Dict[str, object]],
    ) -> Optional[Tuple[MessageQueue, Dict[str, object]]]:
        """Pick this message's partition queue and stamp group headers.

        Returns ``None`` when the message is a publish-side duplicate
        (same original publisher stamp already routed — e.g. a publisher
        retry or an injected duplicate); absorbing it here is what keeps
        every partition stream gapless and dedupable downstream.  The
        caller performs the actual ``put`` outside our lock.
        """
        hdrs = dict(headers or {})
        pub = hdrs.get(HEADER_PUBLISHER)
        seq = hdrs.get(HEADER_SEQ)
        with self._lock:
            if pub is not None and seq is not None:
                seq = int(seq)
                hwm = self._hwm.get(str(pub), 0)
                if seq <= hwm:
                    self.publish_duplicates += 1
                    return None
                self._hwm[str(pub)] = seq
            key = hdrs.get(HEADER_PART_KEY)
            if key is None:
                attrs = getattr(body, "attrs", None)
                if attrs is not None:
                    key = self._keyer.key_for(attrs, default=routing_key)
                elif pub is not None:
                    # opaque body (e.g. a raw BP string published without
                    # a part-key stamp): keep one publisher's stream on
                    # one partition so its ordering survives
                    key = str(pub)
                else:
                    key = routing_key
            part = partition_for(str(key), self.partitions)
            self._seqs[part] += 1
            hdrs[HEADER_GROUP] = self.name
            hdrs[HEADER_PARTITION] = part
            hdrs[HEADER_PART_SEQ] = self._seqs[part]
            hdrs.setdefault(HEADER_PART_KEY, str(key))
            self.routed += 1
            return self._queues[part], hdrs

    # -- membership -----------------------------------------------------------
    def join(self, member_id: Optional[str] = None) -> "GroupMember":
        """Add a member and rebalance partitions onto it (sticky)."""
        with self._lock:
            if member_id is None:
                self._member_seq += 1
                member_id = f"member-{self._member_seq}"
            if member_id in self._members:
                raise ValueError(
                    f"member {member_id!r} already joined group {self.name!r}"
                )
            member = GroupMember(self, member_id)
            self._members[member_id] = member
            requeue = self._rebalance_locked()
        self._requeue(requeue)
        return member

    def leave(self, member_id: str) -> None:
        """Remove a member; its partitions move to the survivors."""
        with self._lock:
            member = self._members.pop(member_id, None)
            if member is None:
                return
            requeue = []
            for part in [p for p, m in self._owners.items() if m == member_id]:
                requeue.extend(self._revoke_locked(part))
            requeue.extend(self._rebalance_locked())
        self._requeue(requeue)

    def _requeue(self, entries: List[Tuple[MessageQueue, int]]) -> None:
        # outside the group lock: queue ops must not run under it
        for queue, tag in entries:
            try:
                queue.nack(tag, requeue=True)
            except ValueError:
                pass  # already settled concurrently

    def _revoke_locked(self, part: int) -> List[Tuple[MessageQueue, int]]:
        """Strip a partition from its owner; returns deliveries to requeue."""
        owner = self._owners.pop(part, None)
        if owner is None:
            return []
        self._last_owner[part] = owner
        member = self._members.get(owner)
        if member is None:
            return []
        return member._drop_partition_locked(part)

    def _assign_locked(self, part: int, member_id: str) -> None:
        self._owners[part] = member_id
        if self._last_owner.get(part) != member_id:
            # a *different* owner: new publisher identity for the
            # partition so the new member's resequencer starts fresh,
            # rebased at the committed floor
            self._gens[part] += 1
            self._bases[(part, member_id)] = self._floors[part]
        # same member re-acquiring keeps its identity and base, so its
        # surviving resequencer state dedupes redeliveries exactly-once
        self._bases.setdefault((part, member_id), self._floors[part])
        self._last_owner[part] = member_id
        self._members[member_id]._add_partition_locked(part)

    def _rebalance_locked(self) -> List[Tuple[MessageQueue, int]]:
        """Sticky rebalance: even out ownership with minimal movement."""
        members = sorted(self._members)
        requeue: List[Tuple[MessageQueue, int]] = []
        if not members:
            for part in list(self._owners):
                requeue.extend(self._revoke_locked(part))
            return requeue
        base, extra = divmod(self.partitions, len(members))
        quota = {
            m: base + (1 if i < extra else 0) for i, m in enumerate(members)
        }
        owned: Dict[str, List[int]] = {m: [] for m in members}
        for part, owner in sorted(self._owners.items()):
            owned[owner].append(part)
        # strip overfull members (highest partitions first: deterministic)
        for m in members:
            while len(owned[m]) > quota[m]:
                part = owned[m].pop()
                requeue.extend(self._revoke_locked(part))
        unowned = [p for p in range(self.partitions) if p not in self._owners]
        # sticky pass: give a freed partition back to its last owner first
        for part in list(unowned):
            last = self._last_owner.get(part)
            if last in owned and len(owned[last]) < quota[last]:
                self._assign_locked(part, last)
                owned[last].append(part)
                unowned.remove(part)
        for part in unowned:
            m = min(members, key=lambda m: (len(owned[m]) - quota[m], m))
            self._assign_locked(part, m)
            owned[m].append(part)
        return requeue

    # -- commit tracking ------------------------------------------------------
    def commit(self, part: int, part_seq: int) -> None:
        with self._lock:
            if part_seq > self._floors[part]:
                self._floors[part] = part_seq

    def committed(self, part: int) -> int:
        with self._lock:
            return self._floors[part]

    def assignment(self) -> Dict[str, List[int]]:
        with self._lock:
            out: Dict[str, List[int]] = {m: [] for m in self._members}
            for part, owner in sorted(self._owners.items()):
                out[owner].append(part)
            return out

    def members(self) -> List[str]:
        with self._lock:
            return sorted(self._members)

    def published_seq(self, part: int) -> int:
        with self._lock:
            return self._seqs[part]


class GroupMember:
    """One group member: consumes its assigned partitions, acks advance
    the group's commit floors.

    Deliveries are rewritten before they leave: the publisher stamp
    becomes ``<group>/p<partition>@g<generation>`` with the sequence
    rebased to start at 1 for this ownership, so a downstream
    :class:`~repro.bus.reliable.Resequencer` needs no seeding and chaos
    redeliveries dedupe per partition.  Delivery tags are member-local;
    :meth:`ack`/:meth:`nack` map them back to the owning partition
    queue.

    ``fault_injector`` accepts a
    :class:`~repro.faults.bus.BusFaultInjector` (duck-typed) so the
    chaos suite can drop/reorder/disconnect group deliveries exactly as
    :class:`~repro.faults.bus.ChaosConsumer` does for plain consumers.
    """

    def __init__(self, group: ConsumerGroup, member_id: str):
        self.group = group
        self.member_id = member_id
        self.disconnected = False
        self.duplicates_dropped = 0  # deliveries at/below the commit floor
        self.fault_injector = None
        # all mutable member state is guarded by the *group* lock: the
        # rebalance path touches members while holding it already, and a
        # second member-level lock would invite lock-order cycles
        self._parts: Set[int] = set()
        self._tag = 0
        #: member tag -> (queue, queue tag, partition, partition seq)
        self._unacked: Dict[int, Tuple[MessageQueue, int, int, int]] = {}
        self._rotate = 0

    # -- partition bookkeeping (called by the group, under its lock) ----------
    def _add_partition_locked(self, part: int) -> None:
        self._parts.add(part)

    def _drop_partition_locked(self, part: int) -> List[Tuple[MessageQueue, int]]:
        self._parts.discard(part)
        stale = [
            (tag, entry) for tag, entry in self._unacked.items() if entry[2] == part
        ]
        for tag, _entry in stale:
            del self._unacked[tag]
        return [(entry[0], entry[1]) for _tag, entry in stale]

    # -- consuming ------------------------------------------------------------
    @property
    def queue_name(self) -> str:
        return f"g.{self.group.name}.{self.member_id}"

    def partitions(self) -> List[int]:
        with self.group._lock:
            return sorted(self._parts)

    def depth(self) -> int:
        with self.group._lock:
            queues = [self.group.queue(p) for p in self._parts]
        return sum(len(q) for q in queues)

    def get(
        self,
        timeout: Optional[float] = _UNSET,  # type: ignore[assignment]
        auto_ack: bool = False,
    ) -> Optional[Message]:
        """Next message from any assigned partition.

        ``timeout`` follows :meth:`repro.bus.broker.Consumer.get`
        (``None`` blocks, ``0`` polls).  The wait is condition-variable
        parking on the partition queues, rotated so no partition is
        starved — not a busy poll.
        """
        from repro.bus.broker import DEFAULT_POLL_TIMEOUT  # cycle guard

        if timeout is _UNSET:
            timeout = DEFAULT_POLL_TIMEOUT
        deadline = None if timeout is None else time.monotonic() + timeout
        inj = self.fault_injector
        while True:
            self._check_connected()
            if inj is not None and inj.due_disconnect():
                inj.clear_holdback()
                self.disconnect()
                from repro.bus.broker import ConnectionLostError

                raise ConnectionLostError(
                    f"injected connection loss for group member "
                    f"{self.member_id!r}"
                )
            if inj is not None:
                inj.poll()
                held = inj.pop_due()
                if held is not None:
                    out = self._deliver(held, auto_ack)
                    if out is not None:
                        return out
                    continue
            with self.group._lock:
                queues = [(p, self.group.queue(p)) for p in sorted(self._parts)]
            fresh: Optional[Message] = None
            for _part, queue in queues:
                fresh = queue.get(timeout=0.0)
                if fresh is not None:
                    break
            if fresh is None:
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if inj is not None:
                            held = inj.pop_any()
                            if held is not None:
                                out = self._deliver(held, auto_ack)
                                if out is not None:
                                    return out
                                continue
                        return None
                if not queues:
                    # nothing assigned (mid-rebalance): bounded nap
                    time.sleep(min(0.005, remaining or 0.005))
                    continue
                wait: Optional[float] = remaining
                if len(queues) > 1 or inj is not None:
                    slice_ = _MULTI_QUEUE_WAIT_SLICE
                    wait = slice_ if remaining is None else min(slice_, remaining)
                _part, queue = queues[self._rotate % len(queues)]
                self._rotate += 1
                fresh = queue.get(timeout=wait)
                if fresh is None:
                    continue
            if inj is not None:
                fate = inj.classify(fresh)
                if fate == "drop":
                    part = int(fresh.header(HEADER_PARTITION, 0))
                    self.group.queue(part).nack(fresh.delivery_tag, requeue=True)
                    continue
                if fate == "hold":
                    continue
            out = self._deliver(fresh, auto_ack)
            if out is not None:
                return out

    def _deliver(self, msg: Message, auto_ack: bool) -> Optional[Message]:
        """Floor-dedupe + rewrite one raw partition delivery."""
        part = int(msg.header(HEADER_PARTITION, 0))
        part_seq = int(msg.header(HEADER_PART_SEQ, 0))
        with self.group._lock:
            if part not in self._parts:
                # revoked between poll and delivery: hand it back
                queue = self.group.queue(part)
                requeue = True
            elif part_seq <= self.group._floors[part]:
                # already committed by this group (possibly by a previous
                # owner): settle it without re-delivering
                queue = self.group.queue(part)
                requeue = False
            else:
                base = self.group._bases.get(
                    (part, self.member_id), self.group._floors[part]
                )
                gen = self.group._gens[part]
                self._tag += 1
                tag = self._tag
                self._unacked[tag] = (
                    self.group.queue(part), msg.delivery_tag, part, part_seq
                )
                hdrs = dict(msg.headers or {})
                if HEADER_PUBLISHER in hdrs:
                    hdrs[HEADER_ORIG_PUBLISHER] = hdrs[HEADER_PUBLISHER]
                if HEADER_SEQ in hdrs:
                    hdrs[HEADER_ORIG_SEQ] = hdrs[HEADER_SEQ]
                hdrs[HEADER_PUBLISHER] = f"{self.group.name}/p{part}@g{gen}"
                hdrs[HEADER_SEQ] = part_seq - base
                out = Message(
                    msg.routing_key,
                    msg.body,
                    delivery_tag=tag,
                    redelivered=msg.redelivered,
                    headers=hdrs,
                )
                queue = None
        if queue is not None:
            if requeue:
                try:
                    queue.nack(msg.delivery_tag, requeue=True)
                except ValueError:
                    pass
            else:
                self.duplicates_dropped += 1
                try:
                    queue.ack(msg.delivery_tag)
                except ValueError:
                    pass
            return None
        if auto_ack:
            self.ack(out.delivery_tag)
        return out

    # -- settling -------------------------------------------------------------
    def ack(self, tag: int) -> None:
        self._check_connected()
        with self.group._lock:
            entry = self._unacked.pop(tag, None)
        if entry is None:
            raise ValueError(f"unknown member delivery tag {tag}")
        queue, qtag, part, part_seq = entry
        queue.ack(qtag)  # outside the group lock
        self.group.commit(part, part_seq)

    def nack(self, tag: int, requeue: bool = True) -> None:
        self._check_connected()
        with self.group._lock:
            entry = self._unacked.pop(tag, None)
        if entry is None:
            raise ValueError(f"unknown member delivery tag {tag}")
        queue, qtag, _part, _part_seq = entry
        queue.nack(qtag, requeue=requeue)

    def requeue_unacked(self) -> int:
        with self.group._lock:
            entries = list(self._unacked.values())
            self._unacked.clear()
        for queue, qtag, _part, _seq in entries:
            try:
                queue.nack(qtag, requeue=True)
            except ValueError:
                pass
        return len(entries)

    # -- lifecycle ------------------------------------------------------------
    def leave(self) -> None:
        """Graceful exit: requeue in-flight work, hand partitions over."""
        self.requeue_unacked()
        self.group.leave(self.member_id)

    def disconnect(self) -> None:
        """Connection-loss semantics: like :meth:`leave`, plus every
        further operation raises
        :class:`~repro.bus.broker.ConnectionLostError` until the member
        rejoins (same ``member_id`` keeps its partition identities)."""
        if self.disconnected:
            return
        self.disconnected = True
        self.leave()

    def _check_connected(self) -> None:
        if self.disconnected:
            from repro.bus.broker import ConnectionLostError

            raise ConnectionLostError(
                f"group member {self.member_id!r} disconnected"
            )


class GroupConsumer:
    """Drop-in :class:`~repro.bus.client.EventConsumer` over a group.

    ``load_from_bus(..., group='loaders')`` builds one of these instead
    of a plain consumer; every method the loader's consumption loop
    touches (``get_message``/``ack``/``nack``/``depth``/``reconnect``/
    ``cancel``) behaves identically, so the resequencer and
    ack-after-commit batching work unchanged.
    """

    def __init__(
        self,
        broker: "Broker",
        group: str,
        pattern: str = "stampede.#",
        partitions: int = 8,
        member_id: Optional[str] = None,
        exchange: str = "stampede",
    ):
        self._broker = broker
        self._group_name = group
        self._pattern = pattern
        self._partitions = partitions
        self._exchange = exchange
        self.reconnects = 0
        self._member = broker.join_group(
            group,
            member_id=member_id,
            pattern=pattern,
            partitions=partitions,
            exchange=exchange,
        )

    @property
    def member(self) -> GroupMember:
        return self._member

    @property
    def queue_name(self) -> str:
        return self._member.queue_name

    @property
    def connected(self) -> bool:
        return not self._member.disconnected

    def reconnect(self) -> None:
        """Rejoin after a connection loss, keeping the member identity
        (same ``member_id`` → same partition publisher stamps, so the
        caller's resequencer dedupes the redelivered window)."""
        self.reconnects += 1
        member_id = self._member.member_id
        if not self._member.disconnected:
            self._member.disconnect()
        self._member = self._broker.join_group(
            self._group_name,
            member_id=member_id,
            pattern=self._pattern,
            partitions=self._partitions,
            exchange=self._exchange,
        )

    def get_message(
        self,
        timeout: Optional[float] = _UNSET,  # type: ignore[assignment]
        auto_ack: bool = False,
    ) -> Optional[Message]:
        return self._member.get(timeout=timeout, auto_ack=auto_ack)

    def get(self, timeout: Optional[float] = _UNSET):  # type: ignore[assignment]
        from repro.bus.broker import ConnectionLostError
        from repro.bus.client import EventConsumer

        try:
            msg = self._member.get(timeout=timeout, auto_ack=True)
        except ConnectionLostError:
            self.reconnect()
            return None
        return None if msg is None else EventConsumer.as_event(msg)

    def take(
        self,
        limit: int,
        idle: float,
        cap: Optional[float] = None,
    ) -> List[Message]:
        """Batch fetch; see :meth:`repro.bus.client.EventConsumer.take`."""
        return take_messages(
            lambda t: self._member.get(timeout=t, auto_ack=False),
            limit, idle, cap,
        )

    def ack(self, message: Message) -> None:
        self._member.ack(message.delivery_tag)

    def ack_all(self, messages: Iterable[Message]) -> None:
        ack_each(self.ack, messages)

    def nack(self, message: Message, requeue: bool = True) -> None:
        self._member.nack(message.delivery_tag, requeue=requeue)

    def depth(self) -> int:
        return self._member.depth()

    def drain(self) -> List[object]:
        from repro.bus.client import EventConsumer

        out = []
        while True:
            msg = self._member.get(timeout=0.0, auto_ack=True)
            if msg is None:
                return out
            out.append(EventConsumer.as_event(msg))

    def __iter__(self) -> Iterator[Message]:
        while True:
            msg = self._member.get(timeout=0.0, auto_ack=True)
            if msg is None:
                return
            yield msg

    def cancel(self) -> None:
        if not self._member.disconnected:
            self._member.leave()

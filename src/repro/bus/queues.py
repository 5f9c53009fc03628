"""Message queues for the in-process AMQP-style broker.

Queues support the subset of AMQP semantics Stampede relies on:
durability flags, auto-delete, unacknowledged-message redelivery, and
bounded capacity with a configurable overflow policy:

* ``'drop-oldest'`` — shed the head of the queue (monitoring data is
  lossy-tolerant; the default);
* ``'raise'`` — fail the publisher with :class:`QueueFullError`;
* ``'block'`` — apply backpressure: the publisher blocks until a
  consumer frees capacity (or its ``timeout`` expires), so a slow
  loader deterministically slows producers instead of silently
  dropping events.
"""
from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Mapping, Optional

__all__ = [
    "Message", "QueueStats", "MessageQueue", "QueueFullError",
    "take_messages", "ack_each",
]

OVERFLOW_POLICIES = ("drop-oldest", "raise", "block")


class QueueFullError(RuntimeError):
    """Raised when a bounded queue overflows (policy 'raise', or 'block'
    whose wait timed out)."""


@dataclass(frozen=True)
class Message:
    """One message: a routing key plus an opaque body.

    ``headers`` carries AMQP-style per-message metadata (the publisher
    sequence stamps the reliable-delivery layer uses, dead-letter
    annotations, ...); it survives requeue/redelivery untouched.
    """

    routing_key: str
    body: object
    delivery_tag: int = 0
    redelivered: bool = False
    headers: Optional[Mapping[str, object]] = None

    def header(self, name: str, default: object = None) -> object:
        return default if self.headers is None else self.headers.get(name, default)


@dataclass
class QueueStats:
    published: int = 0
    delivered: int = 0
    acked: int = 0
    requeued: int = 0
    dropped: int = 0
    blocked: int = 0  # publisher waits caused by backpressure


class MessageQueue:
    """Thread-safe FIFO with ack/requeue, in the AMQP mold.

    ``get`` marks the message unacknowledged; ``ack`` settles it; ``nack``
    (or consumer cancellation via :meth:`requeue_unacked`) pushes it back to
    the head, flagged redelivered.
    """

    def __init__(
        self,
        name: str,
        durable: bool = False,
        auto_delete: bool = False,
        max_length: Optional[int] = None,
        overflow: str = "drop-oldest",
    ):
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.name = name
        self.durable = durable
        self.auto_delete = auto_delete
        self._max_length = max_length
        self._overflow = overflow
        self._items: Deque[Message] = deque()
        self._unacked: "OrderedDict[int, Message]" = OrderedDict()
        self._tag = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self.stats = QueueStats()

    def put(
        self,
        routing_key: str,
        body: object,
        timeout: Optional[float] = None,
        headers: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Enqueue a message, applying the overflow policy when bounded.

        With policy ``'block'``, a full queue makes the publisher wait up
        to ``timeout`` seconds (forever when None) for a consumer to free
        capacity; :class:`QueueFullError` is raised on timeout.
        """
        with self._lock:
            if self._max_length is not None and len(self._items) >= self._max_length:
                if self._overflow == "raise":
                    raise QueueFullError(
                        f"queue {self.name!r} full ({self._max_length})"
                    )
                if self._overflow == "block":
                    self.stats.blocked += 1
                    deadline = (
                        None if timeout is None else time.monotonic() + timeout
                    )
                    while len(self._items) >= self._max_length:
                        wait_for = (
                            None
                            if deadline is None
                            else deadline - time.monotonic()
                        )
                        if wait_for is not None and wait_for <= 0:
                            raise QueueFullError(
                                f"queue {self.name!r} full ({self._max_length}); "
                                f"backpressure wait timed out after {timeout}s"
                            )
                        self._not_full.wait(wait_for)
                else:  # drop-oldest
                    self._items.popleft()
                    self.stats.dropped += 1
            self._tag += 1
            self._items.append(
                Message(routing_key, body, delivery_tag=self._tag, headers=headers)
            )
            self.stats.published += 1
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = 0.0) -> Optional[Message]:
        """Pop the next message; None if empty after ``timeout`` seconds.

        ``timeout=0`` polls; ``timeout=None`` blocks indefinitely.  A
        finite timeout is honored as a deadline across spurious wakeups.
        """
        with self._not_empty:
            if not self._items and timeout != 0.0:
                deadline = None if timeout is None else time.monotonic() + timeout
                while not self._items:
                    wait_for = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if wait_for is not None and wait_for <= 0:
                        return None
                    self._not_empty.wait(wait_for)
            if not self._items:
                return None
            msg = self._items.popleft()
            self._unacked[msg.delivery_tag] = msg
            self.stats.delivered += 1
            self._not_full.notify()
            return msg

    def ack(self, delivery_tag: int) -> None:
        with self._lock:
            if delivery_tag not in self._unacked:
                raise ValueError(f"unknown delivery tag {delivery_tag}")
            del self._unacked[delivery_tag]
            self.stats.acked += 1

    def nack(self, delivery_tag: int, requeue: bool = True) -> None:
        with self._not_empty:
            msg = self._unacked.pop(delivery_tag, None)
            if msg is None:
                raise ValueError(f"unknown delivery tag {delivery_tag}")
            if requeue:
                self._items.appendleft(
                    Message(
                        msg.routing_key,
                        msg.body,
                        msg.delivery_tag,
                        redelivered=True,
                        headers=msg.headers,
                    )
                )
                self.stats.requeued += 1
                self._not_empty.notify()
            else:
                self.stats.dropped += 1

    def requeue_unacked(self) -> int:
        """Requeue everything in flight (consumer died); returns the count."""
        with self._not_empty:
            pending = list(self._unacked.values())
            self._unacked.clear()
            for msg in reversed(pending):
                self._items.appendleft(
                    Message(
                        msg.routing_key,
                        msg.body,
                        msg.delivery_tag,
                        redelivered=True,
                        headers=msg.headers,
                    )
                )
            self.stats.requeued += len(pending)
            if pending:
                self._not_empty.notify_all()
            return len(pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def unacked_count(self) -> int:
        with self._lock:
            return len(self._unacked)

    def drain(self) -> Deque[Message]:
        """Atomically remove and return all queued messages (no ack needed)."""
        with self._lock:
            items = self._items
            self._items = deque()
            self.stats.delivered += len(items)
            self.stats.acked += len(items)
            self._not_full.notify_all()
            return items


def take_messages(
    get: Callable[[float], Optional[Message]],
    limit: int,
    idle: float,
    cap: Optional[float] = None,
) -> List[Message]:
    """Hold one fetch until ``limit`` messages are in hand, or until none
    has arrived for ``idle`` seconds.  ``cap`` bounds the time spent
    waiting: past it, the hold takes only what is already queued.

    ``get(timeout)`` is one consumer's blocking pop.  Every consumer
    kind fetches through here — the TCP server's ``get`` handler and the
    loader's in-process consumers alike — so a batch consumer pays one
    wake-up per chunk instead of one per message.  Callers pop unacked:
    a :class:`~repro.bus.broker.ConnectionLostError` from ``get``
    propagates and drops what was collected, which the disconnect that
    raised it has already requeued.
    """
    msgs: List[Message] = []
    deadline = None if cap is None else time.monotonic() + cap
    while len(msgs) < limit:
        wait = idle if deadline is None else min(idle, deadline - time.monotonic())
        msg = get(max(0.0, wait))
        if msg is None:
            break
        msgs.append(msg)
    return msgs


def ack_each(ack: Callable[[Message], None], messages: Iterable[Message]) -> None:
    """Settle every message through ``ack``, skipping stale delivery tags
    (a requeue or rebalance already took them back) silently."""
    for msg in messages:
        try:
            ack(msg)
        except ValueError:
            pass

"""Backpressure-aware bus consumption: no busy-poll, bounded flushes,
ack-only-after-commit."""
import threading
import time

from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.loader.nl_load import load_from_bus, make_loader
from repro.model.entities import InvocationRow, WorkflowStateRow

from tests.helpers import diamond_events


class TestBoundedFlushes:
    def test_flush_count_bounded_during_live_run(self):
        """Regression for the busy-poll bug: a trickling producer used to
        force one flush per empty poll (flushes ~ events); now flushes
        happen only on batch-full or idle boundaries."""
        broker = Broker()
        broker.declare_queue("stampede", durable=True)
        broker.bind_queue("stampede", "stampede.#")
        events = diamond_events()
        loader = make_loader(batch_size=10_000)  # never batch-full here
        result = {}

        def consume():
            result["loader"] = load_from_bus(
                broker,
                queue_name="stampede",
                loader=loader,
                durable=True,
                poll_timeout=0.2,
                until=lambda ld: ld.archive.count(WorkflowStateRow) >= 2,
            )

        t = threading.Thread(target=consume)
        t.start()
        publisher = EventPublisher(broker)
        for event in events:  # trickle: each gap would have been a flush
            publisher.publish(event)
            time.sleep(0.001)
        t.join(timeout=15)
        assert not t.is_alive()
        assert loader.archive.count(InvocationRow) == 4
        assert loader.stats.events_processed == len(events)
        # one batch ever filled? no — so only idle/final flushes remain
        assert loader.stats.flushes <= 5

    def test_drain_without_until_stops_on_idle(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.archive.count(InvocationRow) == 4

    def test_queue_depth_recorded(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.stats.queue_depth_samples == len(diamond_events())
        assert loader.stats.queue_depth_max > 0


class TestAckOnFlush:
    def test_messages_settle_only_after_commit(self):
        broker = Broker()
        queue = broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        published = queue.stats.published
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.archive.count(InvocationRow) == 4
        assert queue.stats.acked == published  # everything settled
        assert queue.unacked_count == 0

    def test_on_flush_restored_after_return(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        loader = make_loader()
        sentinel = []
        loader.on_flush = lambda ld: sentinel.append(1)
        load_from_bus(
            broker, queue_name="q", durable=True, loader=loader, poll_timeout=0.01
        )
        assert loader.on_flush is not None
        loader.flush()  # no pending work; original callback still wired
        assert sentinel

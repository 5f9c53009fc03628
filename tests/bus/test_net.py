"""The TCP transport: JSONL framing, failure modes, reconnects.

Everything here runs against a real :class:`BrokerServer` on a loopback
socket — no mocks — because the failure modes under test (mid-frame
disconnects, partial JSON, server restarts) live in the transport
itself.  The invariant throughout: transport failures may delay or
redeliver, but :func:`load_from_bus`'s resequencer + ack-after-commit
machinery on top must still archive exactly-once.
"""
import json
import socket
import threading
import time

import pytest

from repro.archive.merge import canonical_dump, diff_canonical
from repro.bus import net
from repro.bus.broker import Broker, ConnectionLostError
from repro.bus.net import (
    PROTOCOL_VERSION,
    BrokerServer,
    BusProtocolError,
    RemoteConsumer,
    RemotePublisher,
    connect_publisher,
    decode_body,
    encode_body,
    parse_bus_url,
)
from repro.bus.queues import Message
from repro.core.rollup import verify_rollups
from repro.loader.nl_load import load_events, load_from_bus
from repro.netlogger.events import NLEvent
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.util.retry import RetryPolicy
from repro.workloads import cybershake

from tests.helpers import diamond_events


@pytest.fixture
def server():
    srv = BrokerServer(Broker()).start()
    yield srv
    srv.stop()


def raw_conn(server):
    """A bare framed socket speaking the protocol by hand."""
    sock = socket.create_connection(server.address, timeout=5.0)
    return sock


def send_line(sock, frame):
    sock.sendall(json.dumps(frame).encode() + b"\n")


def recv_line(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            return None
        buf += chunk
    return json.loads(buf)


class TestUrlAndCodec:
    def test_parse_bus_url(self):
        assert parse_bus_url("tcp://127.0.0.1:5672") == ("127.0.0.1", 5672)
        assert parse_bus_url("tcp://host:1/") == ("host", 1)

    @pytest.mark.parametrize(
        "bad", ["http://x:1", "tcp://nohost", "tcp://:5672", "127.0.0.1:1"]
    )
    def test_parse_bus_url_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_bus_url(bad)

    def test_body_codec_roundtrip(self):
        event = diamond_events()[0]
        # events ride as BP text and come back as the BP string — the
        # consumer parses once, the relay never does
        encoded = encode_body(event)
        assert set(encoded) == {"bp"}
        assert NLEvent.from_bp(decode_body(encoded)) == event
        assert decode_body(encode_body("plain")) == "plain"
        assert decode_body(encode_body({"k": [1, None]})) == {"k": [1, None]}

    def test_unknown_body_tag_raises(self):
        with pytest.raises(BusProtocolError):
            decode_body({"pickle": "no"})


class TestHandshake:
    def test_hello_accepts_current_version(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        reply = recv_line(sock)
        assert reply["ok"] and reply["v"] == PROTOCOL_VERSION
        sock.close()

    def test_hello_rejects_other_version_and_closes(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": 99, "id": 1})
        reply = recv_line(sock)
        assert reply["ok"] is False
        assert recv_line(sock) is None  # server hung up
        sock.close()

    def test_unknown_op_reports_but_keeps_connection(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(sock, {"op": "frobnicate", "id": 2})
        reply = recv_line(sock)
        assert reply["ok"] is False and "unknown op" in reply["error"]
        send_line(sock, {"op": "flush", "id": 3})
        assert recv_line(sock)["ok"]  # still serving
        sock.close()


class TestRoundtrip:
    def test_publish_consume_over_tcp(self, server):
        events = diamond_events()
        publisher = RemotePublisher(server.url, publisher_id="p1")
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher.publish_all(events)
        publisher.flush()
        got = []
        while True:
            event = consumer.get(timeout=0.5)
            if event is None and len(got) == len(events):
                break
            if event is not None:
                got.append(event)
        assert got == events
        publisher.close()
        consumer.cancel()

    def test_flush_is_a_barrier(self, server):
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events())
        published = publisher.flush()
        # after the barrier the broker must have every frame we sent
        assert published == len(diamond_events())
        assert server.publishes == len(diamond_events())
        publisher.close()

    def test_consumer_group_over_tcp(self, server):
        events = diamond_events()
        c1 = RemoteConsumer(server.url, group="loaders", partitions=4)
        c2 = RemoteConsumer(server.url, group="loaders", partitions=4)
        assert c1.queue_name != c2.queue_name
        publisher = RemotePublisher(server.url)
        publisher.publish_all(events)
        publisher.flush()
        got = []
        deadline = time.monotonic() + 10
        while len(got) < len(events) and time.monotonic() < deadline:
            for c in (c1, c2):
                event = c.get(timeout=0.05)
                if event is not None:
                    got.append(event)
        # one diamond workflow = one root key = one partition = one member
        assert sorted(e.event for e in got) == sorted(e.event for e in events)
        publisher.close()
        c1.cancel()
        c2.cancel()

    def test_server_side_blocking_get(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        event = diamond_events()[0]

        def later():
            time.sleep(0.3)
            publisher.publish(event)
            publisher.flush()

        t = threading.Thread(target=later)
        start = time.monotonic()
        t.start()
        got = consumer.get(timeout=5.0)
        waited = time.monotonic() - start
        t.join()
        assert got == event
        assert 0.2 < waited < 4.0  # parked, not polled; well under the cap
        publisher.close()
        consumer.cancel()

    def test_depth_and_cancel(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events())
        publisher.flush()
        assert consumer.depth() == len(diamond_events())
        consumer.cancel()
        assert not consumer.connected
        with pytest.raises(ConnectionLostError):
            consumer.get_message(timeout=0.0)
        publisher.close()

    def test_connect_publisher_picks_transport(self, server):
        assert isinstance(connect_publisher(server.url), RemotePublisher)
        from repro.bus.client import EventPublisher

        assert isinstance(connect_publisher(Broker()), EventPublisher)


class TestFailureModes:
    def test_partial_json_line_drops_connection(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        sock.sendall(b'{"op": "publish", "key": not json\n')
        reply = recv_line(sock)
        assert reply["ok"] is False and reply["error"] == "bad-frame"
        assert recv_line(sock) is None  # connection torn down
        sock.close()
        deadline = time.monotonic() + 2
        while server.protocol_errors == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.protocol_errors == 1

    def test_mid_frame_disconnect_requeues_inflight(self, server):
        """A consumer that dies mid-frame (no clean close, half a frame
        on the wire) must have its unacked delivery requeued for the
        next subscriber — the transport equivalent of a loader crash."""
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(
            sock,
            {"op": "subscribe", "queue": "q", "durable": True,
             "pattern": "stampede.#", "id": 2},
        )
        assert recv_line(sock)["ok"]
        pub = RemotePublisher(server.url)
        pub.publish_all(diamond_events()[:3])
        pub.flush()
        send_line(sock, {"op": "get", "sub": 1, "timeout": 2.0, "id": 3})
        reply = recv_line(sock)
        assert "msg" in reply  # delivered, unacked
        first_key = reply["msg"]["key"]
        # die mid-frame: half an ack, no newline, then RST-ish close
        sock.sendall(b'{"op": "ack", "sub": 1, ')
        sock.close()
        # the server notices EOF/bad frame and cancels the subscription,
        # requeueing the in-flight message for the next consumer
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        deadline = time.monotonic() + 5
        got = []
        while len(got) < 3 and time.monotonic() < deadline:
            msg = consumer.get_message(timeout=0.3)
            if msg is not None:
                got.append(msg)
        keys = [m.routing_key for m in got]
        assert first_key in keys and len(got) == 3
        redelivered = [m for m in got if m.routing_key == first_key]
        assert any(m.redelivered for m in redelivered)
        consumer.cancel()

    def test_publisher_survives_server_restart(self, server):
        publisher = RemotePublisher(
            server.url, retry=RetryPolicy(max_retries=8, base_delay=0.05)
        )
        events = diamond_events()
        publisher.publish(events[0])
        publisher.flush()
        host, port = server.address
        server.stop()
        with pytest.raises(ConnectionLostError):
            # the dead socket surfaces on publish or on the flush barrier
            publisher.publish(events[1])
            publisher.flush()
        # same port, fresh broker: the durable queue story is the
        # loader's (resume/spill); here we only claim transport recovery
        server2 = BrokerServer(Broker(), host=host, port=port).start()
        try:
            publisher.publish(events[1])
            publisher.flush()
            assert server2.publishes == 1
            assert publisher.reconnects >= 1
        finally:
            publisher.close()
            server2.stop()

    def test_consumer_reconnect_after_server_restart(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        host, port = server.address
        server.stop()
        with pytest.raises(ConnectionLostError):
            consumer.get_message(timeout=0.5)
        assert not consumer.connected
        server2 = BrokerServer(Broker(), host=host, port=port).start()
        try:
            consumer.reconnect()
            assert consumer.connected
            assert consumer.queue_name == "q"  # same subscription identity
            publisher = RemotePublisher(server2.url)
            publisher.publish(diamond_events()[0])
            publisher.flush()
            assert consumer.get(timeout=2.0) == diamond_events()[0]
            publisher.close()
        finally:
            consumer.cancel()
            server2.stop()

    def test_group_member_identity_survives_reconnect(self, server):
        consumer = RemoteConsumer(server.url, group="loaders", partitions=2)
        member = consumer.queue_name.rsplit(".", 1)[-1]
        consumer.reconnect()
        # the server re-issued the same member identity, so partition
        # publisher stamps (and therefore resequencer dedupe) carry over
        assert consumer.queue_name.rsplit(".", 1)[-1] == member
        consumer.cancel()


def publish_later(server, events, delay):
    """Publish ``events`` from a thread after ``delay`` seconds."""
    def run():
        time.sleep(delay)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(events)
        publisher.close()

    t = threading.Thread(target=run)
    t.start()
    return t


class TestHeldGet:
    """``get`` with ``max``: hold until N are ready or the stream idles."""

    def test_returns_at_max(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events())
        publisher.flush()
        start = time.monotonic()
        msgs = consumer.take(3, idle=5.0)
        assert len(msgs) == 3
        assert time.monotonic() - start < 2.0  # full: no idle wait
        assert [m.routing_key for m in msgs] == [
            e.event for e in diamond_events()[:3]
        ]
        publisher.close()
        consumer.cancel()

    def test_returns_on_idle_gap(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events()[:2])
        publisher.flush()
        start = time.monotonic()
        msgs = consumer.take(100, idle=0.3)
        waited = time.monotonic() - start
        assert len(msgs) == 2
        assert 0.25 < waited < 2.0  # held for one idle gap, then replied
        assert server.fetches == 1
        publisher.close()
        consumer.cancel()

    def test_whole_hold_bounded_by_server_wait_cap(self, server, monkeypatch):
        monkeypatch.setattr(net, "SERVER_WAIT_CAP", 0.4)
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        stop = threading.Event()

        def trickle():
            # a gap shorter than the idle timeout, forever: only the cap
            # can end the hold
            publisher = RemotePublisher(server.url, flush_every=1)
            for event in diamond_events() * 100:
                if stop.is_set():
                    break
                publisher.publish(event)
                time.sleep(0.02)
            publisher.close()

        t = threading.Thread(target=trickle)
        t.start()
        try:
            time.sleep(0.1)
            start = time.monotonic()
            msgs = consumer.take(10_000, idle=5.0)
            waited = time.monotonic() - start
        finally:
            stop.set()
            t.join()
        assert 0 < len(msgs) < 10_000
        assert 0.3 < waited < 2.0
        consumer.cancel()

    def test_max_one_is_a_plain_get(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        event = diamond_events()[0]
        t = publish_later(server, [event], 0.3)
        start = time.monotonic()
        msgs = consumer.take(1, idle=5.0)
        waited = time.monotonic() - start
        t.join()
        # replies on the first arrival, like get_message, not after an
        # idle gap
        assert [NLEvent.from_bp(m.body) for m in msgs] == [event]
        assert 0.2 < waited < 4.0
        # and an empty stream replies an empty list after the timeout
        assert consumer.take(1, idle=0.1) == []
        consumer.cancel()

    def test_plain_get_keeps_its_reply_shape(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(sock, {"op": "subscribe", "queue": "q", "id": 2})
        assert recv_line(sock)["ok"]
        send_line(sock, {"op": "get", "sub": 1, "timeout": 0.0, "id": 3})
        assert recv_line(sock) == {"ok": True, "id": 3, "empty": True}
        send_line(sock, {"op": "get", "sub": 1, "max": 0, "id": 4})
        reply = recv_line(sock)
        assert reply["ok"] is False and "max" in reply["error"]
        sock.close()

    def test_tags_ack_settles_every_tag_and_skips_stale(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events()[:4])
        publisher.flush()
        msgs = consumer.take(4, idle=1.0)
        assert len(msgs) == 4
        queue = server.broker.queue("q")
        assert queue.unacked_count == 4
        stale = Message("", None, delivery_tag=999_999)
        consumer.ack_all([msgs[0], stale, *msgs[1:]])
        assert consumer.depth() == 0  # a round trip: the acks landed first
        assert queue.stats.acked == 4
        assert queue.unacked_count == 0
        publisher.close()
        consumer.cancel()

    def test_drain_fetches_a_chunk_per_round_trip(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        events = diamond_events() * 100
        publisher = RemotePublisher(server.url)
        publisher.publish_all(events)
        publisher.flush()
        assert consumer.drain() == events
        # len // DRAIN_CHUNK full replies, then the short one that ends it
        assert server.fetches == len(events) // net.DRAIN_CHUNK + 1
        assert server.broker.queue("q").unacked_count == 0  # auto-acked
        publisher.close()
        consumer.cancel()

    def test_disconnect_mid_hold_requeues_held_messages(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(
            sock,
            {"op": "subscribe", "queue": "q", "durable": True,
             "pattern": "stampede.#", "id": 2},
        )
        assert recv_line(sock)["ok"]
        pub = RemotePublisher(server.url)
        pub.publish_all(diamond_events()[:3])
        pub.flush()
        # the server pops all three into its hold, waiting for seven more
        send_line(sock, {"op": "get", "sub": 1, "max": 10, "timeout": 0.5,
                         "id": 3})
        deadline = time.monotonic() + 5
        queue = server.broker.queue("q")
        while queue.unacked_count < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert queue.unacked_count == 3
        sock.close()  # the client dies mid-hold
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        got = []
        deadline = time.monotonic() + 5
        while len(got) < 3 and time.monotonic() < deadline:
            got.extend(consumer.take(10, idle=0.3))
        assert [m.routing_key for m in got] == [
            e.event for e in diamond_events()[:3]
        ]
        assert all(m.redelivered for m in got)
        pub.close()
        consumer.cancel()


def _cybershake_events(n_ruptures, seed=5):
    sink = MemoryAppender()
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=SiteCatalog(
            [Site("pool", slots=32, mean_queue_delay=1.0, hosts_per_site=8)]
        ),
        planner_config=PlannerConfig(cluster_size=4),
        seed=seed,
    )
    # the wire carries BP text; build the baseline from the same values
    return [NLEvent.from_bp(e.to_bp()) for e in sink.events]


class TestRemoteLoadRoundTrips:
    def test_remote_load_fetches_per_chunk_not_per_event(self, server):
        """Regression: a remote loader used to make one ``get`` round
        trip per event.  Held fetches sized to the batch's free room
        bring that to one per chunk, with the same archive."""
        events = _cybershake_events(52)
        assert len(events) >= 1900
        result = {}

        def consume():
            result["loader"] = load_from_bus(
                server.url,
                queue_name="q",
                durable=True,
                until=lambda ld: ld.stats.events_processed >= len(events),
            )

        t = threading.Thread(target=consume)
        t.start()
        deadline = time.monotonic() + 10
        while "q" not in server.broker.queue_names():
            assert time.monotonic() < deadline, "loader never subscribed"
            time.sleep(0.01)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(events)
        publisher.close()
        t.join(timeout=120)
        assert not t.is_alive()
        loader = result["loader"]
        assert loader.stats.events_processed == len(events)
        assert server.fetches <= len(events) / 100
        baseline = load_events(events)
        assert diff_canonical(
            canonical_dump(baseline.archive), canonical_dump(loader.archive)
        ) == []
        assert verify_rollups(loader.archive) == []

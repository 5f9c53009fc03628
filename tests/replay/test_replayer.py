"""Recorder tap + replayer: record→replay must be lossless end-to-end."""
import io

from repro.archive.merge import canonical_dump, diff_canonical
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.bus.groups import HEADER_PART_KEY
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.loader.nl_load import load_events, load_from_bus
from repro.obs.spans import HEADER_PUB_TS, HEADER_TRACE
from repro.replay.recorder import BusRecorder
from repro.replay.replayer import Replayer, replay
from repro.replay.trace import TraceRecord, read_trace

from tests.helpers import XWF, diamond_events


def record_diamond():
    """Publish the diamond stream on a tapped broker; return the records."""
    broker = Broker()
    broker.declare_queue("sink")  # so publishes route somewhere
    broker.bind_queue("sink", "#")
    buf = io.StringIO()
    with BusRecorder(broker, buf) as recorder:
        publisher = EventPublisher(broker, publisher_id="orig")
        for event in diamond_events():
            publisher.publish(event)
        assert recorder.records == len(diamond_events())
    buf.seek(0)
    return list(read_trace(buf))


class TestBusRecorder:
    def test_captures_keys_bodies_and_headers(self):
        records = record_diamond()
        events = diamond_events()
        assert [r.routing_key for r in records] == [e.event for e in events]
        assert [r.as_event().to_bp() for r in records] == [e.to_bp() for e in events]
        # publisher stamps arrive intact: identity, gapless seq, clocks
        assert all(r.headers[HEADER_PUBLISHER] == "orig" for r in records)
        assert [r.headers[HEADER_SEQ] for r in records] == list(
            range(1, len(records) + 1)
        )
        assert all(HEADER_PUB_TS in r.headers for r in records)

    def test_timeline_is_relative_and_monotonic(self):
        records = record_diamond()
        assert records[0].t == 0.0
        times = [r.t for r in records]
        assert times == sorted(times)

    def test_stop_detaches_the_tap(self):
        broker = Broker()
        buf = io.StringIO()
        recorder = BusRecorder(broker, buf).start()
        broker.publish("stampede.x", "a")
        recorder.stop()
        broker.publish("stampede.x", "b")
        assert recorder.records == 1


class TestReplayer:
    def test_restamps_fresh_identity(self):
        records = record_diamond()
        broker = Broker()
        broker.declare_queue("q")
        broker.bind_queue("q", "#")
        replayer = Replayer(broker, publisher_id="replay-1")
        replayer.run(records)
        queue = broker.queue("q")
        seqs = []
        while True:
            msg = queue.get(timeout=0)
            if msg is None:
                break
            assert msg.headers[HEADER_PUBLISHER] == "replay-1"  # not "orig"
            assert msg.headers[HEADER_TRACE] != records[0].headers.get(HEADER_TRACE)
            assert msg.headers[HEADER_PART_KEY] == XWF
            seqs.append(msg.headers[HEADER_SEQ])
            queue.ack(msg.delivery_tag)
        assert seqs == list(range(1, len(records) + 1))  # fresh gapless 1..N

    def test_marks_fire_once_at_fractions(self):
        records = [TraceRecord(0.0, "stampede.x", "e", {}) for _ in range(10)]
        broker = Broker()
        fired = []
        stats = replay(
            records,
            broker,
            marks=[(0.5, lambda n: fired.append(("half", n))),
                   (1.0, lambda n: fired.append(("end", n)))],
        )
        assert fired == [("half", 5), ("end", 10)]
        assert stats.marks_fired == [0.5, 1.0]
        assert stats.records == 10

    def test_marks_past_stream_end_still_fire(self):
        records = [TraceRecord(0.0, "stampede.x", "e", {}) for _ in range(3)]
        fired = []
        replay(records, Broker(), marks=[(0.99, lambda n: fired.append(n))])
        assert fired == [3]

    def test_record_replay_roundtrip_is_lossless(self):
        """The acceptance check: x1 replay archives exactly the original."""
        baseline_loader = load_events(diamond_events())
        baseline = canonical_dump(baseline_loader.archive)
        baseline_loader.archive.close()

        records = record_diamond()
        broker = Broker()
        broker.declare_queue("ingest", durable=True)
        broker.bind_queue("ingest", "stampede.#")
        replay(records, broker)
        loader = load_from_bus(
            broker,
            queue_name="ingest",
            durable=True,
            until=lambda _ld: len(broker.queue("ingest")) == 0,
            poll_timeout=0.01,
        )
        diff = diff_canonical(baseline, canonical_dump(loader.archive))
        loader.archive.close()
        assert diff == []

"""Cross-process bus transport: JSONL frames over TCP.

The in-process :class:`~repro.bus.broker.Broker` already gives the
paper's architecture its decoupling *within* one process; this module
puts a socket in front of it so the pieces can live in separate
processes (an engine publishing from one, ``nl-load`` consuming from
another), the deployment shape the paper actually describes.

Wire protocol (versioned, newline-delimited JSON):

* every frame is one JSON object terminated by ``\\n`` — no length
  prefix, so a partial frame is detectable as a line without a
  terminator and ``tcpdump``/``nc`` sessions stay human-readable;
* the first frame on a connection must be
  ``{"op": "hello", "v": 1}``; the server rejects other versions, which
  is the forward-compatibility hinge;
* bodies cross the wire as a tagged union — ``{"bp": line}`` for
  NetLogger events (the canonical BP text form), ``{"str": s}`` /
  ``{"json": v}`` for everything else.  The server relays bodies
  opaquely (no parse on the hot path); a consumer gets the BP string
  and parses once, client-side;
* ``publish`` frames are fire-and-forget; a ``flush`` frame is the
  barrier that reports delivery counts and surfaces errors;
* ``get`` waits *server-side* (capped per request) so an idle consumer
  parks on the broker's condition variables instead of request-spamming
  the socket.  A plain ``get`` replies one ``msg`` (or ``empty``); a
  ``get`` carrying ``max=N`` holds until N messages are ready or none
  has arrived for its ``timeout`` (the idle gap), and replies them all
  as ``msgs`` — one round trip per chunk instead of one per message;
* ``ack`` is fire-and-forget and settles one ``tag`` or a whole
  committed batch as ``tags``; stale tags are skipped silently.

:class:`RemotePublisher` / :class:`RemoteConsumer` mirror the
:mod:`repro.bus.client` interfaces, so ``load_from_bus(bus='tcp://…')``
and chaos-recovery (auto-reconnect under a
:class:`~repro.util.retry.RetryPolicy`) work unchanged over TCP.
"""
from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union, cast

from repro.bus.broker import (
    DEFAULT_EXCHANGE,
    DEFAULT_POLL_TIMEOUT,
    Broker,
    ConnectionLostError,
)
from repro.bus.client import EventConsumer, EventPublisher
from repro.bus.groups import HEADER_PART_KEY, GroupConsumer, PartitionKeyer
from repro.bus.queues import Message, ack_each
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.netlogger.events import NLEvent
from repro.obs.spans import (
    CLOCK_EPOCH,
    HEADER_CLOCK_EPOCH,
    HEADER_PUB_MONO,
    HEADER_PUB_TS,
    HEADER_TRACE,
    new_trace_id,
)
from repro.util.retry import RetryPolicy

__all__ = [
    "PROTOCOL_VERSION",
    "BusProtocolError",
    "BrokerServer",
    "RemotePublisher",
    "RemoteConsumer",
    "parse_bus_url",
    "encode_body",
    "decode_body",
    "connect_publisher",
]

PROTOCOL_VERSION = 1

#: longest a single server-side ``get`` may park before replying
#: ``empty`` — bounds how long a handler thread can be stuck behind a
#: client that died mid-wait; clients with longer (or infinite)
#: timeouts just re-issue the request
SERVER_WAIT_CAP = 5.0

#: messages per reply when :meth:`RemoteConsumer.drain` empties a queue
DRAIN_CHUNK = 512

#: socket-level timeout on client request/reply exchanges; generous
#: because a flush barrier behind a large publish burst is legitimate
_CLIENT_SOCKET_TIMEOUT = 60.0


class BusProtocolError(ConnectionError):
    """The peer sent a frame this protocol version cannot interpret."""


def parse_bus_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``."""
    if not url.startswith("tcp://"):
        raise ValueError(f"unsupported bus url {url!r} (expected tcp://host:port)")
    rest = url[len("tcp://"):].rstrip("/")
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bus url {url!r} missing port (expected tcp://host:port)")
    return host, int(port)


def encode_body(body: object) -> Dict[str, object]:
    """Tagged-union encoding of a message body for the wire."""
    if isinstance(body, NLEvent):
        return {"bp": body.to_bp()}
    if isinstance(body, str):
        return {"str": body}
    return {"json": body}


def decode_body(obj: Dict[str, object]) -> object:
    """Inverse of :func:`encode_body`.

    A ``bp`` body is returned as the BP *string*: every consumer-side
    path (:meth:`EventConsumer.as_event`, the loader) parses BP lines
    natively, and deferring the parse keeps the relay dumb and fast.
    """
    if "bp" in obj:
        return obj["bp"]
    if "str" in obj:
        return obj["str"]
    if "json" in obj:
        return obj["json"]
    raise BusProtocolError(f"unintelligible body frame: {sorted(obj)!r}")


def _encode_message(msg: Message) -> Dict[str, object]:
    return {
        "key": msg.routing_key,
        "tag": msg.delivery_tag,
        "redelivered": msg.redelivered,
        "headers": dict(msg.headers or {}),
        "body": encode_body(msg.body),
    }


def _decode_message(obj: Dict[str, object]) -> Message:
    return Message(
        routing_key=str(obj["key"]),
        body=decode_body(obj["body"]),  # type: ignore[arg-type]
        delivery_tag=int(obj["tag"]),  # type: ignore[arg-type]
        redelivered=bool(obj.get("redelivered", False)),
        headers=dict(obj.get("headers") or {}),  # type: ignore[arg-type]
    )


class _Framed:
    """One JSONL-framed socket: line out, line in."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._wlock = threading.Lock()
        self.frames_in = 0
        self.frames_out = 0

    def send(self, frame: Dict[str, object]) -> None:
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._wlock:
            # the lock's entire purpose is to serialize whole frames
            # onto one socket; writers MUST block here or frames
            # interleave mid-line and corrupt the stream
            self.sock.sendall(data)  # devlint: ignore[SDL102]
            self.frames_out += 1

    def recv(self) -> Optional[Dict[str, object]]:
        """Next frame, or ``None`` on clean EOF.

        A line that ends without its ``\\n`` terminator (peer died
        mid-frame) or that is not valid JSON raises
        :class:`BusProtocolError` — the stream is unrecoverable past
        that point, so callers tear the connection down.
        """
        try:
            line = self._rfile.readline()
        except ValueError:
            # the buffered reader was closed underneath us (server
            # shutdown racing a blocked readline): same as a clean EOF
            return None
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise BusProtocolError("peer closed mid-frame (truncated line)")
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise BusProtocolError(f"undecodable frame: {exc}") from None
        if not isinstance(frame, dict):
            raise BusProtocolError("frame is not a JSON object")
        self.frames_in += 1
        return frame

    def close(self) -> None:
        # shutdown first: it wakes any thread parked in readline() with
        # an EOF, where closing the buffered reader outright would block
        # on the reader lock that very thread is holding
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self._rfile.close()
        except (OSError, ValueError):
            pass


class BrokerServer:
    """Serves one in-process :class:`Broker` to TCP clients.

    Thread-per-connection: each client connection is a strictly
    sequential request/reply stream (publishers and consumers open
    separate connections), so a server-side blocking ``get`` only parks
    its own handler thread.  When a connection drops — cleanly or
    mid-frame — every subscription it held is cancelled, which requeues
    unacked deliveries (plain consumers) or hands partitions back to the
    group (group members): the same semantics an in-process disconnect
    has, so chaos tests exercise identical recovery paths.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._conn_lock = threading.Lock()
        self._conns: Dict[int, _Framed] = {}
        self._conn_ids = 0
        self.connections_total = 0
        self.publishes = 0
        #: ``get`` requests served, held or not
        self.fetches = 0
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "BrokerServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="bus-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- accept/handler loops -------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed underneath us: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Framed(sock)
            with self._conn_lock:
                self._conn_ids += 1
                cid = self._conn_ids
                self._conns[cid] = conn
            self.connections_total += 1
            threading.Thread(
                target=self._serve_connection,
                args=(cid, conn),
                name=f"bus-server-conn-{cid}",
                daemon=True,
            ).start()

    def _serve_connection(self, cid: int, conn: _Framed) -> None:
        #: subscription id -> consumer handle (EventConsumer-shaped)
        subs: Dict[int, Union[EventConsumer, GroupConsumer]] = {}
        sub_ids = 0
        try:
            while True:
                try:
                    frame = conn.recv()
                except BusProtocolError:
                    self.protocol_errors += 1
                    try:
                        conn.send({"ok": False, "error": "bad-frame"})
                    except OSError:
                        pass
                    return
                if frame is None:
                    return  # clean EOF
                op = frame.get("op")
                rid = frame.get("id")
                try:
                    if op == "hello":
                        if frame.get("v") != PROTOCOL_VERSION:
                            conn.send({
                                "ok": False, "id": rid,
                                "error": f"unsupported protocol version "
                                         f"{frame.get('v')!r}",
                            })
                            return
                        conn.send({
                            "ok": True, "id": rid, "v": PROTOCOL_VERSION,
                            "server": "stampede-bus/1",
                        })
                    elif op == "publish":
                        self.publishes += 1
                        self.broker.publish(
                            str(frame["key"]),
                            decode_body(frame["body"]),  # type: ignore[arg-type]
                            exchange=str(frame.get("exchange") or DEFAULT_EXCHANGE),
                            headers=frame.get("headers"),  # type: ignore[arg-type]
                        )
                        # fire-and-forget: no reply (see "flush")
                    elif op == "flush":
                        conn.send({
                            "ok": True, "id": rid, "published": self.publishes,
                        })
                    elif op == "subscribe":
                        group = frame.get("group")
                        consumer: Union[EventConsumer, GroupConsumer]
                        if group:
                            consumer = GroupConsumer(
                                self.broker,
                                str(group),
                                pattern=str(frame.get("pattern") or "stampede.#"),
                                partitions=int(frame.get("partitions") or 8),  # type: ignore[arg-type]
                                member_id=(
                                    str(frame["member"])
                                    if frame.get("member") else None
                                ),
                                exchange=str(
                                    frame.get("exchange") or DEFAULT_EXCHANGE
                                ),
                            )
                        else:
                            consumer = EventConsumer(
                                self.broker,
                                pattern=str(frame.get("pattern") or "stampede.#"),
                                queue_name=(
                                    str(frame["queue"])
                                    if frame.get("queue") else None
                                ),
                                exchange=str(
                                    frame.get("exchange") or DEFAULT_EXCHANGE
                                ),
                                durable=bool(frame.get("durable", False)),
                            )
                        sub_ids += 1
                        subs[sub_ids] = consumer
                        conn.send({
                            "ok": True, "id": rid, "sub": sub_ids,
                            "queue": consumer.queue_name,
                        })
                    elif op == "get":
                        consumer = self._sub(subs, frame)
                        self.fetches += 1
                        timeout = frame.get("timeout")
                        wait = (
                            SERVER_WAIT_CAP if timeout is None
                            else min(float(timeout), SERVER_WAIT_CAP)  # type: ignore[arg-type]
                        )
                        held = frame.get("max")
                        limit = 1 if held is None else int(held)  # type: ignore[arg-type]
                        if limit < 1:
                            raise ValueError(f"max must be >= 1, got {limit}")
                        try:
                            msgs = consumer.take(limit, wait, cap=SERVER_WAIT_CAP)
                            if frame.get("auto_ack"):
                                for m in msgs:
                                    consumer.ack(m)
                        except ConnectionLostError as exc:
                            subs.pop(int(frame["sub"]), None)  # type: ignore[arg-type]
                            conn.send({
                                "ok": False, "id": rid, "gone": True,
                                "error": str(exc),
                            })
                            continue
                        if held is not None:
                            conn.send({
                                "ok": True, "id": rid,
                                "msgs": [_encode_message(m) for m in msgs],
                            })
                        elif msgs:
                            conn.send({
                                "ok": True, "id": rid,
                                "msg": _encode_message(msgs[0]),
                            })
                        else:
                            conn.send({"ok": True, "id": rid, "empty": True})
                    elif op == "ack":
                        # fire-and-forget, like publish: the loader acks a
                        # committed batch as one ``tags`` frame and a stale
                        # tag is tolerated in-process too, so a reply would
                        # only throttle the commit path
                        self._settle(subs, frame, requeue=None)
                    elif op == "nack":
                        self._settle(
                            subs, frame,
                            requeue=bool(frame.get("requeue", True)),
                        )
                    elif op == "depth":
                        consumer = self._sub(subs, frame)
                        conn.send({"ok": True, "id": rid, "depth": consumer.depth()})
                    elif op == "cancel":
                        consumer2 = subs.pop(int(frame["sub"]), None)  # type: ignore[arg-type]
                        if consumer2 is not None:
                            consumer2.cancel()
                        conn.send({"ok": True, "id": rid})
                    else:
                        conn.send({
                            "ok": False, "id": rid,
                            "error": f"unknown op {op!r}",
                        })
                except (KeyError, TypeError, ValueError) as exc:
                    # malformed-but-parseable frame: report and carry on
                    conn.send({
                        "ok": False, "id": rid,
                        "error": f"bad request: {exc}",
                    })
        except OSError:
            return  # connection torn down underneath a send/recv
        finally:
            with self._conn_lock:
                self._conns.pop(cid, None)
            for consumer in subs.values():
                # requeue in-flight work / hand partitions back; a member
                # that already disconnected server-side is a no-op
                try:
                    consumer.cancel()
                except (ConnectionLostError, ValueError):
                    pass
            conn.close()

    @staticmethod
    def _sub(
        subs: Dict[int, Union[EventConsumer, GroupConsumer]],
        frame: Dict[str, object],
    ) -> Union[EventConsumer, GroupConsumer]:
        consumer = subs.get(int(frame["sub"]))  # type: ignore[arg-type]
        if consumer is None:
            raise ValueError(f"unknown subscription {frame.get('sub')!r}")
        return consumer

    def _settle(
        self,
        subs: Dict[int, Union[EventConsumer, GroupConsumer]],
        frame: Dict[str, object],
        requeue: Optional[bool],
    ) -> None:
        try:
            consumer = self._sub(subs, frame)
            tags = frame["tags"] if "tags" in frame else [frame["tag"]]
            if not isinstance(tags, list):
                raise TypeError("tags must be a list")
            # the consumer interfaces settle by Message; only the tag is
            # meaningful, so rehydrate a shell around it
            shells = [Message("", None, delivery_tag=int(t)) for t in tags]
            ack_each(
                consumer.ack if requeue is None
                else lambda m: consumer.nack(m, requeue=bool(requeue)),
                shells,
            )
        except (ConnectionLostError, KeyError, TypeError, ValueError):
            # fire-and-forget settle on a stale tag/sub: drop it, exactly
            # as the loader does in-process after a reconnect
            pass


class _ClientConn:
    """Client side of one framed connection, with request/reply ids."""

    def __init__(self, host: str, port: int):
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_CLIENT_SOCKET_TIMEOUT)
        self.framed = _Framed(sock)
        self._rid = 0
        hello = self.request({"op": "hello", "v": PROTOCOL_VERSION})
        if not hello.get("ok"):
            raise BusProtocolError(
                f"server rejected hello: {hello.get('error')!r}"
            )

    def send(self, frame: Dict[str, object]) -> None:
        self.framed.send(frame)

    def request(self, frame: Dict[str, object]) -> Dict[str, object]:
        self._rid += 1
        frame = dict(frame, id=self._rid)
        self.framed.send(frame)
        while True:
            reply = self.framed.recv()
            if reply is None:
                raise BusProtocolError("server closed connection mid-request")
            # replies arrive in order on this strictly sequential
            # connection; skipping mismatched ids defends against a
            # stale reply surviving a timeout
            if reply.get("id") == self._rid or "id" not in reply:
                return reply

    def close(self) -> None:
        self.framed.close()


class RemotePublisher:
    """Publishes NLEvents to a :class:`BrokerServer` over TCP.

    Drop-in for :class:`~repro.bus.client.EventPublisher`: stamps the
    same end-to-end headers (publisher sequence, trace id, wall +
    monotonic publish clocks) plus ``x-part-key`` — the root-workflow
    partition key, computed *client-side* (this process holds the parsed
    event; the server relays bodies opaquely) so consumer groups
    partition remote streams exactly as local ones.

    Publishes are fire-and-forget frames; :meth:`flush` is the barrier
    that drains the socket and surfaces transport errors.  The
    connection is (re)established lazily under ``retry``.
    """

    def __init__(
        self,
        url: str,
        exchange: str = DEFAULT_EXCHANGE,
        publisher_id: Optional[str] = None,
        stamp: bool = True,
        flush_every: int = 512,
        retry: Optional[RetryPolicy] = None,
    ):
        self._host, self._port = parse_bus_url(url)
        self._exchange = exchange
        self.publisher_id = publisher_id or f"pub-{new_trace_id()}"
        self._stamp = stamp
        self._flush_every = max(1, flush_every)
        self._retry = retry or RetryPolicy(max_retries=4, base_delay=0.05)
        self._keyer = PartitionKeyer()
        self._conn: Optional[_ClientConn] = None
        self.events_published = 0
        self.reconnects = 0
        self._unflushed = 0

    def _connect(self) -> _ClientConn:
        if self._conn is None:
            self._conn = self._retry.call(
                lambda: _ClientConn(self._host, self._port),
                retry_on=(OSError, BusProtocolError),
            )
        return self._conn

    def publish(self, event: NLEvent) -> int:
        self.events_published += 1
        headers: Optional[Dict[str, object]] = None
        if self._stamp:
            headers = {
                HEADER_PUBLISHER: self.publisher_id,
                HEADER_SEQ: self.events_published,
                HEADER_TRACE: new_trace_id(),
                HEADER_PUB_TS: time.time(),
                HEADER_PUB_MONO: time.monotonic(),
                HEADER_CLOCK_EPOCH: CLOCK_EPOCH,
                HEADER_PART_KEY: self._keyer.key_for(
                    event.attrs, default=self.publisher_id
                ),
            }
        frame: Dict[str, object] = {
            "op": "publish",
            "key": event.event,
            "body": encode_body(event),
            "exchange": self._exchange,
        }
        if headers is not None:
            frame["headers"] = headers
        try:
            self._connect().send(frame)
        except (OSError, BusProtocolError):
            self._drop_connection()
            raise ConnectionLostError(
                f"lost connection to bus server {self._host}:{self._port}"
            ) from None
        self._unflushed += 1
        if self._unflushed >= self._flush_every:
            self.flush()
        return 1

    def publish_all(self, events) -> int:
        count = 0
        for event in events:
            self.publish(event)
            count += 1
        return count

    def flush(self) -> int:
        """Barrier: confirm the server consumed everything sent so far."""
        if self._conn is None:
            return 0
        try:
            reply = self._conn.request({"op": "flush"})
        except (OSError, BusProtocolError):
            self._drop_connection()
            raise ConnectionLostError(
                f"lost connection to bus server {self._host}:{self._port}"
            ) from None
        self._unflushed = 0
        return int(reply.get("published", 0))  # type: ignore[arg-type]

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self.reconnects += 1

    def close(self) -> None:
        if self._conn is not None:
            try:
                self.flush()
            except ConnectionLostError:
                pass
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class RemoteConsumer:
    """Consumes from a :class:`BrokerServer` over TCP.

    Interface-compatible with :class:`~repro.bus.client.EventConsumer`
    (and, with ``group=``, joins a consumer group server-side), so
    ``load_from_bus`` drives it unchanged: ``get_message`` raises
    :class:`ConnectionLostError` on transport loss *or* a server-side
    disconnect (``gone`` reply), the caller settles its batch, then
    :meth:`reconnect` re-subscribes — same queue name or same group
    member identity — under the retry policy.
    """

    def __init__(
        self,
        url: str,
        pattern: str = "stampede.#",
        queue_name: Optional[str] = None,
        durable: bool = False,
        group: Optional[str] = None,
        member_id: Optional[str] = None,
        partitions: int = 8,
        exchange: str = DEFAULT_EXCHANGE,
        retry: Optional[RetryPolicy] = None,
    ):
        self._host, self._port = parse_bus_url(url)
        self._pattern = pattern
        self._exchange = exchange
        self._durable = durable
        self._group = group
        self._member_id = member_id
        self._partitions = partitions
        self._queue_name = queue_name
        self._retry = retry or RetryPolicy(
            max_retries=6, base_delay=0.05, max_delay=1.0, jitter="decorrelated"
        )
        self._conn: Optional[_ClientConn] = None
        self._sub: Optional[int] = None
        self.reconnects = 0
        self._subscribe()

    # -- connection management ------------------------------------------------
    def _subscribe(self) -> None:
        conn = _ClientConn(self._host, self._port)
        frame: Dict[str, object] = {
            "op": "subscribe",
            "pattern": self._pattern,
            "exchange": self._exchange,
            "durable": self._durable,
        }
        if self._group:
            frame["group"] = self._group
            frame["partitions"] = self._partitions
            if self._member_id:
                frame["member"] = self._member_id
        elif self._queue_name:
            frame["queue"] = self._queue_name
        reply = conn.request(frame)
        if not reply.get("ok"):
            conn.close()
            raise BusProtocolError(
                f"subscribe rejected: {reply.get('error')!r}"
            )
        self._conn = conn
        self._sub = int(reply["sub"])  # type: ignore[arg-type]
        self._queue_name = str(reply["queue"])
        if self._group and self._member_id is None:
            # remember the server-assigned member id so a reconnect
            # resumes the same partition identities (exactly-once hinges
            # on this)
            self._member_id = self._queue_name.rsplit(".", 1)[-1]

    @property
    def queue_name(self) -> str:
        return self._queue_name or ""

    @property
    def connected(self) -> bool:
        return self._conn is not None

    def reconnect(self) -> None:
        """Re-establish connection + subscription under the retry policy."""
        self.reconnects += 1
        self._teardown()
        self._retry.call(
            self._subscribe, retry_on=(OSError, BusProtocolError)
        )

    def _teardown(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None
        self._sub = None

    def _lost(self, detail: str) -> ConnectionLostError:
        self._teardown()
        return ConnectionLostError(
            f"lost connection to bus server {self._host}:{self._port}: {detail}"
        )

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        if self._conn is None or self._sub is None:
            raise ConnectionLostError("not connected to bus server")
        try:
            reply = self._conn.request(dict(frame, sub=self._sub))
        except (OSError, BusProtocolError) as exc:
            raise self._lost(str(exc)) from None
        if not reply.get("ok"):
            if reply.get("gone"):
                raise self._lost(str(reply.get("error")))
            raise ValueError(f"bus server error: {reply.get('error')!r}")
        return reply

    # -- consuming ------------------------------------------------------------
    def get_message(
        self,
        timeout: Optional[float] = DEFAULT_POLL_TIMEOUT,
        auto_ack: bool = False,
    ) -> Optional[Message]:
        """Next message; the wait happens server-side in capped slices."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            reply = self._request({
                "op": "get",
                "timeout": remaining,
                "auto_ack": auto_ack,
            })
            if "msg" in reply:
                return _decode_message(reply["msg"])  # type: ignore[arg-type]
            if deadline is not None and time.monotonic() >= deadline:
                return None
            # empty + time left (or blocking): park again server-side

    def take(
        self, limit: int, idle: float, auto_ack: bool = False
    ) -> List[Message]:
        """Up to ``limit`` messages in one round trip.

        The server holds the request until ``limit`` messages are ready
        or none has arrived for ``idle`` seconds, the whole hold capped
        at :data:`SERVER_WAIT_CAP`; a short (possibly empty) list means
        the stream went idle.
        """
        reply = self._request({
            "op": "get", "max": limit, "timeout": idle, "auto_ack": auto_ack,
        })
        return [
            _decode_message(m)
            for m in cast(List[Dict[str, object]], reply["msgs"])
        ]

    def get(
        self, timeout: Optional[float] = DEFAULT_POLL_TIMEOUT
    ) -> Optional[NLEvent]:
        try:
            msg = self.get_message(timeout=timeout, auto_ack=True)
        except ConnectionLostError:
            self.reconnect()
            return None
        return None if msg is None else EventConsumer.as_event(msg)

    def ack(self, message: Message) -> None:
        self._settle({"op": "ack", "tag": message.delivery_tag})

    def ack_all(self, messages: Iterable[Message]) -> None:
        """Settle a committed batch with one ``tags`` frame."""
        tags = [m.delivery_tag for m in messages]
        if tags:
            self._settle({"op": "ack", "tags": tags})

    def nack(self, message: Message, requeue: bool = True) -> None:
        self._settle({"op": "nack", "tag": message.delivery_tag, "requeue": requeue})

    def _settle(self, frame: Dict[str, object]) -> None:
        if self._conn is None or self._sub is None:
            raise ConnectionLostError("not connected to bus server")
        try:
            # fire-and-forget, like in-process acks
            self._conn.send(dict(frame, sub=self._sub))
        except OSError as exc:
            raise self._lost(str(exc)) from None

    def depth(self) -> int:
        return int(self._request({"op": "depth"}).get("depth", 0))  # type: ignore[arg-type]

    def drain(self) -> List[NLEvent]:
        return list(self)

    def __iter__(self) -> Iterator[NLEvent]:
        while True:
            msgs = self.take(DRAIN_CHUNK, 0.0, auto_ack=True)
            for msg in msgs:
                yield EventConsumer.as_event(msg)
            if len(msgs) < DRAIN_CHUNK:
                return

    def cancel(self) -> None:
        if self._conn is None or self._sub is None:
            return
        try:
            self._request({"op": "cancel"})
        except (ConnectionLostError, ValueError):
            pass
        self._teardown()

    close = cancel


def connect_publisher(
    bus: Union[str, Broker],
    exchange: str = DEFAULT_EXCHANGE,
    publisher_id: Optional[str] = None,
) -> Union[EventPublisher, RemotePublisher]:
    """Publisher for either an in-process broker or a ``tcp://`` url."""
    if isinstance(bus, str):
        return RemotePublisher(bus, exchange=exchange, publisher_id=publisher_id)
    return EventPublisher(bus, exchange=exchange, publisher_id=publisher_id)

"""nl_load: the loading front-end (paper §IV-E).

Reads normalized BP events from a file or an AMQP queue and hands them to
the ``stampede_loader`` module, mirroring the paper's invocation::

    nl_load --amqp-host=... -A queue=stampede stampede_loader \
        connString=sqlite:///test.db

Usable three ways:

* :func:`load_file` / :func:`load_events` — Python API over files and
  iterables;
* :func:`load_from_bus` — attach to an in-process broker queue and drain
  it (optionally following a live run until a predicate says stop);
* :func:`main` — command-line entry point for file inputs.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.archive.store import StampedeArchive
from repro.loader.checkpoint import CheckpointManager
from repro.loader.stampede_loader import LoaderError, LoaderStats, StampedeLoader
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import (
    BPReader,
    read_events_with_offsets,
    read_lines,
    read_lines_with_offsets,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded where they run
    from repro.bus.broker import Broker
    from repro.bus.queues import Message
    from repro.lint.config import LintConfig
    from repro.lint.rules import Finding
    from repro.loader.dlq import DeadLetterQueue
    from repro.loader.pipeline import ParsePool
    from repro.loader.spill import SpillBuffer
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "load_events",
    "load_file",
    "load_file_linted",
    "load_file_sharded",
    "load_from_bus",
    "make_loader",
    "main",
]

#: smallest bus fetch the loader asks for.  A held chunk is processed
#: whole before the batch-full commit it completes, so that commit waits
#: for the chunk's processing time: fetching the batch's whole free room
#: at once raised freshness p50 on the ``live`` benchmark by 35 ms.  The
#: loader instead asks for half the free room, down to this floor, so a
#: default 500-op batch fills in four fetches (250, 125, 64, 61) and
#: only the last, small one delays its commit
FETCH_CHUNK_MIN = 64


def make_loader(
    conn_string: str = "sqlite:///:memory:",
    archive: Optional[StampedeArchive] = None,
    batch_size: int = 500,
    strict: bool = True,
    validate: bool = False,
    checkpoint_source: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    rollup: bool = True,
) -> StampedeLoader:
    """Construct a StampedeLoader over a new or existing archive.

    ``checkpoint_source`` names the input (a file path, a queue name) in
    the archive's checkpoint table and turns on crash-safe checkpointing:
    every flush atomically records the source position alongside the rows
    it made durable, so an interrupted load can :meth:`~StampedeLoader.resume`.

    ``metrics`` attaches a self-monitoring registry: the archive's
    transactions are timed, the loader's flush latency is observed into
    a histogram, and every :class:`LoaderStats` counter is exported
    through a scrape-time collector (see :mod:`repro.obs`).
    """
    if archive is None:
        archive = StampedeArchive.open(conn_string)
    if metrics is not None:
        archive.instrument(metrics)
    checkpoint = (
        CheckpointManager(archive, checkpoint_source)
        if checkpoint_source is not None
        else None
    )
    loader = StampedeLoader(
        archive,
        batch_size=batch_size,
        strict=strict,
        validate=validate,
        checkpoint=checkpoint,
        metrics=metrics,
        rollup=rollup,
    )
    if metrics is not None:
        from repro.obs.instrument import bind_loader

        bind_loader(metrics, loader)
    return loader


def load_events(
    events: Iterable[NLEvent],
    loader: Optional[StampedeLoader] = None,
    **loader_kwargs,
) -> StampedeLoader:
    """Load an event iterable; returns the loader (archive + stats inside)."""
    if loader is None:
        loader = make_loader(**loader_kwargs)
    loader.process_all(events)
    return loader


def load_file(
    path,
    loader: Optional[StampedeLoader] = None,
    on_error: str = "raise",
    resume: bool = False,
    workers: int = 0,
    parse_mode: str = "fast",
    worker_mode: str = "thread",
    chunk_size: int = 256,
    **loader_kwargs,
) -> StampedeLoader:
    """Load a BP log file.

    For a checkpointing loader the byte offset of each event is tracked
    so every flush checkpoints exactly how far into the file the archive
    is; ``resume=True`` seeks past everything a previous (possibly
    crashed) run already committed instead of re-loading it.

    ``workers > 0`` fans the parse/normalize stage out over a
    :class:`~repro.loader.pipeline.ParsePool` of that many threads
    (``worker_mode='process'`` for a process pool); events reach the
    loader in exact file order regardless, so the archive — and any
    checkpoint offsets — are identical to a ``workers=0`` run.
    ``parse_mode='strict'`` forces the reference char-by-char BP scanner
    instead of the fast-path tokenizers.
    """
    pool = _parse_pool(workers, worker_mode, parse_mode, chunk_size)
    if pool is not None:
        with pool:
            return _load_file_pipelined(
                path, loader, on_error, resume, pool, loader_kwargs
            )
    if loader is not None and loader.checkpoint is not None:
        start = loader.resume() if resume else 0

        def positioned() -> Iterable[NLEvent]:
            for event, offset in read_events_with_offsets(
                path, start_offset=start, on_error=on_error
            ):
                loader.position = offset
                yield event

        return load_events(positioned(), loader)
    if resume:
        raise ValueError("resume=True requires a loader with a checkpoint manager")
    return load_events(BPReader(path, on_error=on_error), loader, **loader_kwargs)


def _parse_pool(
    workers: int, worker_mode: str, parse_mode: str, chunk_size: int
) -> Optional[ParsePool]:
    """The ParsePool a load asks for (workers or the strict parser), else
    None; only then is :mod:`repro.loader.pipeline` imported."""
    if workers <= 0 and parse_mode == "fast":
        return None
    from repro.loader.pipeline import ParsePool

    return ParsePool(
        workers=workers, mode=worker_mode, parse_mode=parse_mode, chunk_size=chunk_size
    )


def _load_file_pipelined(
    path,
    loader: Optional[StampedeLoader],
    on_error,
    resume: bool,
    pool: ParsePool,
    loader_kwargs: dict,
) -> StampedeLoader:
    """File loading through a ParsePool (any worker count, either parse
    mode); mirrors the sequential paths of :func:`load_file` exactly."""
    if loader is not None and loader.checkpoint is not None:
        start = loader.resume() if resume else 0

        def positioned() -> Iterable[NLEvent]:
            lines = read_lines_with_offsets(path, start_offset=start)
            for event, offset in pool.events(lines, on_error=on_error):
                loader.position = offset
                yield event

        return load_events(positioned(), loader)
    if resume:
        raise ValueError("resume=True requires a loader with a checkpoint manager")
    events = (
        event for event, _lineno in pool.events(read_lines(path), on_error=on_error)
    )
    return load_events(events, loader, **loader_kwargs)


def load_file_sharded(
    path,
    sharded,
    on_error: str = "raise",
    resume: bool = False,
):
    """Load a BP file through a :class:`repro.archive.shard.ShardedLoader`.

    Mirrors :func:`load_file`'s checkpoint semantics per shard: each
    shard checkpoints the file offset of *its* last committed event, and
    ``resume=True`` re-reads from the minimum shard floor while writers
    skip what they already committed.
    """
    start = time.perf_counter()
    if sharded.checkpoint_source is not None:
        floor = sharded.resume() if resume else 0
        for event, offset in read_events_with_offsets(
            path, start_offset=floor, on_error=on_error
        ):
            sharded.position = offset
            sharded.process(event)
        sharded.flush()
        sharded.wall_seconds += time.perf_counter() - start
        return sharded
    if resume:
        raise ValueError(
            "resume=True requires a ShardedLoader with a checkpoint_source"
        )
    return sharded.process_all(BPReader(path, on_error=on_error))


def load_file_linted(
    source: Union[str, TextIO],
    loader: Optional[StampedeLoader] = None,
    quarantine: Optional[Union[str, TextIO]] = None,
    config: Optional[LintConfig] = None,
    **loader_kwargs,
) -> Tuple[StampedeLoader, List[Finding], int]:
    """Load a BP log in lint-strict mode, quarantining failing events.

    Every line runs through the :class:`StreamLinter` analyzers first.
    Lines that trigger an error-severity finding (malformed BP, schema
    violations, illegal lifecycle transitions, orphan references, duplicate
    delivery, ...) are written verbatim to ``quarantine`` — a path or file
    object — instead of being silently archived; everything else is loaded
    normally.  Returns ``(loader, findings, quarantined_count)``.
    """
    from repro.lint.rules import Severity
    from repro.lint.stream import StreamLinter

    if loader is None:
        loader = make_loader(**loader_kwargs)
    path = source if isinstance(source, str) else "<stdin>"
    linter = StreamLinter(config=config, path=path)
    findings: List[Finding] = []
    quarantined = 0

    close_in = close_q = False
    if isinstance(source, str):
        fh: TextIO = open(source, "r", encoding="utf-8")
        close_in = True
    else:
        fh = source
    qfh: Optional[TextIO] = None
    if isinstance(quarantine, str):
        qfh = open(quarantine, "w", encoding="utf-8")
        close_q = True
    elif quarantine is not None:
        qfh = quarantine
    try:
        for lineno, line in enumerate(fh, start=1):
            event, line_findings = linter.feed_line(line, lineno)
            findings.extend(line_findings)
            if event is None and not line_findings:
                continue  # blank line or comment
            if event is None or any(
                f.severity >= Severity.ERROR for f in line_findings
            ):
                quarantined += 1
                if qfh is not None:
                    qfh.write(line.rstrip("\n") + "\n")
                continue
            loader.process(event)
        loader.flush()
        findings.extend(linter.finish())
    finally:
        if close_in:
            fh.close()
        if qfh is not None:
            qfh.flush()
            if close_q:
                qfh.close()
    return loader, findings, quarantined


def load_from_bus(
    broker: Union[Broker, str],
    pattern: str = "stampede.#",
    queue_name: Optional[str] = None,
    loader: Optional[StampedeLoader] = None,
    until: Optional[Callable[[StampedeLoader], bool]] = None,
    durable: bool = False,
    poll_timeout: float = 0.05,
    max_length: Optional[int] = None,
    overflow: str = "drop-oldest",
    resume: bool = False,
    dead_letter: Union[DeadLetterQueue, bool, None] = None,
    spill: Union[SpillBuffer, str, None] = None,
    resequence: bool = True,
    workers: int = 0,
    parse_mode: str = "fast",
    worker_mode: str = "thread",
    chunk_size: int = 256,
    metrics: Optional[MetricsRegistry] = None,
    group: Optional[str] = None,
    member_id: Optional[str] = None,
    partitions: int = 8,
    **loader_kwargs,
) -> StampedeLoader:
    """Consume events from a broker queue into the archive.

    Drains whatever is queued; if ``until`` is given, keeps consuming until
    ``until(loader)`` returns True (e.g. "the workflow-terminated state has
    been recorded"), enabling real-time loading concurrent with a run.

    The consumption loop is backpressure-aware, crash-safe, and — under
    chaos — self-healing:

    * each fetch asks for half the room left in the loader's batch (at
      least :data:`FETCH_CHUNK_MIN`) and is *held* (server-side over TCP)
      until that many messages are ready or none has arrived for
      ``poll_timeout`` seconds — one wake-up and one round trip per
      chunk, and an idle loader costs no CPU.  The batch
      buffer flushes on batch-full (inside :meth:`StampedeLoader.process`)
      or when a fetch comes back short (the idle gap) — never once per
      empty poll;
    * messages are acked only after the batch containing them commits
      (at-least-once delivery; a crashed loader's in-flight messages are
      redelivered), with one settle per commit;
    * deliveries run through a :class:`~repro.bus.reliable.Resequencer`
      (``resequence=True``), which restores publish order and discards
      duplicate deliveries, upgrading the at-least-once bus to
      exactly-once archive writes;
    * a lost broker connection is survived: the in-flight batch is
      committed, stale state dropped, and the queue re-subscribed — the
      broker's redeliveries then dedupe against the committed sequences;
    * ``dead_letter`` (a :class:`~repro.loader.dlq.DeadLetterQueue`, or
      True to build one over this loader's archive) quarantines poison
      events — unparseable or schema-violating payloads — instead of
      letting one bad message kill the whole batch;
    * ``spill`` (a :class:`~repro.loader.spill.SpillBuffer` or a path)
      enables graceful degradation: when the archive stays down past the
      retry ladder, events are parked on disk and acked, then drained
      back through the loader once the archive recovers;
    * ``max_length`` + ``overflow='block'`` bound the queue so a slow
      loader blocks publishers instead of accumulating events;
    * with a checkpointing loader and ``resume=True``, consumption
      restarts after the last committed delivery tag, skipping redelivered
      messages that are already in the archive.
    * ``workers > 0`` parses each fetched chunk's string-bodied
      payloads through a parallel
      :class:`~repro.loader.pipeline.ParsePool`; already-materialized
      event bodies pass through untouched.  Messages are still
      processed, acked, and dead-lettered one at a time in delivery
      order, so every guarantee above holds for any worker count.
    * ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) turns
      on self-monitoring: broker queue/exchange collectors, the loader's
      stats collector + flush histogram, and a
      :class:`~repro.obs.spans.PipelineClock` that converts the
      publisher's ``x-pub-ts`` stamps into end-to-end deliver/commit
      latency histograms.
    * ``broker`` may be a ``tcp://host:port`` url instead of an
      in-process :class:`Broker` — consumption then runs over the
      :mod:`repro.bus.net` transport against a remote
      :class:`~repro.bus.net.BrokerServer`: same loop, same guarantees
      (the remote consumer raises the same :class:`ConnectionLostError`
      and reconnects the same way).
    * ``group`` joins a consumer group instead of binding a private
      queue: N concurrent loaders sharing a group name split the stream
      by root workflow id without double-committing — see
      :mod:`repro.bus.groups`.  ``member_id`` pins this loader's member
      identity (a reconnect under the same id resumes the same
      partition streams, which is what keeps it exactly-once);
      ``partitions`` sizes a group created on first join.
    """
    from repro.bus.broker import Broker, ConnectionLostError
    from repro.bus.client import EventConsumer
    from repro.bus.groups import GroupConsumer
    from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ, Resequencer
    from repro.loader.dlq import DeadLetterQueue
    from repro.loader.spill import SpillBuffer
    from repro.obs.instrument import bind_broker, bind_loader
    from repro.obs.spans import PipelineClock

    remote = isinstance(broker, str)
    if resume and (remote or group is not None):
        # delivery tags are member-local for groups and
        # subscription-local over TCP, so a checkpointed tag from an
        # earlier run cannot be compared against them; group commit
        # floors / redelivery dedupe already cover crash-restart
        raise ValueError(
            "resume=True is only supported for in-process private-queue "
            "consumers (group/tcp consumers get exactly-once from "
            "commit floors and the resequencer instead)"
        )
    if loader is None:
        loader = make_loader(metrics=metrics, **loader_kwargs)
    elif metrics is not None:
        bind_loader(metrics, loader)
    clock = PipelineClock(metrics) if metrics is not None else None
    if metrics is not None and isinstance(broker, Broker):
        bind_broker(metrics, broker)
    pool = _parse_pool(workers, worker_mode, parse_mode, chunk_size)
    consumer: Union[EventConsumer, GroupConsumer, "RemoteConsumer"]
    if remote:
        from repro.bus.net import RemoteConsumer

        consumer = RemoteConsumer(
            broker,  # type: ignore[arg-type]
            pattern=pattern,
            queue_name=queue_name,
            durable=durable,
            group=group,
            member_id=member_id,
            partitions=partitions,
        )
    elif group is not None:
        consumer = GroupConsumer(
            broker,  # type: ignore[arg-type]
            group,
            pattern=pattern,
            partitions=partitions,
            member_id=member_id,
        )
    else:
        consumer = EventConsumer(
            broker,  # type: ignore[arg-type]
            pattern=pattern,
            queue_name=queue_name,
            durable=durable,
            max_length=max_length,
            overflow=overflow,
        )
    if dead_letter is True:
        dead_letter = DeadLetterQueue(
            loader.archive,
            source=consumer.queue_name,
            # republishing quarantined events onto the bus needs a local
            # broker handle; remote loaders keep the archive-table side
            broker=broker if isinstance(broker, Broker) else None,
        )
    elif dead_letter is False:
        dead_letter = None
    if spill is not None and not isinstance(spill, SpillBuffer):
        spill = SpillBuffer(spill)
    reseq = Resequencer() if resequence else None
    transient = loader.archive.db.TRANSIENT_ERRORS
    skip_to = 0
    if resume and loader.checkpoint is not None:
        skip_to = loader.resume()
    in_flight: List[Message] = []
    archive_down = False
    # Persist resequencer dedupe floors with every checkpoint, and seed
    # them back on resume: a fresh resequencer starting mid-stream would
    # otherwise hold every delivery behind sequences committed before the
    # crash, and a chaos redelivery racing a force-release could be
    # misread as a duplicate — losing a row.  The floor folds in the
    # in-flight messages at export time, which flush makes durable in the
    # very transaction that writes the checkpoint.
    reseq_floor: Dict[str, int] = dict(loader.resumed_reseq)
    previous_reseq_state = loader.reseq_state
    if reseq is not None and loader.checkpoint is not None:
        def export_reseq_floor() -> Dict[str, int]:
            for m in in_flight:
                hdrs = m.headers or {}
                pub = hdrs.get(HEADER_PUBLISHER)
                seq = hdrs.get(HEADER_SEQ)
                if pub is not None and seq is not None:
                    nxt = int(seq) + 1
                    if nxt > reseq_floor.get(str(pub), 1):
                        reseq_floor[str(pub)] = nxt
            return dict(reseq_floor)

        loader.reseq_state = export_reseq_floor
        for pub, nxt in loader.resumed_reseq.items():
            if nxt > 1:
                reseq.seed(pub, nxt)

    def ack_quiet(msg: Message) -> None:
        # after a disconnect the tag is stale (the broker requeued the
        # message); the redelivery will settle through the normal path
        try:
            consumer.ack(msg)
        except (ConnectionLostError, ValueError):
            pass

    def ack_committed(_loader: StampedeLoader) -> None:
        # called by the loader after a successful flush commit: every
        # message whose events are now durable can be settled.
        if clock is not None:
            clock.on_committed(in_flight)
        try:
            consumer.ack_all(in_flight)
        except ConnectionLostError:
            pass  # stale after a disconnect, as in ack_quiet
        in_flight.clear()

    def enter_degraded() -> None:
        # the archive outlasted the whole retry ladder
        nonlocal archive_down
        loader.stats.archive_outages += 1
        if spill is None:
            raise  # noqa: PLE0704 - re-raise the active transient error
        archive_down = True

    def bp_line(msg: Message) -> str:
        body = msg.body
        return body if isinstance(body, str) else EventConsumer.as_event(msg).to_bp()

    def drain_spill() -> None:
        # journal first — its events arrived before anything spilled —
        # then replay the spill file in arrival order
        nonlocal archive_down
        loader.flush()
        if spill is not None and spill:
            for line in spill.lines():
                loader.process(NLEvent.from_bp(line))
            loader.flush()
            spill.clear()
            loader.stats.spill_drains += 1
        archive_down = False

    def try_recover() -> None:
        try:
            drain_spill()
        except transient:
            pass  # still down; stay degraded

    def consume(msg: Message, parsed: Optional[object] = None) -> None:
        if msg.delivery_tag <= skip_to:
            if clock is not None:
                clock.on_dropped(msg)
            ack_quiet(msg)  # already archived before the crash
            return
        try:
            if archive_down and spill is not None:
                spill.append(bp_line(msg))
                loader.stats.spilled_events += 1
                if clock is not None:
                    clock.on_dropped(msg)  # settles outside any batch commit
                ack_quiet(msg)  # on disk is durable enough to settle
                return
            in_flight.append(msg)
            try:
                loader.position = msg.delivery_tag
                if isinstance(parsed, Exception):
                    # the parse pool already found this payload poisonous;
                    # re-raise into the normal quarantine path below
                    raise parsed
                loader.process(
                    parsed if parsed is not None else EventConsumer.as_event(msg)
                )
            except transient:
                # batch-full flush failed beyond retries; the event's ops
                # are safely journalled (flush only clears on success), so
                # keep the message in flight and degrade if possible
                enter_degraded()
        except (LoaderError, TypeError, ValueError, KeyError) as exc:
            # poison event: quarantine it rather than kill the batch
            if msg in in_flight:
                in_flight.remove(msg)
            if dead_letter is None:
                raise
            dead_letter.quarantine(
                msg.body, f"{type(exc).__name__}: {exc}", msg.routing_key
            )
            loader.stats.dlq_events += 1
            if clock is not None:
                clock.on_dropped(msg)
            ack_quiet(msg)

    def consume_all(ready: List[Message]) -> None:
        # pooled path: pre-parse the string-bodied payloads in parallel,
        # then settle each message through the ordinary one-at-a-time
        # consume path (ack/DLQ/spill decisions stay per-message).
        if pool is None:
            for m in ready:
                consume(m)
            return
        outcomes: List[Optional[object]] = [None] * len(ready)
        to_parse = [
            (m.body, i) for i, m in enumerate(ready) if isinstance(m.body, str)
        ]
        for outcome, _line, i in pool.results(to_parse):
            outcomes[i] = outcome
        for m, outcome in zip(ready, outcomes):
            consume(m, outcome)

    def lost_connection() -> None:
        # the broker requeued everything unacked, including our
        # uncommitted batch: commit it now (the acks tolerate the
        # dead connection), drop state that points at requeued
        # messages, and re-subscribe — committed redeliveries then
        # dedupe against the resequencer's release positions.
        loader.flush()
        in_flight.clear()
        if reseq is not None:
            reseq.reset_held()
        consumer.reconnect()
        loader.stats.reconnects += 1

    previous_on_flush = loader.on_flush
    loader.on_flush = ack_committed
    # depth() is free in-process but a full round trip over TCP, so a
    # remote loader samples it sparsely instead of once per chunk
    depth_stride = 64 if remote else 1
    chunks = 0
    try:
        while True:
            # never ask past the batch's free room, so a full chunk lands
            # where the loader would have committed anyway
            room = max(1, loader.batch_size - loader.pending_ops)
            limit = min(room, max(FETCH_CHUNK_MIN, room // 2))
            try:
                chunk = consumer.take(limit, poll_timeout)
                chunks += bool(chunk)
                depth = (
                    consumer.depth()
                    if chunk and chunks % depth_stride == 0 else None
                )
            except ConnectionLostError:
                # whatever the fetch held is unacked, so the disconnect
                # already requeued it
                lost_connection()
                continue
            ready: List[Message] = []
            for i, m in enumerate(chunk):
                if depth is not None:
                    # the backlog behind this message: the rest of the
                    # chunk plus what is still queued
                    loader.stats.record_queue_depth(depth + len(chunk) - 1 - i)
                if clock is not None:
                    clock.on_delivered(m)
                if m.redelivered:
                    loader.stats.redelivered_events += 1
                released, duplicates = (
                    reseq.offer(m) if reseq is not None else ([m], [])
                )
                for dup in duplicates:
                    loader.stats.duplicates_skipped += 1
                    if clock is not None:
                        clock.on_dropped(dup)
                    ack_quiet(dup)
                ready.extend(released)
            consume_all(ready)
            if len(chunk) == limit:
                continue
            # a short fetch is the idle gap: push out the partial batch,
            # then consult the stop predicate (or stop once the backlog
            # is drained).
            if archive_down:
                try_recover()
            else:
                try:
                    loader.flush()
                except transient:
                    enter_degraded()
            if until is None or until(loader):
                break
        # end of stream: release anything still held for a gap that will
        # never fill, then make the tail durable
        if reseq is not None:
            consume_all(reseq.release_pending())
        if archive_down:
            try_recover()
        loader.flush()
    finally:
        loader.on_flush = previous_on_flush
        loader.reseq_state = previous_reseq_state
        if pool is not None:
            pool.close()
        consumer.cancel()  # requeues anything not acked (crash semantics)
    return loader


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main(argv: Optional[list] = None) -> int:
    """Command-line nl_load for file inputs.

    Example::

        nl-load workflow.bp stampede_loader connString=sqlite:///run.db
    """
    # CPU spent before the load starts: interpreter start-up plus imports
    # when run as a command; reported by -v next to the wall time
    startup_cpu = time.process_time()
    parser = argparse.ArgumentParser(
        prog="nl-load", description="Load NetLogger BP logs into a Stampede archive."
    )
    parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="BP log file to load ('-' for stdin); omit with --bus",
    )
    parser.add_argument(
        "module",
        nargs="?",
        default="stampede_loader",
        help="loader module (only 'stampede_loader' is supported)",
    )
    parser.add_argument(
        "params",
        nargs="*",
        help="module parameters, e.g. connString=sqlite:///out.db",
    )
    parser.add_argument("-b", "--batch-size", type=_positive_int, default=500)
    parser.add_argument(
        "-w",
        "--workers",
        type=int,
        default=0,
        help="parse/normalize worker count (0 = inline, the default)",
    )
    parser.add_argument(
        "--parse-mode",
        choices=("fast", "strict"),
        default="fast",
        help="BP parser: 'fast' C-speed tokenizers with automatic "
        "fallback (default), or 'strict' reference scanner",
    )
    parser.add_argument(
        "--worker-mode",
        choices=("thread", "process"),
        default="thread",
        help="worker pool flavour for --workers > 0 (default: thread)",
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=256,
        help="lines per parse-pool work unit (default: 256)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="nl-load.pstats",
        metavar="PATH",
        help="profile the load, dump pstats to PATH "
        "(default nl-load.pstats) and print the top 20 entries",
    )
    parser.add_argument(
        "--tolerant",
        action="store_true",
        help="synthesize placeholders for out-of-order events instead of failing",
    )
    parser.add_argument(
        "--validate", action="store_true", help="validate events against the schema"
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the stampede-lint stream analyzers and quarantine events "
        "with error-severity findings instead of archiving them",
    )
    parser.add_argument(
        "--quarantine",
        metavar="PATH",
        help="with --lint: write quarantined BP lines to this file",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="record crash-safe progress checkpoints in the archive "
        "(keyed by the input path)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a checkpointed load after the last committed offset "
        "(implies --checkpoint)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault-injection plan (JSON file, see repro.faults.FaultPlan): "
        "archive faults apply to this load; used to rehearse outage recovery",
    )
    parser.add_argument(
        "--shard-dir",
        metavar="DIR",
        help="load into a sharded archive in DIR (shard-NNN.db files + "
        "shards.json manifest) instead of a single connString database; "
        "events route by root workflow id — crc32, the bus partitioner",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        metavar="N",
        help="with --shard-dir: shard count when creating a new set "
        "(opening an existing set with a different N fails loudly)",
    )
    parser.add_argument(
        "--tier-finished",
        action="store_true",
        help="with --shard-dir: after the load, move finished root "
        "workflows from the hot shards into the append-only long-term "
        "store under DIR/longterm/",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "during (and after, see --metrics-linger) the load; 0 picks an "
        "ephemeral port — the resolved URL is printed to stderr",
    )
    parser.add_argument(
        "--metrics-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --metrics-port: keep serving for this long after the "
        "load finishes so scrapers can read the final state (default 0)",
    )
    parser.add_argument(
        "--self-log",
        metavar="PATH",
        help="after the load, write the metrics registry as "
        "stampede.obs.* BP events to PATH (loadable by nl-load itself)",
    )
    parser.add_argument(
        "--bus",
        metavar="URL",
        help="consume from a running stampede-bus server (tcp://host:port) "
        "instead of a file; see also --group/--idle-exit",
    )
    parser.add_argument(
        "--pattern",
        default="stampede.#",
        help="with --bus: topic pattern to subscribe (default: stampede.#)",
    )
    parser.add_argument(
        "--queue",
        metavar="NAME",
        help="with --bus: bind a named durable queue instead of an "
        "anonymous one (ignored with --group)",
    )
    parser.add_argument(
        "--group",
        metavar="NAME",
        help="with --bus: join this consumer group — concurrent nl-load "
        "processes sharing the name split the stream by root workflow "
        "id, each committing its partitions exactly once",
    )
    parser.add_argument(
        "--member-id",
        metavar="ID",
        help="with --group: fix this loader's member identity so a "
        "restart resumes the same partitions",
    )
    parser.add_argument(
        "--partitions",
        type=_positive_int,
        default=8,
        help="with --group: partition count if this join creates the "
        "group (default: 8)",
    )
    parser.add_argument(
        "--idle-exit",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="with --bus: exit after this long with no new events "
        "(default 10; 0 = drain what is queued and exit immediately)",
    )
    parser.add_argument(
        "--no-rollup",
        action="store_true",
        help="skip maintaining the materialized query rollups "
        "(repro.core.rollup); dashboards fall back to full scans until "
        "'stampede-rollup rebuild' backfills them",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    # Positional normalization: with --bus the file argument is omitted,
    # so what argparse parsed into the `input` slot may really be the
    # module name.  Sort the positionals by shape instead — module
    # parameters always carry '=' — then validate what remains.
    positionals = [p for p in (args.input, args.module, *args.params) if p is not None]
    param_args = [p for p in positionals if "=" in p]
    names = [p for p in positionals if "=" not in p]
    if args.bus is not None:
        args.input = None
        if args.checkpoint or args.resume:
            parser.error(
                "--checkpoint/--resume apply to file loads; bus consumers "
                "get crash-safety from redelivery + dedupe instead"
            )
        if args.lint:
            parser.error("--lint is not supported with --bus")
    else:
        if args.group or args.member_id:
            parser.error("--group/--member-id require --bus")
        if not names:
            parser.error("need an input file or --bus URL")
        args.input = names.pop(0)
    module = names.pop(0) if names else "stampede_loader"
    if names:
        parser.error(f"unexpected arguments: {names!r}")
    if module != "stampede_loader":
        parser.error(f"unknown loader module {module!r}")
    if args.quarantine and not args.lint:
        parser.error("--quarantine requires --lint")
    if args.resume:
        args.checkpoint = True
    if args.checkpoint and args.input == "-":
        parser.error("--checkpoint/--resume need a seekable file, not stdin")
    if args.checkpoint and args.lint:
        parser.error("--checkpoint/--resume cannot be combined with --lint")
    if args.lint and args.workers:
        parser.error("--workers cannot be combined with --lint (lint is streaming)")
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    params = dict(p.split("=", 1) for p in param_args)
    conn_string = params.get("connString", "sqlite:///:memory:")
    if args.shards is not None and args.shard_dir is None:
        parser.error("--shards requires --shard-dir")
    if args.tier_finished and args.shard_dir is None:
        parser.error("--tier-finished requires --shard-dir")
    if args.shard_dir is not None:
        if args.bus:
            parser.error(
                "--shard-dir applies to file loads; bus consumers shard "
                "via --group partitions (same crc32 router) instead"
            )
        if args.lint:
            parser.error("--lint is not supported with --shard-dir")
        if args.workers:
            parser.error("--workers is not supported with --shard-dir")
        if args.faults:
            parser.error("--faults is not supported with --shard-dir")
        if "connString" in params:
            parser.error(
                "connString conflicts with --shard-dir (shards own their "
                "database files)"
            )

    # Self-monitoring: a fresh registry per invocation (the process
    # default stays untouched), served over HTTP and/or dumped as BP.
    registry = None
    server = None
    if args.metrics_port is not None or args.self_log:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()

    if args.shard_dir is not None:
        # import lazily: repro.archive.shard imports from this package
        from repro.archive.shard import ShardedLoader, ShardSet

        shard_set = (
            ShardSet.create(args.shard_dir, args.shards)
            if args.shards is not None
            else ShardSet.open(args.shard_dir)
        )
        sharded = ShardedLoader(
            shard_set,
            batch_size=args.batch_size,
            strict=not args.tolerant,
            validate=args.validate,
            checkpoint_source=args.input if args.checkpoint else None,
            rollup=not args.no_rollup,
        )
        if registry is not None:
            from repro.obs.instrument import bind_shards

            bind_shards(registry, sharded)
            if args.metrics_port is not None:
                from repro.obs.export import MetricsServer

                server = MetricsServer(registry, port=args.metrics_port).start()
                print(f"metrics: {server.url}", file=sys.stderr, flush=True)
        shard_source = sys.stdin if args.input == "-" else args.input

        def run_sharded():
            return load_file_sharded(shard_source, sharded, resume=args.resume)

        if args.profile:
            _profiled(run_sharded, args.profile)
        else:
            run_sharded()
        sharded.close()
        if args.tier_finished:
            from repro.archive.tier import tier_finished

            report = tier_finished(shard_set)
            print(
                f"tiered {report.tiered_roots} finished root workflow(s) "
                f"({report.rows_moved} rows) into the long-term store; "
                f"{report.skipped_roots} still running",
                file=sys.stderr,
            )
        if args.verbose:
            _print_shard_stats(sharded.stats(), startup_cpu)
        _finish_obs(registry, server, args)
        shard_set.close()
        return 0

    # In lint mode the analyzers are the strictness layer: events that would
    # crash a strict loader are quarantined before it sees them, and the
    # loader runs tolerantly so a quarantined event's survivors (e.g. a
    # main.end whose submit.start was quarantined) cannot take it down.
    loader = make_loader(
        conn_string,
        batch_size=args.batch_size,
        strict=not (args.tolerant or args.lint),
        validate=args.validate,
        checkpoint_source=args.input if args.checkpoint else None,
        metrics=registry,
        rollup=not args.no_rollup,
    )
    plan = None
    if args.faults:
        from repro.faults import FaultPlan

        plan = FaultPlan.from_file(args.faults)
        loader.archive.db = plan.wrap_database(loader.archive.db)
        if registry is not None:
            from repro.obs.instrument import bind_faults

            bind_faults(registry, plan.stats)
    if registry is not None and args.metrics_port is not None:
        from repro.obs.export import MetricsServer

        server = MetricsServer(registry, port=args.metrics_port).start()
        print(f"metrics: {server.url}", file=sys.stderr, flush=True)
    source = sys.stdin if args.input == "-" else args.input

    if args.bus:
        until: Optional[Callable[[StampedeLoader], bool]] = None
        if args.idle_exit > 0:
            last = {"count": -1.0, "changed": time.monotonic()}

            def idle_until(ldr: StampedeLoader) -> bool:
                # consulted only on idle ticks: stop once nothing new has
                # arrived for idle_exit seconds (a live follower's stop
                # condition; the publisher side decides when a run ends)
                n = float(ldr.stats.events_processed)
                now = time.monotonic()
                if n != last["count"]:
                    last["count"] = n
                    last["changed"] = now
                    return False
                return now - last["changed"] >= args.idle_exit

            until = idle_until

        def run_bus():
            return load_from_bus(
                args.bus,
                pattern=args.pattern,
                queue_name=args.queue,
                durable=bool(args.queue),
                group=args.group,
                member_id=args.member_id,
                partitions=args.partitions,
                loader=loader,
                until=until,
                dead_letter=True,
                workers=args.workers,
                parse_mode=args.parse_mode,
                worker_mode=args.worker_mode,
                chunk_size=args.chunk_size,
                metrics=registry,
            )

        stats = (
            _profiled(run_bus, args.profile) if args.profile else run_bus()
        ).stats
        if args.verbose:
            _print_stats(stats, startup_cpu)
        _finish_obs(registry, server, args)
        return 0

    if args.lint:
        from repro.lint.config import LintConfig
        from repro.lint.report import render_text

        # BP permits engine-specific extras, so unknown attrs stay quiet;
        # hard schema errors still quarantine.
        config = LintConfig(allow_unknown_attrs=True)

        def run_linted():
            return load_file_linted(
                source, loader, quarantine=args.quarantine, config=config
            )

        loader, findings, quarantined = (
            _profiled(run_linted, args.profile) if args.profile else run_linted()
        )
        stats = loader.stats
        if findings:
            print(render_text(findings), file=sys.stderr)
        if quarantined:
            where = f" -> {args.quarantine}" if args.quarantine else ""
            print(
                f"quarantined {quarantined} event(s){where}", file=sys.stderr
            )
        if args.verbose:
            _print_stats(stats, startup_cpu)
        _finish_obs(registry, server, args)
        return 1 if quarantined else 0

    def run_load():
        return load_file(
            source,
            loader,
            resume=args.resume,
            workers=args.workers,
            parse_mode=args.parse_mode,
            worker_mode=args.worker_mode,
            chunk_size=args.chunk_size,
        )

    stats = (
        _profiled(run_load, args.profile) if args.profile else run_load()
    ).stats

    if args.verbose:
        _print_stats(stats, startup_cpu)
        if plan is not None:
            print(f"faults injected  : {plan.stats.total_injected}", file=sys.stderr)
    _finish_obs(registry, server, args)
    return 0


def _finish_obs(registry, server, args) -> None:
    """Publish the final self-monitoring state, then linger and shut down.

    The ``stampede_obs_load_complete`` gauge flips to 1 only here, so a
    scraper polling ``/metrics`` can tell "mid-load" from "final"
    without racing the load itself.
    """
    if registry is None:
        return
    registry.gauge(
        "stampede_obs_load_complete",
        "1 once the load finished and the final metric state is visible.",
    ).set(1)
    if args.self_log:
        from repro.obs.export import BPSelfLogger

        count = BPSelfLogger(registry).write(args.self_log)
        print(f"self-log: {count} events -> {args.self_log}", file=sys.stderr)
    if server is not None:
        if args.metrics_linger > 0:
            server.wait(args.metrics_linger)
        server.stop()


def _profiled(fn, path: str):
    """Run ``fn`` under cProfile; dump pstats to ``path`` and print the
    top 20 cumulative entries to stderr."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"profile written to {path}", file=sys.stderr)
    return result


def _print_shard_stats(snap: Dict[str, object], startup_cpu: float) -> None:
    print(f"shards           : {snap['shards']}")
    print(f"events processed : {snap['events_processed']}")
    print(f"rows inserted    : {snap['rows_inserted']}")
    print(f"flushes          : {snap['flushes']}")
    print(f"retries          : {snap['retries']}")
    for shard in snap["per_shard"]:  # type: ignore[attr-defined]
        print(
            f"  shard {shard['shard']} : routed={shard['routed']} "
            f"rows={shard['rows_inserted']} flushes={shard['flushes']}"
        )
    wall = float(snap["wall_seconds"])  # type: ignore[arg-type]
    events = int(snap["events_processed"])  # type: ignore[arg-type]
    print(f"wall seconds     : {wall:.3f}")
    print(f"startup cpu s    : {startup_cpu:.3f}")
    print(f"events/second    : {(events / wall if wall else 0.0):,.0f}")


def _print_stats(stats: LoaderStats, startup_cpu: float) -> None:
    # One atomic snapshot: with a parallel pipeline still settling, field
    # reads spread over several statements could mix two batches' state.
    snap = stats.snapshot()
    pct = snap["latency_percentiles"]
    print(f"events processed : {snap['events_processed']}")
    print(f"rows inserted    : {snap['rows_inserted']}")
    print(f"rows updated     : {snap['rows_updated']}")
    print(f"flushes          : {snap['flushes']}")
    print(
        "flush latency    : "
        f"p50={pct['p50'] * 1000:.2f}ms "
        f"p95={pct['p95'] * 1000:.2f}ms "
        f"p99={pct['p99'] * 1000:.2f}ms"
    )
    print(f"retries          : {snap['retries']}")
    print(
        "checkpoints      : "
        f"{snap['checkpoints_written']} (resumes: {snap['resumes']})"
    )
    if snap["queue_depth_samples"]:
        print(
            "queue depth      : "
            f"max={snap['queue_depth_max']} avg={snap['queue_depth_avg']:.1f}"
        )
    if snap["redelivered_events"] or snap["duplicates_skipped"] or snap["reconnects"]:
        print(
            "redelivery       : "
            f"redelivered={snap['redelivered_events']} "
            f"duplicates_skipped={snap['duplicates_skipped']} "
            f"reconnects={snap['reconnects']}"
        )
    if snap["dlq_events"]:
        print(f"dead-lettered    : {snap['dlq_events']}")
    if snap["archive_outages"]:
        print(
            "archive outages  : "
            f"{snap['archive_outages']} "
            f"(spilled={snap['spilled_events']} drains={snap['spill_drains']})"
        )
    print(f"wall seconds     : {snap['wall_seconds']:.3f}")
    print(f"startup cpu s    : {startup_cpu:.3f}")
    print(f"events/second    : {snap['events_per_second']:,.0f}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""In-process producer / broker / consumer pipeline with integrity checks.

Producers stamp every event with a fresh identifier and publish it to a
partitioned, append-only topic; the partition is picked by hashing the
identifier string (CRC-32, fixed and replayable) modulo the partition count.
Consumers drain the partitions through one offset per partition, so each
event is delivered at most once, and store the events in a sink that counts
duplicate identifiers. After the run the per-partition logs can be checked
for per-producer ordering violations.

Two execution modes share all of the above: a threaded mode where producers
and consumers run concurrently against real time, and a deterministic mode
that steps everything round-robin on a virtual millisecond clock so a seed
reproduces the full report bit for bit.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from . import _LAZY, codec
from .core import (
    _MAX_SLEEP_S,
    EventCountMismatch,
    FixedClock,
    IdScheme,
    MonotonicState,
    RandomOverflow,
    SeededEntropy,
    SystemClock,
    UnsupportedScheme,
    bandwidth_mbps,
)

__all__ = list(_LAZY["sim"])

# Epoch for the deterministic mode's virtual clock (fixed, arbitrary).
_VIRTUAL_EPOCH_MS = 1_700_000_000_000

_CONSUME_BATCH = 256


class TopicClosed(RuntimeError):
    """Publish attempted after the topic stopped accepting events."""


class UnknownPartition(ValueError):
    pass


class Event(NamedTuple):
    """One simulated message: serialized identifier plus provenance."""

    id: str
    producer: int
    seq: int


def partition_for(id_text: str, partitions: int) -> int:
    """CRC-32 of the identifier string modulo the partition count."""
    return zlib.crc32(id_text.encode("ascii")) % partitions


class Topic:
    """Append-only partitioned log with one consumer offset per partition.

    On a shared topic, the default, one lock guards the appends, the offsets
    and the closed flag, so once ``close()`` returns no publish can append
    and every log is final. ``shared=False`` promises that one thread makes
    every call; program order then gives the same guarantee, and ``publish``
    and ``consume`` take no lock.
    """

    def __init__(self, name: str, partitions: int, *, shared: bool = True):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.name = name
        self.partitions = partitions
        self._logs: list[list[Event]] = [[] for _ in range(partitions)]
        self._offsets = [0] * partitions
        # Every section locked on it is a with block that calls nothing that
        # can switch threads. CPython 3.11 may switch threads when a call such
        # as acquire() or min() returns, and a thread switched out holding
        # this lock stalls every producer and consumer behind it: with an
        # explicit acquire() in publish, threaded 8P/4C runs convoyed at two
        # to four times the time per event.
        self._lock = threading.Lock()
        self._closed = False
        self._shared = shared

    def publish(self, event: Event) -> tuple[int, int]:
        """Append atomically; returns (partition, offset)."""
        p = partition_for(event.id, self.partitions)
        if self._shared:
            with self._lock:
                if self._closed:
                    raise TopicClosed(f"topic {self.name!r} is closed")
                log = self._logs[p]
                log.append(event)
                return p, len(log) - 1
        if self._closed:
            raise TopicClosed(f"topic {self.name!r} is closed")
        log = self._logs[p]
        log.append(event)
        return p, len(log) - 1

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.partitions:
            raise UnknownPartition(f"partition {partition} not in [0, {self.partitions})")

    def consume(self, partition: int) -> list[Event]:
        """Next batch of at most 256 events, advancing the offset; never re-delivers."""
        if not 0 <= partition < self.partitions:
            self._check_partition(partition)
        log, offsets = self._logs[partition], self._offsets
        # An empty partition takes no lock. Offsets and logs only grow and the
        # offset is read first, so a stale read can only defer a batch to the
        # next drain, never skip or repeat one.
        if offsets[partition] == len(log):
            return []
        if self._shared:
            with self._lock:
                start = offsets[partition]
                end = start + _CONSUME_BATCH
                if end > len(log):
                    end = len(log)
                offsets[partition] = end
            return log[start:end]
        start = offsets[partition]
        end = start + _CONSUME_BATCH
        if end > len(log):
            end = len(log)
        offsets[partition] = end
        return log[start:end]

    def close(self) -> None:
        """Stop accepting events: once this returns, no publish appends."""
        with self._lock:
            self._closed = True

    def end_offset(self, partition: int) -> int:
        self._check_partition(partition)
        return len(self._logs[partition])

    def committed(self, partition: int) -> int:
        self._check_partition(partition)
        with self._lock:
            return self._offsets[partition]

    def partition_log(self, partition: int) -> tuple[Event, ...]:
        """Immutable view of one partition, for post-run verification."""
        self._check_partition(partition)
        return tuple(self._logs[partition])


class Sink:
    """Uniqueness-checking event store standing in for the database.

    Counts every insertion whose identifier was already present. Optionally
    writes each identifier to a file, one per line and one write per batch
    (a run's drain stores all it took as one batch); the file is
    overwritten, so it holds one run's identifiers.
    """

    def __init__(self, persist_path=None):
        self._lock = threading.Lock()
        self.stored: dict[str, tuple[int, int]] = {}
        self.duplicate_count = 0
        self.insertions = 0
        self._file = open(persist_path, "w", encoding="ascii") if persist_path else None

    def store(self, events) -> None:
        """Store one batch, a sized sequence of events.

        A batch that raises, say on a malformed event, leaves the counts, the
        stored ids and the persist file as they were.
        """
        with self._lock:
            stored = self.stored
            before = len(stored)
            try:
                duplicates = 0
                for id_, producer, seq in events:
                    if id_ in stored:
                        duplicates += 1
                    else:
                        stored[id_] = (producer, seq)
                if self._file is not None:
                    self._file.write("".join([event[0] + "\n" for event in events]))
                self.duplicate_count += duplicates
                self.insertions += len(events)
            except BaseException:
                # A dict pops its newest item first, so this drops exactly the batch's new ids.
                for _ in range(len(stored) - before):
                    stored.popitem()
                raise

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


@dataclass
class SimConfig:
    """Knobs of one pipeline run. ``produce_interval`` is seconds, 0 = flat out."""

    scheme: IdScheme
    producers: int = 4
    events_per_producer: int = 1000
    partitions: int = 4
    consumers: int = 4
    produce_interval: float = 0.0
    seed: int = 0
    deterministic: bool = False
    persist_path: str | None = None

    def __post_init__(self):
        for name in ("producers", "events_per_producer", "partitions", "consumers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:  # producer i draws from seed + i, each seed non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.produce_interval <= _MAX_SLEEP_S:
            raise ValueError(f"produce_interval must be in [0, {_MAX_SLEEP_S:g}] s")
        if self.deterministic and self.produce_interval:
            raise ValueError("produce_interval must be 0 in deterministic mode, which has no real time")


@dataclass(frozen=True)
class SimReport:
    """Exact totals of one run. Ordering fields apply to time-ordered schemes."""

    scheme: IdScheme
    producers: int
    partitions: int
    events_total: int
    consumed_total: int
    stored_total: int
    unique_ids: int
    duplicate_count: int
    ordering_checked: bool
    ordering_violations: int
    overflow_waits: int
    elapsed_seconds: float
    effective_mbps: float

    @property
    def per_partition_order_ok(self) -> bool:
        return self.ordering_checked and self.ordering_violations == 0

    @property
    def conserved(self) -> bool:
        return self.events_total == self.consumed_total == self.stored_total


def verify_ordering(partition_logs, scheme: IdScheme) -> int:
    """Count per-producer pairs inside each partition that are out of order.

    Within one partition, events of one producer must appear with identifier
    string order matching sequence order (the codecs preserve numeric order,
    so string comparison is the time comparison). Each event is compared with
    the producer's previous one in that partition, on the scheme's ordered
    prefix only: UUIDv7 ids of one millisecond may come in any order. A
    prefix can sort lower only where the whole id does, so the prefixes are
    sliced only for an id that sorts below its predecessor.
    UUIDv4 has no ordering claim to check and is rejected.
    """
    if not scheme.time_ordered:
        raise UnsupportedScheme("ordering verification needs a time-ordered scheme")
    n = scheme.ordered_chars
    violations = 0
    for log in partition_logs:
        last_seen: dict[int, str] = {}
        get = last_seen.get
        # "" sorts below every id, so a producer's first event never counts.
        for id_, producer, _seq in log:
            last = get(producer, "")
            if id_ < last and id_[:n] < last[:n]:
                violations += 1
            last_seen[producer] = id_
    return violations


class _Producer:
    """Identifier-stamping event source; one per simulated node.

    Owns its seed-derived randomness and, for ULID, its monotonic state, so
    producers share nothing and never coordinate.
    """

    def __init__(self, index: int, cfg: SimConfig, clock):
        self.index = index
        self.clock = clock
        self.state = MonotonicState()
        self.mint = codec.minter(cfg.scheme, clock, SeededEntropy(cfg.seed + index), self.state)
        self.overflow_waits = 0

    def make_event(self, seq: int) -> Event:
        """Stamp one event for the threaded scheduler, waiting out a RandomOverflow on the real clock."""
        while True:
            try:
                id_text = self.mint()
                break
            except RandomOverflow:
                self.overflow_waits += 1
                while self.clock.now() <= self.state.last_ts:
                    time.sleep(0.0002)
        # tuple.__new__ skips the NamedTuple's Python-level __new__; still an Event.
        return tuple.__new__(Event, (id_text, self.index, seq))


def run_simulation(cfg: SimConfig) -> SimReport:
    """Run the pipeline to completion and return exact totals.

    Both modes share the topic, sink, producers and consumer steps; only the
    scheduler and the clock differ. A scheduler returns once the topic is
    closed and no consumer runs; the calling thread then drains the tail,
    one round at a time. Re-raises the first exception of any producer or
    consumer, raises :class:`EventCountMismatch` if the topic holds other
    than every event the producers made, and closes the sink either way.
    """
    # The deterministic scheduler makes every topic call on this one thread.
    topic = Topic("events", cfg.partitions, shared=not cfg.deterministic)
    sink = Sink(cfg.persist_path)
    try:
        clock = FixedClock(_VIRTUAL_EPOCH_MS) if cfg.deterministic else SystemClock()
        producers = [_Producer(i, cfg, clock) for i in range(cfg.producers)]
        # Consumer i owns the partitions congruent to i modulo the consumer
        # count; a consumer past the last partition would own none.
        assignments = [
            range(i, cfg.partitions, cfg.consumers)
            for i in range(min(cfg.consumers, cfg.partitions))
        ]

        consume, store = topic.consume, sink.store
        owned = [p for partitions in assignments for p in partitions]

        def drain(partitions=owned) -> int:
            """Take one batch from each partition and store them in one call.

            By default a round: every partition, in consumer order. The
            batches keep that order in the stored batch, so one sink lock
            and one persist write serve the whole drain. Returns the events
            moved.
            """
            batch: list[Event] = []
            for p in partitions:
                batch += consume(p)
            if batch:
                store(batch)
            return len(batch)

        schedule = _schedule_rounds if cfg.deterministic else _schedule_threads
        start = time.perf_counter()
        schedule(cfg, topic, producers, assignments, drain, clock)
        rounds = cfg.events_per_producer
        while drain():
            rounds += 1
        # Virtual time counts one millisecond per round.
        elapsed = rounds / 1000 if cfg.deterministic else time.perf_counter() - start
        return _build_report(cfg, topic, sink, producers, elapsed)
    finally:
        sink.close()


def _schedule_threads(cfg, topic, producers, assignments, drain, clock) -> None:
    """One thread per producer and consumer against real time.

    Consumers poll until the topic closes; what they leave is the tail.
    """
    errors: list[Exception] = []

    def produce(producer: _Producer):
        for seq in range(cfg.events_per_producer):
            topic.publish(producer.make_event(seq))
            if cfg.produce_interval > 0:
                time.sleep(cfg.produce_interval)

    def consume(partitions):
        while not topic._closed:
            if not drain(partitions):
                time.sleep(0.0002)

    def worker(step, *args):
        try:
            step(*args)
        except Exception as exc:
            errors.append(exc)

    producer_threads = [
        threading.Thread(target=worker, args=(produce, p), name=f"producer-{p.index}")
        for p in producers
    ]
    consumer_threads = [
        threading.Thread(target=worker, args=(consume, parts), name=f"consumer-{i}")
        for i, parts in enumerate(assignments)
    ]
    for t in consumer_threads + producer_threads:
        t.start()
    try:
        for t in producer_threads:
            t.join()
    finally:  # on an interrupt too: stop the consumers, and let their last store end before the sink closes
        topic.close()
        for t in consumer_threads:
            t.join()
    if errors:
        raise errors[0]


def _schedule_rounds(cfg, topic, producers, assignments, drain, clock) -> None:
    """Round-robin on one thread against the virtual clock.

    Each round stamps and publishes one event per producer, one drain call
    takes a batch from every partition in consumer order, and the clock ticks
    one millisecond. Nothing ticks it inside a round, so a RandomOverflow
    propagates from the minter rather than being waited out.
    """
    # Bound once per run: a tracer or a patch installed before the run still applies.
    publish, advance, new = topic.publish, clock.advance, tuple.__new__
    minters = [(producer.mint, producer.index) for producer in producers]
    for seq in range(cfg.events_per_producer):
        for mint, index in minters:
            publish(new(Event, (mint(), index, seq)))
        drain()
        advance(1)
    topic.close()


def _build_report(cfg, topic, sink, producers, elapsed) -> SimReport:
    partitions = range(topic.partitions)
    events_total = sum(topic.end_offset(p) for p in partitions)
    produced = cfg.producers * cfg.events_per_producer
    if events_total != produced:
        raise EventCountMismatch(f"producers made {produced} events, but the topic holds {events_total}")
    if cfg.scheme.time_ordered:
        logs = [topic.partition_log(p) for p in partitions]
        ordering_checked, ordering_violations = True, verify_ordering(logs, cfg.scheme)
    else:
        ordering_checked, ordering_violations = False, 0
    # Two bytes per character: 52 bytes per ULID, 72 per UUID.
    payload_bits = sink.insertions * codec.serialized_size(cfg.scheme, 2) * 8
    return SimReport(
        scheme=cfg.scheme,
        producers=cfg.producers,
        partitions=cfg.partitions,
        events_total=events_total,
        consumed_total=sum(topic.committed(p) for p in partitions),
        stored_total=sink.insertions,
        unique_ids=len(sink.stored),
        duplicate_count=sink.duplicate_count,
        ordering_checked=ordering_checked,
        ordering_violations=ordering_violations,
        overflow_waits=sum(producer.overflow_waits for producer in producers),
        elapsed_seconds=elapsed,
        effective_mbps=bandwidth_mbps(payload_bits, elapsed),
    )

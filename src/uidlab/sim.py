"""In-process producer / broker / consumer pipeline with integrity checks.

Producers stamp every event with a fresh identifier and publish it to a
partitioned, append-only topic; the partition is picked by hashing the
identifier string (CRC-32, fixed and replayable) modulo the partition count.
Consumers drain the partitions through one offset per partition, so each
event is delivered at most once, and store the events in a sink that counts
duplicate identifiers. After the run the per-partition logs can be checked
for per-producer ordering violations.

One driver, ``run_simulation``, runs both execution modes over the same
topic, sink, producers and drain: a deterministic mode that steps everything
round-robin on the calling thread against a virtual millisecond clock, so a
seed reproduces the full report bit for bit, and a threaded mode, where a
helper runs producers and consumers concurrently on real time and OS entropy.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import namedtuple
from dataclasses import dataclass

from . import _LAZY, codec
from .core import (
    _MAX_SLEEP_S,
    EventCountMismatch,
    FixedClock,
    IdScheme,
    MonotonicState,
    RandomOverflow,
    SeededEntropy,
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


Event = namedtuple("Event", ("id", "producer", "seq"))
Event.__doc__ = "One simulated message: serialized identifier plus provenance."


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
        if self.seed and not self.deterministic:
            raise ValueError("seed must be 0 in threaded mode, which draws from the OS")
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


def run_simulation(cfg: SimConfig) -> SimReport:
    """Run the pipeline to completion and return exact totals.

    One driver for both modes: it binds ``publish``, ``consume`` and
    ``store`` once per run, runs the deterministic rounds itself and hands
    the threaded mode to :func:`_run_threads`, which returns once the topic
    is closed and no consumer runs; then this thread drains the tail.
    Re-raises the first exception of any producer or consumer, raises
    :class:`EventCountMismatch` if the topic holds other than every event
    the producers made, and closes the sink either way.
    """
    # The deterministic rounds make every topic call on this one thread.
    topic = Topic("events", cfg.partitions, shared=not cfg.deterministic)
    sink = Sink(cfg.persist_path)
    try:
        clock = FixedClock(_VIRTUAL_EPOCH_MS) if cfg.deterministic else None  # None reads the system clock
        # Producer i mints into its own state, from seed + i in deterministic mode and from
        # the OS draw (no source) in threaded mode: producers share nothing.
        minters = [
            codec.minter(cfg.scheme, clock, SeededEntropy(cfg.seed + i) if cfg.deterministic else None, MonotonicState())
            for i in range(cfg.producers)
        ]
        # Consumer i owns the partitions congruent to i modulo the consumer
        # count; a consumer past the last partition would own none.
        assignments = [
            range(i, cfg.partitions, cfg.consumers)
            for i in range(min(cfg.consumers, cfg.partitions))
        ]

        # Bound once per run: a tracer or a patch installed before the run still applies.
        publish, consume, store = topic.publish, topic.consume, sink.store
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

        start = time.perf_counter()
        if cfg.deterministic:
            # A round publishes one event per producer, drains and ticks one millisecond. Nothing
            # ticks inside a round, so a RandomOverflow propagates rather than being waited out.
            advance, new = clock.advance, tuple.__new__
            for seq in range(cfg.events_per_producer):
                for index, mint in enumerate(minters):
                    publish(new(Event, (mint(), index, seq)))
                drain()
                advance(1)
            topic.close()
            overflow_waits = 0
        else:
            overflow_waits = _run_threads(cfg, topic, publish, minters, assignments, drain)
        rounds = cfg.events_per_producer
        while drain():
            rounds += 1
        # Virtual time counts one millisecond per round.
        elapsed = rounds / 1000 if cfg.deterministic else time.perf_counter() - start
        return _build_report(cfg, topic, sink, overflow_waits, elapsed)
    finally:
        sink.close()


def _run_threads(cfg, topic, publish, minters, assignments, drain) -> int:
    """One thread per producer and consumer against real time; returns the overflow waits.

    Producer i publishes what ``minters[i]`` mints; on a RandomOverflow it sleeps one
    millisecond and mints again. Consumers poll until the topic closes.
    """
    errors: list[Exception] = []
    waits = [0] * cfg.producers  # one slot per producer thread, read after the joins

    def produce(index, mint):
        for seq in range(cfg.events_per_producer):
            while True:
                try:
                    id_text = mint()
                    break
                except RandomOverflow:
                    waits[index] += 1
                    time.sleep(0.001)
            # tuple.__new__ skips the namedtuple's Python-level __new__; still an Event.
            publish(tuple.__new__(Event, (id_text, index, seq)))
            if cfg.produce_interval > 0:
                time.sleep(cfg.produce_interval)

    def poll(partitions):
        while not topic._closed:
            if not drain(partitions):
                time.sleep(0.0002)

    def worker(step, *args):
        try:
            step(*args)
        except Exception as exc:
            errors.append(exc)

    producer_threads = [
        threading.Thread(target=worker, args=(produce, i, mint), name=f"producer-{i}")
        for i, mint in enumerate(minters)
    ]
    consumer_threads = [
        threading.Thread(target=worker, args=(poll, parts), name=f"consumer-{i}")
        for i, parts in enumerate(assignments)
    ]
    try:
        for t in consumer_threads + producer_threads:
            t.start()
        for t in producer_threads:
            t.join()
    finally:  # on an interrupt too: stop the consumers, and let their last store end before the sink closes
        topic.close()
        for t in [t for t in consumer_threads if t.ident is not None]:  # a failed start leaves the rest unstarted
            t.join()
    if errors:
        raise errors[0]
    return sum(waits)


def _build_report(cfg, topic, sink, overflow_waits, elapsed) -> SimReport:
    partitions = range(topic.partitions)
    events_total = sum(topic.end_offset(p) for p in partitions)
    produced = cfg.producers * cfg.events_per_producer
    if events_total != produced:
        raise EventCountMismatch(f"producers made {produced} events, but the topic holds {events_total}")
    ordering_checked, ordering_violations = cfg.scheme.time_ordered, 0
    if ordering_checked:
        ordering_violations = verify_ordering([topic.partition_log(p) for p in partitions], cfg.scheme)
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
        overflow_waits=overflow_waits,
        elapsed_seconds=elapsed,
        effective_mbps=bandwidth_mbps(payload_bits, elapsed),
    )

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

import contextlib
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from . import codec
from .core import (
    FixedClock,
    IdScheme,
    MonotonicState,
    RandomOverflow,
    SeededEntropy,
    SystemClock,
    UnsupportedScheme,
    id_generator,
)
from .bench import bandwidth_mbps, serialized_size

__all__ = [
    "Event",
    "Topic",
    "Sink",
    "SimConfig",
    "SimReport",
    "OrderingViolation",
    "OrderingReport",
    "TopicClosed",
    "UnknownPartition",
    "partition_for",
    "run_simulation",
    "verify_ordering",
    "SIM_CSV_HEADER",
]

# Epoch for the deterministic mode's virtual clock (fixed, arbitrary).
_VIRTUAL_EPOCH_MS = 1_700_000_000_000

_CONSUME_BATCH = 256

SIM_CSV_HEADER = (
    "scheme,producers,partitions,events_total,consumed_total,stored_total,"
    "unique_ids,duplicate_count,ordering_violations,overflow_waits,"
    "elapsed_seconds,effective_mbps"
)


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
    """Append-only partitioned log with one consumer offset per partition."""

    def __init__(self, name: str, partitions: int):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.name = name
        self.partitions = partitions
        self._logs: list[list[Event]] = [[] for _ in range(partitions)]
        self._append_locks = [threading.Lock() for _ in range(partitions)]
        self._offsets = [0] * partitions
        self._offsets_lock = threading.Lock()
        self._closed = False

    def publish(self, event: Event) -> tuple[int, int]:
        """Append atomically; returns (partition, offset)."""
        p = partition_for(event.id, self.partitions)
        with self._append_locks[p]:
            if self._closed:
                raise TopicClosed(f"topic {self.name!r} is closed")
            log = self._logs[p]
            log.append(event)
            return p, len(log) - 1

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.partitions:
            raise UnknownPartition(f"partition {partition} not in [0, {self.partitions})")

    def consume(self, partition: int, max_events: int) -> list[Event]:
        """Next batch of the partition, advancing its offset; never re-delivers."""
        self._check_partition(partition)
        log = self._logs[partition]
        with self._offsets_lock:
            start = self._offsets[partition]
            end = min(len(log), start + max_events)
            self._offsets[partition] = end
        return log[start:end]

    def close(self) -> None:
        """Stop accepting events: once this returns, no publish appends."""
        with contextlib.ExitStack() as held:
            for lock in self._append_locks:
                held.enter_context(lock)
            self._closed = True

    def end_offset(self, partition: int) -> int:
        self._check_partition(partition)
        return len(self._logs[partition])

    def committed(self, partition: int) -> int:
        self._check_partition(partition)
        with self._offsets_lock:
            return self._offsets[partition]

    def partition_log(self, partition: int) -> tuple[Event, ...]:
        """Immutable view of one partition, for post-run verification."""
        self._check_partition(partition)
        return tuple(self._logs[partition])


class Sink:
    """Uniqueness-checking event store standing in for the database.

    Counts every insertion whose identifier was already present. Optionally
    appends each identifier to a file, one per line.
    """

    def __init__(self, persist_path=None):
        self._lock = threading.Lock()
        self.stored: dict[str, tuple[int, int]] = {}
        self.duplicate_count = 0
        self.insertions = 0
        self._file = open(persist_path, "w", encoding="ascii") if persist_path else None

    def store(self, events) -> None:
        with self._lock:
            for e in events:
                if e.id in self.stored:
                    self.duplicate_count += 1
                else:
                    self.stored[e.id] = (e.producer, e.seq)
                self.insertions += 1
                if self._file is not None:
                    self._file.write(e.id + "\n")

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
        if self.produce_interval < 0:
            raise ValueError("produce_interval must be >= 0")


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

    def render_text(self) -> str:
        lines = [
            f"scheme              {self.scheme.cli_name}",
            f"producers           {self.producers}",
            f"partitions          {self.partitions}",
            f"events published    {self.events_total}",
            f"events consumed     {self.consumed_total}",
            f"events stored       {self.stored_total}",
            f"unique ids          {self.unique_ids}",
            f"duplicate count     {self.duplicate_count}",
        ]
        if self.ordering_checked:
            lines.append(f"ordering violations {self.ordering_violations}")
        if self.overflow_waits:
            lines.append(f"overflow waits      {self.overflow_waits}")
        lines.append(f"elapsed seconds     {self.elapsed_seconds:.6f}")
        lines.append(f"effective mbps      {self.effective_mbps:.6f}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        ordering = str(self.ordering_violations) if self.ordering_checked else ""
        row = (
            f"{self.scheme.cli_name},{self.producers},{self.partitions},"
            f"{self.events_total},{self.consumed_total},{self.stored_total},"
            f"{self.unique_ids},{self.duplicate_count},{ordering},"
            f"{self.overflow_waits},{self.elapsed_seconds!r},{self.effective_mbps!r}"
        )
        return SIM_CSV_HEADER + "\n" + row + "\n"


@dataclass(frozen=True)
class OrderingViolation:
    partition: int
    producer: int
    position: int
    previous_id: str
    id: str


@dataclass(frozen=True)
class OrderingReport:
    pairs_checked: int
    violations: tuple[OrderingViolation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_ordering(partition_logs, scheme: IdScheme) -> OrderingReport:
    """Check per-producer subsequences inside each partition for sortedness.

    Within one partition, events of one producer must appear with identifier
    string order matching sequence order (the codecs preserve numeric order,
    so string comparison is the time comparison). Only the scheme's ordered
    prefix is compared: UUIDv7 ids of one millisecond may come in any order.
    UUIDv4 has no ordering claim to check and is rejected.
    """
    if not scheme.time_ordered:
        raise UnsupportedScheme("ordering verification needs a time-ordered scheme")
    n = scheme.ordered_chars
    violations = []
    pairs = 0
    for p, log in enumerate(partition_logs):
        last_seen: dict[int, str] = {}
        for pos, event in enumerate(log):
            prev = last_seen.get(event.producer)
            if prev is not None:
                pairs += 1
                if event.id[:n] < prev[:n]:
                    violations.append(
                        OrderingViolation(p, event.producer, pos, prev, event.id)
                    )
            last_seen[event.producer] = event.id
    return OrderingReport(pairs_checked=pairs, violations=tuple(violations))


class _Producer:
    """Identifier-stamping event source; one per simulated node.

    Owns its seed-derived randomness and, for ULID, its monotonic state, so
    producers share nothing and never coordinate.
    """

    def __init__(self, index: int, cfg: SimConfig, clock):
        self.index = index
        self.clock = clock
        self.rng = SeededEntropy(cfg.seed + index)
        self.state = MonotonicState()
        self.next_value = id_generator(cfg.scheme, clock, self.rng, self.state)
        self.encode = codec.encoder_for(cfg.scheme)
        self.overflow_waits = 0

    def make_event(self, seq: int) -> Event:
        while True:
            try:
                value = self.next_value()
                break
            except RandomOverflow:
                self.overflow_waits += 1
                self._wait_next_millisecond()
        return Event(self.encode(value), self.index, seq)

    def _wait_next_millisecond(self) -> None:
        if isinstance(self.clock, FixedClock):
            self.clock.advance(1)
            return
        while self.clock.now() <= self.state.last_ts:
            time.sleep(0.0002)


def run_simulation(cfg: SimConfig) -> SimReport:
    """Run the pipeline to completion and return exact totals.

    Both modes share the topic, sink, producers and consumer steps; only the
    scheduler and the clock differ. Re-raises the first exception of any
    producer or consumer, and closes the sink either way.
    """
    topic = Topic("events", cfg.partitions)
    sink = Sink(cfg.persist_path)
    try:
        clock = FixedClock(_VIRTUAL_EPOCH_MS) if cfg.deterministic else SystemClock()
        producers = [_Producer(i, cfg, clock) for i in range(cfg.producers)]
        # Consumer i owns the partitions congruent to i modulo the consumer count.
        assignments = [range(i, cfg.partitions, cfg.consumers) for i in range(cfg.consumers)]

        def drain(partitions) -> int:
            """Store one batch from each partition; return the events moved."""
            moved = 0
            for p in partitions:
                batch = topic.consume(p, _CONSUME_BATCH)
                if batch:
                    sink.store(batch)
                    moved += len(batch)
            return moved

        def lagging(partitions) -> bool:
            return any(topic.committed(p) < topic.end_offset(p) for p in partitions)

        schedule = _schedule_rounds if cfg.deterministic else _schedule_threads
        consumed, elapsed = schedule(cfg, topic, producers, assignments, drain, lagging, clock)
        return _build_report(
            cfg, topic, sink, consumed, sum(p.overflow_waits for p in producers), elapsed
        )
    finally:
        sink.close()


def _schedule_threads(cfg, topic, producers, assignments, drain, lagging, clock):
    """One thread per producer and consumer against real time.

    Returns (events consumed, wall seconds).
    """
    done = threading.Event()
    consumed = [0] * len(assignments)
    errors: list[Exception] = []

    def produce(producer: _Producer):
        for seq in range(cfg.events_per_producer):
            topic.publish(producer.make_event(seq))
            if cfg.produce_interval > 0:
                time.sleep(cfg.produce_interval)

    def consume(idx: int, partitions):
        while True:
            moved = drain(partitions)
            consumed[idx] += moved
            if not moved:
                if done.is_set() and not lagging(partitions):
                    break
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
        threading.Thread(target=worker, args=(consume, i, parts), name=f"consumer-{i}")
        for i, parts in enumerate(assignments)
    ]
    start = time.perf_counter()
    for t in consumer_threads + producer_threads:
        t.start()
    for t in producer_threads:
        t.join()
    topic.close()
    done.set()
    for t in consumer_threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return sum(consumed), elapsed


def _schedule_rounds(cfg, topic, producers, assignments, drain, lagging, clock):
    """Round-robin on one thread against the virtual clock.

    Each round every producer publishes one event, every consumer drains,
    and the clock ticks one millisecond. Returns (events consumed, virtual
    seconds at one millisecond per round).
    """
    consumed = 0
    for seq in range(cfg.events_per_producer):
        for producer in producers:
            topic.publish(producer.make_event(seq))
        for partitions in assignments:
            consumed += drain(partitions)
        clock.advance(1)
    topic.close()
    rounds = cfg.events_per_producer
    while lagging(range(cfg.partitions)):
        for partitions in assignments:
            consumed += drain(partitions)
        rounds += 1
    return consumed, rounds / 1000.0


def _build_report(cfg, topic, sink, consumed_total, overflow_waits, elapsed) -> SimReport:
    events_total = sum(topic.end_offset(p) for p in range(topic.partitions))
    if cfg.scheme.time_ordered:
        logs = [topic.partition_log(p) for p in range(topic.partitions)]
        ordering = verify_ordering(logs, cfg.scheme)
        ordering_checked, ordering_violations = True, len(ordering.violations)
    else:
        ordering_checked, ordering_violations = False, 0
    # Two bytes per character: 52 bytes per ULID, 72 per UUID.
    payload_bits = sink.insertions * serialized_size(cfg.scheme, 2) * 8
    return SimReport(
        scheme=cfg.scheme,
        producers=cfg.producers,
        partitions=cfg.partitions,
        events_total=events_total,
        consumed_total=consumed_total,
        stored_total=sink.insertions,
        unique_ids=len(sink.stored),
        duplicate_count=sink.duplicate_count,
        ordering_checked=ordering_checked,
        ordering_violations=ordering_violations,
        overflow_waits=overflow_waits,
        elapsed_seconds=elapsed,
        effective_mbps=bandwidth_mbps(payload_bits, elapsed),
    )

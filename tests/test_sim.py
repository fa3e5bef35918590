import ast
import collections
import hashlib
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uidlab import cli, codec, core, sim
from uidlab.codec import ulid_decode, ulid_encode, uuid_format
from uidlab.core import (
    FixedClock,
    IdScheme,
    MonotonicState,
    RANDOM80_MAX,
    RandomOverflow,
    SeededEntropy,
    UnsupportedScheme,
    generate_uuidv7,
    next_monotonic_ulid,
)
from uidlab.sim import (
    Event,
    EventCountMismatch,
    SimConfig,
    SimReport,
    Sink,
    Topic,
    TopicClosed,
    UnknownPartition,
    partition_for,
    run_simulation,
    verify_ordering,
)


def crc32_reference(data: bytes) -> int:
    # Bitwise CRC-32 (reflected, poly 0xEDB88320), independent of zlib.
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def make_event(text, producer=0, seq=0):
    return Event(text, producer, seq)


def both_topics(partitions):
    """A default, shared topic and an unshared one, which publishes and consumes without its lock."""
    return [Topic("t", partitions), Topic("t", partitions, shared=False)]


def test_partition_matches_independent_crc():
    rng = SeededEntropy(555)
    clock = FixedClock(10_000)
    state = MonotonicState()
    for _ in range(100):
        text = ulid_encode(next_monotonic_ulid(state, clock, rng))
        expected = crc32_reference(text.encode()) % 4
        assert partition_for(text, 4) == expected


def test_single_partition_gets_everything():
    topic = Topic("t", 1)
    for i in range(10):
        partition, offset = topic.publish(make_event(f"{i:026d}"))
        assert partition == 0
        assert offset == i


def test_consume_respects_offsets_and_batch_size():
    for topic in both_topics(1):
        for i in range(257):
            topic.publish(make_event(f"{i:026d}", seq=i))
        first = topic.consume(0)
        second = topic.consume(0)
        third = topic.consume(0)
        assert [e.seq for e in first] == list(range(256))
        assert [e.seq for e in second] == [256]
        assert third == []
        assert topic.committed(0) == 257


def test_consume_empty_partition():
    for topic in both_topics(2):
        assert topic.consume(1) == []
        assert topic.committed(1) == 0


def test_topic_needs_a_partition():
    with pytest.raises(ValueError, match="partitions must be >= 1"):
        Topic("t", 0)


def test_unknown_partition():
    topic = Topic("t", 2)
    with pytest.raises(UnknownPartition):
        topic.consume(2)


@pytest.mark.parametrize("published", [0, 1], ids=["empty", "published"])
@pytest.mark.parametrize("partition", [-1, 2])
def test_consume_rejects_unknown_partition(partition, published):
    # On an empty topic every offset equals its log length, so this also
    # checks that the bounds check comes before the empty-partition return.
    topic = Topic("t", 2)
    for _ in range(published):
        topic.publish(make_event("A" * 26))
    with pytest.raises(UnknownPartition):
        topic.consume(partition)


@pytest.mark.parametrize("partition", [-1, 2])
@pytest.mark.parametrize("accessor", ["end_offset", "committed", "partition_log"])
def test_accessors_reject_unknown_partition(accessor, partition):
    topic = Topic("t", 2)
    topic.publish(make_event("A" * 26))
    with pytest.raises(UnknownPartition):
        getattr(topic, accessor)(partition)


def test_publish_after_close():
    # A shared topic's publish raises while it holds the lock; the lock must
    # be free afterwards, or the next locked call blocks for ever.
    for topic in both_topics(1):
        topic.close()
        with pytest.raises(TopicClosed):
            topic.publish(make_event("A" * 26))
        assert not topic._lock.locked()
        assert topic.committed(0) == 0


class CountingLock:
    """A real lock that counts the with blocks entering it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_only_a_shared_topic_locks_to_publish_and_consume(shared):
    topic = Topic("t", 1) if shared else Topic("t", 1, shared=False)
    topic._lock = lock = CountingLock()
    for seq in range(600):
        topic.publish(make_event(f"{seq:026d}", seq=seq))
    batches = [topic.consume(0) for _ in range(4)]
    assert [len(batch) for batch in batches] == [256, 256, 88, 0]
    assert [e.seq for batch in batches for e in batch] == list(range(600))
    # One entry per publish and per non-empty consume; the empty consume returns before the lock.
    assert lock.entered == (600 + 3 if shared else 0)


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_only_the_deterministic_run_builds_an_unshared_topic(monkeypatch, deterministic):
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=50,
        partitions=2,
        consumers=1,
        deterministic=deterministic,
    )
    assert run_simulation(cfg).conserved
    assert [topic._shared for topic in topics] == [not deterministic]


def test_topic_lock_sections_hold_no_thread_switch_point():
    # A thread switched out while it holds the topic lock stalls every
    # producer and consumer behind it. So a locked section may call only
    # len() and .append(), besides building the exception it raises, and runs
    # no loop; and every lock in sim.py, the sink's too, is taken in a with
    # block, never through an explicit acquire() or release().
    tree = ast.parse(Path(sim.__file__).read_text())
    (topic,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Topic"]
    sections = [
        (method.name, node)
        for method in topic.body
        for node in ast.walk(method)
        if isinstance(node, ast.With) and any(ast.unparse(item.context_expr) == "self._lock" for item in node.items)
    ]
    found = []
    for name, section in sections:
        raised = {
            id(node)
            for stmt in ast.walk(section)
            if isinstance(stmt, ast.Raise)
            for part in (stmt.exc, stmt.cause)
            if part is not None
            for node in ast.walk(part)
        }
        for node in ast.walk(section):
            if isinstance(node, (ast.For, ast.While, ast.comprehension)):
                found.append((name, node.lineno, "loop"))
            elif isinstance(node, ast.Call) and id(node) not in raised:
                func = node.func
                if not (
                    (isinstance(func, ast.Name) and func.id == "len")
                    or (isinstance(func, ast.Attribute) and func.attr == "append")
                ):
                    found.append((name, node.lineno, ast.unparse(func)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("acquire", "release")
        ):
            found.append(("sim", node.lineno, ast.unparse(node.func)))
    assert found == []
    assert {name for name, _ in sections} >= {"publish", "consume", "close", "committed"}, (
        "the scan found too little"
    )


def test_a_raising_store_releases_its_lock():
    sink = Sink()
    with pytest.raises(ValueError):
        sink.store([("A" * 26, 0)])  # two fields where an event has three
    assert not sink._lock.locked()
    sink.store([make_event("B" * 26)])
    assert sink.insertions == 1
    assert "B" * 26 in sink.stored


@pytest.mark.parametrize(
    "batch",
    [
        [make_event("A" * 26), ("B" * 26, 0)],
        [make_event("C" * 26), make_event("Z" * 26), make_event("C" * 26), ("B" * 26, 0)],
    ],
    ids=["new-id-then-bad-event", "duplicates-then-bad-event"],
)
def test_a_raising_store_leaves_the_sink_unchanged(tmp_path, batch):
    path = tmp_path / "ids.txt"
    sink = Sink(path)
    sink.store([make_event("Z" * 26, 1, 0)])
    with pytest.raises(ValueError):
        sink.store(batch)
    assert (sink.stored, sink.duplicate_count, sink.insertions) == ({"Z" * 26: (1, 0)}, 0, 1)
    assert not sink._lock.locked()
    sink.store([make_event("D" * 26)])
    sink.close()
    assert (list(sink.stored), sink.duplicate_count, sink.insertions) == (["Z" * 26, "D" * 26], 0, 2)
    assert path.read_text() == "Z" * 26 + "\n" + "D" * 26 + "\n"



class StalledLogs(list):
    """Partition logs whose lookup calls ``stall`` first."""

    def __init__(self, logs, stall):
        super().__init__(logs)
        self.stall = stall

    def __getitem__(self, index):
        self.stall()
        return super().__getitem__(index)


@pytest.mark.parametrize("stall_at", ["partition", "append"])
def test_no_append_after_close_returns(monkeypatch, stall_at):
    # Stall one publish, either before it takes the append lock (in
    # partition_for) or after its closed check (at the log lookup), close the
    # topic meanwhile, then let the publish go on: it must not land after
    # close() has returned.
    topic = Topic("t", 1)
    entered, release = threading.Event(), threading.Event()

    def stall():
        if threading.current_thread().name == "publisher" and not entered.is_set():
            entered.set()
            release.wait(5)

    if stall_at == "partition":
        monkeypatch.setattr(sim, "partition_for", lambda *args: stall() or partition_for(*args))
    else:
        topic._logs = StalledLogs(topic._logs, stall)
    outcomes, end_at_close = [], []

    def publish():
        try:
            topic.publish(make_event("A" * 26))
            outcomes.append("appended")
        except TopicClosed:
            outcomes.append("closed")

    def close():
        topic.close()
        end_at_close.append(topic.end_offset(0))

    publisher = threading.Thread(target=publish, name="publisher")
    publisher.start()
    assert entered.wait(5)
    closer = threading.Thread(target=close)
    closer.start()
    closer.join(0.2)  # a close() that waits for the stalled publish is allowed
    release.set()
    closer.join(5)
    publisher.join(5)
    assert not closer.is_alive() and not publisher.is_alive()
    assert topic.end_offset(0) == end_at_close[0]
    assert outcomes == ["appended" if end_at_close[0] else "closed"]


def test_close_under_concurrent_publishers():
    # More publishers than cores, switching threads as often as possible.
    topic = Topic("t", 2)
    started = threading.Barrier(7)

    def publish(producer):
        started.wait(5)
        try:
            for seq in range(100_000):
                topic.publish(make_event(f"{producer:02d}{seq:024d}", producer, seq))
        except TopicClosed:
            pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        publishers = [threading.Thread(target=publish, args=(i,)) for i in range(6)]
        for t in publishers:
            t.start()
        started.wait(5)
        while topic.end_offset(0) + topic.end_offset(1) < 1_000:
            time.sleep(0.001)
        topic.close()
        at_close = [topic.end_offset(p) for p in range(2)]
        for t in publishers:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in publishers)
    assert [topic.end_offset(p) for p in range(2)] == at_close


def test_event_contract():
    event = make_event("A" * 26, producer=3, seq=9)
    assert Event._fields == ("id", "producer", "seq")
    with pytest.raises(AttributeError):
        event.id = "B" * 26
    with pytest.raises(AttributeError):
        event.extra = 1
    assert hash(event) == hash(make_event("A" * 26, producer=3, seq=9))
    assert len({event, make_event("A" * 26, producer=3, seq=9), make_event("B" * 26)}) == 2


def test_producer_events_keep_the_event_contract(monkeypatch):
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=3, events_per_producer=8, partitions=2, consumers=1)
    before = time.time_ns() // 1_000_000
    assert run_simulation(cfg).conserved
    after = time.time_ns() // 1_000_000
    (topic,) = topics
    events = [event for p in range(2) for event in topic.partition_log(p)]
    (event,) = [event for event in events if event[1:] == (2, 7)]
    assert type(event) is Event
    assert event == Event(*event)
    assert hash(event) == hash(Event(*event))
    assert (event.id, event.producer, event.seq) == (event[0], 2, 7)
    # Threaded producers stamp their ids with the wall clock.
    assert all(before <= ulid_decode(event.id) >> 80 <= after for event in events)


def _with_switch_interval(work, timeout=60):
    """Run ``work`` on a thread, switching threads as often as possible."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=work, daemon=True)
        runner.start()
        runner.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()


def test_threaded_run_stores_every_event_once():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=4,
        events_per_producer=2000,
        partitions=4,
        consumers=2,
    )
    reports = []
    _with_switch_interval(lambda: reports.append(run_simulation(cfg)))
    (report,) = reports
    assert report.conserved
    assert report.events_total == report.unique_ids == 8000
    assert report.duplicate_count == 0


def test_consumers_sharing_partitions_store_every_event_once():
    # Both consumers drain every partition while four publishers append, so
    # they race for each offset, locked or not.
    topic, sink = Topic("t", 4), Sink()
    published = threading.Event()

    def publish(producer):
        for seq in range(2000):
            topic.publish(make_event(f"{producer:02d}{seq:024d}", producer, seq))

    def consume():
        while True:
            moved = 0
            for p in range(4):
                batch = topic.consume(p)
                if batch:
                    sink.store(batch)
                    moved += len(batch)
            lagging = any(topic.committed(p) < topic.end_offset(p) for p in range(4))
            if not moved and published.is_set() and not lagging:
                return

    def run():
        publishers = [threading.Thread(target=publish, args=(i,), daemon=True) for i in range(4)]
        consumers = [threading.Thread(target=consume, daemon=True) for _ in range(2)]
        for t in consumers + publishers:
            t.start()
        for t in publishers:
            t.join()
        published.set()
        for t in consumers:
            t.join()

    _with_switch_interval(run)
    assert sink.insertions == len(sink.stored) == 8000
    assert sink.duplicate_count == 0
    assert sorted(sink.stored.values()) == [(p, s) for p in range(4) for s in range(2000)]


class SwitchingId(str):
    """An id whose hash yields the GIL, so another thread can run between a
    store's membership check and its insert."""

    def __hash__(self):
        time.sleep(0)
        return str.__hash__(self)


def test_concurrent_stores_count_duplicates_exactly():
    # Four threads store the same 2,000 events in batches of 7: every event
    # is inserted four times, once as new and three times as a duplicate.
    events = [make_event(SwitchingId(f"{seq:026d}"), 0, seq) for seq in range(2000)]
    batches = [events[i : i + 7] for i in range(0, len(events), 7)]
    sink = Sink()
    started = threading.Barrier(4)

    def store_all():
        started.wait(5)
        for batch in batches:
            sink.store(batch)

    def run():
        threads = [threading.Thread(target=store_all, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    _with_switch_interval(run)
    assert sink.insertions == 8000
    assert len(sink.stored) == 2000
    assert sink.duplicate_count == 6000


def test_consumer_stops_only_after_a_drain_that_began_after_close(monkeypatch):
    # The consumer's first poll sees the topic still open and comes back
    # empty only once close() has returned, with everything published by
    # then. The consumer stops at close; the tail drain that the calling
    # thread runs after it picks up what the consumer left.
    consume = Topic.consume
    first = []

    def late_empty_poll(topic, partition):
        if first:
            return consume(topic, partition)
        first.append(partition)
        deadline = time.monotonic() + 10
        while not topic._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        return []

    monkeypatch.setattr(Topic, "consume", late_empty_poll)
    cfg = SimConfig(
        scheme=IdScheme.ULID, producers=2, events_per_producer=50, partitions=1, consumers=1
    )
    report = run_simulation(cfg)
    assert report.conserved
    assert report.stored_total == 100


def test_consumers_past_the_last_partition_start_no_thread(monkeypatch):
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(sim.threading, "Thread", RecordingThread)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=2, events_per_producer=200, partitions=1, consumers=4)
    report = run_simulation(cfg)
    assert [name for name in started if name.startswith("consumer-")] == ["consumer-0"]
    assert report.conserved
    assert report.stored_total == 400


def test_interrupted_threaded_run_stops_its_consumers(monkeypatch):
    consumers = []

    class InterruptedThread(threading.Thread):
        def start(self):
            if self.name.startswith("consumer-"):
                consumers.append(self)
            super().start()

        def join(self, timeout=None):
            if self.name.startswith("producer-"):
                raise KeyboardInterrupt  # Ctrl-C while the main thread waits on a producer
            super().join(timeout)

    monkeypatch.setattr(sim.threading, "Thread", InterruptedThread)
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=2, events_per_producer=200, partitions=2, consumers=2)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_simulation(cfg)
        assert len(consumers) == 2
        deadline = time.monotonic() + 5
        for t in consumers:
            t.join(max(0.0, deadline - time.monotonic()))
        assert [t.name for t in consumers if t.is_alive()] == []
    finally:  # a consumer left polling would keep the test process from exiting
        for topic in topics:
            topic.close()


def test_failed_thread_start_stops_the_consumers_that_started(monkeypatch):
    started = []

    class FailingThread(threading.Thread):
        def start(self):
            if len(started) == 2:  # consumers start first, so the first producer fails
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(sim.threading, "Thread", FailingThread)
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=2, events_per_producer=200, partitions=2, consumers=2)
    try:
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_simulation(cfg)
        assert [t.name for t in started] == ["consumer-0", "consumer-1"]
        assert [t.name for t in started if t.is_alive()] == []
    finally:  # a consumer left polling would keep the test process from exiting
        for topic in topics:
            topic.close()
        for t in started:
            t.join(5)


def test_interrupted_threaded_run_waits_for_the_consumers_last_store(monkeypatch, tmp_path):
    consumers, sinks = [], []
    entered = threading.Semaphore(0)

    class InterruptedThread(threading.Thread):
        def start(self):
            if self.name.startswith("consumer-"):
                consumers.append(self)
            super().start()

        def join(self, timeout=None):
            if self.name.startswith("producer-"):
                for _ in consumers:  # Ctrl-C once every consumer is inside its first store
                    entered.acquire(timeout=5)
                raise KeyboardInterrupt
            super().join(timeout)

    class HeldSink(Sink):
        def __init__(self, *args):
            super().__init__(*args)
            self.held = set()
            sinks.append(self)

        def store(self, events):
            name = threading.current_thread().name
            if name.startswith("consumer-") and name not in self.held:
                self.held.add(name)
                entered.release()
                time.sleep(0.2)
            super().store(events)

    monkeypatch.setattr(sim.threading, "Thread", InterruptedThread)
    monkeypatch.setattr(sim, "Sink", HeldSink)
    topics = _record_topics(monkeypatch)
    path = tmp_path / "stored.txt"
    cfg = SimConfig(
        scheme=IdScheme.ULID, producers=2, events_per_producer=200, partitions=2, consumers=2,
        persist_path=str(path),
    )
    try:
        with pytest.raises(KeyboardInterrupt):
            run_simulation(cfg)
        assert [t.name for t in consumers if t.is_alive()] == []
    finally:  # a consumer left polling would keep the test process from exiting
        for topic in topics:
            topic.close()
        for t in consumers:
            t.join(5)
    (sink,) = sinks
    assert sink.held == {"consumer-0", "consumer-1"}
    assert len(path.read_text().splitlines()) == len(sink.stored) > 0


def test_consumers_past_the_last_partition_change_nothing(tmp_path):
    def run(consumers):
        path = tmp_path / f"stored-{consumers}.txt"
        cfg = SimConfig(
            scheme=IdScheme.ULID,
            producers=8,
            events_per_producer=300,
            partitions=4,
            consumers=consumers,
            seed=19,
            deterministic=True,
            persist_path=str(path),
        )
        return run_simulation(cfg), path.read_bytes()

    assert run(8) == run(4)


def test_consumed_total_counts_committed_offsets_not_returned_batches(monkeypatch):
    # A consume that advances the offset but loses an event on the way to the
    # sink: the events were consumed, so the report must not call them stored.
    consume = Topic.consume
    monkeypatch.setattr(Topic, "consume", lambda *args: consume(*args)[1:])
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=50,
        partitions=2,
        consumers=1,
        seed=7,
        deterministic=True,
    )
    report = run_simulation(cfg)
    assert report.consumed_total == report.events_total == 100
    assert report.stored_total < 100
    assert not report.conserved


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_event_lost_before_the_topic_raises(monkeypatch, deterministic):
    # Topic, offsets and sink all agree on 99 events, so the report alone
    # would read "conserved"; the run must count against what was produced.
    publish = Topic.publish

    def dropping(topic, event):
        if (event.producer, event.seq) != (0, 1):
            return publish(topic, event)
        return 0, 0

    monkeypatch.setattr(Topic, "publish", dropping)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=50,
        partitions=2,
        consumers=1,
        deterministic=deterministic,
    )
    with pytest.raises(EventCountMismatch, match="producers made 100 events, but the topic holds 99"):
        run_simulation(cfg)
    assert issubclass(EventCountMismatch, RuntimeError)


# Entry points an outside tracer wraps by attribute, each on the module or
# class that defines it. A call that bypasses one of them goes untraced.
TRACED_ENTRY_POINTS = [
    (SeededEntropy, "next_bits"),
    (core, "_draw"),
    (core, "next_monotonic_ulid"),
    (codec, "ulid_encode"),
    (sim, "partition_for"),
    (Topic, "publish"),
    (Topic, "consume"),
    (Sink, "store"),
    (sim, "verify_ordering"),
]


def _count_traced_calls(monkeypatch):
    """Wrap every traced entry point with a thread-safe call counter."""
    calls, lock = collections.Counter(), threading.Lock()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            with lock:
                calls[name] += 1
                if name == "consume" and result:
                    calls["consume non-empty"] += 1
            return result

        return wrapper

    for owner, name in TRACED_ENTRY_POINTS:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def test_deterministic_run_calls_every_traced_entry_point(monkeypatch):
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=8,
        events_per_producer=125,
        partitions=4,
        consumers=4,
        seed=1,
        deterministic=True,
    )
    unwrapped = run_simulation(cfg)
    calls = _count_traced_calls(monkeypatch)
    assert run_simulation(cfg) == unwrapped
    for name in ("next_bits", "next_monotonic_ulid", "ulid_encode", "partition_for", "publish"):
        assert calls[name] == 1000, name
    assert calls["_draw"] == 0
    assert calls["verify_ordering"] == 1
    # Each round's drain stores its batches in one call; the tail drain
    # after the last round finds every partition empty and stores nothing.
    assert calls["consume non-empty"] == 442
    assert calls["store"] == 125


def test_threaded_run_calls_every_traced_entry_point(monkeypatch):
    # Producer threads publish through the topic's publish, bound when the
    # run starts, so a class-level wrap installed before the run sees every
    # event. Producers draw from the OS, not a seeded source. OS draws,
    # consumes and stores follow the real clock and the thread timing, so
    # only their presence is checked.
    calls = _count_traced_calls(monkeypatch)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=8, events_per_producer=125, partitions=4, consumers=4)
    report = run_simulation(cfg)
    assert report.conserved and report.events_total == report.unique_ids == 1000
    for name in ("next_monotonic_ulid", "ulid_encode", "partition_for", "publish"):
        assert calls[name] == 1000, name
    assert calls["verify_ordering"] == 1
    assert calls["next_bits"] == 0
    assert calls["_draw"] >= 8 and calls["consume non-empty"] >= 1 and calls["store"] >= 1


def _count_os_draws(monkeypatch):
    """Wrap core's OS draw with a thread-safe recorder of the bytes each call asks for."""
    sizes, lock, draw = [], threading.Lock(), core._draw

    def counting(n):
        with lock:
            sizes.append(n)
        return draw(n)

    monkeypatch.setattr(core, "_draw", counting)
    return sizes


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
@pytest.mark.parametrize("scheme", list(IdScheme), ids=lambda scheme: scheme.cli_name)
def test_threaded_producers_draw_from_the_os(monkeypatch, scheme, deterministic):
    draws = _count_os_draws(monkeypatch)
    cfg = SimConfig(
        scheme=scheme, producers=4, events_per_producer=50, partitions=2, consumers=2, deterministic=deterministic
    )
    report = run_simulation(cfg)
    assert report.conserved and report.unique_ids == 200
    if deterministic:
        assert draws == []  # every bit comes from SeededEntropy
    elif scheme is IdScheme.ULID:
        # The monotonic ULID draws only for a producer's fresh millisecond.
        assert 4 <= len(draws) <= 200 and set(draws) == {10}
    else:  # one fresh draw per id, nothing pooled
        assert draws == [16 if scheme is IdScheme.UUID_V4 else 10] * 200


def test_full_drain_conserves_multiset():
    for topic in both_topics(4):
        rng = SeededEntropy(99)
        clock = FixedClock(5_000)
        state = MonotonicState()
        published = []
        for seq in range(500):
            text = ulid_encode(next_monotonic_ulid(state, clock, rng))
            event = make_event(text, seq=seq)
            topic.publish(event)
            published.append(text)
        drained = []
        for p in range(4):
            while True:
                batch = topic.consume(p)
                if not batch:
                    break
                drained.extend(e.id for e in batch)
        assert collections.Counter(drained) == collections.Counter(published)


def test_sink_counts_duplicates_and_persists(tmp_path):
    path = tmp_path / "ids.txt"
    sink = Sink(path)
    sink.store([make_event("A" * 26), make_event("B" * 26), make_event("A" * 26)])
    sink.close()
    assert sink.duplicate_count == 1
    assert sink.insertions == 3
    assert len(sink.stored) == 2
    assert path.read_text() == "A" * 26 + "\n" + "B" * 26 + "\n" + "A" * 26 + "\n"


def _monotonic_stream(producer, count, seed, clock):
    rng = SeededEntropy(seed)
    state = MonotonicState()
    return [
        make_event(ulid_encode(next_monotonic_ulid(state, clock, rng)), producer=producer, seq=i)
        for i in range(count)
    ]


def test_verify_ordering_single_producer_clean():
    events = _monotonic_stream(0, 200, seed=1, clock=FixedClock(77))
    assert verify_ordering([events], IdScheme.ULID) == 0


def test_verify_ordering_rejects_uuidv4():
    with pytest.raises(UnsupportedScheme):
        verify_ordering([[]], IdScheme.UUID_V4)


def test_verify_ordering_interleaved_producers():
    a = _monotonic_stream(0, 50, seed=1, clock=FixedClock(10))
    b = _monotonic_stream(1, 50, seed=2, clock=FixedClock(10))
    interleaved = [x for pair in zip(a, b) for x in pair]
    assert verify_ordering([interleaved], IdScheme.ULID) == 0


def test_verify_ordering_counts_every_reversed_pair():
    # Reversed streams put every same-producer pair out of order, so the
    # count equals the number of pairs compared: 199 for one producer's 200
    # events, 49 + 49 for two interleaved producers of 50.
    events = _monotonic_stream(0, 200, seed=1, clock=FixedClock(77))
    assert verify_ordering([events[::-1]], IdScheme.ULID) == 199
    a = _monotonic_stream(0, 50, seed=1, clock=FixedClock(10))[::-1]
    b = _monotonic_stream(1, 50, seed=2, clock=FixedClock(10))[::-1]
    interleaved = [x for pair in zip(a, b) for x in pair]
    assert verify_ordering([interleaved], IdScheme.ULID) == 98


def _naive_violations(partition_logs, ordered_chars):
    """Events whose ordered prefix sorts below the producer's previous one in its partition."""
    count = 0
    for log in partition_logs:
        for i, event in enumerate(log):
            earlier = [e for e in log[:i] if e.producer == event.producer]
            if earlier and event.id[:ordered_chars] < earlier[-1].id[:ordered_chars]:
                count += 1
    return count


# Values from a few milliseconds with mostly tiny random parts, so equal
# timestamps, equal ids and reversed pairs all come up often.
_ORDERING_VALUES = st.builds(
    lambda millis, rand: millis << 80 | rand,
    st.integers(0, 3),
    st.integers(0, 3) | st.integers(0, RANDOM80_MAX),
)


@pytest.mark.parametrize("scheme", [IdScheme.ULID, IdScheme.UUID_V7], ids=lambda s: s.cli_name)
@settings(deadline=None)
@given(logs=st.lists(st.lists(st.tuples(_ORDERING_VALUES, st.integers(0, 2)), max_size=30), max_size=4))
@example(logs=[])
@example(logs=[[]])
@example(logs=[[(1 << 80 | r, 0) for r in range(5)]])  # one producer, in order
@example(logs=[[(m << 80 | r, 0) for m in (3, 1) for r in (2, 1)]])  # one producer, reversed
@example(logs=[[(1 << 80 | 5, 0), (1 << 80 | 2, 0)], [(2 << 80, 1), (2 << 80, 1)]])  # equal prefixes
def test_verify_ordering_matches_a_naive_count(scheme, logs):
    # ULID compares whole ids, UUIDv7 only its 13-character millisecond
    # prefix, under which the equal-prefix example counts nothing.
    encode = ulid_encode if scheme is IdScheme.ULID else uuid_format
    partition_logs = [
        [make_event(encode(value), producer, seq) for seq, (value, producer) in enumerate(log)] for log in logs
    ]
    assert verify_ordering(partition_logs, scheme) == _naive_violations(partition_logs, scheme.ordered_chars)


def _uuidv7_text(millis, seed):
    return uuid_format(generate_uuidv7(FixedClock(millis), SeededEntropy(seed)))


def test_verify_ordering_uuidv7_compares_milliseconds_only():
    # Plain UUIDv7 puts random bits right after the millisecond timestamp, so
    # two ids of one millisecond may come in either order.
    same_ms = sorted((_uuidv7_text(5_000, 1), _uuidv7_text(5_000, 2)), reverse=True)
    swapped = [make_event(text, seq=i) for i, text in enumerate(same_ms)]
    assert verify_ordering([swapped], IdScheme.UUID_V7) == 0

    later_first = [make_event(_uuidv7_text(5_001, 1), seq=0), make_event(_uuidv7_text(5_000, 2), seq=1)]
    assert verify_ordering([later_first], IdScheme.UUID_V7) == 1


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(scheme=IdScheme.ULID, producers=0)
    with pytest.raises(ValueError):
        SimConfig(scheme=IdScheme.ULID, partitions=0)
    for interval in (-1, float("nan"), 1e300):
        with pytest.raises(ValueError):
            SimConfig(scheme=IdScheme.ULID, produce_interval=interval)
    with pytest.raises(ValueError, match="deterministic"):
        SimConfig(scheme=IdScheme.ULID, produce_interval=0.005, deterministic=True)
    # Producer i draws from seed + i, so a negative seed would give some
    # producers the streams of others' positive twins: false duplicates.
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        SimConfig(scheme=IdScheme.ULID, seed=-3)
    # Threaded producers draw from the OS, so a seed there would replay nothing.
    with pytest.raises(ValueError, match="seed must be 0 in threaded mode, which draws from the OS"):
        SimConfig(scheme=IdScheme.ULID, seed=3)
    SimConfig(scheme=IdScheme.ULID, seed=3, deterministic=True)
    SimConfig(scheme=IdScheme.ULID, produce_interval=0.005)


def test_sim_seed_without_deterministic_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sim", "--scheme", "ulid", "--seed", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "uidlab sim: error: seed must be 0 in threaded mode, which draws from the OS"


def test_single_producer_single_partition_run():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=1,
        events_per_producer=100,
        partitions=1,
        consumers=1,
        seed=3,
        deterministic=True,
    )
    report = run_simulation(cfg)
    assert report.events_total == 100
    assert report.duplicate_count == 0
    assert report.per_partition_order_ok
    assert report.conserved


def test_deterministic_replay_is_identical():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=3,
        events_per_producer=400,
        partitions=4,
        consumers=2,
        seed=11,
        deterministic=True,
    )
    assert run_simulation(cfg) == run_simulation(cfg)


def test_deterministic_uuidv7_ordering_clean():
    # One event per producer per virtual millisecond: timestamps strictly rise.
    cfg = SimConfig(
        scheme=IdScheme.UUID_V7,
        producers=2,
        events_per_producer=300,
        partitions=3,
        consumers=3,
        seed=5,
        deterministic=True,
    )
    report = run_simulation(cfg)
    assert report.ordering_checked
    assert report.ordering_violations == 0
    assert report.conserved


@pytest.mark.parametrize("consumers", [1, 2])
def test_threaded_consumers_owning_several_partitions_store_every_event_once(tmp_path, consumers):
    # Each consumer owns four or two of the four partitions, so one drain
    # stores the batches of several partitions in one call.
    path = tmp_path / "stored.txt"
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=4,
        events_per_producer=2000,
        partitions=4,
        consumers=consumers,
        persist_path=str(path),
    )
    reports = []
    _with_switch_interval(lambda: reports.append(run_simulation(cfg)))
    (report,) = reports
    assert report.conserved
    assert report.events_total == report.unique_ids == 8000
    assert report.duplicate_count == 0
    lines = path.read_text().splitlines()
    assert len(lines) == len(set(lines)) == 8000


def test_threaded_run_integrity():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=4,
        events_per_producer=2000,
        partitions=4,
        consumers=2,
    )
    report = run_simulation(cfg)
    assert report.events_total == 8000
    assert report.conserved
    assert report.duplicate_count == 0
    assert report.unique_ids == 8000
    assert report.per_partition_order_ok
    assert report.effective_mbps > 0


def test_paced_threaded_run_sleeps_between_events():
    cfg = SimConfig(scheme=IdScheme.ULID, producers=2, events_per_producer=20, produce_interval=0.001)
    report = run_simulation(cfg)
    assert report.conserved
    assert report.events_total == 40
    # Each producer sleeps the interval after each of its 20 events.
    assert report.elapsed_seconds >= 0.02


def test_threaded_uuidv7_run_has_no_ordering_violations():
    cfg = SimConfig(
        scheme=IdScheme.UUID_V7,
        producers=4,
        events_per_producer=5000,
        partitions=4,
        consumers=4,
    )
    report = run_simulation(cfg)
    assert report.ordering_checked
    assert report.ordering_violations == 0
    assert report.conserved


def _record_sinks(monkeypatch):
    """Make run_simulation's sinks a subclass that lists its instances; return the list."""
    sinks = []

    class RecordingSink(Sink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sinks.append(self)

    monkeypatch.setattr(sim, "Sink", RecordingSink)
    return sinks


def _record_topics(monkeypatch):
    """Make run_simulation's topics a subclass that lists its instances; return the list."""
    topics = []

    class RecordingTopic(Topic):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            topics.append(self)

    monkeypatch.setattr(sim, "Topic", RecordingTopic)
    return topics


def _fail_at(monkeypatch, producer, seq):
    """Make publishing the event ``(producer, seq)`` raise, on whichever thread publishes it."""
    publish = Topic.publish

    def failing(topic, event):
        if (event.producer, event.seq) == (producer, seq):
            raise RuntimeError("injected producer failure")
        return publish(topic, event)

    monkeypatch.setattr(Topic, "publish", failing)


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_worker_crash_raises_and_closes_sink(monkeypatch, tmp_path, deterministic):
    _fail_at(monkeypatch, producer=1, seq=10)
    sinks = _record_sinks(monkeypatch)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=100,
        partitions=2,
        consumers=1,
        deterministic=deterministic,
        persist_path=str(tmp_path / "stored.txt"),
    )
    with pytest.raises(RuntimeError, match="injected producer failure"):
        run_simulation(cfg)
    (sink,) = sinks
    assert sink._file is None


def test_uuidv4_run_skips_ordering():
    cfg = SimConfig(
        scheme=IdScheme.UUID_V4,
        producers=2,
        events_per_producer=100,
        partitions=2,
        consumers=1,
        seed=9,
        deterministic=True,
    )
    report = run_simulation(cfg)
    assert not report.ordering_checked
    assert not report.per_partition_order_ok


# Producer-0's second mint overflows ``overflows`` times in a row, then succeeds.
@pytest.mark.parametrize("overflows", [1, 2], ids=["one-overflow", "two-overflows"])
def test_producer_recovers_from_random_overflow(monkeypatch, overflows):
    real_sleep, recorded = time.sleep, []

    def sleep(seconds):  # the consumer's idle polls still sleep
        if threading.current_thread().name == "producer-0":
            recorded.append(seconds)
        else:
            real_sleep(seconds)

    next_ulid, calls = core.next_monotonic_ulid, []

    def overflowing(state, clock, rng):
        calls.append(state)
        if 2 <= len(calls) <= 1 + overflows:
            raise RandomOverflow("injected overflow")
        return next_ulid(state, clock, rng)

    monkeypatch.setattr(sim.time, "sleep", sleep)
    monkeypatch.setattr(core, "next_monotonic_ulid", overflowing)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=1, events_per_producer=2, partitions=1, consumers=1)
    report = run_simulation(cfg)
    assert recorded == [0.001] * overflows  # one millisecond per overflow, no clock poll
    assert len(calls) == 2 + overflows
    assert report.overflow_waits == overflows and report.conserved


def test_producer_waits_out_an_exhausted_millisecond(monkeypatch):
    next_ulid = core.next_monotonic_ulid

    def exhausting(state, clock, rng):
        value = next_ulid(state, clock, rng)
        state.last_random = RANDOM80_MAX  # the next id of this millisecond overflows
        return value

    monkeypatch.setattr(core, "next_monotonic_ulid", exhausting)
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=1, events_per_producer=3, partitions=1, consumers=1)
    report = run_simulation(cfg)
    assert report.conserved and report.per_partition_order_ok
    (topic,) = topics
    # Every id after the first overflows unless the clock has ticked, so each has a later millisecond.
    stamps = [ulid_decode(event.id) >> 80 for event in topic.partition_log(0)]
    assert stamps[0] < stamps[1] < stamps[2]


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_threaded_minters_read_the_default_clock(monkeypatch, deterministic):
    next_ulid, clocks = core.next_monotonic_ulid, []

    def recording(state, clock, rng):
        clocks.append(clock)
        return next_ulid(state, clock, rng)

    monkeypatch.setattr(core, "next_monotonic_ulid", recording)
    cfg = SimConfig(
        scheme=IdScheme.ULID, producers=2, events_per_producer=3, partitions=2, consumers=2, deterministic=deterministic
    )
    assert run_simulation(cfg).conserved
    assert len(clocks) == 6
    assert {type(clock) for clock in clocks} == {FixedClock if deterministic else type(None)}


def test_threaded_run_reports_an_injected_random_overflow(monkeypatch):
    next_ulid, calls, lock = core.next_monotonic_ulid, [], threading.Lock()

    def overflowing(state, clock, rng):
        with lock:  # two producer threads mint at once; exactly one call overflows
            calls.append(state)
            injected = len(calls) == 5
        if injected:
            raise RandomOverflow("injected overflow")
        return next_ulid(state, clock, rng)

    monkeypatch.setattr(core, "next_monotonic_ulid", overflowing)
    cfg = SimConfig(scheme=IdScheme.ULID, producers=2, events_per_producer=20, partitions=2, consumers=2)
    report = run_simulation(cfg)
    assert len(calls) == 41
    assert report.overflow_waits == 1
    assert report.conserved and report.events_total == 40
    assert report.unique_ids == 40 and report.per_partition_order_ok


def test_deterministic_producer_raises_random_overflow_instead_of_waiting(monkeypatch, tmp_path):
    # The FixedClock never ticks inside a round, so a poll would never end; a
    # daemon thread joined with a timeout fails the test instead of hanging it.
    next_ulid, calls = core.next_monotonic_ulid, []

    def overflowing(state, clock, rng):
        calls.append(state)
        if len(calls) == 7:
            raise RandomOverflow("injected overflow")
        return next_ulid(state, clock, rng)

    reads = []

    class CountingClock(FixedClock):
        def now(self):
            reads.append(self.millis)
            return self.millis

    monkeypatch.setattr(core, "next_monotonic_ulid", overflowing)
    monkeypatch.setattr(sim, "FixedClock", CountingClock)
    sinks = _record_sinks(monkeypatch)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=3,
        events_per_producer=10,
        partitions=2,
        consumers=2,
        deterministic=True,
        persist_path=str(tmp_path / "stored.txt"),
    )
    raised = []

    def run():
        try:
            run_simulation(cfg)
        except RandomOverflow as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "the deterministic run polled a clock that never ticks"
    assert [str(exc) for exc in raised] == ["injected overflow"]
    assert len(calls) == 7
    (sink,) = sinks
    assert sink._file is None
    # One read per id minted before the overflow, none after: the rounds never poll.
    assert reads == [sim._VIRTUAL_EPOCH_MS] * 3 + [sim._VIRTUAL_EPOCH_MS + 1] * 3


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_each_scheduler_mints_once_per_event_and_publishes_events(monkeypatch, deterministic):
    next_ulid, calls = core.next_monotonic_ulid, []

    def counting(state, clock, rng):
        calls.append(state)
        return next_ulid(state, clock, rng)

    monkeypatch.setattr(core, "next_monotonic_ulid", counting)
    topics = _record_topics(monkeypatch)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=3,
        events_per_producer=40,
        partitions=4,
        consumers=2,
        deterministic=deterministic,
    )
    report = run_simulation(cfg)
    assert len(calls) == 120 and len(set(map(id, calls))) == 3
    assert report.conserved and report.events_total == 120 and report.overflow_waits == 0
    (topic,) = topics
    events = [event for p in range(topic.partitions) for event in topic.partition_log(p)]
    assert all(type(event) is Event for event in events)
    assert sorted((event.producer, event.seq) for event in events) == [(i, s) for i in range(3) for s in range(40)]
    if deterministic:
        # Round s stamps every producer's event s at virtual millisecond s.
        for event in events:
            assert ulid_decode(event.id) >> 80 == sim._VIRTUAL_EPOCH_MS + event.seq


def test_report_csv_shape(capsys):
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=1,
        events_per_producer=10,
        partitions=1,
        consumers=1,
        deterministic=True,
    )
    report = run_simulation(cfg)
    argv = ["sim", "--scheme", "ulid", "--producers", "1", "--events", "10"]
    assert cli.main([*argv, "--partitions", "1", "--consumers", "1", "--deterministic", "--csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[-1] == "clock"
    assert row.startswith("ulid,1,1,10,10,10,10,0,0,")
    assert row.endswith(f",{report.elapsed_seconds},{report.effective_mbps},virtual")


def test_sim_persistence_file(tmp_path):
    path = tmp_path / "stored.txt"
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=50,
        partitions=2,
        consumers=1,
        seed=13,
        deterministic=True,
        persist_path=str(path),
    )
    report = run_simulation(cfg)
    lines = path.read_text().splitlines()
    assert len(lines) == report.stored_total == 100
    assert all(len(line) == 26 for line in lines)


# Reports and stored-id digests of 600 producers x 2 events over 2 partitions
# and 1 consumer, seed 17. Each round publishes about 300 events per
# partition against a 256-event consume batch, so the final drain takes a
# round of its own. A change to any pinned value breaks replay
# compatibility with earlier versions.
GOLDEN_RUNS = {
    IdScheme.ULID: (
        dict(ordering_checked=True, effective_mbps=166.4),
        "ba428620052095bddc7b9e46420d9012c7a042ccaa777ec340b98df1c98ba9b1",
    ),
    IdScheme.UUID_V7: (
        dict(ordering_checked=True, effective_mbps=230.4),
        "24c0393e63d2b51557c4285b066e7141bf031363366a01904e3159517cb2e2cf",
    ),
    IdScheme.UUID_V4: (
        dict(ordering_checked=False, effective_mbps=230.4),
        "2a5f9301272527c35f8a5d80e84bffa63da6a3dd409d68bdf48f8062c94baa20",
    ),
}


@pytest.mark.parametrize("scheme", list(GOLDEN_RUNS), ids=lambda s: s.cli_name)
def test_golden_deterministic_replay(scheme, tmp_path):
    path = tmp_path / "stored.txt"
    cfg = SimConfig(
        scheme=scheme,
        producers=600,
        events_per_producer=2,
        partitions=2,
        consumers=1,
        seed=17,
        deterministic=True,
        persist_path=str(path),
    )
    fields, digest = GOLDEN_RUNS[scheme]
    expected = SimReport(
        scheme=scheme,
        producers=600,
        partitions=2,
        events_total=1200,
        consumed_total=1200,
        stored_total=1200,
        unique_ids=1200,
        duplicate_count=0,
        ordering_violations=0,
        overflow_waits=0,
        elapsed_seconds=0.003,
        **fields,
    )
    assert run_simulation(cfg) == expected
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# Digests of the benchmark's sim-det-ulid run: 8 producers x 125 events over
# 4 partitions and 4 consumers, seed 1. The first is of the persist file, the
# second of the sink's stored ids in insertion order as "id,producer,seq"
# lines. A change to either breaks replay compatibility with earlier versions.
BENCHMARK_SHAPE_DIGESTS = (
    "ad3ebd67cb0a1d726ede3aa85a1a40db62fb0ffef4adea076c96164d04475750",
    "fc36fb5819c93c85bf8cda496c1c8f8d57377e5c4d981faa2fe8d2e89520b0a3",
)


def test_golden_deterministic_replay_at_the_benchmark_shape(monkeypatch, tmp_path):
    sinks = _record_sinks(monkeypatch)
    path = tmp_path / "stored.txt"
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=8,
        events_per_producer=125,
        partitions=4,
        consumers=4,
        seed=1,
        deterministic=True,
        persist_path=str(path),
    )
    report = run_simulation(cfg)
    assert report.conserved and report.unique_ids == 1000 and report.ordering_violations == 0
    (sink,) = sinks
    stored = "".join(f"{id_},{producer},{seq}\n" for id_, (producer, seq) in sink.stored.items())
    digests = (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(stored.encode("ascii")).hexdigest(),
    )
    assert digests == BENCHMARK_SHAPE_DIGESTS

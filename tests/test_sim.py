import collections
import hashlib
import sys
import threading
import time

import pytest

from uidlab import sim
from uidlab.codec import ulid_decode, ulid_encode, uuid_format
from uidlab.core import (
    FixedClock,
    IdScheme,
    MonotonicState,
    RANDOM80_MAX,
    SeededEntropy,
    UnsupportedScheme,
    generate_uuidv7,
    next_monotonic_ulid,
)
from uidlab.sim import (
    Event,
    SIM_CSV_HEADER,
    SimConfig,
    SimReport,
    Sink,
    Topic,
    TopicClosed,
    UnknownPartition,
    _Producer,
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
    topic = Topic("t", 1)
    for i in range(3):
        topic.publish(make_event(f"{i:026d}", seq=i))
    first = topic.consume(0, 2)
    second = topic.consume(0, 2)
    third = topic.consume(0, 2)
    assert [e.seq for e in first] == [0, 1]
    assert [e.seq for e in second] == [2]
    assert third == []


def test_consume_empty_partition():
    topic = Topic("t", 2)
    assert topic.consume(1, 100) == []


def test_unknown_partition():
    topic = Topic("t", 2)
    with pytest.raises(UnknownPartition):
        topic.consume(2, 1)


@pytest.mark.parametrize("partition", [-1, 2])
@pytest.mark.parametrize("accessor", ["end_offset", "committed", "partition_log"])
def test_accessors_reject_unknown_partition(accessor, partition):
    topic = Topic("t", 2)
    topic.publish(make_event("A" * 26))
    with pytest.raises(UnknownPartition):
        getattr(topic, accessor)(partition)


def test_publish_after_close():
    topic = Topic("t", 1)
    topic.close()
    with pytest.raises(TopicClosed):
        topic.publish(make_event("A" * 26))



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

def test_full_drain_conserves_multiset():
    topic = Topic("t", 4)
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
            batch = topic.consume(p, 64)
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
    report = verify_ordering([events], IdScheme.ULID)
    assert report.ok
    assert report.pairs_checked == 199


def test_verify_ordering_rejects_uuidv4():
    with pytest.raises(UnsupportedScheme):
        verify_ordering([[]], IdScheme.UUID_V4)


def test_verify_ordering_interleaved_producers():
    a = _monotonic_stream(0, 50, seed=1, clock=FixedClock(10))
    b = _monotonic_stream(1, 50, seed=2, clock=FixedClock(10))
    interleaved = [x for pair in zip(a, b) for x in pair]
    report = verify_ordering([interleaved], IdScheme.ULID)
    assert report.ok
    assert report.pairs_checked == 98


def test_verify_ordering_reports_position():
    events = [
        make_event("00000000000000000000000002", seq=0),
        make_event("00000000000000000000000001", seq=1),
    ]
    report = verify_ordering([events], IdScheme.ULID)
    assert not report.ok
    violation = report.violations[0]
    assert (violation.partition, violation.producer, violation.position) == (0, 0, 1)


def _uuidv7_text(millis, seed):
    return uuid_format(generate_uuidv7(FixedClock(millis), SeededEntropy(seed)))


def test_verify_ordering_uuidv7_compares_milliseconds_only():
    # Plain UUIDv7 puts random bits right after the millisecond timestamp, so
    # two ids of one millisecond may come in either order.
    same_ms = sorted((_uuidv7_text(5_000, 1), _uuidv7_text(5_000, 2)), reverse=True)
    swapped = [make_event(text, seq=i) for i, text in enumerate(same_ms)]
    assert verify_ordering([swapped], IdScheme.UUID_V7).ok

    later_first = [make_event(_uuidv7_text(5_001, 1), seq=0), make_event(_uuidv7_text(5_000, 2), seq=1)]
    report = verify_ordering([later_first], IdScheme.UUID_V7)
    assert len(report.violations) == 1


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(scheme=IdScheme.ULID, producers=0)
    with pytest.raises(ValueError):
        SimConfig(scheme=IdScheme.ULID, partitions=0)
    with pytest.raises(ValueError):
        SimConfig(scheme=IdScheme.ULID, produce_interval=-1)


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


def test_threaded_run_integrity():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=4,
        events_per_producer=2000,
        partitions=4,
        consumers=2,
        seed=21,
    )
    report = run_simulation(cfg)
    assert report.events_total == 8000
    assert report.conserved
    assert report.duplicate_count == 0
    assert report.unique_ids == 8000
    assert report.per_partition_order_ok
    assert report.effective_mbps > 0


def test_threaded_uuidv7_run_has_no_ordering_violations():
    cfg = SimConfig(
        scheme=IdScheme.UUID_V7,
        producers=4,
        events_per_producer=5000,
        partitions=4,
        consumers=4,
        seed=1,
    )
    report = run_simulation(cfg)
    assert report.ordering_checked
    assert report.ordering_violations == 0
    assert report.conserved


def _fail_at(monkeypatch, producer, seq):
    make_event = _Producer.make_event

    def failing(self, s):
        if self.index == producer and s == seq:
            raise RuntimeError("injected producer failure")
        return make_event(self, s)

    monkeypatch.setattr(_Producer, "make_event", failing)


@pytest.mark.parametrize("deterministic", [False, True], ids=["threaded", "deterministic"])
def test_worker_crash_raises_and_closes_sink(monkeypatch, tmp_path, deterministic):
    _fail_at(monkeypatch, producer=1, seq=10)
    sinks = []

    class RecordingSink(Sink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sinks.append(self)

    monkeypatch.setattr(sim, "Sink", RecordingSink)
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=2,
        events_per_producer=100,
        partitions=2,
        consumers=1,
        seed=4,
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
    assert "ordering" not in report.render_text()


def test_producer_recovers_from_random_overflow():
    cfg = SimConfig(scheme=IdScheme.ULID, producers=1, events_per_producer=1, seed=0)
    clock = FixedClock(1_000)
    producer = _Producer(0, cfg, clock)
    producer.make_event(0)
    producer.state.last_random = RANDOM80_MAX
    event = producer.make_event(1)
    assert producer.overflow_waits == 1
    assert ulid_decode(event.id) >> 80 == 1_001


def test_report_csv_shape():
    cfg = SimConfig(
        scheme=IdScheme.ULID,
        producers=1,
        events_per_producer=10,
        partitions=1,
        consumers=1,
        deterministic=True,
    )
    report = run_simulation(cfg)
    lines = report.render_csv().splitlines()
    assert lines[0] == SIM_CSV_HEADER
    assert lines[1].startswith("ulid,1,1,10,10,10,10,0,0,")


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

import random

import pytest

from uidlab.bench import (
    BenchConfig,
    CSV_HEADER,
    EmptyInput,
    HEADLINE_RATIO_NOTE,
    MetricsSample,
    SimulatedTimer,
    TimerResolutionTooCoarse,
    ZeroDuration,
    bandwidth_mbps,
    metrics_filename,
    read_metrics_csv,
    run_generation_bench,
    serialized_size,
    summarize,
    write_metrics_csv,
)
from uidlab.core import FixedClock, IdScheme, SeededEntropy


def test_serialized_size_two_bytes_per_char():
    assert serialized_size(IdScheme.ULID, 2) == 52
    assert serialized_size(IdScheme.UUID_V4, 2) == 72
    assert serialized_size(IdScheme.UUID_V7, 2) == 72


def test_serialized_size_one_byte_per_char():
    assert serialized_size(IdScheme.ULID, 1) == 26
    assert serialized_size(IdScheme.UUID_V4, 1) == 36


def test_serialized_size_rejects_other_widths():
    with pytest.raises(ValueError):
        serialized_size(IdScheme.ULID, 3)


def test_bandwidth_definition():
    assert bandwidth_mbps(10**6, 1.0) == 1.0
    assert abs(bandwidth_mbps(52 * 8, 0.001) - 0.416) < 1e-12
    assert bandwidth_mbps(0, 1.0) == 0.0


def test_bandwidth_zero_duration():
    with pytest.raises(ZeroDuration):
        bandwidth_mbps(100, 0.0)
    with pytest.raises(ZeroDuration):
        bandwidth_mbps(100, -1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(scheme=IdScheme.ULID, total_samples=0)
    with pytest.raises(ValueError):
        BenchConfig(scheme=IdScheme.ULID, ids_per_sample=0)
    with pytest.raises(ValueError):
        BenchConfig(scheme=IdScheme.ULID, bytes_per_char=4)
    # time.sleep cannot take 1e300 s; the config refuses it instead of crashing mid-run.
    for interval in (-1, float("nan"), 1e300):
        with pytest.raises(ValueError):
            BenchConfig(scheme=IdScheme.ULID, sample_interval=interval)


def _virtual_run(scheme, samples=10, ids=20, seed=1):
    cfg = BenchConfig(scheme=scheme, sample_interval=0.0, total_samples=samples, ids_per_sample=ids)
    return run_generation_bench(
        cfg,
        clock=FixedClock(1_000_000),
        rng=SeededEntropy(seed),
        timer_ns=SimulatedTimer(step_ns=2500),
        sleep=lambda _s: None,
    )


def test_run_produces_requested_sample_count():
    assert len(_virtual_run(IdScheme.ULID, samples=10)) == 10


def test_run_metrics_are_positive():
    for sample in _virtual_run(IdScheme.UUID_V7, samples=25):
        assert sample.duration_micros > 0
        assert sample.bandwidth_mbps > 0


def test_payload_bits_accounting():
    for scheme, chars in ((IdScheme.ULID, 26), (IdScheme.UUID_V4, 36)):
        samples = _virtual_run(scheme, samples=3, ids=20)
        assert all(s.payload_bits == 20 * chars * 2 * 8 for s in samples)


def test_virtual_runs_replay_identically():
    assert _virtual_run(IdScheme.ULID) == _virtual_run(IdScheme.ULID)


def test_real_timer_smoke():
    cfg = BenchConfig(
        scheme=IdScheme.ULID, sample_interval=0.0, total_samples=3, ids_per_sample=50
    )
    samples = run_generation_bench(cfg)
    assert len(samples) == 3
    assert all(s.duration_micros > 0 for s in samples)


def test_simulated_timer_refuses_a_step_below_one():
    with pytest.raises(ValueError, match="step_ns must be >= 1"):
        SimulatedTimer(0)


def test_positive_interval_sleeps_out_the_rest_of_each_sample():
    cfg = BenchConfig(scheme=IdScheme.ULID, sample_interval=0.25, total_samples=3, ids_per_sample=20)
    slept = []
    run_generation_bench(
        cfg,
        clock=FixedClock(1_000_000),
        rng=SeededEntropy(1),
        timer_ns=SimulatedTimer(step_ns=2500),
        sleep=slept.append,
    )
    # Two timer readings a batch, one step apart: each batch takes 2,500 ns.
    assert slept == [0.25 - 2500 / 1e9] * 3


def test_a_timer_that_tests_false_is_still_used():
    class FalsyTimer(SimulatedTimer):
        def __bool__(self):
            return False

    cfg = BenchConfig(scheme=IdScheme.ULID, sample_interval=0.0, total_samples=2, ids_per_sample=10)
    samples = run_generation_bench(cfg, FixedClock(1), SeededEntropy(1), timer_ns=FalsyTimer(2500), sleep=None)
    assert [s.duration_micros for s in samples] == [0.25, 0.25]


def test_timer_resolution_too_coarse():
    cfg = BenchConfig(scheme=IdScheme.ULID, sample_interval=0.0, total_samples=1, ids_per_sample=1)
    with pytest.raises(TimerResolutionTooCoarse):
        run_generation_bench(cfg, timer_ns=lambda: 42, sleep=lambda _s: None)


def test_write_metrics_csv_exact_lines(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv([MetricsSample(0, 13.25, 416, 44.88)], path)
    assert path.read_text() == "index,durationMicros,payloadBits,bandwidthMbps\n0,13.25,416,44.88\n"


def test_write_metrics_csv_refuses_empty(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(EmptyInput):
        write_metrics_csv([], path)
    assert not path.exists()


def test_metrics_csv_round_trip(tmp_path):
    samples = _virtual_run(IdScheme.UUID_V4, samples=40)
    # A real run's floats may print in exponent form, which a virtual run's never do.
    samples += [MetricsSample(40, 1e-05, 416, 1e16), MetricsSample(41, 5e-324, 416, 0.1)]
    assert [repr(x) for s in samples[-2:] for x in (s.duration_micros, s.bandwidth_mbps)] == [
        "1e-05", "1e+16", "5e-324", "0.1"
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(samples, path)
    assert read_metrics_csv(path) == samples


def test_read_metrics_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("nope\n1,2,3,4\n")
    from uidlab.bench import MalformedMetrics

    with pytest.raises(MalformedMetrics):
        read_metrics_csv(path)


def test_read_metrics_csv_rejects_bad_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n1,2,3\n")
    from uidlab.bench import MalformedMetrics

    with pytest.raises(MalformedMetrics):
        read_metrics_csv(path)


def test_read_metrics_csv_rejects_a_header_without_rows(tmp_path):
    from uidlab.bench import MalformedMetrics

    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(MalformedMetrics, match="m.csv: no data rows"):
        read_metrics_csv(path)


def test_read_metrics_csv_rejects_non_ascii_naming_the_file(tmp_path):
    from uidlab.bench import MalformedMetrics

    path = tmp_path / "m.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n0,2.5,416,166.\xe9\n")
    with pytest.raises(MalformedMetrics, match="m.csv.*not ASCII"):
        read_metrics_csv(path)


@pytest.mark.parametrize("column", ["index", "payloadBits"])
def test_read_metrics_csv_rejects_negative_counts(tmp_path, column):
    from uidlab.bench import MalformedMetrics

    row = ["0", "2.5", "416", "166.4"]
    row[CSV_HEADER.split(",").index(column)] = "-1"
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(row) + "\n")
    with pytest.raises(MalformedMetrics, match=r"m\.csv:2: index and payloadBits must be >= 0"):
        read_metrics_csv(path)
    row[CSV_HEADER.split(",").index(column)] = "0"
    path.write_text(CSV_HEADER + "\n" + ",".join(row) + "\n")
    assert read_metrics_csv(path)[0].index == 0


@pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
@pytest.mark.parametrize("column", ["durationMicros", "bandwidthMbps"])
def test_read_metrics_csv_rejects_values_report_cannot_divide_by(tmp_path, column, value):
    from uidlab.bench import MalformedMetrics

    row = ["0", "2.5", "416", "166.4"]
    row[CSV_HEADER.split(",").index(column)] = value
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(row) + "\n")
    with pytest.raises(MalformedMetrics, match="finite and > 0"):
        read_metrics_csv(path)


def test_summarize_constant_samples():
    samples = [MetricsSample(i, 5.0, 416, 10.0) for i in range(9)]
    summary = summarize(samples)
    assert summary.duration_micros.mean == 5.0
    assert summary.duration_micros.median == 5.0
    assert summary.bandwidth_mbps.p95 == 10.0


def test_summarize_simple_mean():
    samples = [MetricsSample(i, float(v), 1, float(v)) for i, v in enumerate((1, 2, 3))]
    summary = summarize(samples)
    assert summary.duration_micros.mean == 2.0
    assert summary.duration_micros.median == 2.0
    assert summary.duration_micros.min == 1.0
    assert summary.duration_micros.max == 3.0


def test_summarize_is_order_invariant():
    samples = _virtual_run(IdScheme.ULID, samples=31)
    shuffled = samples[:]
    random.Random(5).shuffle(shuffled)
    assert summarize(samples) == summarize(shuffled)


def test_summarize_refuses_empty():
    with pytest.raises(EmptyInput):
        summarize([])


def test_metrics_filenames():
    assert metrics_filename(IdScheme.ULID) == "metrics_ULID.csv"
    assert metrics_filename(IdScheme.UUID_V7) == "metrics_UUID_V7.csv"
    assert metrics_filename(IdScheme.UUID_V4) == "metrics_UUID_V4.csv"


def test_headline_note_documents_unreproduced_figures():
    assert "83.7" in HEADLINE_RATIO_NOTE
    assert "97.32" in HEADLINE_RATIO_NOTE
    assert "27.8" in HEADLINE_RATIO_NOTE

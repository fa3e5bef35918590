"""Generation-speed and transmission-size measurements per identifier scheme.

A run produces one metrics sample per interval: generate-and-serialize a
batch of identifiers under a monotonic high-resolution timer, sleep out the
rest of the interval, record the per-identifier duration in microseconds and
the producer-side bandwidth

    bandwidth_mbps = payload_bits / elapsed_seconds / 1e6

where payload_bits counts serialized characters times bytes-per-character
times eight. Two bytes per character (the in-memory width of common managed
runtimes) makes a 26-character ULID 52 bytes and a 36-character UUID 72
bytes; one byte per character models byte-oriented encodings.

Timing is batched because a single generation sits near timer resolution.
Absolute microsecond figures are hardware-specific; cross-scheme ordering
and the CSV schema are the reproducible parts.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from . import _LAZY, codec
from .codec import serialized_size
from .core import _MAX_SLEEP_S, ClockSource, IdScheme, RandomSource, ZeroDuration, _ascii_number, bandwidth_mbps

__all__ = list(_LAZY["bench"])

CSV_HEADER = "index,durationMicros,payloadBits,bandwidthMbps"

HEADLINE_RATIO_NOTE = (
    "headline figures of an 83.7% transmission-overhead reduction and a "
    "97.32% generation-speed increase for ULID circulate alongside the "
    "52-byte vs 72-byte accounting; neither follows from it (the per-"
    "identifier size reduction is 27.8%) nor from the published bandwidth "
    "averages. Only measured values and directly derived ratios are "
    "reported here."
)


class TimerResolutionTooCoarse(ValueError):
    """A whole batch ran between two identical timer readings; raise ids_per_sample."""


class EmptyInput(ValueError):
    """The operation needs at least one sample."""


class MalformedMetrics(ValueError):
    """A metrics CSV did not match the expected schema."""


@dataclass
class BenchConfig:
    """Parameters of one benchmark run.

    ``sample_interval`` is in seconds (default 500 ms); ``ids_per_sample``
    should keep a batch well inside the interval.
    """

    scheme: IdScheme
    sample_interval: float = 0.5
    total_samples: int = 2420
    ids_per_sample: int = 1000
    bytes_per_char: int = 2

    def __post_init__(self):
        if self.total_samples < 1:
            raise ValueError("total_samples must be >= 1")
        if self.ids_per_sample < 1:
            raise ValueError("ids_per_sample must be >= 1")
        if self.bytes_per_char not in (1, 2):
            raise ValueError("bytes_per_char must be 1 or 2")
        if not 0 <= self.sample_interval <= _MAX_SLEEP_S:
            raise ValueError(f"sample_interval must be in [0, {_MAX_SLEEP_S:g}] s")


@dataclass(frozen=True)
class MetricsSample:
    """One observation: per-identifier duration, payload size, bandwidth."""

    index: int
    duration_micros: float
    payload_bits: int
    bandwidth_mbps: float


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    median: float
    p95: float
    min: float
    max: float


@dataclass(frozen=True)
class BenchSummary:
    duration_micros: SummaryStats
    bandwidth_mbps: SummaryStats


class SimulatedTimer:
    """Deterministic stand-in for ``time.perf_counter_ns``.

    Every reading advances a fixed step, so batch durations, and with them
    whole runs, replay identically.
    """

    def __init__(self, step_ns: int = 1000):
        if step_ns < 1:
            raise ValueError("step_ns must be >= 1")
        self.step_ns = step_ns
        self._now_ns = 0

    def __call__(self) -> int:
        self._now_ns += self.step_ns
        return self._now_ns


def run_generation_bench(
    cfg: BenchConfig,
    clock: ClockSource | None = None,
    rng: RandomSource | None = None,
    timer_ns=None,
    sleep=None,
) -> list[MetricsSample]:
    """Run the benchmark and return one sample per interval.

    ``timer_ns`` and ``sleep`` default to the real high-resolution timer and
    ``time.sleep``; pass a :class:`SimulatedTimer` and a no-op sleep for a
    deterministic virtual-time run.
    """
    timer = timer_ns if timer_ns is not None else time.perf_counter_ns
    wait = sleep if sleep is not None else time.sleep
    mint = codec.minter(cfg.scheme, clock, rng)
    payload_bits = cfg.ids_per_sample * serialized_size(cfg.scheme, cfg.bytes_per_char) * 8

    samples = []
    for index in range(cfg.total_samples):
        start = timer()
        for _ in range(cfg.ids_per_sample):
            mint()
        elapsed_ns = timer() - start
        if elapsed_ns <= 0:
            raise TimerResolutionTooCoarse(
                f"batch of {cfg.ids_per_sample} finished within one timer tick"
            )
        elapsed_s = elapsed_ns / 1e9
        samples.append(
            MetricsSample(
                index=index,
                duration_micros=elapsed_ns / 1000 / cfg.ids_per_sample,
                payload_bits=payload_bits,
                bandwidth_mbps=bandwidth_mbps(payload_bits, elapsed_s),
            )
        )
        remaining = cfg.sample_interval - elapsed_s
        if remaining > 0:
            wait(remaining)
    return samples


def write_metrics_csv(samples, destination) -> None:
    """Write samples to ``destination`` under the fixed four-column schema.

    Floats are written in shortest round-trip form, decimal point, rows
    newline-terminated. Refuses an empty sample list before touching the
    file system.
    """
    if not samples:
        raise EmptyInput("no samples to write")
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in samples:
            fh.write(f"{s.index},{s.duration_micros!r},{s.payload_bits},{s.bandwidth_mbps!r}\n")


def read_metrics_csv(source) -> list[MetricsSample]:
    """Parse a metrics CSV written by :func:`write_metrics_csv`."""
    try:
        with open(source, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedMetrics(f"{source}: byte {exc.start} is not ASCII") from None
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedMetrics(f"{source}: expected header {CSV_HEADER!r}")
    samples = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedMetrics(f"{source}:{line_no}: expected 4 columns")
        try:
            sample = MetricsSample(*map(_ascii_number, (int, float, int, float), parts))
            if sample.index < 0 or sample.payload_bits < 0:
                raise ValueError("index and payloadBits must be >= 0")
            # Reports divide by both; NaN fails every comparison.
            if not (0 < sample.duration_micros < math.inf and 0 < sample.bandwidth_mbps < math.inf):
                raise ValueError("durationMicros and bandwidthMbps must be finite and > 0")
        except ValueError as exc:
            raise MalformedMetrics(f"{source}:{line_no}: {exc}") from None
        samples.append(sample)
    if not samples:
        raise MalformedMetrics(f"{source}: no data rows")
    return samples


def _stats(values) -> SummaryStats:
    xs = sorted(values)
    n = len(xs)
    mean = math.fsum(xs) / n
    mid = n // 2
    median = xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2
    # p95 by linear interpolation between order statistics.
    pos = 0.95 * (n - 1)
    lo = int(pos)
    p95 = xs[lo] if lo + 1 >= n else xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo])
    return SummaryStats(mean=mean, median=median, p95=p95, min=xs[0], max=xs[-1])


def summarize(samples) -> BenchSummary:
    """Descriptive statistics over duration and bandwidth, order-independent."""
    if not samples:
        raise EmptyInput("no samples to summarize")
    return BenchSummary(
        duration_micros=_stats([s.duration_micros for s in samples]),
        bandwidth_mbps=_stats([s.bandwidth_mbps for s in samples]),
    )


def metrics_filename(scheme: IdScheme) -> str:
    """Conventional output name, metrics_<SCHEME>.csv."""
    return f"metrics_{scheme.value}.csv"


def report_label(path) -> str:
    """How report names a file: the scheme's CLI name for a metrics_<SCHEME> file (the inverse of
    metrics_filename), else the file's stem by the rule of pathlib.PurePath.stem through 3.13."""
    name = os.path.basename(path)
    i = name.rfind(".")
    stem = name[:i] if 0 < i < len(name) - 1 else name
    try:
        return IdScheme.parse(stem[len("metrics_"):]).cli_name if stem.startswith("metrics_") else stem
    except ValueError:
        return stem

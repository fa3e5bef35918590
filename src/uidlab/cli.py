"""Command-line entry point: gen, encode, decode, model, bench, sim, report."""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import combinations
from pathlib import Path

from . import codec
from . import sim as sim_mod
from .core import (
    EventCountMismatch,
    IdScheme,
    MonotonicState,
    RandomOverflow,
    SeededEntropy,
    _ascii_number,
)

__all__ = ["main"]

# A run that fails with one of these exits 1 with an "error:" line; any other
# exception is a crash and keeps its traceback. bench and collision are
# imported by the commands that use them, and sim loads only when the sim
# command reads it, so the other commands start faster.
_RUN_ERRORS = (OSError, ValueError, RandomOverflow, EventCountMismatch)

# Marks a figure counted on a virtual clock (sim --deterministic, bench
# --virtual-time) in text output; the sim CSV names its clock in a column.
_VIRTUAL = " (virtual)"


def _scheme_arg(text: str) -> IdScheme:
    try:
        return IdScheme.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number(kind, low=None):
    """An argparse type for ``core._ascii_number(kind, text)`` of at least ``low``."""

    def parse(text: str):
        value = _ascii_number(kind, text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse reports a ValueError as "invalid <__name__> value: <text!r>"
    return parse


_int, _float = _number(int), _number(float)
_positive_int, _non_negative_int = _number(int, 1), _number(int, 0)


def _parse_uid_value(text: str) -> int:
    """Read ASCII decimal digits, 0x or 0X and hex digits, or 32 hex digits (read as hex)."""
    t = text.strip()
    prefixed = t[:2] in ("0x", "0X")
    digits = t[2:] if prefixed else t
    if digits and not digits.lstrip("0123456789abcdefABCDEF"):
        if prefixed or len(t) == 32:
            return int(digits, 16)
        if t.isdigit():
            return int(t)
    raise ValueError(f"invalid value {text!r}: expected decimal, 0x-prefixed or 32-digit hex")


def _make_rng(seed):
    return None if seed is None else SeededEntropy(seed)


def _usage(parser, make, *args, **kwargs):
    """Return ``make(*args, **kwargs)``; a ValueError it raises is a usage error (exit 2)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _write(header, rows, csv, widths=()) -> None:
    """Print ``header`` (when given) and ``rows`` as CSV, or as text columns padded to
    ``widths``, where a negative width left-aligns. A float reads six decimals in
    text and in full in CSV; a None cell is empty in CSV."""
    specs = [("<" if w < 0 else ">") + str(abs(w)) for w in widths]
    for row in [header, *rows] if header else rows:
        if csv:
            print(",".join("" if cell is None else str(cell) for cell in row))
        else:
            print("".join(format(c, s + ".6f" if isinstance(c, float) else s) for c, s in zip(row, specs)))


def _cmd_gen(args, parser) -> int:
    if args.monotonic and args.scheme is not IdScheme.ULID:
        parser.error("--monotonic requires --scheme ulid")
    state = MonotonicState() if args.monotonic else None
    mint = codec.minter(args.scheme, rng=_make_rng(args.seed), state=state)
    for _ in range(args.count):
        print(mint())
    return 0


def _cmd_encode(args, parser) -> int:
    encode = codec.ulid_encode if args.to == "ulid" else codec.uuid_format
    for text in args.values:
        print(encode(_parse_uid_value(text)))
    return 0


def _cmd_decode(args, parser) -> int:
    status = 0
    for text in args.values:
        try:
            print(f"{codec.decode(text):032x}")
        except codec.CodecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


def _cmd_model(args, parser) -> int:
    from . import collision

    if args.csv and not args.table:
        parser.error("--csv applies only to --table")
    if args.table and args.bits is not None:
        parser.error("--bits applies only to --count and --solve-p")
    if args.digits is not None and args.count is None:
        parser.error("--digits applies only to --count")
    if args.table:
        table = collision.risk_table()
        header = ("rate", *(s.cli_name for s in table.schemes))
        rows = [(rate, *(table.cell(rate, s).sci(2) for s in table.schemes)) for rate in table.rates]
        _write(header, rows, args.csv, (12,) + (10,) * len(table.schemes))
        for note in table.notes:
            print(f"note: {note}", file=sys.stderr if args.csv else sys.stdout)
        return 0
    if args.bits is None:
        parser.error("--bits is required with --count and --solve-p")
    if args.solve_p is not None:
        n = _usage(parser, collision.count_for_probability, args.bits, args.solve_p)
        print(f"{n:.4e}")
        if args.solve_p == 0.5 and args.bits in collision.FIFTY_PERCENT_THRESHOLD_NOTES:
            print(f"note: {collision.FIFTY_PERCENT_THRESHOLD_NOTES[args.bits]}")
        return 0
    query = _usage(parser, collision.CollisionQuery, args.bits, args.count)
    print(_usage(parser, collision.collision_prob(query).sci, args.digits or 2))
    return 0


def _cmd_bench(args, parser) -> int:
    from . import bench as bench_mod

    cfg = _usage(
        parser,
        bench_mod.BenchConfig,
        scheme=args.scheme,
        sample_interval=args.interval_ms / 1000.0,
        total_samples=args.samples,
        ids_per_sample=args.ids_per_sample,
        bytes_per_char=args.bytes_per_char,
    )
    timer = bench_mod.SimulatedTimer() if args.virtual_time else None
    sleep = (lambda _s: None) if args.virtual_time else None
    samples = bench_mod.run_generation_bench(cfg, rng=_make_rng(args.seed), timer_ns=timer, sleep=sleep)
    out = args.out or bench_mod.metrics_filename(args.scheme)
    bench_mod.write_metrics_csv(samples, out)
    summary = bench_mod.summarize(samples)
    d, b = summary.duration_micros, summary.bandwidth_mbps
    clock = _VIRTUAL if args.virtual_time else ""
    print(f"wrote {len(samples)} samples to {out}")
    print(f"durationMicros  mean {d.mean:.6g}  median {d.median:.6g}  p95 {d.p95:.6g}{clock}")
    print(f"bandwidthMbps   mean {b.mean:.6g}{clock}")
    return 0


def _cmd_sim(args, parser) -> int:
    cfg = _usage(
        parser,
        sim_mod.SimConfig,
        scheme=args.scheme,
        producers=args.producers,
        events_per_producer=args.events,
        partitions=args.partitions,
        consumers=args.consumers,
        produce_interval=args.produce_interval_ms / 1000.0,
        seed=args.seed,
        deterministic=args.deterministic,
        persist_path=args.persist,
    )
    report = sim_mod.run_simulation(cfg)
    # One record of (CSV column, text label, value). A None value does not apply:
    # text leaves it out and CSV leaves its cell empty. clock has no text line;
    # text marks the timed lines of a virtual-time run instead.
    record = [
        ("scheme", "scheme", report.scheme.cli_name),
        ("producers", "producers", report.producers),
        ("partitions", "partitions", report.partitions),
        ("events_total", "events published", report.events_total),
        ("consumed_total", "events consumed", report.consumed_total),
        ("stored_total", "events stored", report.stored_total),
        ("unique_ids", "unique ids", report.unique_ids),
        ("duplicate_count", "duplicate count", report.duplicate_count),
        ("ordering_violations", "ordering violations", report.ordering_violations if report.ordering_checked else None),
        ("overflow_waits", "overflow waits", report.overflow_waits),
        ("elapsed_seconds", "elapsed seconds", report.elapsed_seconds),
        ("effective_mbps", "effective mbps", report.effective_mbps),
        ("clock", None, "virtual" if args.deterministic else "wall"),
    ]
    if args.csv:
        columns, _, values = zip(*record)
        _write(columns, [values], True)
    else:  # the record's two floats are its timed figures
        timed = _VIRTUAL if args.deterministic else ""
        rows = [(label, v, timed if isinstance(v, float) else "") for _, label, v in record if label and v is not None]
        _write(None, rows, False, (-20, 0, 0))
    failed = not report.conserved or report.duplicate_count > 0 or (
        report.ordering_checked and report.ordering_violations > 0
    )
    return 1 if failed else 0


def _cmd_report(args, parser) -> int:
    from . import bench as bench_mod

    rows = []
    for path in args.inputs:
        samples = bench_mod.read_metrics_csv(path)
        # A row's bandwidthMbps x durationMicros is its payloadBits per id; an overflow reads as 0 bytes.
        sizes = [round(x) if (x := s.bandwidth_mbps * s.duration_micros / 8) < math.inf else 0 for s in samples]
        line = next((i for i, size in enumerate(sizes, 2) if not 0 < size == sizes[0]), 0)
        if line:
            raise bench_mod.MalformedMetrics(f"{path}:{line}: bytes per id is below 1 or differs from line 2's")
        summary = bench_mod.summarize(samples)
        scheme = bench_mod._metrics_scheme(path)
        label = scheme.cli_name if scheme else Path(path).stem
        rows.append((label, summary.duration_micros.mean, summary.bandwidth_mbps.mean, sizes[0]))

    header = ("scheme", "mean durationMicros", "mean bandwidthMbps", "bytes/id")
    _write(header, rows, False, (-12, 22, 22, 10))
    for a, b in combinations(rows, 2):
        reduction = (b[3] - a[3]) / b[3] * 100.0
        print(f"{a[0]} vs {b[0]}: generation speedup {b[1] / a[1]:.4g}x, size reduction {reduction:.1f}%")
    if len({row[3] for row in rows}) > 1:
        print(f"note: {bench_mod.HEADLINE_RATIO_NOTE}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uidlab",
        description="Identifier generation, codecs, collision modeling, benchmarks and pipeline simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate identifiers, one per line")
    p.set_defaults(run=_cmd_gen, parser=p)
    p.add_argument("--scheme", type=_scheme_arg, required=True, help="ulid | uuidv4 | uuidv7")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=None, help="seed the random bits, not the system clock")
    p.add_argument("--monotonic", action="store_true", help="ULID only: strictly increasing within one process")

    p = sub.add_parser("encode", help="encode 128-bit values to canonical strings")
    p.set_defaults(run=_cmd_encode, parser=p)
    p.add_argument("--to", choices=("ulid", "uuid"), required=True)
    p.add_argument("values", nargs="+", help="decimal, 0x-prefixed, or 32-digit hex values")

    p = sub.add_parser("decode", help="decode ULID/UUID strings to 32-digit hex")
    p.set_defaults(run=_cmd_decode, parser=p)
    p.add_argument("values", nargs="+")

    p = sub.add_parser("model", help="birthday-bound collision probabilities")
    p.set_defaults(run=_cmd_model, parser=p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", action="store_true", help="risk table at 1e3/1e6/1e9 ids per window")
    p.add_argument("--csv", action="store_true", help="CSV output for --table")
    p.add_argument("--bits", type=_int, default=None)
    mode.add_argument("--count", type=_int, default=None)
    mode.add_argument("--solve-p", type=_float, default=None, dest="solve_p")
    p.add_argument("--digits", type=_positive_int, default=None, help="significant digits for --count (default 2)")

    p = sub.add_parser("bench", help="measure generation speed and bandwidth")
    p.set_defaults(run=_cmd_bench, parser=p)
    p.add_argument("--scheme", type=_scheme_arg, required=True)
    p.add_argument("--samples", type=_int, default=2420)
    p.add_argument("--interval-ms", type=_float, default=500.0)
    p.add_argument("--ids-per-sample", type=_int, default=1000)
    p.add_argument("--bytes-per-char", type=_int, choices=(1, 2), default=2)
    p.add_argument("--out", default=None, help="default: metrics_<SCHEME>.csv")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--virtual-time", action="store_true", help="deterministic timer, no sleeping")

    p = sub.add_parser("sim", help="producer/broker/consumer pipeline run")
    p.set_defaults(run=_cmd_sim, parser=p)
    p.add_argument("--scheme", type=_scheme_arg, required=True)
    p.add_argument("--producers", type=_int, default=4)
    p.add_argument("--events", type=_int, default=1000, help="events per producer")
    p.add_argument("--partitions", type=_int, default=4)
    p.add_argument("--consumers", type=_int, default=4)
    p.add_argument("--produce-interval-ms", type=_float, default=0.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--deterministic", action="store_true", help="single-threaded virtual-time replay")
    p.add_argument("--persist", default=None, help="write stored ids to this file, one per line, overwriting it")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("report", help="combine metrics CSVs into a comparison table")
    p.set_defaults(run=_cmd_report, parser=p)
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, args.parser)  # the subparser, so a usage error names its command
    except _RUN_ERRORS as exc:
        if isinstance(exc, BrokenPipeError):  # the exit-time flush must not hit the closed pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one uidlab benchmark workload and print its metrics.

    python3 uidbench/run.py --workload sim-det-ulid --seed 1 --seconds 40 --trace 0
    python3 uidbench/run.py --self-check

Run from the repository root; uidlab is imported from ./src. The workload is
set up (fresh import of uidlab and uidlab.cli, input generation, warm-up)
and repeated until --seconds have passed; an untraced run sets it up sixteen
times more, spread evenly over the repeats. setup_s is the median of the
seventeen set-ups. ids_per_s is the throughput of the fastest repeat, scaled
to a reference host speed by a calibration job timed after every untraced
repeat. Every repeat's outputs are checked against reference outcomes outside
the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, tracing off.
--trace 1 alternates untraced repeats with repeats in which every layer
entry point is wrapped from outside (see tracer.py), and reports the
per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the run's
provenance and a readable summary; a fuller record, and in traced runs the
spans of the last traced repeat, go to uidbench/out/. The exit code is 1
when any output was wrong.

--self-check runs every workload at tiny size in both modes, asserts that
each metric named in BENCHMARK.json is emitted, and compares small
deterministic runs with pinned reports.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_ROUNDS = 16  # set-ups during an untraced run, besides the first
MIN_REPEATS = 3

# The calibration job: fixed pure-Python work that calls no uidlab code.
# CALIBRATION_REF_NS is its fastest time on the development host (2-vCPU
# x86-64 VM, CPython 3.11), the host speed that ids_per_s is scaled to.
_rng = random.Random(0)
CALIBRATION_VALUES = [_rng.getrandbits(128) for _ in range(300)]
CALIBRATION_REF_NS = 2_300_000

GENERATE = ["core.generate.ulid", "core.generate.uuidv7", "core.generate.uuidv4"]
ENCODE = ["codec.encode.ulid", "codec.encode.uuid"]
DECODE = ["codec.decode.ulid", "codec.decode.uuid"]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def fresh_uidlab():
    """Import uidlab and uidlab.cli from scratch, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "uidlab" or n.startswith("uidlab.")]:
        del sys.modules[name]
    uidlab = importlib.import_module("uidlab")
    importlib.import_module("uidlab.cli")
    return uidlab


def set_up(name: str, seed: int, size: dict, classes: dict):
    """Import uidlab afresh, build the workload and warm it up; return it and the seconds taken."""
    t0 = time.perf_counter_ns()
    wl = workloads.build(name, fresh_uidlab(), seed, size, classes)
    wl.warm_up()
    return wl, (time.perf_counter_ns() - t0) / 1e9


def _quantile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; 0 without data."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def calibrate() -> int:
    """Nanoseconds the calibration job takes now."""
    t0 = time.perf_counter_ns()
    table = {reference.crockford(v): i for i, v in enumerate(CALIBRATION_VALUES)}
    sorted(table)
    return time.perf_counter_ns() - t0


@dataclass
class Measured:
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    calibrations: list[int] = field(default_factory=list)  # one after each untraced repeat
    setup_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def measure(wl, seconds: float, tracer: Tracer | None, set_up_again=None) -> Measured:
    """Repeat until the deadline; with a tracer, every other repeat is traced.

    ``set_up_again``, when given, is called SETUP_ROUNDS times at even
    intervals of the run and the seconds it returns are collected. The host's
    speed drifts over tens of seconds, so set-up is sampled over the same
    stretch of time as the repeats.
    """
    m = Measured()
    start = time.perf_counter()
    deadline = start + seconds
    minimum = MIN_REPEATS * (2 if tracer else 1)
    while len(m.plain) + len(m.traced) < minimum or time.perf_counter() < deadline:
        due = start + seconds * (len(m.setup_times) + 0.5) / SETUP_ROUNDS
        if set_up_again and len(m.setup_times) < SETUP_ROUNDS and time.perf_counter() >= due:
            m.setup_times.append(set_up_again())
            continue
        use_trace = tracer is not None and len(m.traced) < len(m.plain)
        gc.collect()
        if use_trace:
            tracer.install()
            try:
                r = wl.repeat()
            finally:
                tracer.uninstall()
            tracer.harvest()
            m.traced.append(r)
        else:
            m.plain.append(r := wl.repeat())
            m.calibrations.append(calibrate())
        a, f, p = wl.check(r.outputs)
        m.attempted += a
        m.failed += f
        m.problems.extend(p[: 10 - len(m.problems)])
        r.outputs = None  # release outputs before the next repeat
    while set_up_again and len(m.setup_times) < SETUP_ROUNDS:
        m.setup_times.append(set_up_again())
    return m


def host_speed(m: Measured) -> float:
    """Speed of the host at its fastest in this run, relative to the reference."""
    return CALIBRATION_REF_NS / min(m.calibrations)


def end_to_end(m: Measured) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # The fastest repeat, scaled by the fastest calibration: the host's
        # speed swings by tens of percent, in bursts of milliseconds and in
        # phases of minutes, and both jobs see the same swings (see
        # contract.json).
        "ids_per_s": max(r.ids / (r.wall_ns / 1e9) for r in m.plain) / host_speed(m),
        "setup_s": statistics.median(m.setup_times),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }


def per_layer(t: Tracer, plain, traced) -> dict:
    wall = sum(r.wall_ns for r in traced)

    def self_ns(layers):
        return sum(t.self_ns.get(x, 0) for x in layers)

    def calls(layers):
        return sum(t.calls.get(x, 0) for x in layers)

    def per_call(layers):
        n = calls(layers)
        return self_ns(layers) / n if n else 0.0

    def share(layers):
        return self_ns(layers) / wall

    m = {}
    for prefix, layers in (
        ("core.entropy", ["core.entropy"]),
        ("core.generate", GENERATE),
        ("codec.encode", ENCODE),
        ("codec.decode", DECODE),
    ):
        m[f"{prefix}.calls"] = calls(layers)
        m[f"{prefix}.ns_per_call"] = per_call(layers)
        m[f"{prefix}.share"] = share(layers)
    for layer in GENERATE + ENCODE + DECODE:
        m[f"{layer}.ns_per_call"] = per_call([layer])
    decodes = calls(DECODE)
    rejects = sum(t.raised.get(x, 0) for x in DECODE)
    m["codec.decode.reject_frac"] = rejects / decodes if decodes else 0.0
    m["codec.decode.reject_ns_per_call"] = (
        sum(t.raised_self_ns.get(x, 0) for x in DECODE) / rejects if rejects else 0.0
    )
    for layer in ("sim.partition", "sim.publish"):
        m[f"{layer}.ns_per_call"] = per_call([layer])
        m[f"{layer}.share"] = share([layer])
    consumes = calls(["sim.consume"])
    m["sim.consume.calls"] = consumes
    m["sim.consume.ns_per_call"] = per_call(["sim.consume"])
    m["sim.consume.hit_frac"] = t.consume_hits / consumes if consumes else 0.0
    m["sim.consume.events_per_call"] = t.consumed_events / consumes if consumes else 0.0
    m["sim.consume.share"] = share(["sim.consume"])
    m["sim.store.calls"] = calls(["sim.store"])
    m["sim.store.ns_per_event"] = self_ns(["sim.store"]) / t.stored_events if t.stored_events else 0.0
    m["sim.store.share"] = share(["sim.store"])
    m["sim.verify.s"] = per_call(["sim.verify"]) / 1e9
    m["sim.verify.share"] = share(["sim.verify"])
    waits_us = [w / 1e3 for w in t.waits_ns]
    m["sim.topic.wait_us_p50"] = statistics.median(waits_us) if waits_us else 0.0
    m["sim.topic.wait_us_p99"] = _quantile(waits_us, 99)
    m["sim.unattributed_share"] = (wall - t.busy_ns) / wall
    m["trace.overhead_frac"] = (
        statistics.median(r.wall_ns for r in traced) / statistics.median(r.wall_ns for r in plain) - 1
    )
    batch_us = [ns / r.batch_ids / 1e3 for r in plain for ns in r.batch_ns]
    m["batch.us_per_id_p50"] = statistics.median(batch_us)
    m["batch.us_per_id_p99"] = _quantile(batch_us, 99)
    m["batch.count"] = len(batch_us)
    return m


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict, contract: dict):
    """One benchmark run; returns (record, spans tracer or None)."""
    size, classes = sizes[name], contract["parse_corpus"]["classes"]
    wl, first_setup = set_up(name, seed, size, classes)
    wl.prepare_reference()
    tracer = Tracer() if trace else None
    # A set-up imports uidlab afresh, and the tracer patches the latest
    # import, so set-ups are repeated only in untraced runs.
    again = None if trace else (lambda: set_up(name, seed, size, classes)[1])
    m = measure(wl, seconds, tracer, again)
    m.setup_times.insert(0, first_setup)
    values = per_layer(tracer, m.plain, m.traced) if trace else end_to_end(m)
    record = {
        "provenance": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": size,
            "repeats": {"untraced": len(m.plain), "traced": len(m.traced)},
            "setup_rounds": len(m.setup_times),
            "host_speed": host_speed(m),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "failed_frac": m.failed / m.attempted,
        "problems": m.problems,
        "values": values,
    }
    return record, tracer


def result_line(record: dict, declared: list[dict]) -> dict:
    values = record["values"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uidlab").is_dir():
        print(f"uidlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    contract = load_json(BENCH_DIR / "contract.json")
    if args.self_check:
        return self_check(bench, contract)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    record, tracer = run(args.workload, args.seed, seconds, bool(args.trace), workloads.SIZES["full"], contract)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    line = result_line(record, declared)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{args.workload}-spans.csv")

    print(json.dumps({"provenance": record["provenance"]}))
    for problem in record["problems"]:
        print(f"WRONG OUTPUT: {problem}")
    print(f"failed_frac {record['failed_frac']:.6g} (failed {record['failed']} of {record['attempted']})")
    for m in declared:
        print(f"{m['name']:32s} {line['metrics'][m['name']]['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if record["correct"] else 1


def _fail(text: str) -> int:
    print(f"self-check FAILED: {text}", file=sys.stderr)
    return 1


def self_check(bench: dict, contract: dict) -> int:
    """Tiny runs of every workload in both modes, plus pinned replays."""
    names = {w["name"] for w in bench["workloads"]}
    if names != set(contract["workloads"]) or names != set(workloads.SIZES["tiny"]):
        return _fail("workload lists of BENCHMARK.json, contract.json and workloads.py differ")
    e2e = {m["name"] for m in bench["end_to_end"]}
    if e2e != set(contract["end_to_end"]) - {"failed_frac"}:
        return _fail("end-to-end metrics of BENCHMARK.json and contract.json differ")
    layered = {n for group in contract["per_layer"]["layers"].values() for n in group}
    if layered != {m["name"] for m in bench["per_layer"]}:
        return _fail("per-layer metrics of BENCHMARK.json and contract.json differ")
    if set(contract["parse_corpus"]["classes"]) != reference.corpus_generators():
        return _fail("parse corpus classes in contract.json have no generator, or the reverse")

    for name in sorted(names):
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            record, _ = run(name, 1, 0.2, trace, workloads.SIZES["tiny"], contract)
            if not record["correct"]:
                return _fail(f"{name} trace={int(trace)} wrong output: {record['problems']}")
            try:
                line = result_line(record, declared)
            except KeyError as exc:
                return _fail(f"{name} trace={int(trace)} does not emit {exc}")
            extra = set(record["values"]) - {m["name"] for m in declared}
            if extra:
                return _fail(f"{name} trace={int(trace)} emits undeclared {sorted(extra)}")
            for metric, v in line["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    return _fail(f"{name} {metric} = {v['value']!r}")
            print(f"{name:16s} trace={int(trace)} ok: {len(line['metrics'])} metrics")

    pins = load_json(BENCH_DIR / "pins.json")["sim-det-ulid"]
    for seed, pin in pins["seeds"].items():
        report, stored = pinned_run(int(seed), pins["size"])
        if report != pin["report"] or reference.digest(stored) != pin["digest"]:
            return _fail(f"sim-det-ulid seed {seed} differs from its pinned report or digest")
    print(f"pinned sim-det-ulid replays ok for seeds {sorted(pins['seeds'])}")
    print("self-check ok")
    return 0


def pinned_run(seed: int, size: dict):
    """Report fields (scheme as its CLI name) and stored ids of one replay."""
    wl = workloads.build("sim-det-ulid", fresh_uidlab(), seed, size, {})
    report, sink = wl.repeat().outputs
    fields = {k: getattr(report, k) for k in report.__dataclass_fields__}
    fields["scheme"] = report.scheme.cli_name
    return fields, sink.stored


if __name__ == "__main__":
    sys.exit(main())

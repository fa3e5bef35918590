"""The three benchmark workloads, each driven through uidlab's public API.

A workload object is built from freshly imported uidlab modules, a seed and
a size table. ``warm_up`` runs a twentieth of a repeat; ``repeat`` runs one
timed repeat and returns a ``Repeat``; ``check`` compares a repeat's outputs
with reference outcomes and returns (attempted, failed, problems). Checks
run outside the timed region.

Every call into uidlab is looked up on its module at the start of a repeat,
so an installed tracer sees it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import reference

SIZES = {
    "full": {
        "sim-det-ulid": {"producers": 8, "partitions": 4, "consumers": 4, "events_per_producer": 125},
        "mint": {"batch": 500, "batches_per_scheme": 1},
        "parse": {"corpus": 4000, "batch": 500},
    },
    "tiny": {
        "sim-det-ulid": {"producers": 8, "partitions": 4, "consumers": 4, "events_per_producer": 20},
        "mint": {"batch": 50, "batches_per_scheme": 1},
        "parse": {"corpus": 400, "batch": 100},
    },
}


@dataclass
class Repeat:
    ids: int
    wall_ns: int
    batch_ns: list[int]
    batch_ids: int
    outputs: object = field(repr=False)


def _problem(problems: list[str], text: str) -> None:
    if len(problems) < 10:
        problems.append(text)


class SimDetUlid:
    """Deterministic ULID run_simulation, checked against a reference model."""

    def __init__(self, uidlab, seed: int, size: dict):
        self.uidlab = uidlab
        self.seed = seed
        self.size = size
        self.sinks = self._capture_sinks(uidlab.sim)
        self.expected: dict[str, tuple[int, int]] = {}

    @staticmethod
    def _capture_sinks(sim):
        """Swap sim.Sink for a subclass that remembers its instances.

        run_simulation returns only a SimReport; the stored ids are needed
        to check the run. The subclass inherits store() unchanged.
        """
        captured = []

        class CapturingSink(sim.Sink):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self)

        sim.Sink = CapturingSink
        return captured

    def _config(self, events: int):
        s = self.size
        return self.uidlab.SimConfig(
            scheme=self.uidlab.IdScheme.parse("ulid"),
            producers=s["producers"],
            events_per_producer=events,
            partitions=s["partitions"],
            consumers=s["consumers"],
            seed=self.seed,
            deterministic=True,
        )

    @property
    def events(self) -> int:
        return self.size["producers"] * self.size["events_per_producer"]

    def prepare_reference(self) -> None:
        s = self.size
        self.expected = reference.sim_det_ulid_ids(self.seed, s["producers"], s["events_per_producer"])

    def warm_up(self) -> None:
        self.uidlab.sim.run_simulation(self._config(max(1, self.size["events_per_producer"] // 20)))
        self.sinks.clear()

    def repeat(self) -> Repeat:
        cfg = self._config(self.size["events_per_producer"])
        run = self.uidlab.sim.run_simulation
        t0 = time.perf_counter_ns()
        report = run(cfg)
        wall = time.perf_counter_ns() - t0
        (sink,) = self.sinks
        self.sinks.clear()
        return Repeat(self.events, wall, [wall], self.events, (report, sink))

    def expected_report(self) -> dict:
        n = self.events
        # One virtual millisecond per round; every producer publishes once a round.
        elapsed = self.size["events_per_producer"] / 1000.0
        return {
            "producers": self.size["producers"],
            "partitions": self.size["partitions"],
            "events_total": n,
            "consumed_total": n,
            "stored_total": n,
            "unique_ids": n,
            "duplicate_count": 0,
            "overflow_waits": 0,
            "ordering_checked": True,
            "ordering_violations": 0,
            "elapsed_seconds": elapsed,
            "effective_mbps": n * 26 * 2 * 8 / elapsed / 1e6,
        }

    def check(self, outputs):
        report, sink = outputs
        problems: list[str] = []
        stored = sink.stored
        wrong = sum(1 for k, v in self.expected.items() if stored.get(k) != v)
        wrong += sum(1 for k in stored if k not in self.expected)
        if wrong:
            _problem(problems, f"{wrong} stored ids differ from the reference run")
        failed = wrong + sink.duplicate_count + report.ordering_violations
        if sink.duplicate_count:
            _problem(problems, f"{sink.duplicate_count} duplicate ids stored")
        for key, want in self.expected_report().items():
            got = getattr(report, key)
            if got != want:
                _problem(problems, f"report {key} = {got}, expected {want}")
                failed = max(failed, 1)
        return self.events, failed, problems


_MINT_SCHEMES = ("ulid", "uuidv7", "uuidv4")


class Mint:
    """generate+encode on the default SystemEntropy and SystemClock.

    The ids come from OS entropy by design, so the seed does not apply.
    """

    def __init__(self, uidlab, seed: int, size: dict):
        self.uidlab = uidlab
        self.size = size

    def prepare_reference(self) -> None:
        pass

    def _batch(self, scheme: str, n: int):
        core, codec = self.uidlab.core, self.uidlab.codec
        out: list[str] = []
        app = out.append
        gen, enc = {
            "ulid": (core.generate_ulid, codec.ulid_encode),
            "uuidv7": (core.generate_uuidv7, codec.uuid_format),
            "uuidv4": (core.generate_uuidv4, codec.uuid_format),
        }[scheme]
        start_ms = time.time_ns() // 1_000_000
        t0 = time.perf_counter_ns()
        for _ in range(n):
            app(enc(gen()))
        wall = time.perf_counter_ns() - t0
        end_ms = time.time_ns() // 1_000_000
        return wall, (scheme, start_ms, end_ms, out)

    def warm_up(self) -> None:
        for scheme in _MINT_SCHEMES:
            self._batch(scheme, max(1, self.size["batch"] * self.size["batches_per_scheme"] // 20))

    def repeat(self) -> Repeat:
        batch_ns, outputs = [], []
        for _ in range(self.size["batches_per_scheme"]):
            for scheme in _MINT_SCHEMES:
                wall, out = self._batch(scheme, self.size["batch"])
                batch_ns.append(wall)
                outputs.append(out)
        ids = self.size["batch"] * len(batch_ns)
        return Repeat(ids, sum(batch_ns), batch_ns, self.size["batch"], outputs)

    def check(self, outputs):
        problems: list[str] = []
        failed = attempted = 0
        seen: set[str] = set()
        for scheme, start_ms, end_ms, texts in outputs:
            for text in texts:
                attempted += 1
                why = _mint_defect(scheme, text, start_ms, end_ms)
                if why:
                    failed += 1
                    _problem(problems, f"{scheme} {text!r}: {why}")
            seen.update(texts)
        duplicates = attempted - len(seen)
        if duplicates:
            _problem(problems, f"{duplicates} duplicate ids")
        return attempted, failed + duplicates, problems


def _mint_defect(scheme: str, text: str, start_ms: int, end_ms: int) -> str | None:
    if scheme == "ulid":
        if len(text) != 26 or any(c not in reference.CROCKFORD for c in text) or text[0] > "7":
            return "not a canonical ULID string"
        value = reference.crockford_value(text)
    else:
        try:
            value = int(text.replace("-", ""), 16)
        except ValueError:
            return "not hexadecimal"
        if reference.hex_uuid(value) != text:
            return "not a canonical lowercase UUID string"
        version = 7 if scheme == "uuidv7" else 4
        if (value >> 76) & 0xF != version or (value >> 62) & 0b11 != 0b10:
            return "wrong version or variant bits"
    if scheme != "uuidv4" and not start_ms <= value >> 80 <= end_ms:
        return "timestamp outside the batch's wall-clock window"
    return None


class Parse:
    """ulid_decode and uuid_parse over a seeded corpus with fixed outcomes."""

    def __init__(self, uidlab, seed: int, size: dict, classes: dict):
        self.uidlab = uidlab
        self.size = size
        corpus = reference.parse_corpus(seed, size["corpus"], classes)
        self.expected = [exp for _kind, _text, exp in corpus]
        items = [(kind == "ulid", text) for kind, text, _exp in corpus]
        b = size["batch"]
        self.batches = [items[i : i + b] for i in range(0, len(items), b)]

    def prepare_reference(self) -> None:
        pass

    def _batch(self, items, out: list) -> int:
        dec_ulid, dec_uuid = self.uidlab.codec.ulid_decode, self.uidlab.codec.uuid_parse
        app = out.append
        t0 = time.perf_counter_ns()
        for is_ulid, text in items:
            try:
                app((dec_ulid if is_ulid else dec_uuid)(text))
            except Exception as exc:  # the outcome under test, compared by class name
                app(type(exc).__name__)
        return time.perf_counter_ns() - t0

    def warm_up(self) -> None:
        items = [it for batch in self.batches for it in batch]
        self._batch(items[: max(1, len(items) // 20)], [])

    def repeat(self) -> Repeat:
        out: list = []
        batch_ns = [self._batch(items, out) for items in self.batches]
        return Repeat(len(out), sum(batch_ns), batch_ns, self.size["batch"], out)

    def check(self, outputs):
        problems: list[str] = []
        failed = 0
        for i, (got, want) in enumerate(zip(outputs, self.expected)):
            if got != want or type(got) is not type(want):
                failed += 1
                _problem(problems, f"corpus item {i}: got {got!r}, expected {want!r}")
        failed += abs(len(outputs) - len(self.expected))
        return len(self.expected), failed, problems


def build(name: str, uidlab, seed: int, size: dict, classes: dict):
    if name == "sim-det-ulid":
        return SimDetUlid(uidlab, seed, size)
    if name == "mint":
        return Mint(uidlab, seed, size)
    if name == "parse":
        return Parse(uidlab, seed, size, classes)
    raise ValueError(f"unknown workload {name!r}")

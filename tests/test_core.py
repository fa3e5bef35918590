import ast
import copy
import os
import pickle
import random
import re
import subprocess
import sys
import time
import uuid as stdlib_uuid
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidlab import core
from uidlab.bench import metrics_filename
from uidlab.core import (
    IdScheme,
    FixedClock,
    MonotonicState,
    RANDOM80_MAX,
    RandomOverflow,
    SeededEntropy,
    SystemEntropy,
    TIMESTAMP48_MAX,
    UnsupportedScheme,
    check_timestamp48,
    extract_timestamp,
    generate_ulid,
    generate_uuidv4,
    generate_uuidv7,
    next_monotonic_ulid,
    variant_bits_of,
    version_of,
)
from uidlab.codec import uuid_format


class ConstantBits:
    """Emits all-zero or all-one bit strings."""

    def __init__(self, ones=False):
        self.ones = ones

    def next_bits(self, k):
        return (1 << k) - 1 if self.ones else 0


class Recording:
    """Wraps a source and keeps every draw for field reconstruction."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = []

    def next_bits(self, k):
        value = self.inner.next_bits(k)
        self.draws.append((k, value))
        return value


def test_uuidv4_all_zero_random_bits():
    value = generate_uuidv4(ConstantBits())
    assert uuid_format(value) == "00000000-0000-4000-8000-000000000000"


def test_uuidv4_all_one_random_bits():
    value = generate_uuidv4(ConstantBits(ones=True))
    assert uuid_format(value) == "ffffffff-ffff-4fff-bfff-ffffffffffff"


def test_uuidv4_matches_stdlib_reading():
    rng = SeededEntropy(99)
    for _ in range(500):
        parsed = stdlib_uuid.UUID(int=generate_uuidv4(rng))
        assert parsed.version == 4
        assert parsed.variant == stdlib_uuid.RFC_4122


def test_uuidv4_version_and_variant_forced():
    rng = SeededEntropy(0)
    for _ in range(2000):
        value = generate_uuidv4(rng)
        assert version_of(value) == 4
        assert variant_bits_of(value) == 0b10


def test_uuidv7_zero_inputs():
    value = generate_uuidv7(FixedClock(0), ConstantBits())
    assert uuid_format(value) == "00000000-0000-7000-8000-000000000000"


def test_uuidv7_max_timestamp():
    value = generate_uuidv7(FixedClock(TIMESTAMP48_MAX), ConstantBits())
    assert uuid_format(value) == "ffffffff-ffff-7000-8000-000000000000"


def test_uuidv7_version_and_variant_forced():
    rng = SeededEntropy(3)
    clock = FixedClock(123456789)
    for _ in range(2000):
        value = generate_uuidv7(clock, rng)
        assert version_of(value) == 7
        assert variant_bits_of(value) == 0b10


def test_uuidv7_orders_by_timestamp():
    rng = ConstantBits(ones=True)
    first = generate_uuidv7(FixedClock(1000), rng)
    second = generate_uuidv7(FixedClock(1001), ConstantBits())
    assert first < second


def test_ulid_zero_inputs():
    assert generate_ulid(FixedClock(0), ConstantBits()) == 0


def test_ulid_timestamp_is_high_48_bits():
    assert generate_ulid(FixedClock(1), ConstantBits()) == 1 << 80


def test_ulid_orders_by_timestamp():
    first = generate_ulid(FixedClock(5), ConstantBits(ones=True))
    second = generate_ulid(FixedClock(6), ConstantBits())
    assert first < second


def test_version_of_zero_value():
    assert version_of(0) == 0


def test_monotonic_same_millisecond_increments():
    state = MonotonicState(last_ts=5, last_random=7)
    value = next_monotonic_ulid(state, FixedClock(5), ConstantBits())
    assert value == (5 << 80) | 8
    assert (state.last_ts, state.last_random) == (5, 8)


def test_monotonic_overflow_at_random_max():
    state = MonotonicState(last_ts=5, last_random=RANDOM80_MAX)
    with pytest.raises(RandomOverflow):
        next_monotonic_ulid(state, FixedClock(5), ConstantBits())


def test_monotonic_fresh_millisecond_redraws():
    state = MonotonicState(last_ts=5, last_random=7)
    value = next_monotonic_ulid(state, FixedClock(9), ConstantBits())
    assert value == 9 << 80
    assert (state.last_ts, state.last_random) == (9, 0)


def test_monotonic_clock_regression_keeps_incrementing():
    state = MonotonicState(last_ts=5, last_random=7)
    value = next_monotonic_ulid(state, FixedClock(3), SeededEntropy(0))
    assert value == (5 << 80) | 8


def test_monotonic_strictly_increasing_mixed_clock():
    state = MonotonicState()
    clock = FixedClock(10)
    rng = SeededEntropy(4)
    script = [0, 0, 0, 1, 0, 0, 5, 0, -2, 0, 0, 3]
    previous = None
    for delta in script:
        clock.advance(delta)
        value = next_monotonic_ulid(state, clock, rng)
        if previous is not None:
            assert value > previous
        previous = value


class ScriptedBits:
    """Returns the scripted values in turn, cycling."""

    def __init__(self, values):
        self.values = values
        self.calls = 0

    def next_bits(self, k):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value


@settings(deadline=None)
@given(
    st.integers(0, TIMESTAMP48_MAX),
    # Mostly stalls and small steps either way, sometimes a long jump.
    st.lists(st.integers(-2, 2) | st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=80),
    # Fresh draws near all ones make the 80-bit increment run out.
    st.lists(st.integers(RANDOM80_MAX - 2, RANDOM80_MAX) | st.integers(0, RANDOM80_MAX), min_size=1),
)
def test_monotonic_property_under_any_clock(start, steps, draws):
    """Strictly increasing; RandomOverflow exactly when the component is all ones."""
    state, clock, rng = MonotonicState(), FixedClock(start), ScriptedBits(draws)
    previous = None
    for step in steps:
        clock.millis = min(max(clock.millis + step, 0), TIMESTAMP48_MAX)
        exhausted = clock.millis <= state.last_ts and state.last_random == RANDOM80_MAX
        try:
            value = next_monotonic_ulid(state, clock, rng)
        except RandomOverflow:
            assert exhausted
            continue
        assert not exhausted
        if previous is not None:
            assert value > previous
        previous = value


def test_extract_timestamp_round_trips():
    clock = FixedClock(777_000_123)
    rng = SeededEntropy(8)
    assert extract_timestamp(generate_ulid(clock, rng), IdScheme.ULID) == 777_000_123
    assert extract_timestamp(generate_uuidv7(clock, rng), IdScheme.UUID_V7) == 777_000_123


def test_extract_timestamp_rejects_uuidv4():
    with pytest.raises(UnsupportedScheme):
        extract_timestamp(generate_uuidv4(SeededEntropy(1)), IdScheme.UUID_V4)


def test_timestamp48_range():
    assert check_timestamp48(0) == 0
    assert check_timestamp48(TIMESTAMP48_MAX) == TIMESTAMP48_MAX
    with pytest.raises(ValueError):
        check_timestamp48(-1)
    with pytest.raises(ValueError):
        check_timestamp48(TIMESTAMP48_MAX + 1)
    with pytest.raises(ValueError):
        generate_ulid(FixedClock(1 << 48), SeededEntropy(0))


@pytest.mark.parametrize("millis", [-1, TIMESTAMP48_MAX + 1], ids=["negative", "past-48-bits"])
def test_generators_reject_clock_outside_48_bits(millis):
    with pytest.raises(ValueError) as reference:
        check_timestamp48(millis)
    message = f"^{re.escape(str(reference.value))}$"
    clock = FixedClock(millis)
    state = MonotonicState(last_ts=5, last_random=7)
    with pytest.raises(ValueError, match=message):
        next_monotonic_ulid(state, clock, SeededEntropy(0))
    assert (state.last_ts, state.last_random) == (5, 7)
    with pytest.raises(ValueError, match=message):
        generate_ulid(clock, SeededEntropy(0))
    with pytest.raises(ValueError, match=message):
        generate_uuidv7(clock, SeededEntropy(0))


@pytest.mark.parametrize(
    "generate",
    [generate_ulid, generate_uuidv7, lambda: next_monotonic_ulid(MonotonicState())],
    ids=["ulid", "uuidv7", "monotonic-ulid"],
)
def test_default_clock_stamps_the_system_millisecond(generate):
    before = time.time_ns() // 10**6
    value = generate()
    after = time.time_ns() // 10**6
    assert before <= value >> 80 <= after


DEFAULT_PATH_IDS = ["uuidv4", "uuidv7", "ulid", "monotonic-ulid"]


# Each monotonic call gets a fresh state, so it always draws for a new millisecond.
@pytest.mark.parametrize(
    "generate, size, version",
    [
        (generate_uuidv4, 16, 4),
        (generate_uuidv7, 10, 7),
        (generate_ulid, 10, None),
        (lambda: next_monotonic_ulid(MonotonicState()), 10, None),
    ],
    ids=DEFAULT_PATH_IDS,
)
def test_default_entropy_keeps_version_and_variant(generate, size, version, monkeypatch):
    draws = []

    def counting_urandom(n):
        draws.append(n)
        return os.urandom(n)

    monkeypatch.setattr(core, "urandom", counting_urandom)
    values = [generate() for _ in range(64)]
    assert draws == [size] * 64  # one fresh draw per id, nothing pooled
    assert len(set(values)) == 64
    for value in values:
        if version is not None:
            assert version_of(value) == version
            assert variant_bits_of(value) == 0b10


def _rfc_stamp(raw: bytes, version: int) -> int:
    """RFC 9562 in bytes: octet 6's high nibble is the version, octet 8's top bits are 10."""
    octets = bytearray(raw)
    octets[6] = (version << 4) | (octets[6] & 0x0F)
    octets[8] = 0x80 | (octets[8] & 0x3F)
    return int.from_bytes(octets, "big")


def test_default_path_overwrites_the_fixed_bits_of_the_os_draw(monkeypatch):
    # With no random source the OS bytes are the id, bar the UUID version and
    # variant bits; a draw that is not uniform shows which bits went where.
    # Seven patterns over four draws a round hand each generator every one.
    patterns = [b"\xff" * 16, b"\x00" * 16]
    patterns += [bytes((0xA5 + 29 * i + 53 * j) & 0xFF for i in range(16)) for j in range(5)]
    drawn = []

    def fixed_urandom(n):
        drawn.append(patterns[len(drawn) % len(patterns)][:n])
        return drawn[-1]

    monkeypatch.setattr(core, "urandom", fixed_urandom)
    millis = 0x0123_4567_89AB
    clock = FixedClock(millis)
    for _ in patterns:
        assert generate_uuidv4() == _rfc_stamp(drawn[-1], 4)
        assert generate_uuidv7(clock) == _rfc_stamp(millis.to_bytes(6, "big") + drawn[-1], 7)
        assert generate_ulid(clock) == (millis << 80) | int.from_bytes(drawn[-1], "big")
        value = next_monotonic_ulid(MonotonicState(), clock)
        assert value == (millis << 80) | int.from_bytes(drawn[-1], "big")
    assert [len(raw) for raw in drawn] == [16, 10, 10, 10] * len(patterns)


_FIXED_BITS = (0xF << 76) | (0b11 << 62)


@pytest.mark.parametrize(
    "generate, free, bits",
    [
        (generate_uuidv4, core.UID128_MAX ^ _FIXED_BITS, 122),
        (generate_uuidv7, RANDOM80_MAX ^ _FIXED_BITS, 74),
        (generate_ulid, RANDOM80_MAX, 80),
        (lambda: next_monotonic_ulid(MonotonicState()), RANDOM80_MAX, 80),
    ],
    ids=DEFAULT_PATH_IDS,
)
def test_every_free_bit_of_the_default_path_takes_both_values(generate, free, bits):
    # A given bit stuck at one value over 512 ids has odds of 2^-511.
    assert bin(free).count("1") == bits
    ones, zeros = 0, 0
    for _ in range(512):
        value = generate()
        ones |= value
        zeros |= ~value
    assert ones & free == free
    assert zeros & free == free


def test_seeded_entropy_is_reproducible():
    a = SeededEntropy(42)
    b = SeededEntropy(42)
    assert [a.next_bits(k) for k in (1, 64, 128, 80)] == [b.next_bits(k) for k in (1, 64, 128, 80)]


def test_seeded_entropy_refuses_a_negative_seed():
    # random.Random seeds with abs(seed), so -5 would replay the stream of 5.
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        SeededEntropy(-5)
    assert SeededEntropy(0).next_bits(64) == random.Random(0).getrandbits(64)


def test_entropy_bit_count_contract():
    assert SeededEntropy(0).next_bits(0) == 0
    assert SystemEntropy().next_bits(0) == 0
    # A zero-bit draw leaves the seeded stream where it was.
    drawn = SeededEntropy(7)
    drawn.next_bits(0)
    assert drawn.next_bits(80) == SeededEntropy(7).next_bits(80)
    for k in (1, 80, 128):
        assert 0 <= SystemEntropy().next_bits(k) < (1 << k)
    with pytest.raises(ValueError):
        SeededEntropy(0).next_bits(129)
    with pytest.raises(ValueError):
        SystemEntropy().next_bits(-1)


def test_system_entropy_is_one_fresh_urandom_call_per_draw(monkeypatch):
    calls = []

    def fixed_urandom(n):
        calls.append(n)
        return bytes((0xA5 + 29 * i) & 0xFF for i in range(n))

    monkeypatch.setattr(core, "urandom", fixed_urandom)
    monkeypatch.setattr(random, "_urandom", fixed_urandom)
    reference = random.SystemRandom()
    for k in range(129):
        calls.clear()
        drawn = SystemEntropy().next_bits(k)
        # Exactly one call of ceil(k / 8) bytes: nothing is pooled between draws.
        assert calls == [(k + 7) // 8]
        assert drawn == reference.getrandbits(k)


def test_int_bytes_conversions_name_their_byteorder():
    # requires-python is >=3.10, and int.from_bytes / int.to_bytes take a
    # default byteorder only from 3.11 on. A module-level name bound to one of
    # them (_from_bytes = int.from_bytes) is checked at its calls too; through
    # int.to_bytes the int itself comes first, so the byteorder is argument 3.
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        byteorder_at = {"int.to_bytes": 3}  # callee -> position of its byteorder argument
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.value) in ("int.from_bytes", "int.to_bytes"):
                for target in node.targets:
                    byteorder_at[ast.unparse(target)] = byteorder_at.get(ast.unparse(node.value), 2)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                needed = byteorder_at.get(ast.unparse(node.func))
                if needed is None and isinstance(node.func, ast.Attribute):
                    needed = 2 if node.func.attr in ("from_bytes", "to_bytes") else None
                if needed and len(node.args) < needed and "byteorder" not in [kw.arg for kw in node.keywords]:
                    found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []


def _cold_python(code: str, *flags: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports this uidlab; return its output lines."""
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages' start-up hooks from loading them on the program's behalf.
    modules = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    code = f"import sys, uidlab, uidlab.cli; print(sorted({modules} & set(sys.modules)))"
    assert _cold_python(code, "-S") == ["[]"]


def test_import_loads_no_secrets_or_hashlib():
    code = "import sys, uidlab, uidlab.cli; print(sorted({'secrets', 'hashlib'} & set(sys.modules)))"
    assert _cold_python(code) == ["[]"]


def test_import_loads_collision_and_bench_on_first_use():
    code = "\n".join([
        "import sys, uidlab, uidlab.cli",
        "print(sorted({'uidlab.bench', 'uidlab.collision', 'decimal'} & set(sys.modules)))",
        "print(sorted({'bench', 'collision', *uidlab.__all__} - set(dir(uidlab))))",
        "homes = [uidlab.serialized_size, uidlab.bandwidth_mbps, uidlab.ZeroDuration]",
        "print(homes == [uidlab.codec.serialized_size, uidlab.core.bandwidth_mbps, uidlab.core.ZeroDuration])",
        "print('uidlab.bench' in sys.modules)",
        "got = [uidlab.BenchConfig, uidlab.collision, uidlab.collision_prob, uidlab.bench]",
        "bench, collision = sys.modules['uidlab.bench'], sys.modules['uidlab.collision']",
        "print([a is b for a, b in zip(got, [bench.BenchConfig, collision, collision.collision_prob, bench])])",
        "namespace = {}",
        "exec('from uidlab import *', namespace)",
        "print([name for name in uidlab.__all__ if namespace.get(name) is not getattr(uidlab, name)])",
    ])
    assert _cold_python(code) == ["[]", "[]", "True", "False", "[True, True, True, True]", "[]"]


@pytest.mark.parametrize("module", ["bench", "collision", "sim"])
def test_lazy_module_imported_first_exports_its_lazy_names(module):
    # Importing a lazy module first still runs the package __init__ first, which
    # defines the _LAZY the module reads its __all__ from.
    code = "\n".join([
        f"import uidlab.{module}",
        "namespace = {}",
        f"exec('from uidlab.{module} import *', namespace)",
        "import uidlab",
        f"print(sorted(set(namespace) - {{'__builtins__'}}) == sorted(uidlab._LAZY[{module!r}]))",
        f"print(uidlab.{module}.__all__ == list(uidlab._LAZY[{module!r}]))",
    ])
    assert _cold_python(code) == ["True", "True"]


# Prepended to a _cold_python script: records the file of every code object
# that exec() runs, which is every module body, and counts those of a uidlab
# module by name.
_RECORD_EXECS = "\n".join([
    "import os, sys",
    "ran = []",
    "sys.addaudithook(lambda event, args: event == 'exec' and ran.append(args[0].co_filename))",
    "def runs(module):",
    "    return sum(path.endswith(os.path.join('uidlab', module + '.py')) for path in ran)",
])


def test_import_runs_sim_code_on_first_use_with_sim_in_sys_modules():
    # The benchmark's tracer looks sim up in sys.modules, so it is there unrun.
    code = "\n".join([
        _RECORD_EXECS,
        "import uidlab, uidlab.cli",
        "print([module for module in ('sim', 'bench', 'collision') if runs(module)], 'uidlab.sim' in sys.modules)",
        "config = uidlab.SimConfig",
        "print(runs('sim'), config is sys.modules['uidlab.sim'].SimConfig)",
        "print(uidlab.EventCountMismatch is uidlab.sim.EventCountMismatch is uidlab.core.EventCountMismatch)",
        "print(runs('sim'), 'EventCountMismatch' in uidlab.core.__all__)",
    ])
    assert _cold_python(code) == ["[] True", "1 True", "True", "1 False"]


def test_cli_commands_other_than_sim_run_no_sim_code():
    code = "\n".join([
        _RECORD_EXECS,
        "import contextlib, io",
        "from uidlab import cli",
        "commands = [['gen', '--scheme', 'ulid', '--count', '2'], ['encode', '--to', 'uuid', '0x1'],",
        "            ['decode', '01ARZ3NDEKTSV4RRFFQ69G5FAV'], ['model', '--table']]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    statuses = [cli.main(command) for command in commands]",
        "print(statuses, runs('sim'))",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    status = cli.main(['sim', '--scheme', 'ulid', '--events', '10', '--deterministic'])",
        "print(status, runs('sim'), 'events stored' in out.getvalue())",
    ])
    assert _cold_python(code) == ["[0, 0, 0, 0] 0", "0 1 True"]


def test_attribute_set_on_sim_before_its_first_load_survives_the_load():
    # CPython's lazy module re-applies what was set on it before it ran the
    # module's code, which a patch made that early relies on. Python 3.12
    # rewrote that class, so this pins the behaviour.
    code = "\n".join([
        _RECORD_EXECS,
        "import zlib, uidlab",
        "hashed = []",
        "def partition_for(id_text, partitions):",
        "    hashed.append(id_text)",
        "    return zlib.crc32(id_text.encode('ascii')) % partitions",
        "uidlab.sim.partition_for = partition_for",
        "print(runs('sim'))",
        "config = uidlab.SimConfig(uidlab.IdScheme.ULID, producers=2, events_per_producer=5, deterministic=True)",
        "report = uidlab.sim.run_simulation(config)",
        "print(runs('sim'), uidlab.sim.partition_for is partition_for, len(hashed), report.stored_total)",
    ])
    assert _cold_python(code) == ["0", "1 True 10 10"]


def test_unknown_package_name_raises_attribute_error():
    import uidlab

    with pytest.raises(AttributeError, match="'no_such_name'"):
        uidlab.no_such_name


def test_generators_replay_under_one_seed():
    def sequence():
        rng = SeededEntropy(1234)
        clock = FixedClock(99)
        return [generate_uuidv4(rng), generate_uuidv7(clock, rng), generate_ulid(clock, rng)]

    assert sequence() == sequence()


def test_bit_count_conservation_uuidv4():
    recording = Recording(SeededEntropy(7))
    value = generate_uuidv4(recording)
    (k, r), = recording.draws
    assert k == 122
    rebuilt = (
        ((r >> 74) << 80)
        | (4 << 76)
        | (((r >> 62) & 0xFFF) << 64)
        | (0b10 << 62)
        | (r & ((1 << 62) - 1))
    )
    assert rebuilt == value


def test_bit_count_conservation_uuidv7():
    recording = Recording(SeededEntropy(7))
    value = generate_uuidv7(FixedClock(31_337), recording)
    (k, r), = recording.draws
    assert k == 74
    rebuilt = (
        (31_337 << 80)
        | (7 << 76)
        | ((r >> 62) << 64)
        | (0b10 << 62)
        | (r & ((1 << 62) - 1))
    )
    assert rebuilt == value


def test_bit_count_conservation_ulid():
    recording = Recording(SeededEntropy(7))
    value = generate_ulid(FixedClock(31_337), recording)
    (k, r), = recording.draws
    assert k == 80
    assert value == (31_337 << 80) | r


def test_scheme_effective_random_bits():
    assert IdScheme.UUID_V4.effective_random_bits == 122
    assert IdScheme.UUID_V7.effective_random_bits == 74
    assert IdScheme.ULID.effective_random_bits == 80


def test_scheme_text_lengths():
    assert IdScheme.ULID.text_length == 26
    assert IdScheme.UUID_V4.text_length == 36
    assert IdScheme.UUID_V7.text_length == 36


def test_scheme_ordered_prefixes():
    assert IdScheme.ULID.ordered_chars == 26
    assert IdScheme.UUID_V7.ordered_chars == 13  # 48 timestamp bits: 12 hex digits and a hyphen
    assert IdScheme.UUID_V4.ordered_chars == 0
    assert [s.time_ordered for s in (IdScheme.ULID, IdScheme.UUID_V7, IdScheme.UUID_V4)] == [True, True, False]


def test_scheme_parse_names():
    assert IdScheme.parse("ulid") is IdScheme.ULID
    assert IdScheme.parse("ULID") is IdScheme.ULID
    assert IdScheme.parse("uuidv4") is IdScheme.UUID_V4
    assert IdScheme.parse("UUID_V7") is IdScheme.UUID_V7
    assert IdScheme.parse("uuid-v7") is IdScheme.UUID_V7
    with pytest.raises(ValueError):
        IdScheme.parse("uuidv6")
    assert [s.cli_name for s in IdScheme] == ["uuidv4", "uuidv7", "ulid"]
    assert all(IdScheme.parse(s.cli_name) is s for s in IdScheme)
    # Values, value and name lookup, and copies keep the members the enum had.
    assert [s.value for s in IdScheme] == ["UUID_V4", "UUID_V7", "ULID"]
    assert IdScheme("ULID") is IdScheme.ULID
    assert IdScheme["UUID_V7"] is IdScheme.UUID_V7
    for scheme in IdScheme:
        assert pickle.loads(pickle.dumps(scheme)) is scheme
        assert copy.deepcopy(scheme) is scheme
    assert metrics_filename(IdScheme.ULID) == "metrics_ULID.csv"

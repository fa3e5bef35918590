import uuid as stdlib_uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_seeded_entropy_is_reproducible():
    a = SeededEntropy(42)
    b = SeededEntropy(42)
    assert [a.next_bits(k) for k in (1, 64, 128, 80)] == [b.next_bits(k) for k in (1, 64, 128, 80)]


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

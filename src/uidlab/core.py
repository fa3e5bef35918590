"""Bit-level generators for UUIDv4, UUIDv7 and ULID identifiers.

Every identifier is an unsigned 128-bit integer whose byte 0 is the most
significant byte, so comparing two identifiers is plain integer comparison.
For the time-ordered schemes that comparison equals chronological order,
because the 48-bit millisecond timestamp sits in the most significant bits.

Field layout, counting bit 0 as the most significant bit of the canonical
big-endian form:

    UUIDv4   122 random bits; version nibble 0100 at bits 48-51;
             variant bits 10 at bits 64-65
    UUIDv7   48-bit timestamp; version nibble 0111; 12 random bits;
             variant bits 10; 62 random bits
    ULID     48-bit timestamp; 80 random bits; no fixed bits at all

Randomness and time come in through tiny source objects (``next_bits`` /
``now``) so that every generator can be driven deterministically in tests
and replayed from a seed. The defaults are the operating-system CSPRNG and
the system clock.
"""

from __future__ import annotations

import enum
import secrets
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, NamedTuple, Protocol

__all__ = [
    "UID128_MAX",
    "TIMESTAMP48_MAX",
    "RANDOM80_MAX",
    "Uid128",
    "Timestamp48",
    "IdScheme",
    "RandomSource",
    "ClockSource",
    "SystemEntropy",
    "SeededEntropy",
    "SystemClock",
    "FixedClock",
    "MonotonicState",
    "RandomOverflow",
    "UnsupportedScheme",
    "check_timestamp48",
    "generate_uuidv4",
    "generate_uuidv7",
    "generate_ulid",
    "next_monotonic_ulid",
    "id_generator",
    "extract_timestamp",
    "version_of",
    "variant_bits_of",
]

# Identifiers and timestamps are plain ints; the aliases mark intent.
Uid128 = int
Timestamp48 = int

UID128_MAX = (1 << 128) - 1
TIMESTAMP48_MAX = (1 << 48) - 1
RANDOM80_MAX = (1 << 80) - 1

_LOW62 = (1 << 62) - 1
_VERSION_SHIFT = 76
_VARIANT_SHIFT = 62


class RandomOverflow(Exception):
    """The 80-bit random component is exhausted for the current millisecond.

    Raised by :func:`next_monotonic_ulid` when the previous identifier in the
    same millisecond already used the all-ones random value. The caller must
    wait for the clock to tick or give up.
    """


class UnsupportedScheme(ValueError):
    """The requested field does not exist for this identifier scheme."""


class IdScheme(enum.Enum):
    """The three identifier schemes and their fixed bit budgets."""

    UUID_V4 = "UUID_V4"
    UUID_V7 = "UUID_V7"
    ULID = "ULID"

    @property
    def effective_random_bits(self) -> int:
        """Random bits that must avoid collision within one window."""
        return _SPECS[self].random_bits

    @property
    def text_length(self) -> int:
        """Length of the canonical string form (36 hex+hyphens or 26 base32)."""
        return _SPECS[self].text_length

    @property
    def ordered_chars(self) -> int:
        """Leading characters of the text form that order one producer's ids.

        All 26 for ULID from the monotonic generator; the 13 characters of the
        48-bit timestamp for UUIDv7, whose later bits are random within one
        millisecond; none for UUIDv4.
        """
        return _SPECS[self].ordered_chars

    @property
    def time_ordered(self) -> bool:
        return _SPECS[self].ordered_chars > 0

    @property
    def cli_name(self) -> str:
        return _SPECS[self].names[0]

    @classmethod
    def parse(cls, name: str) -> "IdScheme":
        """Parse a scheme name, case-insensitively ('ulid', 'uuidv4', 'uuid_v7', ...)."""
        key = name.strip().lower().replace("-", "").replace("_", "")
        for scheme, spec in _SPECS.items():
            if key in spec.names:
                return scheme
        raise ValueError(f"unknown identifier scheme: {name!r}")


class _SchemeSpec(NamedTuple):
    names: tuple[str, ...]  # the first is the CLI name
    random_bits: int
    text_length: int
    ordered_chars: int


_SPECS = {
    IdScheme.UUID_V4: _SchemeSpec(("uuidv4", "uuid4"), 122, 36, 0),
    IdScheme.UUID_V7: _SchemeSpec(("uuidv7", "uuid7"), 74, 36, 13),
    IdScheme.ULID: _SchemeSpec(("ulid",), 80, 26, 26),
}


class RandomSource(Protocol):
    """Supplier of uniformly random bit strings, k <= 128 per call."""

    def next_bits(self, k: int) -> int: ...


class ClockSource(Protocol):
    """Supplier of millisecond Unix timestamps."""

    def now(self) -> Timestamp48: ...


class SystemEntropy:
    """Cryptographically strong bits from the operating system."""

    def next_bits(self, k: int) -> int:
        if not 0 <= k <= 128:
            raise ValueError(f"bit count must be in [0, 128], got {k}")
        return secrets.randbits(k)


class SeededEntropy:
    """Deterministic bit stream for tests and replayable runs.

    The same seed always yields the same sequence of ``next_bits`` results.
    """

    def __init__(self, seed: int):
        self._rng = Random(seed)

    def next_bits(self, k: int) -> int:
        if not 0 <= k <= 128:
            raise ValueError(f"bit count must be in [0, 128], got {k}")
        return self._rng.getrandbits(k)


class SystemClock:
    """Wall clock in whole milliseconds since the Unix epoch."""

    def now(self) -> Timestamp48:
        return time.time_ns() // 1_000_000


class FixedClock:
    """Clock pinned to a settable millisecond value.

    Reports exactly what it was told; it never enforces monotonic use, that
    is the generator layer's job.
    """

    def __init__(self, millis: int = 0):
        self.millis = millis

    def now(self) -> Timestamp48:
        return self.millis

    def advance(self, delta_ms: int = 1) -> None:
        self.millis += delta_ms


@dataclass(slots=True)
class MonotonicState:
    """Last (timestamp, random) pair issued by one monotonic ULID generator.

    Not thread-safe: all calls to :func:`next_monotonic_ulid` against one
    state must be serialized, one state per producer or an external lock.
    """

    last_ts: Timestamp48 = 0
    last_random: int = 0


_DEFAULT_ENTROPY = SystemEntropy()
_DEFAULT_CLOCK = SystemClock()


def check_timestamp48(millis: int) -> Timestamp48:
    """Validate a millisecond timestamp against the 48-bit field width."""
    if not 0 <= millis <= TIMESTAMP48_MAX:
        raise ValueError(f"timestamp {millis} outside [0, 2^48 - 1]")
    return millis


def generate_uuidv4(rng: RandomSource | None = None) -> Uid128:
    """Generate a version-4 UUID: 122 random bits plus fixed version/variant."""
    r = (rng or _DEFAULT_ENTROPY).next_bits(122)
    return (
        ((r >> 74) << 80)
        | (0x4 << _VERSION_SHIFT)
        | (((r >> 62) & 0xFFF) << 64)
        | (0b10 << _VARIANT_SHIFT)
        | (r & _LOW62)
    )


def generate_uuidv7(clock: ClockSource | None = None, rng: RandomSource | None = None) -> Uid128:
    """Generate a version-7 UUID: 48-bit millisecond timestamp, then randomness.

    The 12-bit field after the version nibble and the 62-bit field after the
    variant bits are both plain randomness (74 random bits total), so two
    identifiers from the same millisecond carry no ordering guarantee.
    """
    ts = check_timestamp48((clock or _DEFAULT_CLOCK).now())
    r = (rng or _DEFAULT_ENTROPY).next_bits(74)
    return (
        (ts << 80)
        | (0x7 << _VERSION_SHIFT)
        | ((r >> 62) << 64)
        | (0b10 << _VARIANT_SHIFT)
        | (r & _LOW62)
    )


def generate_ulid(clock: ClockSource | None = None, rng: RandomSource | None = None) -> Uid128:
    """Generate a ULID value: 48-bit millisecond timestamp and 80 random bits."""
    ts = check_timestamp48((clock or _DEFAULT_CLOCK).now())
    return (ts << 80) | (rng or _DEFAULT_ENTROPY).next_bits(80)


def next_monotonic_ulid(
    state: MonotonicState,
    clock: ClockSource | None = None,
    rng: RandomSource | None = None,
) -> Uid128:
    """Generate the next ULID from one producer, strictly greater than the last.

    A fresh millisecond gets a fresh random component. Within one millisecond,
    and equally if the clock runs backwards, the previous random component is
    incremented by one, which preserves strict ordering at the cost of one
    identifier of entropy. Raises :class:`RandomOverflow` once the 80-bit
    component cannot be incremented; the caller should retry after the next
    clock tick.
    """
    now = check_timestamp48((clock or _DEFAULT_CLOCK).now())
    if now > state.last_ts:
        rand = (rng or _DEFAULT_ENTROPY).next_bits(80)
        state.last_ts = now
        state.last_random = rand
        return (now << 80) | rand
    if state.last_random >= RANDOM80_MAX:
        raise RandomOverflow(f"random component exhausted at timestamp {state.last_ts}")
    state.last_random += 1
    return (state.last_ts << 80) | state.last_random


def id_generator(
    scheme: IdScheme,
    clock: ClockSource | None = None,
    rng: RandomSource | None = None,
    state: MonotonicState | None = None,
) -> Callable[[], Uid128]:
    """A callable returning the next ``scheme`` value on each call.

    With a ``state``, ULID values come from :func:`next_monotonic_ulid`; the
    other schemes have no monotonic form and ignore it. The generator
    functions are looked up when the callable runs, not when it is made.
    """
    if scheme is IdScheme.UUID_V4:
        return lambda: generate_uuidv4(rng)
    if scheme is IdScheme.UUID_V7:
        return lambda: generate_uuidv7(clock, rng)
    if state is not None:
        return lambda: next_monotonic_ulid(state, clock, rng)
    return lambda: generate_ulid(clock, rng)


def extract_timestamp(value: Uid128, scheme: IdScheme) -> Timestamp48:
    """Read the 48-bit millisecond timestamp of a UUIDv7 or ULID value."""
    if scheme is IdScheme.UUID_V4:
        raise UnsupportedScheme("UUIDv4 carries no timestamp")
    return value >> 80


def version_of(value: Uid128) -> int:
    """Value of the 4-bit version nibble (meaningful for UUID layouts only)."""
    return (value >> _VERSION_SHIFT) & 0xF


def variant_bits_of(value: Uid128) -> int:
    """Top two bits of octet 8 (the RFC variant field for UUID layouts)."""
    return (value >> _VARIANT_SHIFT) & 0b11

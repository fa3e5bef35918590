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
the system clock, both read inline. With no random source, each id is one
fresh ``os.urandom`` call of 16 bytes (UUIDv4) or 10 bytes (UUIDv7, ULID),
read through ``_from_bytes``, which is ``int.from_bytes`` bound once; a
UUID's version and variant bits are then overwritten in place by mask, which
leaves the other bits as uniform as the draw. A supplied source is
asked for exactly the random bits (122, 74 or 80), which are packed around
the fixed fields, so a seeded stream replays bit for bit.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from os import urandom
from random import Random
from typing import Protocol

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
    "ZeroDuration",
    "check_timestamp48",
    "generate_uuidv4",
    "generate_uuidv7",
    "generate_ulid",
    "next_monotonic_ulid",
    "extract_timestamp",
    "version_of",
    "variant_bits_of",
    "bandwidth_mbps",
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
# Version nibble and variant bits, folded once instead of shifted per call.
_V4_FIXED = (0x4 << _VERSION_SHIFT) | (0b10 << _VARIANT_SHIFT)
_V7_FIXED = (0x7 << _VERSION_SHIFT) | (0b10 << _VARIANT_SHIFT)
# The bits an OS draw keeps: all but the version nibble and the variant bits,
# of the whole value for v4 and of the 80 bits below the timestamp for v7.
_V4_FREE = UID128_MAX ^ (0xF << _VERSION_SHIFT) ^ (0b11 << _VARIANT_SHIFT)
_V7_FREE = RANDOM80_MAX ^ (0xF << _VERSION_SHIFT) ^ (0b11 << _VARIANT_SHIFT)
# Bound once: int.from_bytes is a classmethod, so each lookup builds a method.
_from_bytes = int.from_bytes

# Longest interval, in seconds, that the samplers and producers may sleep.
# time.sleep raises OverflowError far above it (1e300 s) and OSError already
# at threading.TIMEOUT_MAX on some hosts, so the cap leaves a wide margin.
_MAX_SLEEP_S = 1e9


class RandomOverflow(Exception):
    """The 80-bit random component is exhausted for the current millisecond.

    Raised by :func:`next_monotonic_ulid` when the previous identifier in the
    same millisecond already used the all-ones random value. The caller must
    wait for the clock to tick or give up.
    """


class UnsupportedScheme(ValueError):
    """The requested field does not exist for this identifier scheme."""


class ZeroDuration(ValueError):
    """Bandwidth over a non-positive time span is undefined."""


class EventCountMismatch(RuntimeError):
    """The topic holds a different number of events than the producers made.

    Raised by ``sim.run_simulation``, and kept here so the CLI can catch it
    without loading sim. A program fault, not a property of the run: the
    report's "conserved" compares only what the topic, the offsets and the
    sink hold, so an event lost before it reached the topic would otherwise
    go unseen.
    """


class IdScheme(enum.Enum):
    """The three identifier schemes and their fixed bit budgets.

    Each member's value is its name; it also carries:

    * ``cli_name``, the first of the names that :meth:`parse` accepts;
    * ``effective_random_bits``, the random bits that must avoid collision
      within one window;
    * ``text_length``, the length of the canonical string form (36 hex and
      hyphens, or 26 base32);
    * ``ordered_chars``, the leading characters of the text form that order
      one producer's ids: all 26 for ULID from the monotonic generator, the
      13 of the 48-bit timestamp for UUIDv7 (its later bits are random within
      one millisecond), none for UUIDv4; ``time_ordered`` is whether any do.
    """

    # value, parse names, random bits, text length, ordered chars
    UUID_V4 = "UUID_V4", ("uuidv4", "uuid4"), 122, 36, 0
    UUID_V7 = "UUID_V7", ("uuidv7", "uuid7"), 74, 36, 13
    ULID = "ULID", ("ulid",), 80, 26, 26

    def __new__(cls, value, names, random_bits, text_length, ordered_chars):
        member = object.__new__(cls)
        member._value_ = value
        member._names = names
        member.cli_name = names[0]
        member.effective_random_bits = random_bits
        member.text_length = text_length
        member.ordered_chars = ordered_chars
        member.time_ordered = ordered_chars > 0
        return member

    @classmethod
    def parse(cls, name: str) -> "IdScheme":
        """Parse a scheme name, case-insensitively ('ulid', 'uuidv4', 'uuid_v7', ...)."""
        key = name.strip().lower().replace("-", "").replace("_", "")
        for scheme in cls:
            if key in scheme._names:
                return scheme
        raise ValueError(f"unknown identifier scheme: {name!r}")


class RandomSource(Protocol):
    """Supplier of uniformly random bit strings, k <= 128 per call."""

    def next_bits(self, k: int) -> int: ...


class ClockSource(Protocol):
    """Supplier of millisecond Unix timestamps."""

    def now(self) -> Timestamp48: ...


class SystemEntropy:
    """Cryptographically strong bits from the operating system.

    Each draw is one fresh ``os.urandom`` call of ``ceil(k / 8)`` bytes, the
    body of ``random.SystemRandom.getrandbits`` (which ``secrets.randbits``
    runs) without its two Python frames. No bytes are pooled between calls,
    so nothing random stays in process memory and a fork needs no handling.
    """

    def next_bits(self, k: int) -> int:
        if not 0 <= k <= 128:
            raise ValueError(f"bit count must be in [0, 128], got {k}")
        return _from_bytes(urandom((k + 7) >> 3), "big") >> (-k & 7)


class SeededEntropy:
    """Deterministic bit stream for tests and replayable runs.

    The same seed always yields the same sequence of ``next_bits`` results.
    A negative seed is refused: ``random.Random`` seeds with ``abs(seed)``, so
    it would replay the stream of its positive twin.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
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


def check_timestamp48(millis: int) -> Timestamp48:
    """Validate a millisecond timestamp against the 48-bit field width."""
    if not 0 <= millis <= TIMESTAMP48_MAX:
        raise ValueError(f"timestamp {millis} outside [0, 2^48 - 1]")
    return millis


def generate_uuidv4(rng: RandomSource | None = None) -> Uid128:
    """Generate a version-4 UUID: 122 random bits plus fixed version/variant.

    With no ``rng`` the value is 16 ``os.urandom`` bytes with the fixed bits
    overwritten by mask; a supplied ``rng`` gives 122 bits spread around them.
    """
    if rng:
        r = rng.next_bits(122)
        return ((r >> 74) << 80) | (((r >> 62) & 0xFFF) << 64) | (r & _LOW62) | _V4_FIXED
    # SystemEntropy.next_bits, inlined
    return _from_bytes(urandom(16), "big") & _V4_FREE | _V4_FIXED


def generate_uuidv7(clock: ClockSource | None = None, rng: RandomSource | None = None) -> Uid128:
    """Generate a version-7 UUID: 48-bit millisecond timestamp, then randomness.

    The 12-bit field after the version nibble and the 62-bit field after the
    variant bits are both plain randomness (74 random bits total), so two
    identifiers from the same millisecond carry no ordering guarantee.

    With no ``rng`` the 80 bits under the timestamp are 10 ``os.urandom`` bytes
    with the fixed bits overwritten by mask; a supplied ``rng`` gives 74 bits
    spread around them.
    """
    ts = clock.now() if clock else time.time_ns() // 1_000_000  # SystemClock.now, inlined
    if not 0 <= ts <= TIMESTAMP48_MAX:
        check_timestamp48(ts)  # raises; the range test is inlined to save a call per id
    if rng:
        r = rng.next_bits(74)
        return (ts << 80) | ((r >> 62) << 64) | (r & _LOW62) | _V7_FIXED
    # SystemEntropy.next_bits, inlined
    return (ts << 80) | (_from_bytes(urandom(10), "big") & _V7_FREE) | _V7_FIXED


def generate_ulid(clock: ClockSource | None = None, rng: RandomSource | None = None) -> Uid128:
    """Generate a ULID value: 48-bit millisecond timestamp and 80 random bits."""
    ts = clock.now() if clock else time.time_ns() // 1_000_000  # SystemClock.now, inlined
    if not 0 <= ts <= TIMESTAMP48_MAX:
        check_timestamp48(ts)  # raises; the range test is inlined to save a call per id
    # SystemEntropy.next_bits, inlined
    return (ts << 80) | (rng.next_bits(80) if rng else _from_bytes(urandom(10), "big"))


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
    now = clock.now() if clock else time.time_ns() // 1_000_000  # SystemClock.now, inlined
    if not 0 <= now <= TIMESTAMP48_MAX:
        check_timestamp48(now)  # raises; the range test is inlined to save a call per id
    if now > state.last_ts:
        # SystemEntropy.next_bits, inlined
        rand = rng.next_bits(80) if rng else _from_bytes(urandom(10), "big")
        state.last_ts = now
        state.last_random = rand
        return (now << 80) | rand
    if state.last_random >= RANDOM80_MAX:
        raise RandomOverflow(f"random component exhausted at timestamp {state.last_ts}")
    state.last_random += 1
    return (state.last_ts << 80) | state.last_random


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


def bandwidth_mbps(payload_bits: int, elapsed_seconds: float) -> float:
    """payload_bits / elapsed_seconds / 1e6."""
    if elapsed_seconds <= 0:
        raise ZeroDuration(f"elapsed time must be positive, got {elapsed_seconds}")
    return payload_bits / elapsed_seconds / 1e6

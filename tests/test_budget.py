"""Exact call budgets: the Python and C calls one run, id or parse makes.

The interpreter's event counts do not drift with the host the way wall time
does, so a change that adds a Python frame per event or a C call per id
fails here however noisy the timing. The counts are pinned for CPython 3.11,
which recorded them; other versions count differently (PEP 709 inlines
comprehensions in 3.12, and ``sys.setprofile`` runs on ``sys.monitoring``
there), so on them each case only checks that two counts agree.

A change that lowers a count lowers its pin; one that must add work raises
it and says what the work costs.
"""

import gc
import sys

import pytest

from uidlab import codec
from uidlab.codec import CodecError, ulid_decode, uuid_parse
from uidlab.core import FixedClock, IdScheme, MonotonicState, SeededEntropy
from uidlab.sim import SimConfig, run_simulation

PINNED = sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11)


def calls_made(fn, *args):
    """(Python calls, C calls) while ``fn(*args)`` runs, ``fn``'s own call included.

    No collection runs meanwhile, so no finalizer adds a call.
    """
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return counts["call"], counts["c_call"] - 1  # the last C call is the setprofile above


def check(pin, fn, *args):
    fn(*args)  # warm: the first call may import or fill a cache
    counted = calls_made(fn, *args)
    if not PINNED:
        assert calls_made(fn, *args) == counted
        pytest.skip(
            f"call counts are pinned for CPython 3.11 only, and {sys.implementation.name} "
            f"{sys.version_info[0]}.{sys.version_info[1]} may count differently; two counts agreed"
        )
    assert counted == pin


def deterministic_run(scheme, seed):
    """The benchmark's pipeline shape, 8 producers, 4 partitions and 4 consumers × 125 events."""
    cfg = SimConfig(
        scheme=scheme, producers=8, events_per_producer=125, partitions=4, consumers=4, seed=seed, deterministic=True
    )
    return run_simulation(cfg)


# Python calls per run are the same for every seed; C calls move with the
# seed, and a repeat of one seed gives the same count.
@pytest.mark.parametrize(
    "scheme, seed, pin",
    [
        (IdScheme.ULID, 1, (7_973, 11_933)),
        (IdScheme.ULID, 2, (7_973, 11_943)),
        (IdScheme.UUID_V7, 1, (7_973, 12_937)),
        (IdScheme.UUID_V7, 2, (7_973, 12_943)),
        (IdScheme.UUID_V4, 1, (6_963, 11_957)),
        (IdScheme.UUID_V4, 2, (6_963, 11_967)),
    ],
    ids=["ulid-seed1", "ulid-seed2", "uuidv7-seed1", "uuidv7-seed2", "uuidv4-seed1", "uuidv4-seed2"],
)
def test_deterministic_run_budget(scheme, seed, pin):
    check(pin, deterministic_run, scheme, seed)


class TickingClock(FixedClock):
    """Reads one millisecond later each time, so a monotonic minter always draws fresh."""

    def now(self):
        self.millis += 1
        return self.millis


def _seeded(scheme, state=None, clock_type=FixedClock):
    return codec.minter(scheme, clock_type(1_700_000_000_000), SeededEntropy(5), state)


# One id, the minter's own call included. A monotonic minter on a clock
# that never ticks takes its increment branch from the second id on.
@pytest.mark.parametrize(
    "mint, pin",
    [
        (_seeded(IdScheme.ULID), (5, 4)),
        (_seeded(IdScheme.ULID, MonotonicState(), TickingClock), (5, 4)),
        (_seeded(IdScheme.ULID, MonotonicState()), (4, 3)),
        (_seeded(IdScheme.UUID_V7), (5, 5)),
        (_seeded(IdScheme.UUID_V4), (4, 5)),
        (codec.minter(IdScheme.ULID), (3, 6)),
        (codec.minter(IdScheme.UUID_V7), (3, 7)),
        (codec.minter(IdScheme.UUID_V4), (3, 6)),
    ],
    ids=[
        "ulid-seeded",
        "ulid-monotonic-fresh",
        "ulid-monotonic-increment",
        "uuidv7-seeded",
        "uuidv4-seeded",
        "ulid-os",
        "uuidv7-os",
        "uuidv4-os",
    ],
)
def test_mint_budget(mint, pin):
    check(pin, mint)


ULID = "01ARZ3NDEKTSV4RRFFQ69G5FAV"
UUID = "0190a0b1-7c2d-7e3f-8a4b-5c6d7e8f9a0b"


def _parse(decode, text):
    try:
        decode(text)
    except CodecError:
        pass


# One parse per outcome class; each count includes _parse's own call.
@pytest.mark.parametrize(
    "decode, text, pin",
    [
        (ulid_decode, ULID, (2, 4)),
        (ulid_decode, ULID.lower(), (2, 4)),
        (ulid_decode, "OIARZ3NDEKTSV4RRFFQ69G5FAV", (2, 4)),
        (ulid_decode, ULID[:-1], (2, 2)),
        (ulid_decode, ULID[:-1] + "U", (2, 5)),
        (ulid_decode, ULID[:-1] + "\u0663", (2, 3)),
        (ulid_decode, "8" + ULID[1:], (2, 4)),
        (uuid_parse, UUID, (2, 5)),
        (uuid_parse, UUID.upper(), (2, 5)),
        (uuid_parse, UUID[:-1], (2, 2)),
        (uuid_parse, UUID[:8] + UUID[9] + "-" + UUID[10:], (2, 2)),
        (uuid_parse, UUID[:9] + "-" + UUID[10:], (2, 4)),
        (uuid_parse, UUID[:-1] + "g", (2, 6)),
        (uuid_parse, UUID[:-1] + "\u0663", (2, 6)),
    ],
    ids=[
        "ulid-valid",
        "ulid-lower",
        "ulid-alias",
        "ulid-short",
        "ulid-not-in-alphabet",
        "ulid-non-ascii",
        "ulid-overflow",
        "uuid-valid",
        "uuid-upper",
        "uuid-short",
        "uuid-hyphen-moved",
        "uuid-hyphen-extra",
        "uuid-not-hex",
        "uuid-non-ascii",
    ],
)
def test_parse_budget(decode, text, pin):
    check(pin, _parse, decode, text)

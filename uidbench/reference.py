"""Reference outcomes the benchmark checks uidlab against.

Nothing here calls uidlab. The encoders are written differently from
uidlab's (a binary string cut into 5-bit groups for Crockford, the stdlib
``uuid`` module for hex), and the simulation model rebuilds the seeded
identifier streams from ``random.Random`` directly, so a wrong fast path in
uidlab cannot also make its own expected value.
"""

from __future__ import annotations

import hashlib
import random
import uuid

CROCKFORD = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"
_CROCKFORD_VALUE = {c: i for i, c in enumerate(CROCKFORD)}

# The deterministic simulation's virtual clock starts here and advances one
# millisecond per round; replays are pinned to it.
VIRTUAL_EPOCH_MS = 1_700_000_000_000

def crockford(value: int) -> str:
    bits = format(value, "0130b")
    return "".join(CROCKFORD[int(bits[i : i + 5], 2)] for i in range(0, 130, 5))


def crockford_value(text: str) -> int:
    value = 0
    for ch in text:
        value = value * 32 + _CROCKFORD_VALUE[ch]
    return value


def hex_uuid(value: int) -> str:
    return str(uuid.UUID(int=value))


def digest(ids) -> str:
    """SHA-256 over the sorted ids, one per line."""
    return hashlib.sha256("\n".join(sorted(ids)).encode("ascii")).hexdigest()


def sim_det_ulid_ids(seed: int, producers: int, events: int) -> dict[str, tuple[int, int]]:
    """id -> (producer, seq) of a deterministic ULID run.

    Producer i draws from Random(seed + i). Every producer publishes one event
    per round and the virtual clock advances once per round, so each id takes
    a fresh 80-bit draw and the timestamp of its round.
    """
    out = {}
    for p in range(producers):
        rng = random.Random(seed + p)
        for seq in range(events):
            out[crockford(((VIRTUAL_EPOCH_MS + seq) << 80) | rng.getrandbits(80))] = (p, seq)
    return out


# --- parse corpus -----------------------------------------------------------

_WHITESPACE = (" ", "\t", "\n")
_NONASCII_DIGITS = ("٣", "１", "१", "৪")  # Arabic-Indic 3, fullwidth 1, Devanagari 1, Bengali 4
_HYPHENS = (8, 13, 18, 23)
_UUID_DIGIT_POSITIONS = tuple(i for i in range(36) if i not in _HYPHENS)


def _replace(text: str, pos: int, ch: str) -> str:
    return text[:pos] + ch + text[pos + 1 :]


def _ulid(rng: random.Random) -> tuple[str, int]:
    value = rng.getrandbits(128)
    return crockford(value), value


def _uuid(rng: random.Random) -> tuple[str, int]:
    value = rng.getrandbits(128)
    return hex_uuid(value), value


def _ulid_alias(rng):
    while True:
        text, value = _ulid(rng)
        spots = [i for i, c in enumerate(text) if c in "01"]
        if spots:
            break
    for i in rng.sample(spots, rng.randint(1, len(spots))):
        text = _replace(text, i, rng.choice("IiLl" if text[i] == "1" else "Oo"))
    return text, value


def _uuid_hyphen_moved(rng):
    text, _ = _uuid(rng)
    h = rng.choice(_HYPHENS)
    j = h + rng.choice((-1, 1))
    chars = list(text)
    chars[h], chars[j] = chars[j], chars[h]
    return "".join(chars)


def _ulid_lower(rng):
    text, value = _ulid(rng)
    return text.lower(), value


def _uuid_upper(rng):
    text, value = _uuid(rng)
    return text.upper(), value


_VALID = {
    "ulid_upper": _ulid,
    "ulid_lower": _ulid_lower,
    "ulid_alias": _ulid_alias,
    "uuid_lower": _uuid,
    "uuid_upper": _uuid_upper,
}

_MALFORMED = {
    "ulid_short": lambda rng: _ulid(rng)[0][:-1],
    "ulid_long": lambda rng: _ulid(rng)[0] + rng.choice(CROCKFORD),
    "uuid_short": lambda rng: _uuid(rng)[0][:-1],
    "uuid_no_hyphens": lambda rng: _uuid(rng)[0].replace("-", ""),
    "uuid_hyphen_moved": _uuid_hyphen_moved,
    "uuid_hyphen_extra": lambda rng: _replace(_uuid(rng)[0], rng.choice(_UUID_DIGIT_POSITIONS), "-"),
    "ulid_u": lambda rng: _replace(_ulid(rng)[0], rng.randrange(26), rng.choice("Uu")),
    "ulid_underscore": lambda rng: _replace(_ulid(rng)[0], rng.randrange(1, 25), "_"),
    "uuid_underscore": lambda rng: _replace(_uuid(rng)[0], rng.choice(_UUID_DIGIT_POSITIONS[1:-1]), "_"),
    "ulid_whitespace": lambda rng: _replace(_ulid(rng)[0], rng.choice((0, 25)), rng.choice(_WHITESPACE)),
    "uuid_whitespace": lambda rng: _replace(_uuid(rng)[0], rng.choice((0, 35)), rng.choice(_WHITESPACE)),
    "ulid_sign": lambda rng: _replace(_ulid(rng)[0], 0, rng.choice("+-")),
    "uuid_plus": lambda rng: _replace(_uuid(rng)[0], 0, "+"),
    "uuid_minus": lambda rng: _replace(_uuid(rng)[0], 0, "-"),
    "ulid_nonascii_digit": lambda rng: _replace(_ulid(rng)[0], rng.randrange(26), rng.choice(_NONASCII_DIGITS)),
    "uuid_nonascii_digit": lambda rng: _replace(
        _uuid(rng)[0], rng.choice(_UUID_DIGIT_POSITIONS), rng.choice(_NONASCII_DIGITS)
    ),
    "ulid_overflow": lambda rng: _replace(
        _ulid(rng)[0], 0, (str.lower if rng.random() < 0.5 else str)(rng.choice(CROCKFORD[8:]))
    ),
}


def corpus_generators() -> set[str]:
    return set(_VALID) | set(_MALFORMED)


def parse_corpus(seed: int, size: int, classes: dict) -> list[tuple[str, str, object]]:
    """Seeded corpus of (kind, text, expected) in shuffled order.

    ``classes`` is the contract's class table; each class gets
    round(share * size) entries. ``expected`` is the decoded value for a valid
    string and the exception class name for a malformed one.
    """
    rng = random.Random(seed)
    corpus = []
    for name in sorted(classes):
        spec = classes[name]
        for _ in range(round(spec["share"] * size)):
            if spec["expected"] == "value":
                text, value = _VALID[name](rng)
                corpus.append((spec["kind"], text, value))
            else:
                corpus.append((spec["kind"], _MALFORMED[name](rng), spec["expected"]))
    rng.shuffle(corpus)
    return corpus

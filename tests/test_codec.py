import inspect
import random
import uuid

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uidlab import codec
from uidlab.codec import (
    CROCKFORD_ALPHABET,
    CodecError,
    InvalidCharacter,
    InvalidLength,
    MisplacedHyphen,
    Overflow,
    ulid_decode,
    ulid_encode,
    uuid_format,
    uuid_parse,
)

UID_MAX = (1 << 128) - 1


def reference_base32(value, length=26):
    """Independent rendering by repeated divmod, no shifts shared with the codec."""
    digits = []
    for _ in range(length):
        value, rem = divmod(value, 32)
        digits.append(CROCKFORD_ALPHABET[rem])
    return "".join(reversed(digits))


def test_ulid_encode_zero():
    assert ulid_encode(0) == "00000000000000000000000000"


def test_ulid_encode_one():
    assert ulid_encode(1) == "00000000000000000000000001"


def test_ulid_encode_max():
    assert ulid_encode(UID_MAX) == "7ZZZZZZZZZZZZZZZZZZZZZZZZZ"


def test_ulid_encode_every_digit_at_every_position():
    # Position i counts from the least significant digit; the top one holds 0-7.
    for i in range(26):
        for d in range(32 if i < 25 else 8):
            assert ulid_encode(d << 5 * i) == reference_base32(d << 5 * i), (i, d)


def test_ulid_encode_matches_divmod_oracle():
    rng = random.Random(2024)
    for _ in range(2000):
        value = rng.getrandbits(128)
        assert ulid_encode(value) == reference_base32(value)


def test_ulid_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        ulid_encode(-1)
    with pytest.raises(ValueError):
        ulid_encode(1 << 128)


def test_ulid_decode_zero():
    assert ulid_decode("00000000000000000000000000") == 0


def test_ulid_decode_overflow_above_7():
    with pytest.raises(Overflow):
        ulid_decode("8ZZZZZZZZZZZZZZZZZZZZZZZZZ")


def test_ulid_decode_length():
    with pytest.raises(InvalidLength):
        ulid_decode("0000")
    with pytest.raises(InvalidLength):
        ulid_decode("0" * 27)


def test_ulid_decode_rejects_u():
    with pytest.raises(InvalidCharacter):
        ulid_decode("0000000000000000000000000U")


def test_ulid_decode_lowercase_and_aliases():
    canonical = ulid_encode(12345678901234567890)
    assert ulid_decode(canonical.lower()) == 12345678901234567890
    assert ulid_decode("0000000000000000000000000o") == 0
    assert ulid_decode("0000000000000000000000000I") == 1
    assert ulid_decode("0000000000000000000000000l") == 1


def test_ulid_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(10_000):
        value = rng.getrandbits(128)
        assert ulid_decode(ulid_encode(value)) == value


def test_ulid_order_preservation():
    rng = random.Random(11)
    for _ in range(10_000):
        a = rng.getrandbits(128)
        b = rng.getrandbits(128)
        assert (a < b) == (ulid_encode(a) < ulid_encode(b))


def test_codec_module_keeps_no_table_temporaries():
    # Every private module-level name is a table some codec function reads;
    # a loop variable left over from building the tables would be none.
    read = set()
    for obj in vars(codec).values():
        if inspect.isfunction(obj) and obj.__module__ == codec.__name__:
            read.update(obj.__code__.co_names)
    private = {name for name in vars(codec) if name.startswith("_") and not name.startswith("__")}
    assert private and private <= read


def test_ulid_alphabet_is_strictly_increasing():
    codes = [ord(c) for c in CROCKFORD_ALPHABET]
    assert codes == sorted(codes)
    assert len(set(codes)) == 32


def test_uuid_format_zero():
    assert uuid_format(0) == "00000000-0000-0000-0000-000000000000"


def test_uuid_format_max():
    assert uuid_format(UID_MAX) == "ffffffff-ffff-ffff-ffff-ffffffffffff"


def test_uuid_format_rejects_out_of_range():
    with pytest.raises(ValueError):
        uuid_format(-1)
    with pytest.raises(ValueError):
        uuid_format(1 << 128)


def test_uuid_parse_version_nibble():
    value = uuid_parse("00000000-0000-4000-8000-000000000000")
    assert (value >> 76) & 0xF == 4


def test_uuid_parse_length():
    with pytest.raises(InvalidLength):
        uuid_parse("xyz")


def test_uuid_parse_misplaced_hyphen():
    with pytest.raises(MisplacedHyphen):
        uuid_parse("00000000000000000000000000000000-000")
    with pytest.raises(MisplacedHyphen):
        uuid_parse("000000000-000-4000-8000-00000000000-")


def test_uuid_parse_bad_character():
    with pytest.raises(InvalidCharacter):
        uuid_parse("0000000g-0000-4000-8000-000000000000")
    with pytest.raises(InvalidCharacter):
        uuid_parse("0000000 -0000-4000-8000-000000000000")


def test_uuid_parse_accepts_uppercase():
    assert uuid_parse("FFFFFFFF-FFFF-FFFF-FFFF-FFFFFFFFFFFF") == UID_MAX


def test_uuid_round_trip_seeded():
    rng = random.Random(13)
    for _ in range(10_000):
        value = rng.getrandbits(128)
        assert uuid_parse(uuid_format(value)) == value


def test_serialized_lengths_are_fixed():
    rng = random.Random(17)
    for _ in range(200):
        value = rng.getrandbits(128)
        assert len(ulid_encode(value)) == 26
        assert len(uuid_format(value)) == 36


# --- fast paths against the reference loops -----------------------------------
#
# ulid_decode and uuid_parse return early on valid input through int(); every
# other input must meet the same fate as in the per-character loops below,
# which are the decoders as they were before the fast paths.

_REF_ULID_DIGIT = {c: i for i, c in enumerate(CROCKFORD_ALPHABET)}
_REF_ULID_DIGIT.update({c.lower(): i for i, c in enumerate(CROCKFORD_ALPHABET)})
_REF_ULID_DIGIT.update({"O": 0, "o": 0, "I": 1, "i": 1, "L": 1, "l": 1})
_REF_HEX_DIGITS = set("0123456789abcdefABCDEF")


def reference_ulid_decode(text):
    if len(text) != 26:
        raise InvalidLength(f"ULID must be 26 characters, got {len(text)}")
    value = 0
    for ch in text:
        digit = _REF_ULID_DIGIT.get(ch)
        if digit is None:
            raise InvalidCharacter(f"character {ch!r} is not in the ULID alphabet")
        value = (value << 5) | digit
    if value > UID_MAX:
        raise Overflow("leading character above '7' does not fit in 128 bits")
    return value


def reference_uuid_parse(text):
    if len(text) != 36:
        raise InvalidLength(f"UUID must be 36 characters, got {len(text)}")
    if text.count("-") != 4 or any(text[i] != "-" for i in (8, 13, 18, 23)):
        raise MisplacedHyphen("hyphens must sit at positions 8, 13, 18 and 23")
    digits = text.replace("-", "")
    for ch in digits:
        if ch not in _REF_HEX_DIGITS:
            raise InvalidCharacter(f"character {ch!r} is not a hexadecimal digit")
    return int(digits, 16)


def outcome(decoder, text):
    """The value, or the exception class and message, that ``decoder`` gives."""
    try:
        return decoder(text)
    except CodecError as exc:
        return type(exc), str(exc)


# Characters int() accepts or reinterprets where the loops reject them: the
# digit separator, whitespace, signs, base-36 'U', the hex prefix 'x', and
# non-ASCII decimal digits (ARABIC-INDIC THREE, FULLWIDTH ONE).
TRAPS = ["_", " ", "\t", "+", "-", "U", "u", "x", "X", "\u0663", "\uff11"]
ULID_CHARS = CROCKFORD_ALPHABET + CROCKFORD_ALPHABET.lower() + "IiLlOo"
HEX_CHARS = "0123456789abcdefABCDEF-"
uids = st.integers(0, UID_MAX)
# Step k of ulid_encode's spread lifts the digits whose index has bit k set;
# the lowest of them starts at bit 5 * 2^k. These values sit on both sides of
# each such start, and at the ends of the range.
SPREAD_BOUNDARIES = [0, UID_MAX] + [2 ** (5 << k) + d for k in range(5) for d in (-1, 0, 1)]


def at_spread_boundaries(test):
    for value in SPREAD_BOUNDARIES:
        test = example(value)(test)
    return test


def text_of(length, alphabet):
    """Text of ``length`` drawn mostly from ``alphabet``, with traps and any character."""
    chars = st.one_of(st.sampled_from(alphabet), st.sampled_from(TRAPS), st.characters())
    return st.text(chars, min_size=length, max_size=length)


def replace_one(text, data):
    """``text`` with one character, at a drawn position, replaced by a trap."""
    i = data.draw(st.integers(0, len(text) - 1))
    return text[:i] + data.draw(st.sampled_from(TRAPS)) + text[i + 1 :]


@settings(max_examples=200, deadline=None)
@given(text_of(26, ULID_CHARS))
@example("8ZZZZZZZZZZZZZZZZZZZZZZZZZ")
@example("0000000000000000000000000\u0663")
def test_ulid_decode_matches_reference_on_any_text(text):
    assert outcome(ulid_decode, text) == outcome(reference_ulid_decode, text)


@settings(max_examples=300, deadline=None)
@given(uids, st.booleans(), st.data())
def test_ulid_decode_matches_reference_with_one_trap(value, lower, data):
    text = ulid_encode(value)
    text = replace_one(text.lower() if lower else text, data)
    assert outcome(ulid_decode, text) == outcome(reference_ulid_decode, text)


@pytest.mark.parametrize("position", [0, 12, 25])
def test_ulid_decode_matches_reference_on_every_substitution(position):
    valid = ulid_encode(0x0123456789ABCDEF0123456789ABCDEF)
    for ch in [chr(code) for code in range(256)] + [t for t in TRAPS if ord(t) > 255]:
        text = valid[:position] + ch + valid[position + 1 :]
        assert outcome(ulid_decode, text) == outcome(reference_ulid_decode, text), repr(ch)


@pytest.mark.parametrize("lead", sorted(set(CROCKFORD_ALPHABET[8:] + CROCKFORD_ALPHABET[8:].lower())))
def test_ulid_decode_overflows_on_every_leading_digit_above_7(lead):
    text = lead + "0" * 25
    overflow = (Overflow, "leading character above '7' does not fit in 128 bits")
    assert outcome(codec.decode, text) == outcome(reference_ulid_decode, text) == overflow


@settings(max_examples=200, deadline=None)
@given(text_of(36, HEX_CHARS))
@example("0x000000-0000-4000-8000-000000000000")
@example("0X000000-0000-4000-8000-000000000000")
@example("00000000-0000-4000-8000-00000000000\uff11")
def test_uuid_parse_matches_reference_on_any_text(text):
    assert outcome(uuid_parse, text) == outcome(reference_uuid_parse, text)


@settings(max_examples=300, deadline=None)
@given(uids, st.booleans(), st.data())
def test_uuid_parse_matches_reference_with_one_trap(value, upper, data):
    text = uuid_format(value)
    text = replace_one(text.upper() if upper else text, data)
    assert outcome(uuid_parse, text) == outcome(reference_uuid_parse, text)


@pytest.mark.parametrize("position", [0, 1, 8, 20, 35])
def test_uuid_parse_matches_reference_on_every_substitution(position):
    # Position 1 is where int() would read an "0x" prefix; 8 holds a hyphen.
    valid = uuid_format(0x0123456789ABCDEF0123456789ABCDEF)
    for ch in [chr(code) for code in range(256)] + [t for t in TRAPS if ord(t) > 255]:
        text = valid[:position] + ch + valid[position + 1 :]
        assert outcome(uuid_parse, text) == outcome(reference_uuid_parse, text), repr(ch)


@settings(max_examples=300, deadline=None)
@given(st.one_of(text_of(26, ULID_CHARS), text_of(36, HEX_CHARS)))
@example(ulid_encode(UID_MAX))
@example(uuid_format(UID_MAX))
@example("8ZZZZZZZZZZZZZZZZZZZZZZZZZ")
def test_decode_returns_an_int_or_raises_a_codec_error(text):
    # The reject loops only look for an invalid character; one that finds
    # none would fall off the end of the decoder and return None.
    result = outcome(codec.decode, text)
    assert type(result) is int or issubclass(result[0], CodecError), result


@settings(deadline=None)
@given(uids)
@at_spread_boundaries
def test_codec_property_matches_oracle_and_round_trips(value):
    text = ulid_encode(value)
    assert text == reference_base32(value)
    assert ulid_decode(text) == value
    assert uuid_parse(uuid_format(value)) == value


@settings(deadline=None)
@given(uids)
@at_spread_boundaries
def test_uuid_format_matches_stdlib(value):
    assert uuid_format(value) == str(uuid.UUID(int=value))


@settings(deadline=None)
@given(uids, uids)
def test_ulid_encode_property_preserves_order(a, b):
    assert (a < b) == (ulid_encode(a) < ulid_encode(b))

import ast
import inspect
import itertools
import random
import uuid
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uidlab import codec, core
from uidlab.bench import BenchConfig, SimulatedTimer, run_generation_bench
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
from uidlab.core import FixedClock, IdScheme, MonotonicState, SeededEntropy

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


def test_decode_fast_paths_translate_without_a_delete_set():
    # From a delete set, bytes.translate rebuilds a 256-entry lookup on every
    # call; a bytes needle in an `in` test raises and clears a TypeError before
    # its subsequence search. Every table maps invalid bytes to '!' instead,
    # found with the int needle 33, and no call deletes any byte.
    tree = ast.parse(Path(codec.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "translate":
            if node.args[1:] or node.keywords:
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare):
            for op, needle in zip(node.ops, [node.left, *node.comparators]):
                bytes_needle = isinstance(needle, ast.Constant) and isinstance(needle.value, bytes)
                if isinstance(op, (ast.In, ast.NotIn)) and bytes_needle:
                    found.append((node.lineno, ast.unparse(node)))
    assert found == []


def test_hot_paths_resolve_nothing_per_call():
    # int.from_bytes and bytes.fromhex are classmethods and build a bound
    # method at each read, a binascii function read through its module costs
    # a module attribute lookup per call, and encode("ascii") parses its
    # argument and normalises the codec name on every call. core and codec read
    # names bound once instead, and ulid_decode encodes text that its isascii()
    # test has passed, where the UTF-8 default gives the same bytes.
    # Module-level code runs once, at import, and is exempt.
    def in_functions(module):
        tree = ast.parse(Path(module.__file__).read_text())
        return [inner for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) for inner in ast.walk(node)]

    found = [
        ("core", node.lineno, ast.unparse(node))
        for node in in_functions(core)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "int.from_bytes"
    ]
    found += [
        ("codec", node.lineno, ast.unparse(node))
        for node in in_functions(codec)
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "encode"
            and (node.args or node.keywords)
        )
        or (
            isinstance(node, ast.Attribute)
            and (ast.unparse(node) in ("int.from_bytes", "bytes.fromhex") or ast.unparse(node.value) == "binascii")
        )
    ]
    assert found == []


def test_ulid_alphabet_is_strictly_increasing():
    codes = [ord(c) for c in CROCKFORD_ALPHABET]
    assert codes == sorted(codes)
    assert len(set(codes)) == 32


def test_uuid_format_zero():
    assert uuid_format(0) == "00000000-0000-0000-0000-000000000000"


def test_uuid_format_max():
    assert uuid_format(UID_MAX) == "ffffffff-ffff-ffff-ffff-ffffffffffff"


def test_uuid_format_rejects_out_of_range():
    for value in (-1, 1 << 128, -(1 << 200)):
        with pytest.raises(ValueError) as raised:
            uuid_format(value)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"value outside [0, 2^128 - 1]: {value}"
        assert raised.value.__suppress_context__


def test_uuid_format_takes_a_bool_as_its_int():
    assert uuid_format(True) == "00000000-0000-0000-0000-000000000001"


@pytest.mark.parametrize("value", [v for k in range(1, 16) for v in (2 ** (8 * k) - 1, 2 ** (8 * k))])
def test_uuid_format_matches_stdlib_at_every_byte_boundary(value):
    assert uuid_format(value) == str(uuid.UUID(int=value))


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


@pytest.mark.parametrize("monotonic", [False, True], ids=["plain", "monotonic"])
@pytest.mark.parametrize("scheme", list(IdScheme), ids=lambda s: s.cli_name)
def test_minter_text_decodes_to_the_scheme_layout(scheme, monotonic):
    state = MonotonicState() if monotonic else None
    mint = codec.minter(scheme, FixedClock(1_700_000_000_123), SeededEntropy(5), state)
    for _ in range(50):
        text = mint()
        assert len(text) == scheme.text_length
        value = codec.decode(text)
        if scheme is not IdScheme.ULID:
            version = {IdScheme.UUID_V4: 4, IdScheme.UUID_V7: 7}[scheme]
            assert (core.version_of(value), core.variant_bits_of(value)) == (version, 0b10)
        if scheme.time_ordered:
            assert core.extract_timestamp(value, scheme) == 1_700_000_000_123


def test_minter_with_a_state_strictly_increases_within_one_millisecond():
    mint = codec.minter(IdScheme.ULID, FixedClock(42), SeededEntropy(8), MonotonicState())
    texts = [mint() for _ in range(1_000)]
    assert all(a < b for a, b in zip(texts, texts[1:]))
    assert {codec.decode(text) >> 80 for text in texts} == {42}


def test_minter_and_bench_reach_generator_and_encoder_when_they_run(monkeypatch):
    # A tracer patches core.generate_* and codec.*_encode/uuid_format in their
    # home modules; a minter made before the patch must still call through it.
    mint = codec.minter(IdScheme.UUID_V7, FixedClock(7), SeededEntropy(1))
    calls = {"generate": 0, "encode": 0}

    def counting(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(core, "generate_uuidv7", counting("generate", core.generate_uuidv7))
    monkeypatch.setattr(codec, "uuid_format", counting("encode", codec.uuid_format))
    mint()
    assert calls == {"generate": 1, "encode": 1}
    cfg = BenchConfig(IdScheme.UUID_V7, sample_interval=0, total_samples=3, ids_per_sample=10)
    run_generation_bench(cfg, FixedClock(7), SeededEntropy(1), timer_ns=SimulatedTimer())
    assert calls == {"generate": 31, "encode": 31}


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
# digit separator, the ASCII whitespace that int() strips and bytes.fromhex
# skips between byte pairs, signs, base-36 'U', the hex prefix 'x', and
# non-ASCII decimal digits (ARABIC-INDIC THREE, FULLWIDTH ONE); '!', the
# byte the ULID decode table maps every invalid character to; and lone
# surrogates, on which a UTF-8 encode would raise (a non-UTF-8 argv byte
# reads as one of U+DC80 to U+DCFF).
TRAPS = [
    "_", " ", "\t", "\n", "\r", "\x0b", "\x0c", "+", "-", "U", "u", "x", "X", "\u0663", "\uff11", "!", "\ud800", "\udcff"
]
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
@example("!0000000000000000000000000")
@example("0000000000000000000000000!")
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
@example("00000000-00!0-4000-8000-000000000000")
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


def test_uuid_parse_matches_reference_with_ascii_whitespace():
    # A reader that skips ASCII whitespace before a byte pair, as bytes.fromhex
    # does, turns two whitespace characters in place of one pair into 15
    # octets from 32 characters; binascii.unhexlify rejects them outright.
    # One in place of a single digit splits a pair, and both readers raise.
    whitespace = " \t\n\r\x0b\x0c"
    valid = uuid_format(0x0123456789ABCDEF0123456789ABCDEF)
    digit_at = [i for i, ch in enumerate(valid) if ch != "-"]
    for i, a, b in itertools.product(digit_at[::2], whitespace, whitespace):
        # No hyphen splits a pair: every group holds an even number of digits.
        text = valid[:i] + a + b + valid[i + 2 :]
        assert len(bytes.fromhex(text.replace("-", ""))) == 15
        assert outcome(uuid_parse, text) == outcome(reference_uuid_parse, text), (i, a, b)
    for i, a in itertools.product(digit_at, whitespace):
        text = valid[:i] + a + valid[i + 1 :]
        assert outcome(uuid_parse, text) == outcome(reference_uuid_parse, text), (i, a)


@settings(max_examples=300, deadline=None)
@given(st.one_of(text_of(26, ULID_CHARS), text_of(36, HEX_CHARS)))
@example(ulid_encode(UID_MAX))
@example(uuid_format(UID_MAX))
@example("8ZZZZZZZZZZZZZZZZZZZZZZZZZ")
def test_decode_returns_an_int_or_raises_a_codec_error(text):
    # A reject names the first character that str.lstrip of the accepted ones
    # leaves; were it to leave none, indexing it would raise IndexError,
    # which is not a CodecError either.
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

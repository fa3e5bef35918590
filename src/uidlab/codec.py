"""Canonical text forms: Crockford base32 for ULID, hyphenated hex for UUID.

A ULID string is 26 characters over the alphabet 0-9 A-Z minus I, L, O, U.
26 base-32 digits hold 130 bits; the two extra bits are leading zero padding,
which caps the first character at '7'. Because the alphabet is strictly
increasing in character code and the length is fixed, plain byte-wise string
comparison of two ULID strings equals integer comparison of their values.

A UUID string is the usual 8-4-4-4-12 lowercase hexadecimal form, 36
characters including the four hyphens.
"""

from __future__ import annotations

from binascii import unhexlify as _unhexlify

from . import core
from .core import UID128_MAX, IdScheme, Uid128

__all__ = [
    "CROCKFORD_ALPHABET",
    "ULID_TEXT_LENGTH",
    "UUID_TEXT_LENGTH",
    "CodecError",
    "InvalidLength",
    "InvalidCharacter",
    "Overflow",
    "MisplacedHyphen",
    "ulid_encode",
    "ulid_decode",
    "uuid_format",
    "uuid_parse",
    "minter",
    "decode",
    "serialized_size",
]

CROCKFORD_ALPHABET = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"
ULID_TEXT_LENGTH = IdScheme.ULID.text_length
UUID_TEXT_LENGTH = IdScheme.UUID_V4.text_length


class CodecError(ValueError):
    """Base class for text codec failures."""


class InvalidLength(CodecError):
    pass


class InvalidCharacter(CodecError):
    pass


class Overflow(CodecError):
    """The string denotes a value above 2^128 - 1 (ULID leading char > '7')."""


class MisplacedHyphen(CodecError):
    pass


# Decoding accepts lowercase plus the Crockford aliases; 'U' stays invalid.
# Rejects name the first character left after str.lstrip of these.
_ULID_CHARS = CROCKFORD_ALPHABET + CROCKFORD_ALPHABET.lower() + "OoIiLl"
_HEX_CHARS = "0123456789abcdefABCDEF-"

# ULID decoding fast path, as a 256-byte table for bytes.translate: the
# character at index i of _ULID_CHARS maps to the digit int() reads for it,
# and every other byte, which find() misses with -1, to the sentinel '!'
# (33), so text whose digits hold a 33 is rejected. The invalid bytes are not
# deleted: CPython walks a delete set into a fresh 256-entry lookup on every
# call, which for about 200 bytes cost more than the int() after it. Test for
# the sentinel with the int 33: a bytes needle first raises and clears a
# TypeError inside CPython.
_TO_BASE32 = bytes(
    (b"0123456789abcdefghijklmnopqrstuv" * 2 + b"001111!")[_ULID_CHARS.find(chr(b))] for b in range(256)
)

# Encoding spreads the 26 five-bit digits of a value one per byte, then maps
# each byte to its character. Digit j, counted from the least significant,
# starts at bit 5j and must end at bit 8j, a lift of 3j bits; step k (4 down
# to 0) lifts every digit whose j has bit k set by 3 * 2^k bits. _M<k> holds
# those digits' bits where they sit before step k: earlier steps have lifted
# them by 3 * (j with bits 0..k cleared).
_M4, _M3, _M2, _M1, _M0 = (
    sum(31 << 5 * j + 3 * (j >> k + 1 << k + 1) for j in range(ULID_TEXT_LENGTH) if j >> k & 1)
    for k in (4, 3, 2, 1, 0)
)
_BYTE_TO_CHAR = bytes.maketrans(bytes(range(32)), CROCKFORD_ALPHABET.encode("ascii"))

# Bound once: a classmethod builds a method at each lookup. _unhexlify, from
# the C extension module binascii, is bound once by its import.
_from_bytes = int.from_bytes


def ulid_encode(value: Uid128) -> str:
    """Render a 128-bit value as its 26-character canonical ULID string."""
    if not 0 <= value <= UID128_MAX:
        raise ValueError(f"value outside [0, 2^128 - 1]: {value}")
    # x + (x & M) * (2^s - 1) moves the bits under M up by s in one multiply;
    # no step's destinations overlap the bits it leaves, so nothing carries.
    x = value + (value & _M4) * ((1 << 48) - 1)
    x += (x & _M3) * ((1 << 24) - 1)
    x += (x & _M2) * ((1 << 12) - 1)
    x += (x & _M1) * ((1 << 6) - 1)
    x += (x & _M0) * ((1 << 3) - 1)
    return x.to_bytes(ULID_TEXT_LENGTH, "big").translate(_BYTE_TO_CHAR).decode()


def ulid_decode(text: str) -> Uid128:
    """Parse a ULID string back to its 128-bit value.

    Case-insensitive; the aliases I and L read as 1 and O reads as 0. One
    ``bytes.translate`` through a 256-byte table maps valid characters to the
    base-32 digits that ``int(..., 32)`` reads and every other byte to ``!``.
    Text that comes out holding a ``!``, or is not ASCII, holds an invalid
    character, and the first one left after ``str.lstrip`` of the accepted
    characters is the one named. The ``isascii()`` test is what lets the fast
    path encode without a codec name: UTF-8 gives the same bytes for ASCII,
    and a lone surrogate, on which it raises, never reaches it.
    """
    if len(text) != ULID_TEXT_LENGTH:
        raise InvalidLength(f"ULID must be {ULID_TEXT_LENGTH} characters, got {len(text)}")
    if text.isascii():
        digits = text.encode().translate(_TO_BASE32)
        if 33 not in digits:
            value = int(digits, 32)
            if value <= UID128_MAX:
                return value
            raise Overflow("leading character above '7' does not fit in 128 bits")
    raise InvalidCharacter(f"character {text.lstrip(_ULID_CHARS)[0]!r} is not in the ULID alphabet")


def uuid_format(value: Uid128) -> str:
    """Render a 128-bit value as the lowercase 8-4-4-4-12 UUID string.

    ``to_bytes`` is the range test; ``hex('-', 2)`` writes the middle three groups.
    """
    try:
        b = value.to_bytes(16, "big")
    except OverflowError:
        raise ValueError(f"value outside [0, 2^128 - 1]: {value}") from None
    return f"{b[:4].hex()}-{b[4:10].hex('-', 2)}-{b[10:].hex()}"


def uuid_parse(text: str) -> Uid128:
    """Parse a hyphenated UUID string (either case) back to its 128-bit value.

    With the four hyphens in place and no other, the 32 characters left when
    they are removed go through ``binascii.unhexlify``, which raises on any
    character that is not a hex digit, whitespace, non-ASCII characters and
    lone surrogates included, so only 32 hex digits reach ``int.from_bytes``,
    as 16 octets. The checks after name the fault: a hyphen elsewhere, or the
    first character left after ``str.lstrip`` of the hex digits.
    """
    if len(text) != UUID_TEXT_LENGTH:
        raise InvalidLength(f"UUID must be {UUID_TEXT_LENGTH} characters, got {len(text)}")
    if text[8:24:5] == "----":
        digits = text.replace("-", "")
        if len(digits) == 32:
            try:
                return _from_bytes(_unhexlify(digits), "big")
            except ValueError:
                pass
    if text.count("-") != 4 or text[8:24:5] != "----":
        raise MisplacedHyphen("hyphens must sit at positions 8, 13, 18 and 23")
    raise InvalidCharacter(f"character {text.lstrip(_HEX_CHARS)[0]!r} is not a hexadecimal digit")


def minter(scheme: IdScheme, clock=None, rng=None, state=None):
    """A callable returning the next ``scheme`` id as canonical text on each call.

    With a ``state``, ULIDs come from :func:`core.next_monotonic_ulid`; the
    other schemes have no monotonic form and ignore it. The generator and the
    encoder are looked up when the callable runs, not when it is made, so a
    patch of either in its home module applies to a minter made before it.
    """
    if scheme is IdScheme.UUID_V4:
        return lambda: uuid_format(core.generate_uuidv4(rng))
    if scheme is IdScheme.UUID_V7:
        return lambda: uuid_format(core.generate_uuidv7(clock, rng))
    if state is not None:
        return lambda: ulid_encode(core.next_monotonic_ulid(state, clock, rng))
    return lambda: ulid_encode(core.generate_ulid(clock, rng))


def decode(text: str) -> Uid128:
    """Parse either canonical form, told apart by length: 26 is ULID, 36 is UUID."""
    if len(text) == ULID_TEXT_LENGTH:
        return ulid_decode(text)
    if len(text) == UUID_TEXT_LENGTH:
        return uuid_parse(text)
    raise InvalidLength(f"{text!r} is neither 26 (ULID) nor 36 (UUID) characters")


def serialized_size(scheme: IdScheme, bytes_per_char: int) -> int:
    """Bytes one serialized identifier occupies on the wire.

    26 or 36 characters times the character width: ULID is 52 bytes and a
    UUID 72 bytes at two bytes per character, 26 and 36 at one.
    """
    if bytes_per_char not in (1, 2):
        raise ValueError("bytes_per_char must be 1 or 2")
    return scheme.text_length * bytes_per_char

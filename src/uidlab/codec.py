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
    "encoder_for",
    "decode",
]

CROCKFORD_ALPHABET = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"
ULID_TEXT_LENGTH = 26
UUID_TEXT_LENGTH = 36


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
_ULID_DIGIT = {c: i for i, c in enumerate(CROCKFORD_ALPHABET)}
_ULID_DIGIT.update({c.lower(): i for i, c in enumerate(CROCKFORD_ALPHABET)})
_ULID_DIGIT.update({"O": 0, "o": 0, "I": 1, "i": 1, "L": 1, "l": 1})

# Decoding fast path, as byte tables for bytes.translate: an accepted
# character maps to the standard base-32 digit int(..., 32) reads, and every
# other byte is deleted, so invalid text comes out short and goes to the loop.
_TO_BASE32 = bytes.maketrans(
    "".join(_ULID_DIGIT).encode("ascii"),
    "".join("0123456789abcdefghijklmnopqrstuv"[i] for i in _ULID_DIGIT.values()).encode("ascii"),
)
_NOT_BASE32 = bytes(b for b in range(256) if chr(b) not in _ULID_DIGIT)

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
_HEX_DIGITS = set("0123456789abcdefABCDEF")
_NOT_HEX = bytes(b for b in range(256) if chr(b) not in _HEX_DIGITS)


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
    ``bytes.translate`` maps valid characters to the base-32 digits that
    ``int(..., 32)`` reads and deletes the rest. Text that loses a character
    there, or is not ASCII, holds an invalid one; the loop only names the first.
    """
    if len(text) != ULID_TEXT_LENGTH:
        raise InvalidLength(f"ULID must be {ULID_TEXT_LENGTH} characters, got {len(text)}")
    if text.isascii():
        digits = text.encode("ascii").translate(_TO_BASE32, _NOT_BASE32)
        if len(digits) == ULID_TEXT_LENGTH:
            value = int(digits, 32)
            if value <= UID128_MAX:
                return value
            raise Overflow("leading character above '7' does not fit in 128 bits")
    for ch in text:
        if ch not in _ULID_DIGIT:
            raise InvalidCharacter(f"character {ch!r} is not in the ULID alphabet")


def uuid_format(value: Uid128) -> str:
    """Render a 128-bit value as the lowercase 8-4-4-4-12 UUID string."""
    if not 0 <= value <= UID128_MAX:
        raise ValueError(f"value outside [0, 2^128 - 1]: {value}")
    s = value.to_bytes(16, "big").hex()
    return f"{s[0:8]}-{s[8:12]}-{s[12:16]}-{s[16:20]}-{s[20:32]}"


def uuid_parse(text: str) -> Uid128:
    """Parse a hyphenated UUID string (either case) back to its 128-bit value.

    With the four hyphens in place, one ``bytes.translate`` deletes every
    non-hex byte and ``int(..., 16)`` reads the 32 digits left. Any other text
    with those hyphens holds a non-hex character; the loop only names the first.
    """
    if len(text) != UUID_TEXT_LENGTH:
        raise InvalidLength(f"UUID must be {UUID_TEXT_LENGTH} characters, got {len(text)}")
    if text[8:24:5] == "----" and text.isascii():
        digits = text.encode("ascii").translate(None, _NOT_HEX)
        if len(digits) == 32:
            return int(digits, 16)
    if text.count("-") != 4 or text[8:24:5] != "----":
        raise MisplacedHyphen("hyphens must sit at positions 8, 13, 18 and 23")
    for ch in text:
        if ch not in _HEX_DIGITS and ch != "-":
            raise InvalidCharacter(f"character {ch!r} is not a hexadecimal digit")


def encoder_for(scheme: IdScheme):
    """The function rendering ``scheme`` values as canonical text."""
    return ulid_encode if scheme.text_length == ULID_TEXT_LENGTH else uuid_format


def decode(text: str) -> Uid128:
    """Parse either canonical form, told apart by length: 26 is ULID, 36 is UUID."""
    if len(text) == ULID_TEXT_LENGTH:
        return ulid_decode(text)
    if len(text) == UUID_TEXT_LENGTH:
        return uuid_parse(text)
    raise InvalidLength(f"{text!r} is neither 26 (ULID) nor 36 (UUID) characters")

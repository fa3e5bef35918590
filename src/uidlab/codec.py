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
for _alias, _canonical in (("O", "0"), ("o", "0"), ("I", "1"), ("i", "1"), ("L", "1"), ("l", "1")):
    _ULID_DIGIT[_alias] = _ULID_DIGIT[_canonical]

# Encoding looks up 10 bits at a time in all 1,024 two-character digit pairs.
# One f-string joins the 13 pairs into one new string; chained + would build
# 11 throwaway intermediates.
_ULID_PAIRS = tuple(a + b for a in CROCKFORD_ALPHABET for b in CROCKFORD_ALPHABET)
# Decoding fast path: ASCII code -> standard base-32 digit; None deletes the
# character, so any invalid one shortens the text and sends it to the loop.
_TO_BASE32 = tuple(
    "0123456789abcdefghijklmnopqrstuv"[_ULID_DIGIT[chr(i)]] if chr(i) in _ULID_DIGIT else None
    for i in range(128)
)
_HEX_DIGITS = set("0123456789abcdefABCDEF")
_LOW30 = (1 << 30) - 1


def ulid_encode(value: Uid128) -> str:
    """Render a 128-bit value as its 26-character canonical ULID string."""
    if not 0 <= value <= UID128_MAX:
        raise ValueError(f"value outside [0, 2^128 - 1]: {value}")
    # Split once into 30-bit chunks (the top one holds 38 bits), so the 12
    # shift-and-mask steps run on one- or two-digit ints, not a 128-bit one.
    t = _ULID_PAIRS
    a, b, c, d = value >> 90, value >> 60 & _LOW30, value >> 30 & _LOW30, value & _LOW30
    return (
        f"{t[a >> 30]}{t[a >> 20 & 1023]}{t[a >> 10 & 1023]}{t[a & 1023]}"
        f"{t[b >> 20]}{t[b >> 10 & 1023]}{t[b & 1023]}"
        f"{t[c >> 20]}{t[c >> 10 & 1023]}{t[c & 1023]}"
        f"{t[d >> 20]}{t[d >> 10 & 1023]}{t[d & 1023]}"
    )


def ulid_decode(text: str) -> Uid128:
    """Parse a ULID string back to its 128-bit value.

    Case-insensitive; the aliases I and L read as 1 and O reads as 0. Valid
    text takes the ``int(..., 32)`` fast path; anything else goes through
    the per-character loop, which raises the precise error.
    """
    if len(text) != ULID_TEXT_LENGTH:
        raise InvalidLength(f"ULID must be {ULID_TEXT_LENGTH} characters, got {len(text)}")
    if text.isascii():
        digits = text.translate(_TO_BASE32)
        if len(digits) == ULID_TEXT_LENGTH:
            value = int(digits, 32)
            if value <= UID128_MAX:
                return value
    value = 0
    for ch in text:
        digit = _ULID_DIGIT.get(ch)
        if digit is None:
            raise InvalidCharacter(f"character {ch!r} is not in the ULID alphabet")
        value = (value << 5) | digit
    if value > UID128_MAX:
        raise Overflow("leading character above '7' does not fit in 128 bits")
    return value


def uuid_format(value: Uid128) -> str:
    """Render a 128-bit value as the lowercase 8-4-4-4-12 UUID string."""
    if not 0 <= value <= UID128_MAX:
        raise ValueError(f"value outside [0, 2^128 - 1]: {value}")
    s = value.to_bytes(16, "big").hex()
    return f"{s[0:8]}-{s[8:12]}-{s[12:16]}-{s[16:20]}-{s[20:32]}"


def uuid_parse(text: str) -> Uid128:
    """Parse a hyphenated UUID string (either case) back to its 128-bit value."""
    if len(text) != UUID_TEXT_LENGTH:
        raise InvalidLength(f"UUID must be {UUID_TEXT_LENGTH} characters, got {len(text)}")
    if text.count("-") != 4 or text[8:24:5] != "----":
        raise MisplacedHyphen("hyphens must sit at positions 8, 13, 18 and 23")
    digits = text.replace("-", "")
    # int() would also take a "0x" prefix, so an 'x' at index 1 skips the fast path.
    if digits.isascii() and digits.isalnum() and digits[1] not in "xX":
        try:
            return int(digits, 16)
        except ValueError:
            pass
    for ch in digits:
        if ch not in _HEX_DIGITS:
            raise InvalidCharacter(f"character {ch!r} is not a hexadecimal digit")
    return int(digits, 16)


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

"""Text encodings for 32-byte node and service hashes.

The overlay uses a filename-safe base64 variant ('+' -> '-', '/' -> '~')
for router hashes, and lowercase unpadded RFC 4648 base32 for service
addresses.
"""

from __future__ import annotations

import base64
import binascii
import re
from itertools import repeat
from typing import Sequence

HASH_LEN = 32

# 32 bytes -> 43 data chars + 1 pad char.
B64_LEN = 44

# ceil(256 / 5) base32 chars for a 32-byte digest.
B32_LEN = 52

B32_SUFFIX = ".b32.i2p"

_B64_ALTCHARS = b"-~"
_B64_RE = re.compile(r"[A-Za-z0-9\-~]{43}=?$")
# ASCII only: str.lower, like a Unicode IGNORECASE, reads U+212A KELVIN SIGN as "k".
_B32_RE = re.compile(r"[a-z2-7]{52}$", re.ASCII | re.IGNORECASE)


class InputError(ValueError):
    """A bad input value; the CLI reports it as one ``error:`` line, exit 2."""


class EncodingError(InputError):
    """Raised for malformed hash text forms."""


def check_hash(value: bytes, label: str = "hash") -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != HASH_LEN:
        raise EncodingError(f"{label} must be exactly {HASH_LEN} bytes")
    return bytes(value)


def _check_hashes(values: Sequence[bytes], label: str) -> Sequence[bytes]:
    """Raise as :func:`check_hash` would for the first bad value; else the
    values as bytes, as :func:`check_hash` returns them: ``values`` itself
    when each is bytes already, or a new tuple with each bytearray copied."""
    if not all(map(isinstance, values, repeat(bytes))):
        if not all(map(isinstance, values, repeat((bytes, bytearray)))):
            raise EncodingError(f"{label} must be exactly {HASH_LEN} bytes")
        values = tuple(map(bytes, values))
    if not set(map(len, values)) <= {HASH_LEN}:
        raise EncodingError(f"{label} must be exactly {HASH_LEN} bytes")
    return values


# base64's "+/" to the variant's "-~", built once: base64.b64encode with
# altchars builds this table again on every call.
_B64_TABLE = bytes.maketrans(b"+/", _B64_ALTCHARS)


def hash_to_b64(value: bytes) -> str:
    """Encode a 32-byte hash as the 44-char base64 variant (trailing '=')."""
    check_hash(value)
    return binascii.b2a_base64(value, newline=False).translate(_B64_TABLE).decode("ascii")


def hash_from_b64(text: str) -> bytes:
    """Decode the base64 variant; the trailing '=' may be omitted. A text
    that does not re-encode to itself (nonzero unused low bits in its last
    character) is rejected, so each hash has one spelling."""
    if not _B64_RE.fullmatch(text):
        raise EncodingError(f"not a base64-variant hash: {text!r}")
    padded = text if text.endswith("=") else text + "="
    try:
        value = base64.b64decode(padded, _B64_ALTCHARS, validate=True)
    except binascii.Error as exc:
        raise EncodingError(f"not a base64-variant hash: {text!r}") from exc
    if hash_to_b64(value) != padded:
        raise EncodingError(f"not the canonical base64-variant form of a hash: {text!r}")
    return value


def hash_to_b32(value: bytes) -> str:
    """Encode a 32-byte hash as 52 lowercase base32 chars, no padding."""
    check_hash(value)
    return base64.b32encode(value).decode("ascii").rstrip("=").lower()


def hash_from_b32(text: str) -> bytes:
    """Decode 52 ASCII base32 chars; mixed case accepted, suffix not handled
    here. A text whose case-folded form does not re-encode to itself
    (nonzero unused low bits in its last character) is rejected."""
    if len(text) != B32_LEN:
        raise EncodingError(f"base32 hash must be {B32_LEN} chars, got {len(text)}")
    if not _B32_RE.fullmatch(text):
        raise EncodingError(f"not a base32 hash: {text!r}")
    folded = text.lower()
    # 52 chars carry 260 bits; pad to the 56-char block base32 expects.
    value = base64.b32decode(folded.upper() + "====")
    if hash_to_b32(value) != folded:
        raise EncodingError(f"not the canonical base32 form of a hash: {text!r}")
    return value


def service_address(value: bytes) -> str:
    """The canonical service address of a 32-byte hash: lowercase base32 and the suffix."""
    return hash_to_b32(value) + B32_SUFFIX


def service_hash(text: str) -> bytes:
    """The 32-byte hash of a service address, read in any case, suffix optional."""
    return hash_from_b32(_strip_suffix(text))


def _strip_suffix(text: str) -> str:
    text = text.strip()
    if text.lower().endswith(B32_SUFFIX):
        text = text[: -len(B32_SUFFIX)]
    return text


def parse_hash_text(text: str) -> bytes:
    """Parse a hash given as hex, the base64 variant, or base32; only base32
    may carry the b32 suffix, since the suffix names a service address."""
    candidate = text.strip()
    if len(candidate) == 2 * HASH_LEN and re.fullmatch(r"[0-9a-fA-F]+", candidate):
        return bytes.fromhex(candidate)
    if len(candidate) in (B64_LEN - 1, B64_LEN):
        return hash_from_b64(candidate)
    address = _strip_suffix(candidate)
    if len(address) == B32_LEN:
        return hash_from_b32(address)
    raise EncodingError(f"unrecognized hash form: {text!r}")

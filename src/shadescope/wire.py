"""Bit-exact decoding, and fixture-grade encoding, of binary directory records.

Record layout:

    identity bytes (387 + certificate length)
    u64 BE   publish time, epoch milliseconds
    u8       address count
    per address:
        u8       cost
        u64 BE   expiration, epoch milliseconds
        u8-len   style string
        mapping  address options
    u8       peer count (always 0 on encode; peer hashes skipped on decode)
    mapping  router options
    signature: all remaining bytes, carried opaque

A mapping is a u16 BE byte length followed by entries of the form
(u8-len key, '=', u8-len value, ';') filling exactly that many bytes.
Keys are written in ascending byte order on encode; decode accepts any
order.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import Destination, DestinationError, RouterInfo, TransportAddress, int_option

MAPPING_MAX = 0xFFFF
_STYLE_RE = re.compile(r"[\x21-\x7e]{1,255}$")

# Transport styles the lenient extractor recognizes as length-prefixed tokens.
KNOWN_STYLES = ("NTCP2", "SSU2", "NTCP", "SSU")

_LENIENT_KEYS = ("caps", "router.version", "netdb.knownRouters", "netdb.knownLeaseSets")

# The option keys and styles this package reads by name, each mapped to
# itself: decoding looks a name up here and keeps the one shared string it
# finds, so records do not each hold a copy. A fixed table, not
# ``sys.intern``, because snapshot files are untrusted and interned strings
# may never be freed.
_NAMES = {name: name for name in (*_LENIENT_KEYS, "host", "port", *KNOWN_STYLES)}

# Publish time (u64) and address count (u8); per address, cost (u8),
# expiration (u64) and style length (u8).
_HEAD = struct.Struct(">QB")
_ADDRESS = struct.Struct(">BQB")


class DecodeError(ValueError):
    """Structured decode failure naming the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EncodeError(ValueError):
    """Record fields exceed the wire layout's limits."""


def decode_router_info(data: bytes) -> RouterInfo:
    """Strictly decode one record; raises :class:`DecodeError` on any defect.

    The identity is the leading :class:`Destination`; the record goes on after its key bytes.
    Every field has its declared type whatever buffer ``data`` is: the
    signature is ``bytes`` also when ``data`` is a ``bytearray``.
    """
    try:
        identity = Destination(data)
    except DestinationError:
        raise DecodeError("truncated identity", 0) from None
    n = len(data)
    pos = len(identity.data)
    if pos + 9 > n:
        if pos + 8 > n:
            raise DecodeError("truncated publish time", pos)
        raise DecodeError("truncated address count", pos + 8)
    published_ms, count = _HEAD.unpack_from(data, pos)
    pos += 9
    addresses = []
    for _ in range(count):
        # A short read names the offset of the field it cuts.
        if pos + 10 > n:
            short_at = pos if pos >= n else pos + 1 if pos + 9 > n else pos + 9
            raise DecodeError("truncated address", short_at)
        cost, expiration_ms, style_len = _ADDRESS.unpack_from(data, pos)
        style_at = pos + 10
        pos = style_at + style_len
        if pos > n:
            raise DecodeError("truncated address style", style_at)
        try:
            style = data[style_at:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("address style is not valid UTF-8", pos) from exc
        style = _NAMES.get(style, style)
        options, pos = _read_mapping(data, pos, n, "address options")
        addresses.append(TransportAddress._owning(style, cost, expiration_ms, options))
    if pos >= n:
        raise DecodeError("truncated peer count", pos)
    peers_at = pos + 1
    pos = peers_at + 32 * data[pos]
    if pos > n:
        raise DecodeError("truncated peer hashes", peers_at)
    options, pos = _read_mapping(data, pos, n, "router options")
    # The mappings are new dicts no one else holds, so the record keeps them.
    return RouterInfo._owning(identity, published_ms, tuple(addresses), options,
                              bytes(data[pos:]))


def _read_mapping(data: bytes, pos: int, n: int, what: str) -> tuple[dict[str, str], int]:
    """The mapping at ``pos`` of ``data[:n]``, and the offset just past it."""
    if pos + 2 > n:
        raise DecodeError(f"truncated {what} size", pos)
    end = pos + 2 + (data[pos] << 8 | data[pos + 1])
    pos += 2
    if end > n:
        raise DecodeError(f"truncated {what} mapping", pos)
    entries: dict[str, str] = {}
    shared = _NAMES.get
    body = data[pos:end]
    if body.isascii():
        # Every byte is one character, so one decode serves every entry,
        # sliced at byte offsets. Only well-formed entries are taken here;
        # at the first anomaly the loop below starts again from the mapping
        # start and raises its error.
        text = body.decode("ascii")
        size = end - pos
        at = 0
        while at < size:
            # The key's length byte, key, '=', the value's length byte, value, ';'.
            key_end = at + 1 + body[at]
            if key_end + 1 >= size or body[key_end] != 0x3D:  # '='
                break
            value_end = key_end + 2 + body[key_end + 1]
            if value_end >= size or body[value_end] != 0x3B:  # ';'
                break
            key = text[at + 1 : key_end]
            entries[shared(key, key)] = text[key_end + 2 : value_end]
            at = value_end + 1
        else:
            return entries, end
    try:
        while pos < end:
            pair = []
            for separator in b"=;":
                # A length byte is read even past the mapping's end (after an
                # '=' on its last byte); only the end of the data stops it.
                if pos >= n:
                    raise DecodeError(f"truncated {what} mapping", pos)
                start = pos + 1
                pos = start + data[pos]
                if pos > end:
                    raise DecodeError(f"{what} mapping length mismatch", start)
                pair.append(data[start:pos].decode("utf-8"))
                if pos >= end:
                    raise DecodeError(f"{what} mapping length mismatch", pos)
                if data[pos] != separator:
                    raise DecodeError(f"malformed {what} mapping entry: expected "
                                      f"{bytes([separator])!r}, got {data[pos:pos + 1]!r}", pos)
                pos += 1
            key, value = pair
            entries[shared(key, key)] = value
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{what} is not valid UTF-8", pos) from exc
    return entries, pos


def encode_router_info(record: RouterInfo) -> bytes:
    """Produce the exact byte form :func:`decode_router_info` inverts."""
    addresses = record.addresses
    parts = [record.identity.data, _uint(record.published_ms, 8, "publish time")]
    if len(addresses) > 255:
        raise EncodeError("more than 255 addresses")
    parts.append(bytes((len(addresses),)))
    for addr in addresses:
        style = addr.style
        if not _STYLE_RE.fullmatch(style):
            raise EncodeError(f"invalid style string: {style!r}")
        parts += (_uint(addr.cost, 1, "address cost"),
                  _uint(addr.expiration_ms, 8, "address expiration"),
                  bytes((len(style),)), style.encode("ascii"),
                  _encode_mapping(addr.options))
    parts += (b"\0", _encode_mapping(record.options), record.signature)  # peer count 0
    return b"".join(parts)


def _uint(value: int, size: int, what: str) -> bytes:
    try:
        return value.to_bytes(size, "big")
    except OverflowError:  # negative, or too wide for the field
        raise EncodeError(f"{what} does not fit an unsigned {size}-byte field: {value}") from None


def _encode_mapping(options: Mapping[str, str]) -> bytes:
    # Code-point order is UTF-8 byte order, so the keys sort as strings.
    entries = sorted(options.items())
    try:
        text = "".join([f"{chr(len(key))}{key}={chr(len(value))}{value};"
                        for key, value in entries])
        ascii_only = text.isascii()
    except ValueError:  # a string longer than chr() can count
        ascii_only = False
    if ascii_only:
        # Every length char is ASCII, so below 128: one byte per char,
        # and every string fits its length byte.
        body = text.encode("ascii")
    else:
        body = b"".join([_mapping_string(key) + b"=" + _mapping_string(value) + b";"
                         for key, value in entries])
    if len(body) > MAPPING_MAX:
        raise EncodeError(f"mapping exceeds {MAPPING_MAX} bytes")
    return len(body).to_bytes(2, "big") + body


def _mapping_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise EncodeError(f"mapping string exceeds 255 bytes: {text[:32]!r}...")
    return bytes([len(raw)]) + raw


@dataclass(frozen=True)
class LenientRecord:
    """Best-effort fields recovered from possibly-corrupt record bytes."""

    caps: Optional[str] = None
    version: Optional[str] = None
    known_routers: Optional[int] = None
    known_leasesets: Optional[int] = None
    styles: tuple[str, ...] = ()


def lenient_extract(data: bytes) -> LenientRecord:
    """Recover option values from arbitrary bytes; never raises.

    Mirrors a printable-strings sweep: option keys are located as
    length-prefixed printable tokens and their values re-read through the
    length byte that follows the '='. The last structurally valid match
    wins, since router options sit after the address blocks.
    """
    fields: dict[str, str] = {}
    for key in _LENIENT_KEYS:
        needle = bytes([len(key)]) + key.encode("ascii") + b"="
        value = _last_value(data, needle)
        if value is not None:
            fields[key] = value
    styles = []
    for style in KNOWN_STYLES:
        token = bytes([len(style)]) + style.encode("ascii")
        if token in data and style not in styles:
            styles.append(style)
    return LenientRecord(
        caps=fields.get("caps"),
        version=fields.get("router.version"),
        known_routers=int_option(fields.get("netdb.knownRouters")),
        known_leasesets=int_option(fields.get("netdb.knownLeaseSets")),
        styles=tuple(styles),
    )


def _last_value(data: bytes, needle: bytes) -> Optional[str]:
    result = None
    start = 0
    while True:
        pos = data.find(needle, start)
        if pos < 0:
            return result
        start = pos + 1
        value_at = pos + len(needle)
        if value_at >= len(data):
            continue
        length = data[value_at]
        raw = data[value_at + 1 : value_at + 1 + length]
        if len(raw) < length:
            continue
        if _is_printable(raw):
            result = raw.decode("ascii")


def _is_printable(raw: bytes) -> bool:
    return all(0x20 <= b <= 0x7E for b in raw)

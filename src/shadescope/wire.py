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
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import (
    Destination,
    DestinationError,
    DEST_MIN_LEN,
    RouterInfo,
    TransportAddress,
    int_option,
)

MAPPING_MAX = 0xFFFF
_STYLE_RE = re.compile(r"[\x21-\x7e]{1,255}$")

# Transport styles the lenient extractor recognizes as length-prefixed tokens.
KNOWN_STYLES = ("NTCP2", "SSU2", "NTCP", "SSU")

_LENIENT_KEYS = ("caps", "router.version", "netdb.knownRouters", "netdb.knownLeaseSets")


class DecodeError(ValueError):
    """Structured decode failure naming the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EncodeError(ValueError):
    """Record fields exceed the wire layout's limits."""


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise DecodeError(f"truncated {what}", self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "big")

    def u64(self, what: str) -> int:
        return int.from_bytes(self.take(8, what), "big")


def decode_router_info(data: bytes) -> RouterInfo:
    """Strictly decode one record; raises :class:`DecodeError` on any defect."""
    r = _Reader(data)
    identity = _read_identity(r)
    published_ms = r.u64("publish time")
    addr_count = r.u8("address count")
    addresses = tuple(_read_address(r) for _ in range(addr_count))
    peer_count = r.u8("peer count")
    r.take(32 * peer_count, "peer hashes")
    options = _read_mapping(r, "router options")
    signature = data[r.offset :]
    return RouterInfo(
        identity=identity,
        published_ms=published_ms,
        addresses=addresses,
        options=options,
        signature=signature,
    )


def _read_identity(r: _Reader) -> Destination:
    start = r.offset
    header = r.take(DEST_MIN_LEN, "identity")
    cert_len = int.from_bytes(header[-2:], "big")
    r.offset = start
    try:
        return Destination(r.take(DEST_MIN_LEN + cert_len, "identity"))
    except DestinationError as exc:
        raise DecodeError(str(exc), start) from exc


def _read_address(r: _Reader) -> TransportAddress:
    cost = r.u8("address")
    expiration_ms = r.u64("address")
    style_len = r.u8("address")
    style = _decode_text(r.take(style_len, "address style"), r.offset, "address style")
    options = _read_mapping(r, "address options")
    return TransportAddress(
        style=style, cost=cost, expiration_ms=expiration_ms, options=options
    )


def _read_mapping(r: _Reader, what: str) -> dict[str, str]:
    size = r.u16(f"{what} size")
    end = r.offset + size
    if end > len(r.data):
        raise DecodeError(f"truncated {what} mapping", r.offset)
    entries: dict[str, str] = {}
    while r.offset < end:
        key = _read_mapping_string(r, end, what)
        _expect(r, end, b"=", what)
        value = _read_mapping_string(r, end, what)
        _expect(r, end, b";", what)
        entries[key] = value
    if r.offset != end:
        raise DecodeError(f"{what} mapping length mismatch", r.offset)
    return entries


def _read_mapping_string(r: _Reader, end: int, what: str) -> str:
    length = r.u8(f"{what} mapping")
    if r.offset + length > end:
        raise DecodeError(f"{what} mapping length mismatch", r.offset)
    return _decode_text(r.take(length, f"{what} mapping"), r.offset, what)


def _expect(r: _Reader, end: int, token: bytes, what: str) -> None:
    if r.offset >= end:
        raise DecodeError(f"{what} mapping length mismatch", r.offset)
    got = r.take(1, f"{what} mapping")
    if got != token:
        raise DecodeError(
            f"malformed {what} mapping entry: expected {token!r}, got {got!r}",
            r.offset - 1,
        )


def _decode_text(raw: bytes, offset: int, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{what} is not valid UTF-8", offset) from exc


def encode_router_info(record: RouterInfo) -> bytes:
    """Produce the exact byte form :func:`decode_router_info` inverts."""
    out = bytearray(record.identity.key_bytes)
    out += record.published_ms.to_bytes(8, "big")
    if len(record.addresses) > 255:
        raise EncodeError("more than 255 addresses")
    out.append(len(record.addresses))
    for addr in record.addresses:
        if not _STYLE_RE.fullmatch(addr.style):
            raise EncodeError(f"invalid style string: {addr.style!r}")
        out.append(addr.cost)
        out += addr.expiration_ms.to_bytes(8, "big")
        style = addr.style.encode("ascii")
        out.append(len(style))
        out += style
        out += _encode_mapping(addr.options)
    out.append(0)  # peer count
    out += _encode_mapping(record.options)
    out += record.signature
    return bytes(out)


def _encode_mapping(options: Mapping[str, str]) -> bytes:
    body = bytearray()
    for key in sorted(options, key=lambda k: k.encode("utf-8")):
        body += _mapping_string(key)
        body += b"="
        body += _mapping_string(options[key])
        body += b";"
    if len(body) > MAPPING_MAX:
        raise EncodeError(f"mapping exceeds {MAPPING_MAX} bytes")
    return len(body).to_bytes(2, "big") + bytes(body)


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

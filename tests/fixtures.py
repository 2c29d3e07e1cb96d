"""Deterministic fixtures shared by the tests: record corpora,
layout-diverse random records, curve CSV reading, leaseset writing,
brute-force XOR oracles over ints, and the earlier definitions of the
record predicates, the record decoder and encoder, record synthesis and
the curve export as oracles."""

import csv
import random
import re
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence, Union

from shadescope.encoding import hash_from_b64, hash_to_b64
from shadescope.model import (BANDWIDTH_LETTERS, DEST_MIN_LEN, CapabilityProfile, Destination,
                              DestinationError, LeaseSet, RouterInfo, TransportAddress)
from shadescope.sim import (EPOCH_2025_MS, HitCurve, _DIRECT, _INTRODUCER, _RECIPES, _VERSIONS,
                            _identity_bytes, _take, synth_record)
from shadescope.wire import (KNOWN_STYLES, MAPPING_MAX, DecodeError, EncodeError,
                             encode_router_info)


def load_curves(path: Union[str, Path]) -> list[HitCurve]:
    """Inverse of :func:`shadescope.sim.export_curves` (reports are not persisted)."""
    grouped: dict[bytes, list[tuple[int, int]]] = {}
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            target = hash_from_b64(row["target"])
            grouped.setdefault(target, []).append(
                (int(row["cumulative_probes"]), int(row["hits"]))
            )
    return [HitCurve(target=t, points=tuple(p)) for t, p in grouped.items()]


def oracle_export_curves(curves: Sequence[HitCurve], path: Union[str, Path]) -> None:
    """The row-by-row definition of :func:`shadescope.sim.export_curves`."""
    if not curves:
        raise ValueError("no curves to export")
    keyed = sorted(((hash_to_b64(c.target), c.points) for c in curves), key=itemgetter(0))
    with open(Path(path), "w", newline="") as fh:
        fh.write("target,cumulative_probes,hits\r\n")
        for target, points in keyed:
            fh.write("".join(f"{target},{probes},{hits}\r\n" for probes, hits in points))


def write_fixture_corpus(
    directory: Union[str, Path],
    n: int = 100,
    floodfill_count: int = 48,
    seed: int = 7,
) -> list[RouterInfo]:
    """Write a deterministic record corpus as routerInfo-<b64>.dat files."""
    if floodfill_count > n:
        raise ValueError("floodfill_count exceeds corpus size")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    records = []
    for i in range(n):
        level = 1 if i < floodfill_count else 2 + (i - floodfill_count) % 6
        records.append(synth_record(rng, level))
    for record in records:
        name = f"routerInfo-{hash_to_b64(record.hash)}.dat"
        (out / name).write_bytes(encode_router_info(record))
    return records


def random_record(rng: random.Random) -> RouterInfo:
    """A layout-diverse random record for codec round-trip testing."""
    if rng.random() < 0.3:
        identity = Destination(
            rng.randbytes(384) + b"\x05" + (4).to_bytes(2, "big") + rng.randbytes(4)
        )
    else:
        identity = Destination(_identity_bytes(rng))
    addresses = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.4:
            addresses.append(_DIRECT.build(*_take(rng, _DIRECT.plan)))
        elif kind < 0.7:
            addresses.append(_INTRODUCER.build(*_take(rng, _INTRODUCER.plan)))
        else:
            addresses.append(
                TransportAddress(
                    style=rng.choice(KNOWN_STYLES),
                    cost=rng.randint(0, 255),
                    expiration_ms=rng.choice((0, EPOCH_2025_MS)),
                    options=_random_options(rng),
                )
            )
    options: dict[str, str] = {}
    if rng.random() < 0.9:
        letters = "fHRU" + "KLMNOPX"
        options["caps"] = "".join(
            rng.sample(letters, rng.randint(0, min(4, len(letters))))
        )
    if rng.random() < 0.8:
        options["router.version"] = rng.choice(_VERSIONS)
    if rng.random() < 0.3:
        options["netdb.knownRouters"] = str(rng.randint(0, 10_000))
    if rng.random() < 0.3:
        options["netdb.knownLeaseSets"] = str(rng.randint(0, 500))
    options.update(_random_options(rng))
    return RouterInfo(
        identity=identity,
        published_ms=rng.randint(0, 2**48),
        addresses=tuple(addresses),
        options=options,
        signature=rng.randbytes(rng.randint(0, 80)),
    )


def oracle_synth_record(rng: random.Random, shade_level: int) -> RouterInfo:
    """The definition of :func:`shadescope.sim.synth_record` through
    ``Random``'s own ``choice``, ``randrange`` and ``randbytes``."""
    choices, make_address = _RECIPES[shade_level]
    caps = rng.choice(choices)
    addresses = (_ORACLE_ADDRESSES[make_address](rng),) if make_address else ()
    options = {"caps": caps, "router.version": rng.choice(_VERSIONS)}
    if shade_level == 1:
        options["netdb.knownRouters"] = str(rng.randrange(500, 9001))
        options["netdb.knownLeaseSets"] = str(rng.randrange(0, 401))
    return RouterInfo(
        identity=Destination(rng.randbytes(384) + b"\x00\x00\x00"),
        published_ms=EPOCH_2025_MS + rng.randrange(0, 86_400_001),
        addresses=addresses,
        options=options,
        signature=rng.randbytes(64),
    )


def _oracle_direct_address(rng: random.Random) -> TransportAddress:
    host = f"10.{rng.randrange(0, 256)}.{rng.randrange(0, 256)}.{rng.randrange(1, 255)}"
    return TransportAddress(
        style=rng.choice(("NTCP2", "SSU2")),
        cost=rng.randrange(5, 15),
        options={"host": host, "port": str(rng.randrange(9000, 31000))},
    )


def _oracle_introducer_address(rng: random.Random) -> TransportAddress:
    return TransportAddress(
        style="SSU2",
        cost=5,
        options={
            "ih0": hash_to_b64(rng.randbytes(32)),
            "itag0": str(rng.randrange(1, 2**31 + 1)),
        },
    )


_ORACLE_ADDRESSES = {
    _DIRECT: _oracle_direct_address,
    _INTRODUCER: _oracle_introducer_address,
}


_OPTION_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789.-_=;: "


def _random_options(rng: random.Random) -> dict[str, str]:
    # Keys stay clear of the option names the lenient extractor targets.
    out = {}
    for _ in range(rng.randint(0, 3)):
        key = "x" + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(1, 8)))
        value = "".join(rng.choices(_OPTION_CHARS, k=rng.randint(0, 20)))
        out[key] = value
    return out


def write_leasesets(
    leasesets: list[LeaseSet], path: Union[str, Path]
) -> None:
    """Write fixtures in the format :func:`shadescope.netdb.load_leasesets` parses."""
    lines = []
    for ls in leasesets:
        cols = [
            hash_to_b64(ls.destination_hash),
            ls.b32,
            ",".join(
                f"{hash_to_b64(l.gateway)}:{l.tunnel_id}:{l.expiry_ms}"
                for l in ls.leases
            )
            or "-",
        ]
        lines.append(" ".join(cols))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def xor_distance(a: bytes, b: bytes) -> int:
    """Unsigned big-endian integer value of the byte-wise XOR."""
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


def oracle_nearest(key: bytes, floodfills, k: int) -> tuple[bytes, ...]:
    """Exhaustive sort of every floodfill by (XOR distance, hash)."""
    key_int = int.from_bytes(key, "big")
    ranked = sorted(
        floodfills,
        key=lambda f: (int.from_bytes(f, "big") ^ key_int, int.from_bytes(f, "big")),
    )
    return tuple(ranked[:k])


_INTRODUCER_KEY_RE = re.compile(r"(ih|itag)\d+$")


def oracle_has_introducers(address: TransportAddress) -> bool:
    """The regex definition of :attr:`TransportAddress.has_introducers`."""
    return any(_INTRODUCER_KEY_RE.fullmatch(key) for key in address.options)


def oracle_profile(record: RouterInfo) -> CapabilityProfile:
    """The field-by-field definition of :meth:`RouterInfo.profile`."""
    caps = record.options.get("caps", "")
    return CapabilityProfile(
        kappa_f="f" in caps,
        kappa_H="H" in caps,
        kappa_U="U" in caps,
        alpha=any("host" in a.options and "port" in a.options for a in record.addresses),
        iota=any(oracle_has_introducers(a) for a in record.addresses),
        bandwidth_class=next((ch for ch in caps if ch in BANDWIDTH_LETTERS), None),
    )


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


def oracle_decode_router_info(data: bytes) -> RouterInfo:
    """The cursor-object definition of :func:`shadescope.wire.decode_router_info`."""
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


_ORACLE_STYLE_RE = re.compile(r"[\x21-\x7e]{1,255}$")


def oracle_encode_router_info(record: RouterInfo) -> bytes:
    """The bytearray definition of :func:`shadescope.wire.encode_router_info`."""
    out = bytearray(record.identity.data[: record.identity.size])
    out += _uint(record.published_ms, 8, "publish time")
    if len(record.addresses) > 255:
        raise EncodeError("more than 255 addresses")
    out.append(len(record.addresses))
    for addr in record.addresses:
        if not _ORACLE_STYLE_RE.fullmatch(addr.style):
            raise EncodeError(f"invalid style string: {addr.style!r}")
        out += _uint(addr.cost, 1, "address cost")
        out += _uint(addr.expiration_ms, 8, "address expiration")
        style = addr.style.encode("ascii")
        out.append(len(style))
        out += style
        out += _encode_mapping(addr.options)
    out.append(0)  # peer count
    out += _encode_mapping(record.options)
    out += record.signature
    return bytes(out)


def _uint(value: int, size: int, what: str) -> bytes:
    try:
        return value.to_bytes(size, "big")
    except OverflowError:  # negative, or too wide for the field
        raise EncodeError(f"{what} does not fit an unsigned {size}-byte field: {value}") from None


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

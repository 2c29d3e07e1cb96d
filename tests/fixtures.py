"""Deterministic fixtures shared by the tests: record corpora,
layout-diverse random records, curve CSV reading, leaseset writing, and
brute-force XOR oracles over ints."""

import csv
import random
from pathlib import Path
from typing import Union

from shadescope.encoding import hash_from_b64, hash_to_b64
from shadescope.model import Destination, LeaseSet, RouterInfo, TransportAddress
from shadescope.sim import (EPOCH_2025_MS, HitCurve, _VERSIONS, _direct_address,
                            _introducer_address, _synth_identity, synth_record)
from shadescope.wire import KNOWN_STYLES, encode_router_info


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
        identity = _synth_identity(rng)
    addresses = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.4:
            addresses.append(_direct_address(rng))
        elif kind < 0.7:
            addresses.append(_introducer_address(rng))
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
            ls.b32 if ls.b32 else "-",
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

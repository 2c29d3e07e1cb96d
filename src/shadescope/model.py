"""Domain types shared across the toolkit.

All types are immutable after construction and safe to share across
threads; the operations on them are pure.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .encoding import check_hash

# Minimum destination size: 256-byte pubkey + 128-byte signing key +
# 3-byte certificate header (type, 16-bit length).
DEST_MIN_LEN = 387
CERT_TYPE_OFFSET = 384
CERT_LEN_OFFSET = 385

# Bandwidth tiers: a record is high capacity when its first bandwidth
# letter is one of HIGH_BANDWIDTH; K/L/M and an absent letter are low.
LOW_BANDWIDTH = "KLM"
HIGH_BANDWIDTH = "NOPX"
BANDWIDTH_LETTERS = LOW_BANDWIDTH + HIGH_BANDWIDTH

_INTRODUCER_KEY_RE = re.compile(r"(ih|itag)\d+$")


class DestinationError(ValueError):
    """Raised when destination bytes cannot be parsed."""


@dataclass(frozen=True)
class Destination:
    """A service destination key blob; total size is 387 + certificate length."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) < DEST_MIN_LEN:
            raise DestinationError(
                f"destination too short: {len(self.data)} bytes, need {DEST_MIN_LEN}"
            )
        if len(self.data) < self.size:
            raise DestinationError(
                f"destination truncated: certificate declares {self.cert_len} "
                f"payload bytes, total {self.size}, have {len(self.data)}"
            )

    @property
    def cert_type(self) -> int:
        return self.data[CERT_TYPE_OFFSET]

    @property
    def cert_len(self) -> int:
        return int.from_bytes(self.data[CERT_LEN_OFFSET : CERT_LEN_OFFSET + 2], "big")

    @property
    def size(self) -> int:
        """Length of the canonical key material (387 + certificate length)."""
        return DEST_MIN_LEN + self.cert_len

    @property
    def key_bytes(self) -> bytes:
        """The canonical bytes that identify this destination."""
        return self.data[: self.size]


def hash_identity(dest: Destination) -> bytes:
    """SHA-256 over the destination's canonical key bytes.

    Bytes beyond the certificate-declared size never affect the result.
    """
    return hashlib.sha256(dest.key_bytes).digest()


@dataclass(frozen=True)
class CapabilityProfile:
    """Classifier inputs read from a directory record by
    :meth:`RouterInfo.profile`: the f/H/U flags by letter membership in the
    caps string, alpha and iota from the addresses, and the first bandwidth
    letter. Letters outside those sets are ignored.

    A profile always wraps an existing record; "no record in the queried
    view" is represented by None wherever a profile is expected.
    """

    kappa_f: bool
    kappa_H: bool
    kappa_U: bool
    alpha: bool
    iota: bool
    bandwidth_class: Optional[str] = None


@dataclass(frozen=True)
class TransportAddress:
    style: str
    cost: int = 0
    expiration_ms: int = 0
    options: Mapping[str, str] = field(default_factory=dict)

    @property
    def has_host_port(self) -> bool:
        return "host" in self.options and "port" in self.options

    @property
    def has_introducers(self) -> bool:
        return any(_INTRODUCER_KEY_RE.fullmatch(key) for key in self.options)


@dataclass(frozen=True)
class RouterInfo:
    """A parsed directory record. The signature is carried but never verified.

    ``hash`` is not an argument: it is derived once, on construction, as
    :func:`hash_identity` of ``identity``, so it always names the record.
    """

    hash: bytes = field(init=False)
    identity: Destination
    published_ms: int
    addresses: tuple[TransportAddress, ...] = ()
    options: Mapping[str, str] = field(default_factory=dict)
    signature: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", hash_identity(self.identity))

    @property
    def caps(self) -> str:
        return self.options.get("caps", "")

    @property
    def version(self) -> Optional[str]:
        return self.options.get("router.version")

    @property
    def known_routers(self) -> Optional[int]:
        return int_option(self.options.get("netdb.knownRouters"))

    @property
    def known_leasesets(self) -> Optional[int]:
        return int_option(self.options.get("netdb.knownLeaseSets"))

    @property
    def is_floodfill(self) -> bool:
        return "f" in self.caps

    @property
    def alpha(self) -> bool:
        """True when some address publishes an explicit host+port pair."""
        return any(a.has_host_port for a in self.addresses)

    @property
    def iota(self) -> bool:
        """True when some address declares introducers (ih<n>/itag<n> keys)."""
        return any(a.has_introducers for a in self.addresses)

    def profile(self) -> CapabilityProfile:
        caps = self.caps
        return CapabilityProfile(
            kappa_f="f" in caps,
            kappa_H="H" in caps,
            kappa_U="U" in caps,
            alpha=self.alpha,
            iota=self.iota,
            bandwidth_class=next((ch for ch in caps if ch in BANDWIDTH_LETTERS), None),
        )


def int_option(raw: Optional[str]) -> Optional[int]:
    """An option value of decimal digits only as an int; anything else is None."""
    if raw is None or not raw.isdecimal():
        return None
    return int(raw)


@dataclass(frozen=True)
class Lease:
    gateway: bytes
    tunnel_id: int
    expiry_ms: int

    def __post_init__(self) -> None:
        check_hash(self.gateway, "lease gateway")


@dataclass(frozen=True)
class LeaseSet:
    """A service descriptor: destination hash plus inbound tunnel gateways.

    A lease names the tunnel gateway, never the hosting endpoint.
    """

    destination_hash: bytes
    b32: Optional[str] = None
    leases: tuple[Lease, ...] = ()

    def __post_init__(self) -> None:
        check_hash(self.destination_hash, "destination hash")


@dataclass(frozen=True)
class Shade:
    level: int
    name: str
    layer: int


SHADES: dict[int, Shade] = {
    1: Shade(1, "Beacon", 1),
    2: Shade(2, "Relay", 1),
    3: Shade(3, "Passive", 1),
    4: Shade(4, "Cloaked", 1),
    5: Shade(5, "Veiled", 1),
    6: Shade(6, "Declared", 1),
    7: Shade(7, "Phantom", 1),
    8: Shade(8, "Exclusive", 2),
}

SHADE_EXCLUSIVE = SHADES[8]


def shade_for_level(level: int) -> Shade:
    try:
        return SHADES[level]
    except KeyError:
        raise ValueError(f"shade level out of range: {level}") from None

"""Domain types shared across the toolkit.

All types are immutable after construction and safe to share across
threads; the operations on them are pure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Iterable, Mapping, Optional

from .encoding import InputError, check_hash, service_address

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


# The frozen record classes store their fields through this in their own
# ``__init__``, since their own ``__setattr__`` refuses every write. They are
# slotted: each field lives in a slot, and an instance has no ``__dict__``.
_set = object.__setattr__


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot descriptor of the slotted
    ``cls``, in field order. One writes its slot directly, where :data:`_set`
    looks the slot up by name on every call: :class:`RouterInfo` and
    :class:`TransportAddress`, built once per decoded record, store their
    fields this way."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


class DestinationError(InputError):
    """Raised when destination bytes cannot be parsed."""


@dataclass(frozen=True, init=False, slots=True)
class Destination:
    """A service destination: exactly its key bytes, 387 + certificate length.

    ``data`` keeps only the certificate-declared bytes, as ``bytes``: bytes
    past them (a key file's private keys) are dropped and a mutable buffer is
    copied, so nothing a caller does later changes the destination or its hash.
    """

    data: bytes

    def __init__(self, data: bytes) -> None:
        if len(data) < DEST_MIN_LEN:
            raise DestinationError(f"destination too short: {len(data)} bytes, need {DEST_MIN_LEN}")
        size = DEST_MIN_LEN + (data[CERT_LEN_OFFSET] << 8 | data[CERT_LEN_OFFSET + 1])
        if len(data) < size:
            raise DestinationError(
                f"destination truncated: certificate declares {size - DEST_MIN_LEN} "
                f"payload bytes, total {size}, have {len(data)}"
            )
        # Exact-length bytes are kept as they are: neither step copies them.
        _set(self, "data", bytes(data[:size]))

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def cert_type(self) -> int:
        return self.data[CERT_TYPE_OFFSET]

    @property
    def cert_len(self) -> int:
        return len(self.data) - DEST_MIN_LEN


def hash_identity(dest: Destination) -> bytes:
    """SHA-256 over the destination's key bytes, ``dest.data``: the router hash."""
    return hashlib.sha256(dest.data).digest()


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


# Every profile a record can have, built once and keyed by its fields in
# order: a profile is frozen, so records with equal capabilities share one.
_PROFILES: dict[tuple, CapabilityProfile] = {
    fields: CapabilityProfile(*fields)
    for fields in product((False, True), (False, True), (False, True), (False, True),
                          (False, True), (None, *BANDWIDTH_LETTERS))
}


@dataclass(frozen=True, init=False, slots=True)
class TransportAddress:
    """One published address. ``options`` is copied; omitted, it is a new empty dict.

    :meth:`_owning` builds one without the copy, for a dict the package has
    just made and hands over.
    """

    style: str
    cost: int = 0
    expiration_ms: int = 0
    options: Mapping[str, str] = field(default_factory=dict)

    def __init__(self, style: str, cost: int = 0, expiration_ms: int = 0,
                 options: Optional[Mapping[str, str]] = None) -> None:
        _set_style(self, style)
        _set_cost(self, cost)
        _set_expiration(self, expiration_ms)
        _set_address_options(self, {} if options is None else dict(options))

    @classmethod
    def _owning(cls, style: str, cost: int, expiration_ms: int,
                options: dict[str, str]) -> TransportAddress:
        """An address that keeps ``options`` itself: no one else may hold the dict."""
        address = object.__new__(cls)
        _set_style(address, style)
        _set_cost(address, cost)
        _set_expiration(address, expiration_ms)
        _set_address_options(address, options)
        return address

    @property
    def has_host_port(self) -> bool:
        return "host" in self.options and "port" in self.options

    @property
    def has_introducers(self) -> bool:
        """True when some option key is ih<n> or itag<n>, n decimal digits."""
        for key in self.options:
            if key.startswith("ih"):
                if key[2:].isdecimal():
                    return True
            elif key.startswith("itag") and key[4:].isdecimal():
                return True
        return False


_set_style, _set_cost, _set_expiration, _set_address_options = _slot_setters(TransportAddress)


@dataclass(frozen=True, init=False, slots=True)
class RouterInfo:
    """A parsed directory record. The signature is carried but never verified.

    ``hash`` is not an argument: it is derived once, on construction, as
    :func:`hash_identity` of ``identity``, whose bytes never change: it always names the record.
    ``addresses`` and ``options`` are copied; an omitted ``options`` is a new empty dict.

    :meth:`_owning` keeps the tuple and dict it is given, without the copies.
    """

    hash: bytes = field(init=False)
    identity: Destination
    published_ms: int
    addresses: tuple[TransportAddress, ...] = ()
    options: Mapping[str, str] = field(default_factory=dict)
    signature: bytes = b""

    def __init__(self, identity: Destination, published_ms: int,
                 addresses: Iterable[TransportAddress] = (),
                 options: Optional[Mapping[str, str]] = None,
                 signature: bytes = b"") -> None:
        _set_hash(self, hash_identity(identity))
        self._fill(identity, published_ms, tuple(addresses),
                   {} if options is None else dict(options), signature)

    @classmethod
    def _owning(cls, identity: Destination, published_ms: int,
                addresses: tuple[TransportAddress, ...], options: dict[str, str],
                signature: bytes) -> RouterInfo:
        """A record that keeps ``addresses`` and ``options`` themselves: no one
        else may hold the dict."""
        record = object.__new__(cls)
        _set_hash(record, hash_identity(identity))
        _set_identity(record, identity)
        _set_published(record, published_ms)
        _set_addresses(record, addresses)
        _set_options(record, options)
        _set_signature(record, signature)
        return record

    def _fill(self, identity: Destination, published_ms: int,
              addresses: tuple[TransportAddress, ...], options: dict[str, str],
              signature: bytes) -> None:
        _set_identity(self, identity)
        _set_published(self, published_ms)
        _set_addresses(self, addresses)
        _set_options(self, options)
        _set_signature(self, signature)

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

    def profile(self) -> CapabilityProfile:
        """The record's capability profile, shared by every record that has it."""
        caps = self.caps
        bandwidth = None
        for ch in caps:
            if ch in BANDWIDTH_LETTERS:
                bandwidth = ch
                break
        alpha = iota = False
        for address in self.addresses:
            alpha = alpha or address.has_host_port
            iota = iota or address.has_introducers
        return _PROFILES["f" in caps, "H" in caps, "U" in caps, alpha, iota, bandwidth]


(_set_hash, _set_identity, _set_published, _set_addresses, _set_options,
 _set_signature) = _slot_setters(RouterInfo)


def int_option(raw: Optional[str]) -> Optional[int]:
    """An option value of ASCII digits only as an int; anything else is None."""
    if raw is None or not (raw.isascii() and raw.isdigit()):
        return None
    return int(raw)


# I2P's lease field widths, in bits.
LEASE_FIELD_BITS = {"tunnel_id": 32, "expiry_ms": 64}


@dataclass(frozen=True)
class Lease:
    """One inbound tunnel; its numbers are ints, not bools, within ``LEASE_FIELD_BITS``.

    ``gateway`` is kept as ``bytes``: a mutable buffer is copied.
    """

    gateway: bytes
    tunnel_id: int
    expiry_ms: int

    def __post_init__(self) -> None:
        _set(self, "gateway", check_hash(self.gateway, "lease gateway"))
        for name, bits in LEASE_FIELD_BITS.items():
            value = getattr(self, name)
            if type(value) is not int or value >> bits:  # negatives shift to -1
                raise InputError(f"{name} is not an integer in [0, 2**{bits}): {value!r}")


@dataclass(frozen=True)
class LeaseSet:
    """A service descriptor: destination hash plus inbound tunnel gateways.

    A lease names the tunnel gateway, never the hosting endpoint.
    ``destination_hash`` is kept as ``bytes``: a mutable buffer is copied.
    """

    destination_hash: bytes
    leases: tuple[Lease, ...] = ()

    def __post_init__(self) -> None:
        _set(self, "destination_hash", check_hash(self.destination_hash, "destination hash"))

    @property
    def b32(self) -> str:
        """The service address, derived from ``destination_hash``."""
        return service_address(self.destination_hash)


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

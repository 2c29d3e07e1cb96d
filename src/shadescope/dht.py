"""XOR routing-key math: daily key rotation, storage responsibility,
service-address derivation, and target-to-service association."""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import re
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .encoding import (
    B32_SUFFIX,
    HASH_LEN,
    EncodingError,
    check_hash,
    hash_from_b32,
    hash_to_b32,
)
from .model import Destination, hash_identity

DateLike = Union[dt.date, str]

_DATE_RE = re.compile(r"\d{8}$")


def normalize_date(date: DateLike) -> str:
    """Return the UTC calendar date as the 8-char 'yyyyMMdd' form."""
    if isinstance(date, dt.date):
        return date.strftime("%Y%m%d")
    if not _DATE_RE.fullmatch(date):
        raise ValueError(f"date must be yyyyMMdd, got {date!r}")
    try:
        dt.datetime.strptime(date, "%Y%m%d")
    except ValueError:
        raise ValueError(f"not a calendar date: {date!r}") from None
    return date


@functools.lru_cache(maxsize=64)
def daily_mod_key(date: DateLike) -> bytes:
    """SHA-256 of the 8 ASCII date bytes; rotates storage keys once per UTC day.

    Cached per date; an invalid date raises every time, since a raised
    error is never cached.
    """
    return hashlib.sha256(normalize_date(date).encode("ascii")).digest()


def _combine(key_hash: bytes, mod_key: bytes) -> bytes:
    # The paper's rule: the record hash XOR SHA-256(date). Deployed routers
    # instead hash the concatenation hash || "yyyyMMdd" with no inner date
    # digest, so they are not reproduced by changing this line alone.
    mixed = int.from_bytes(key_hash, "big") ^ int.from_bytes(mod_key, "big")
    return mixed.to_bytes(HASH_LEN, "big")


def routing_key(key_hash: bytes, date: DateLike) -> bytes:
    """The date-salted storage key for a 32-byte record hash."""
    check_hash(key_hash, "record hash")
    return hashlib.sha256(_combine(key_hash, daily_mod_key(date))).digest()


# _PREFIX_MASKS[d] covers the 64 - d low bits of a word, so that
# ``word & ~mask`` and ``word | mask`` bound the words sharing its top d bits.
_PREFIX_MASKS = np.array([(1 << (64 - d)) - 1 for d in range(65)], dtype=np.uint64)


class FloodfillTable:
    """A floodfill set indexed for exact, batched XOR-nearest queries.

    Hashes are sorted by big-endian value, and their top 64 bits (word 0)
    are kept as a sorted ``uint64`` array. For a key, the floodfills that
    share its top d bits form one contiguous run of that array, and every
    floodfill outside the run is farther than every floodfill inside it.
    So the k nearest lie in the run of the deepest prefix still holding k
    floodfills, found by vectorised binary search over d; the few
    candidates there are ranked exactly on 256-bit ints. For hash-like
    (uniform) floodfills the cost is O(N log F) for N keys, with no (N, F)
    intermediate; a skewed set can leave a long run, which stays exact but
    costs its length.
    """

    def __init__(self, floodfills: Iterable[bytes]):
        self.hashes = tuple(sorted(check_hash(f, "floodfill hash") for f in floodfills))
        self._ints = [int.from_bytes(f, "big") for f in self.hashes]
        self._words = _top_words(self.hashes)

    def __len__(self) -> int:
        return len(self.hashes)

    def nearest(self, keys: Sequence[bytes], k: int) -> list[tuple[bytes, ...]]:
        """Per key, the min(k, F) floodfills nearest it, nearest first.

        Ties (possible only with duplicate hashes) go to the smaller hash,
        so the result does not depend on input order.
        """
        if not self.hashes:
            raise ValueError("floodfill set is empty")
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.hashes))
        keys = [check_hash(key, "storage key") for key in keys]
        words = _top_words(keys)
        # Searching in key order lets each binary search start near the last.
        order = np.argsort(words)
        starts, ends = np.empty_like(order), np.empty_like(order)
        starts[order], ends[order] = self._prefix_runs(words[order], k)
        ints, hashes = self._ints, self.hashes
        out = []
        for key, start, end in zip(keys, starts.tolist(), ends.tolist()):
            key_int = int.from_bytes(key, "big")
            # ``sorted`` is stable over ascending indices, and the hashes are
            # sorted, so equal distances resolve to the smaller hash.
            best = sorted(range(start, end), key=lambda i: ints[i] ^ key_int)[:k]
            out.append(tuple(hashes[i] for i in best))
        return out

    def _prefix_runs(self, words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Index bounds of the deepest shared-prefix run holding >= k words."""
        low = np.zeros(len(words), dtype=np.intp)  # depth known to hold >= k
        high = np.full(len(words), 65, dtype=np.intp)  # first depth holding < k
        while True:
            depth = (low + high) // 2
            starts, ends = self._run(words, depth)
            enough = ends - starts >= k
            low = np.where(enough, depth, low)
            high = np.where(enough, high, depth)
            if not (high - low > 1).any():
                return self._run(words, low)

    def _run(self, words: np.ndarray, depth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = _PREFIX_MASKS[depth]
        starts = np.searchsorted(self._words, words & ~mask, side="left")
        ends = np.searchsorted(self._words, words | mask, side="right")
        return starts, ends


def _top_words(hashes: Sequence[bytes]) -> np.ndarray:
    """Word 0 (the top 64 bits) of each 32-byte hash as native ``uint64``."""
    raw = np.frombuffer(b"".join(h[:8] for h in hashes), dtype=">u8")
    return raw.astype(np.uint64)


class Association(NamedTuple):
    """One service address scored against an association target."""

    address: str
    target_distance: int
    other_distance: Optional[int]  # nearest floodfill other than the target
    responsible: bool


def association_rows(
    target: bytes,
    eepsites: Iterable[str],
    floodfills: Union[Mapping[bytes, object], Iterable[bytes]],
    date: DateLike,
) -> tuple[list[Association], list[str]]:
    """Score each decodable service address against ``target``.

    The target is responsible unless some other floodfill is strictly
    XOR-closer to the address's routing key; the target itself is skipped,
    and equal distance does not disqualify. Undecodable addresses are
    skipped and reported as warnings.

    Returns (rows in input order, warnings).
    """
    check_hash(target, "target hash")
    normalize_date(date)  # reject a bad date even when no address decodes
    addresses: list[str] = []
    keys: list[bytes] = []
    warnings: list[str] = []
    for addr in eepsites:
        try:
            service_hash = decode_b32(addr)
        except EncodingError as exc:
            warnings.append(f"skipping {addr!r}: {exc}")
            continue
        addresses.append(addr)
        keys.append(routing_key(service_hash, date))

    # A set: a target listed twice must not fill both nearest slots.
    table = FloodfillTable(set(floodfills))
    pairs = table.nearest(keys, 2) if table else [()] * len(keys)
    target_int = int.from_bytes(target, "big")
    rows = []
    for addr, key, pair in zip(addresses, keys, pairs):
        key_int = int.from_bytes(key, "big")
        other = next((int.from_bytes(f, "big") ^ key_int for f in pair if f != target), None)
        own = target_int ^ key_int
        rows.append(Association(addr, own, other, other is None or own <= other))
    return rows, warnings


def xor_association(
    target: bytes,
    eepsites: Iterable[str],
    floodfills: Union[Mapping[bytes, object], Iterable[bytes]],
    date: DateLike,
) -> tuple[list[str], list[str]]:
    """Service addresses for which ``target`` is the responsible storage node,
    by the rule of :func:`association_rows`.

    Returns (matched addresses in input order, warnings).
    """
    rows, warnings = association_rows(target, eepsites, floodfills, date)
    return [row.address for row in rows if row.responsible], warnings


def decode_b32(addr: str) -> bytes:
    """Recover the 32-byte destination hash from a service address."""
    text = addr.strip()
    if text.lower().endswith(B32_SUFFIX):
        text = text[: -len(B32_SUFFIX)]
    return hash_from_b32(text)


def derive_b32(dest: Destination) -> str:
    """The canonical service address for a destination."""
    return hash_to_b32(hash_identity(dest)) + B32_SUFFIX

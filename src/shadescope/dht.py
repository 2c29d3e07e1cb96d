"""XOR routing-key math: daily key rotation, storage responsibility,
service-address derivation, and target-to-service association."""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import re
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .encoding import (
    HASH_LEN,
    EncodingError,
    InputError,
    _check_hashes,
    check_hash,
    service_address,
    service_hash,
)
from .model import Destination, hash_identity

if TYPE_CHECKING:
    import numpy as np

_DATE_RE = re.compile(r"[0-9]{8}$")


def normalize_date(date: str) -> str:
    """Return ``date``, checked to be a UTC calendar date in the 8-char 'yyyyMMdd' form."""
    if not isinstance(date, str) or not _DATE_RE.fullmatch(date):
        raise InputError(f"date must be yyyyMMdd, got {date!r}")
    try:
        dt.datetime.strptime(date, "%Y%m%d")
    except ValueError:
        raise InputError(f"not a calendar date: {date!r}") from None
    return date


@functools.lru_cache(maxsize=64)
def daily_mod_key(date: str) -> bytes:
    """SHA-256 of the 8 ASCII date bytes; rotates storage keys once per UTC day.

    Cached per date; an invalid date raises every time, since a raised
    error is never cached.
    """
    return hashlib.sha256(normalize_date(date).encode("ascii")).digest()


def routing_key(key_hash: bytes, date: str) -> bytes:
    """The date-salted storage key for a 32-byte record hash."""
    return routing_keys((key_hash,), date)[0]


def routing_keys(hashes: Sequence[bytes], date: str) -> list[bytes]:
    """:func:`routing_key` of each 32-byte record hash, in order: the batch
    is checked in one pass and the daily key is read, as an int, once."""
    _check_hashes(hashes, "record hash")
    mod_int = int.from_bytes(daily_mod_key(date), "big")
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    # The paper's rule: SHA-256 of the record hash XOR SHA-256(date), the
    # daily key passed as its big-endian int. Deployed routers instead hash
    # the concatenation hash || "yyyyMMdd" with no inner date digest, so they
    # are not reproduced by changing this line alone.
    return [sha256((from_bytes(key_hash, "big") ^ mod_int).to_bytes(HASH_LEN, "big")).digest()
            for key_hash in hashes]


# Candidates ranked per numpy block: 256 KiB per uint64 temporary.
_BLOCK = 1 << 15


# numpy is imported where a table first needs it, inside each function that
# uses it, so that commands which never rank (genconfig, b32, scan, a
# snapshot-only lookup) do not pay for its import.
@functools.lru_cache(maxsize=None)
def _prefix_masks() -> np.ndarray:
    """Element d covers the 64 - d low bits of a word, so that ``word & ~mask``
    and ``word | mask`` bound the words sharing its top d bits; element 0 is
    the largest word."""
    import numpy as np

    return np.array([(1 << (64 - d)) - 1 for d in range(65)], dtype=np.uint64)


class FloodfillTable:
    """A floodfill set indexed for exact, batched XOR-nearest queries.

    Hashes are sorted by big-endian value, and their top 64 bits (word 0)
    are kept as a sorted ``uint64`` array. For a key, the floodfills that
    share its top d bits form one contiguous run of that array, and every
    floodfill outside the run is farther than every floodfill inside it.
    So the k nearest lie in the run of the deepest prefix still holding k
    floodfills, found by vectorised binary search over d. The runs are
    then ranked in numpy by word-0 distance, padded per power-of-two
    length class and taken in bounded blocks; a key whose selection has a
    word-0 tie is ranked again exactly, on 256-bit ints. Queries answer with indices into
    :attr:`hashes`. For hash-like (uniform) floodfills the cost is
    O(N log F) for N keys, with no (N, F) intermediate; a skewed set can
    leave a long run, which stays exact but costs its length.
    """

    def __init__(self, floodfills: Iterable[bytes]):
        floodfills = tuple(floodfills)
        _check_hashes(floodfills, "floodfill hash")
        self.hashes = tuple(sorted(map(bytes, floodfills)))
        self._words = _top_words(self.hashes)

    def __len__(self) -> int:
        return len(self.hashes)

    def nearest(self, keys: Sequence[bytes], k: int) -> np.ndarray:
        """Per key, the indices into :attr:`hashes` of the min(k, F) floodfills
        nearest it, nearest first, as an (N, min(k, F)) ``intp`` array.

        Each key's run is ranked vectorised on word 0; a key with a word-0
        tie among its selected floodfills is ranked exactly on the full
        hashes. Ties of the full distance (possible only with duplicate
        hashes) go to the smaller hash, so the result does not depend on
        input order.
        """
        import numpy as np

        if not self.hashes:
            raise ValueError("floodfill set is empty")
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.hashes))
        _check_hashes(keys, "storage key")
        words = _top_words(keys)
        # Searching in key order lets each binary search start near the last.
        order = np.argsort(words)
        starts, ends = np.empty_like(order), np.empty_like(order)
        starts[order], ends[order] = self._prefix_runs(words[order], k)
        lengths = ends - starts
        out = np.empty((len(keys), k), dtype=np.intp)
        tied = np.zeros(len(keys), dtype=bool)
        # Runs are padded per power-of-two length class, so a long run
        # widens only the rows of its class, and ranked in blocks of at
        # most _BLOCK candidates, so no temporary grows with the batch.
        widths = np.left_shift(1, np.ceil(np.log2(lengths)).astype(np.intp))
        for width in np.unique(widths).tolist():
            same = np.flatnonzero(widths == width)
            for rows in np.array_split(same, -(-len(same) * width // _BLOCK)):
                out[rows], tied[rows] = self._rank_runs(
                    words[rows], starts[rows], lengths[rows], width, k)
        hashes = self.hashes
        for row in np.flatnonzero(tied).tolist():
            key_int = int.from_bytes(keys[row], "big")
            # ``sorted`` is stable over ascending indices, and the hashes are
            # sorted, so equal distances resolve to the smaller hash.
            out[row] = sorted(range(starts[row], ends[row]),
                              key=lambda i: int.from_bytes(hashes[i], "big") ^ key_int)[:k]
        return out

    def _rank_runs(self, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   width: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per run of at most ``width`` candidates, the indices of the k
        nearest by word-0 distance, and whether a word-0 tie among the
        first k + 1 leaves their order, or which one is k-th, to words 1-3."""
        import numpy as np

        cols = np.arange(width)
        real = cols < lengths[:, None]
        index = np.minimum(starts[:, None] + cols, (starts + lengths - 1)[:, None])
        distance = self._words[index]
        distance ^= words[:, None]
        distance[~real] = _prefix_masks()[0]
        # A stable sort keeps real candidates ahead of padding that equals
        # their distance, and equal words in index order.
        ranked = np.argsort(distance, axis=1, kind="stable")[:, : k + 1]
        best = np.take_along_axis(distance, ranked, axis=1)
        ties = (best[:, 1:] == best[:, :-1]) & (cols[1 : k + 1] < lengths[:, None])
        return np.take_along_axis(index, ranked[:, :k], axis=1), ties.any(axis=1)

    def _prefix_runs(self, words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Index bounds of the deepest shared-prefix run holding >= k words."""
        import numpy as np

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
        import numpy as np

        mask = _prefix_masks()[depth]
        starts = np.searchsorted(self._words, words & ~mask, side="left")
        ends = np.searchsorted(self._words, words | mask, side="right")
        return starts, ends


def _top_words(hashes: Sequence[bytes]) -> np.ndarray:
    """Word 0 (the top 64 bits) of each 32-byte hash as native ``uint64``."""
    import numpy as np

    raw = np.frombuffer(b"".join(hashes), dtype=">u8").reshape(-1, 4)[:, 0]
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
    date: str,
) -> tuple[list[Association], list[str]]:
    """Score each decodable service address against ``target``.

    The target is responsible unless some other floodfill is strictly
    XOR-closer to the address's routing key; the target itself is skipped,
    and equal distance does not disqualify. Undecodable addresses are
    skipped and reported as warnings.

    Returns (rows in input order, warnings).
    """
    check_hash(target, "target hash")
    addresses: list[str] = []
    hashes: list[bytes] = []
    warnings: list[str] = []
    for addr in eepsites:
        try:
            hashes.append(service_hash(addr))
            addresses.append(addr)
        except EncodingError as exc:
            warnings.append(f"skipping {addr!r}: {exc}")
    # Rejects a bad date even when no address decodes.
    keys = routing_keys(hashes, date)

    # A set: a target listed twice must not fill both nearest slots.
    table = FloodfillTable(set(floodfills))
    hashes = table.hashes
    pairs = table.nearest(keys, 2).tolist() if table else [()] * len(keys)
    target_int = int.from_bytes(target, "big")
    rows = []
    for addr, key, pair in zip(addresses, keys, pairs):
        key_int = int.from_bytes(key, "big")
        others = (hashes[i] for i in pair if hashes[i] != target)
        other = next((int.from_bytes(f, "big") ^ key_int for f in others), None)
        own = target_int ^ key_int
        rows.append(Association(addr, own, other, other is None or own <= other))
    return rows, warnings


def xor_association(
    target: bytes,
    eepsites: Iterable[str],
    floodfills: Union[Mapping[bytes, object], Iterable[bytes]],
    date: str,
) -> tuple[list[str], list[str]]:
    """Service addresses for which ``target`` is the responsible storage node,
    by the rule of :func:`association_rows`.

    Returns (matched addresses in input order, warnings).
    """
    rows, warnings = association_rows(target, eepsites, floodfills, date)
    return [row.address for row in rows if row.responsible], warnings


def derive_b32(dest: Destination) -> str:
    """The canonical service address for a destination."""
    return service_address(hash_identity(dest))

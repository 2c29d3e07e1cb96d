"""Directory-snapshot loading, the textual LeaseSet fixture format, the
one reader (:func:`_read_file`) and one writer (:func:`_open_output`) of
every file the package names, and the one collector rule
(:func:`_bulk_build`) of every builder of many long-lived objects."""

from __future__ import annotations

import fnmatch
import gc
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

from .encoding import EncodingError, InputError, hash_from_b64, service_hash
from .model import LEASE_FIELD_BITS, Lease, LeaseSet, RouterInfo, int_option
from .wire import DecodeError, decode_router_info

RECORD_GLOB = "routerInfo-*.dat"


class NetDbError(InputError):
    """A snapshot path that is not a directory, or a leaseset file that is not UTF-8."""


@dataclass(frozen=True)
class SnapshotStats:
    total: int
    floodfill_count: int
    parse_failures: int


@dataclass(frozen=True)
class ParseFailure:
    filename: str
    error: str


@dataclass
class NetDbSnapshot:
    """All records decoded from one directory view.

    Failures are counted and carried with their file name and error so a
    snapshot never silently drops a file.
    """

    records: dict[bytes, RouterInfo] = field(default_factory=dict)
    source_dir: Optional[Path] = None
    failures: list[ParseFailure] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def stats(self) -> SnapshotStats:
        floodfills = sum(1 for r in self.records.values() if r.is_floodfill)
        return SnapshotStats(
            total=len(self.records) + len(self.failures),
            floodfill_count=floodfills,
            parse_failures=len(self.failures),
        )

    @property
    def floodfill_hashes(self) -> list[bytes]:
        return [h for h, r in self.records.items() if r.is_floodfill]

    def lookup(self, router_hash: bytes) -> Optional[RouterInfo]:
        return self.records.get(router_hash)


def load_netdb_dir(path: Union[str, Path]) -> NetDbSnapshot:
    """Decode every routerInfo-*.dat file under ``path``.

    The walk is recursive and does not follow symlinked directories. Files
    load in path-component order (``a/x`` before ``a-b/x``), and when two
    files hold the same router hash the later one replaces the earlier,
    with a warning. Only regular files are read, symlinked ones included,
    by :func:`_read_file`. A file that cannot be read or strictly decoded is
    counted as a :class:`ParseFailure` with its error and its path below
    ``path``, which the duplicate warning names too; one bad file never
    affects the others. Anything else named like a record
    (a directory, a FIFO, a device) is ``unreadable: not a regular file:``
    and the path, and a read error (a file removed after the walk) is
    ``unreadable:`` and the OS error naming the path.
    :func:`~shadescope.wire.lenient_extract` can recover option values from
    undecodable bytes on request.

    Process-global effect: once ``path`` is a directory, the walk, reads and
    decodes run inside :func:`_bulk_build`. Garbage in the young generations
    is collected first if the collector is enabled, cyclic garbage
    collection is paused for the rest of the call, and the caller's enabled
    flag is restored on return, also when the call raises. On return, every
    tracked object in the process, the new snapshot included, moves to the
    oldest generation unscanned, unless the caller holds frozen objects.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise NetDbError(f"not a readable directory: {directory}")
    snapshot = NetDbSnapshot(source_dir=directory)
    top = str(directory)
    # Each entry is this prefix and then its path below the snapshot root.
    below = 0 if top == os.curdir else len(os.path.join(top, ""))
    with _bulk_build():
        for entry in _record_paths(top):
            try:
                data = _read_file(entry)
            except OSError as exc:
                snapshot.failures.append(ParseFailure(entry[below:], f"unreadable: {exc}"))
                continue
            try:
                record = decode_router_info(data)
            except DecodeError as exc:
                snapshot.failures.append(ParseFailure(entry[below:], str(exc)))
                continue
            if record.hash in snapshot.records:
                snapshot.warnings.append(f"duplicate record replaced: {entry[below:]}")
            snapshot.records[record.hash] = record
    return snapshot


@contextmanager
def _bulk_build() -> Iterator[None]:
    """Pause cyclic garbage collection while a builder makes many objects
    that outlive it; :func:`load_netdb_dir` and
    :func:`~shadescope.sim.generate_network` build inside it, and no other
    package code calls :mod:`gc`.

    If the collector is enabled, the young generations are collected first,
    so garbage made before the build is freed rather than promoted with it.
    The collector is then paused until exit, also on a raise. On exit every
    tracked object moves to the oldest generation unscanned and the
    generation counts restart from zero, unless the caller holds frozen
    objects (``gc.get_freeze_count() > 0``), which stay frozen; then the
    caller's enabled flag comes back. Collections during the build would
    re-walk the objects already made (loading a 12,964-file snapshot ran
    about 94 young and 8 middle collections, and often a full one), and the
    first young collection after it would walk everything the build made.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect(1)
    promote = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if promote:
            # freeze() moves every tracked object to the permanent generation
            # and zeroes the generation counts; unfreeze() hands them all to
            # the oldest generation.
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


_BINARY, _NONBLOCK = getattr(os, "O_BINARY", 0), getattr(os, "O_NONBLOCK", 0)
# Non-blocking: a FIFO opens at once, so that its fstat can reject it.
_READ_FLAGS = os.O_RDONLY | _BINARY | _NONBLOCK
_READ_CHUNK = 1 << 16


def _read_file(path: Union[str, Path]) -> bytes:
    """The bytes of the regular file at ``path``; every input file is read
    here, as every output file is opened by :func:`_open_output`. Anything
    else raises ``OSError("not a regular file: '<path>'")`` unread. The first
    read asks for one byte more than the ``fstat`` size, so only a file that
    grew meanwhile takes a second. Errors name ``path``."""
    path = os.fspath(path)
    fd = os.open(path, _READ_FLAGS)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise OSError(f"not a regular file: {path!r}")
        request = info.st_size + 1
        try:
            data = os.read(fd, request)
            if len(data) == request:  # the file grew after the fstat
                chunks = [data]
                while len(chunks[-1]) == request:
                    request = _READ_CHUNK
                    chunks.append(os.read(fd, request))
                data = b"".join(chunks)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return data


# Non-blocking: a FIFO with no reader fails at once instead of waiting for one.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY | _NONBLOCK
# A 9.8 MB export of 2,010 curves made about 1,870 write(2) calls through the
# default 8 KiB buffer, one per target's block; through 1 MiB it makes ten.
_WRITE_BUFFER = 1 << 20


@contextmanager
def _open_output(path: Union[str, Path]) -> Iterator[TextIO]:
    """A UTF-8 text stream, untranslated newlines, on ``path`` created or
    truncated, for one ``with``; every output file is opened here. A FIFO
    with no reader raises ``OSError`` (``ENXIO``) naming ``path`` instead of
    blocking until one comes; a regular file, ``/dev/null`` and a FIFO with a
    reader are written.

    The call owns the file's whole life. If the ``with`` body raises, or the
    flush at close does, the file is removed when this call created it; a
    file that was there before is left, truncated. Writes go through a 1 MiB
    (``_WRITE_BUFFER``) buffer, so an error such as ``ENOSPC`` may surface
    only at that flush, and the descriptor is closed either way."""
    path = os.fspath(path)
    created = not os.path.lexists(path)
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        if _NONBLOCK:
            os.set_blocking(fd, True)  # writes wait for a slow reader, as plain open's do
        with open(fd, "w", buffering=_WRITE_BUFFER, encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:
        if created:
            with suppress(OSError):
                os.unlink(path)
        raise


def _record_paths(top: str) -> list[str]:
    """Paths of the entries named like a record under ``top``, files or not,
    in the order ``sorted(Path(top).rglob(RECORD_GLOB))`` gives them."""
    paths = []
    for dirpath, dirs, files in os.walk(top):
        if top == os.curdir:  # rglob from "." yields "x", not "./x"; errors quote it
            dirpath = dirpath[2:]
        prefix = os.path.join(dirpath, "")
        paths += [prefix + name for name in fnmatch.filter(dirs + files, RECORD_GLOB)]
    # Mapping the separator below every other character compares paths
    # component by component, as Path does, instead of character by character.
    paths.sort(key=lambda p: p.replace(os.sep, "\0"))
    return paths


def load_leasesets(path: Union[str, Path]) -> tuple[list[LeaseSet], list[str]]:
    """Parse the one-record-per-line LeaseSet fixture format.

    Line form: ``<dest_hash_b64> <b32> <gw_b64>:<tunnel_id>:<expiry_ms>[,...]``
    A b32 column other than '-' must name the destination hash, in any case.
    A tunnel id is ASCII decimal digits below 2**32, an expiry below 2**64.
    The lease column may be '-' or absent for a descriptor with no leases;
    '#' starts a comment. Malformed lines become warnings, not errors. The
    file is read by :func:`_read_file`, so one that cannot be read, or is not
    a regular file, raises its ``OSError``; bytes that are not UTF-8 raise
    :class:`NetDbError`.
    """
    try:
        text = _read_file(path).decode("utf-8")
    except UnicodeDecodeError:
        raise NetDbError(f"leaseset file is not UTF-8 text: {path}") from None
    leasesets: list[LeaseSet] = []
    warnings: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            leasesets.append(_parse_leaseset_line(line))
        except (ValueError, EncodingError) as exc:
            warnings.append(f"line {lineno}: {exc}")
    return leasesets, warnings


def _parse_leaseset_line(line: str) -> LeaseSet:
    parts = line.split()
    if len(parts) not in (2, 3):
        raise ValueError(f"expected 2 or 3 columns, got {len(parts)}")
    dest_hash = hash_from_b64(parts[0])
    if parts[1] != "-" and service_hash(parts[1]) != dest_hash:
        raise ValueError("b32 column does not match destination hash")
    leases: list[Lease] = []
    if len(parts) == 3 and parts[2] != "-":
        for chunk in parts[2].split(","):
            fields = chunk.split(":")
            if len(fields) != 3:
                raise ValueError(f"lease is not gateway:tunnel_id:expiry_ms: {chunk!r}")
            gw_text, tunnel_id, expiry_ms = fields
            leases.append(Lease(hash_from_b64(gw_text), _lease_field("tunnel_id", tunnel_id),
                                _lease_field("expiry_ms", expiry_ms)))
    return LeaseSet(destination_hash=dest_hash, leases=tuple(leases))


def _lease_field(name: str, text: str) -> int:
    """``text`` as lease field ``name``: an :func:`int_option` below 2**LEASE_FIELD_BITS[name]."""
    bits = LEASE_FIELD_BITS[name]
    value = int_option(text)
    if value is None or value >> bits:
        raise ValueError(f"{name} is not a decimal integer below 2**{bits}: {text!r}")
    return value

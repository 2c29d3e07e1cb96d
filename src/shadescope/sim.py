"""Deterministic synthetic-overlay generator and probe-experiment engine.

A generated network is fully reproducible from its spec and seed: router
identities, capability profiles, floodfill knowledge placement, and
probe experiments all derive from one seeded RNG. Records for published
routers are stored on the k floodfills XOR-nearest to their routing key
for the generation date, so probe behavior mirrors the real placement
rule; the k nearest come from one batched query to
:class:`~shadescope.dht.FloodfillTable`, the same kernel that answers
association and responsibility, and one pass over its rows, in published
order, fills each floodfill's store of records.

Synthesis is table-driven: :func:`_take` draws each publishing shade's
plan in :data:`_PLANS` in one loop over ``getrandbits``, consuming the
generator exactly as ``Random.randrange``, ``choice`` and ``randbytes``
would, without their argument handling. It comes in two halves:
:func:`synth_record` keeps a record's raw draws, with its hash, in a
:class:`_SynthRecord`, and :func:`_record_fields` builds its other fields
from them on the first read of any of them. So generation makes no
destination, address or option dict; only the records a run reads, such
as those a replay finds, are ever built. No other module knows that a
record can be built late.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import accumulate
from math import floor
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, TextIO, Union

from .classify import ShadeReport
from .dht import FloodfillTable, normalize_date, routing_keys
from .encoding import InputError, check_hash, hash_to_b64
from .model import (
    BANDWIDTH_LETTERS,
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    SHADES,
    Destination,
    RouterInfo,
    Shade,
    TransportAddress,
    _set,
    hash_identity,
)
from .netdb import _bulk_build, _open_output, _read_file
from .protocol import NetDbSource, ProbePlan, ProbeTransportError, classify_sweep

EPOCH_2025_MS = 1_735_689_600_000
_VERSIONS = ("0.9.67", "0.9.68", "2.12.0")


class InfeasibleSpecError(InputError):
    """The network spec cannot be realized (bad fractions, missing mass)."""


# The largest network and replication a spec may ask for; see NetworkSpec.
MAX_ROUTERS = 100_000
MAX_K = 100


# The one spelling of each shade level as a shade_distribution key.
_LEVEL_KEYS = {str(level): level for level in range(1, 9)}

# The type of each spec field and spec-file key; true and false are not numbers.
# A spec stores its distribution read-only, so ``dataclasses.replace`` passes
# a MappingProxyType back in.
_SPEC_TYPES = {"n_routers": int, "floodfill_fraction": (int, float),
               "shade_distribution": (dict, MappingProxyType), "k": int, "seed": int,
               "date": str}


@dataclass(frozen=True)
class NetworkSpec:
    """Generation parameters. shade_distribution maps levels "1".."8" to
    fractions of n_routers; level "1" may be omitted and is then implied
    by floodfill_fraction. ``counts`` is the router count of each level.
    Both are stored as read-only copies, so a spec cannot change after it
    is checked, not even through the mapping its caller passed.

    The constructor raises :class:`InfeasibleSpecError` for a field of the
    wrong type (true and false are not numbers), a bad date or distribution,
    an ``n_routers`` over :data:`MAX_ROUTERS` or a ``k`` over :data:`MAX_K`,
    so that the worst spec allowed peaks under 1 GB. The limits
    come from measured peaks: simulate takes about 2.3 KB per router at
    k = 4 (56.6 MB at 3,242 routers, 123.3 MB at 32,420), and a run that
    reads every record builds them all, which adds about 0.6 KB per router
    (generation at 32,420 routers peaked at 79.5 MB, and at 98.7 MB with
    every record then built), so MAX_ROUTERS routers peak near 0.29 GB;
    each record is stored on min(k, floodfills) floodfills at about 55
    bytes a copy (generation at 32,420 routers peaked at 79.5 MB with k = 4
    and 241.6 MB with k = 100), so a k of MAX_K adds about 0.53 GB at
    MAX_ROUTERS.
    """

    n_routers: int
    floodfill_fraction: float
    shade_distribution: Mapping
    k: int = 4
    seed: int = 0
    date: str = "20250101"
    counts: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key, types in _SPEC_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, types):
                raise InfeasibleSpecError(f"spec key {key!r} has the wrong type: {value!r}")
        try:
            normalize_date(self.date)
        except ValueError as exc:
            raise InfeasibleSpecError(str(exc)) from None
        if not 1 <= self.k <= MAX_K:
            raise InfeasibleSpecError(f"replication k must lie in [1, {MAX_K}]")
        distribution = MappingProxyType(dict(self.shade_distribution))
        object.__setattr__(self, "shade_distribution", distribution)
        object.__setattr__(self, "counts", MappingProxyType(_allocate_counts(self)))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "NetworkSpec":
        """The spec in the JSON object at ``path``. A file that cannot be
        read, or is not a regular file, raises the ``OSError`` of
        :func:`~shadescope.netdb._read_file`; any other fault in the file
        raises :class:`InfeasibleSpecError`, a key given twice in one
        object included."""
        try:
            raw = json.loads(_read_file(path).decode("utf-8"), object_pairs_hook=_unique_keys)
        except UnicodeDecodeError:
            raise InfeasibleSpecError(f"spec file is not UTF-8 text: {path}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, too deep or too long a number
            raise InfeasibleSpecError(f"spec file is not readable JSON: {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise InfeasibleSpecError("spec must be a JSON object")
        unknown = set(raw) - set(_SPEC_TYPES)
        if unknown:
            raise InfeasibleSpecError(f"unknown spec keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:  # a required key is missing
            raise InfeasibleSpecError(f"incomplete spec: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a key given twice raises ``ValueError``,
    where ``json.loads`` alone would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


class SimRouter(NamedTuple):
    """One generated router: its hash, its true shade, and the record it
    publishes (None at level 8)."""

    hash: bytes
    shade: Shade
    record: Optional[RouterInfo]


@dataclass
class NetworkModel:
    """Ground truth for one generated overlay; ``knowledge[f][h]`` is record h stored on f."""

    spec: NetworkSpec
    routers: dict[bytes, SimRouter]
    published: tuple[bytes, ...]
    floodfills: tuple[bytes, ...]
    exclusive: frozenset[bytes]
    knowledge: dict[bytes, dict[bytes, RouterInfo]]


@dataclass(frozen=True)
class VisibilityMetrics:
    rho: float
    xi: float


@dataclass(frozen=True, init=False, slots=True)
class HitCurve:
    """Cumulative directory hits per probe batch for one target.

    ``points`` are (cumulative probes, hits) at the end of each plan batch
    the run reached, derived from the plan's batch ends, the report's
    ``probes_used`` and whether it found the record. Curves from one
    :func:`run_probe_experiment` call with the same outcome (probes used,
    hit) share one immutable ``points`` tuple.
    """

    target: bytes
    points: tuple[tuple[int, int], ...]
    report: Optional[ShadeReport] = None

    def __init__(self, target: bytes, points: tuple[tuple[int, int], ...],
                 report: Optional[ShadeReport] = None) -> None:
        _set(self, "target", target)
        _set(self, "points", points)
        _set(self, "report", report)


def _allocate_counts(spec: NetworkSpec) -> dict[int, int]:
    """Largest-remainder allocation of router counts per shade level."""
    n = spec.n_routers
    if not 1 <= n <= MAX_ROUTERS:
        raise InfeasibleSpecError(f"n_routers must lie in [1, {MAX_ROUTERS}]")
    if not 0.0 <= spec.floodfill_fraction <= 1.0:
        raise InfeasibleSpecError("floodfill_fraction must lie in [0, 1]")
    fractions: dict[int, float] = {}
    for key, value in spec.shade_distribution.items():
        level = _LEVEL_KEYS.get(str(key))
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if level is None or not numeric:
            raise InfeasibleSpecError(f"bad shade_distribution entry {key!r}: {value!r}")
        if level in fractions:
            raise InfeasibleSpecError(f"shade level {level} given twice")
        if not 0 <= value <= 1:  # also rejects NaN
            raise InfeasibleSpecError(f"fraction for shade {key} must lie in [0, 1]: {value!r}")
        fractions[level] = float(value)
    if 1 not in fractions:
        fractions[1] = spec.floodfill_fraction
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise InfeasibleSpecError(f"shade distribution sums to {total}, expected 1")

    counts: dict[int, int] = {}
    remainders: list[tuple[float, int]] = []
    for level in sorted(fractions):
        ideal = fractions[level] * n
        nearest = round(ideal)
        if abs(ideal - nearest) < 1e-6:  # snap float dust on exact c/n fractions
            counts[level] = nearest
            remainders.append((0.0, level))
        else:
            counts[level] = floor(ideal)
            remainders.append((ideal - counts[level], level))
    shortfall = n - sum(counts.values())
    if shortfall < 0:
        raise InfeasibleSpecError("distribution allocates more routers than n")
    for _, level in sorted(remainders, key=lambda rl: (-rl[0], rl[1]))[:shortfall]:
        counts[level] += 1

    expected_ff = floor(spec.floodfill_fraction * n + 0.5 + 1e-9)
    if counts.get(1, 0) == 0 and expected_ff > 0:
        raise InfeasibleSpecError("floodfills requested but no shade-1 mass")
    if abs(counts.get(1, 0) - spec.floodfill_fraction * n) > 1.0 + 1e-6:
        raise InfeasibleSpecError(
            "floodfill_fraction inconsistent with shade-1 distribution mass"
        )
    return counts


def _take(rng: random.Random, plan: Sequence[tuple[int, int]]) -> list[int]:
    """One value per ``(bound, bits)`` entry of ``plan``: ``bits`` bits, drawn
    again while not below ``bound``, as ``Random._randbelow_with_getrandbits``
    does. So ``(n, n.bit_length())`` draws as ``randrange(n)`` or a ``choice``
    of n items, and ``(1 << 8 * n, 8 * n)`` as ``randbytes(n)`` read little-endian."""
    getrandbits = rng.getrandbits
    draws = []
    for bound, bits in plan:
        value = getrandbits(bits)
        while value >= bound:
            value = getrandbits(bits)
        draws.append(value)
    return draws


def _bounded(n: int) -> tuple[int, int]:
    return n, n.bit_length()  # the plan entry of a draw in [0, n)


def _identity_bytes(rng: random.Random) -> bytes:
    # Null certificate: 387 bytes total, the bytes of rng.randbytes(384)
    # then the 3 zero bytes that pad the 384-byte number to 387.
    return rng.getrandbits(3072).to_bytes(387, "little")


class _AddressRecipe(NamedTuple):
    """How one kind of address is made: ``plan`` is its draws, as
    :func:`_take` takes them, and ``build(*draws)`` makes the address from them."""

    plan: tuple[tuple[int, int], ...]
    build: Callable[..., TransportAddress]


def _direct_address(a: int, b: int, c: int, style: int, cost: int, port: int) -> TransportAddress:
    # The host's three octets, the style, the cost, the port, as drawn.
    return TransportAddress._owning(("NTCP2", "SSU2")[style], 5 + cost, 0,
                                    {"host": f"10.{a}.{b}.{1 + c}", "port": str(9000 + port)})


def _introducer_address(ih0: int, itag0: int) -> TransportAddress:
    # The introducer's hash as a 256-bit number, and its tag, as drawn.
    options = {"ih0": hash_to_b64(ih0.to_bytes(32, "little")), "itag0": str(1 + itag0)}
    return TransportAddress._owning("SSU2", 5, 0, options)


_DIRECT = _AddressRecipe(tuple(map(_bounded, (256, 256, 254, 2, 10, 22000))), _direct_address)
_INTRODUCER = _AddressRecipe(((1 << 256, 256), _bounded(2**31)), _introducer_address)


# How each publishing shade's record is made: the caps strings one is
# drawn from (a bandwidth letter, then the flag letters), built once so that
# records with equal caps share one string, and the address recipe (None:
# the record publishes no address).
_RECIPES = {
    1: (tuple(letter + "fR" for letter in HIGH_BANDWIDTH), _DIRECT),
    2: (tuple(letter + "R" for letter in HIGH_BANDWIDTH), _DIRECT),
    3: (tuple(letter + "R" for letter in LOW_BANDWIDTH), _DIRECT),
    4: (tuple(letter + "U" for letter in BANDWIDTH_LETTERS), _DIRECT),
    5: (tuple(letter + "U" for letter in LOW_BANDWIDTH), _INTRODUCER),
    6: (tuple(letter + "H" for letter in LOW_BANDWIDTH), None),
    7: (tuple(LOW_BANDWIDTH), None),
}


# Each publishing shade's draws in stream order: caps index, address draws,
# version index, a floodfill's netdb counts, identity, publish offset, signature.
_PLANS = {
    level: (_bounded(len(choices)), *(address.plan if address else ()), _bounded(len(_VERSIONS)),
            *((_bounded(8501), _bounded(401)) if level == 1 else ()),
            (1 << 3072, 3072), _bounded(86_400_001), (1 << 512, 512))
    for level, (choices, address) in _RECIPES.items()
}


# The names of a record's fields, and a getter of their values in order.
_FIELDS = tuple(f.name for f in fields(RouterInfo))
_field_values = attrgetter(*_FIELDS)


class _SynthRecord(RouterInfo):
    """A record from :func:`synth_record`: ``hash`` is set at once, and the
    other fields are built together by :func:`_record_fields`, from the
    arguments in ``_draws``, on the first read of any of them. It equals any
    :class:`~shadescope.model.RouterInfo` with equal fields; its copies are
    built and have no ``_draws``."""

    __slots__ = ("_draws",)

    def __getattr__(self, name: str):
        # Runs only when a lookup fails: a field not yet built, or no such
        # attribute. The fields are all set before ``_draws`` is cleared, so
        # a thread that finds it None finds them set. Two threads may both
        # build; each builds equal values from the same draws.
        if name in _FIELDS and (draws := self._draws) is not None:
            self._fill(*_record_fields(*draws))
            _set(self, "_draws", None)
        return object.__getattribute__(self, name)

    def __eq__(self, other: object):
        if isinstance(other, RouterInfo):
            return _field_values(self) == _field_values(other)
        return NotImplemented


def synth_record(rng: random.Random, shade_level: int) -> RouterInfo:
    """A record whose capability profile classifies exactly to ``shade_level``.

    The profile reads only the caps drawn and the recipe's address kind, so
    ``tests/test_sim.py`` proves this by drawing every caps choice of each level.

    This is the draw half: it takes the level's plan in :data:`_PLANS` from
    ``rng`` now, in one :func:`_take`, and keeps only the values drawn, with
    the identity as its bytes, since ``hash`` is their digest. The record is
    a :class:`_SynthRecord`: its ``hash`` is set at once, and
    :func:`_record_fields`, the build half, makes its other fields on the
    first read of any of them.
    """
    if shade_level not in _PLANS:
        raise ValueError("only shades 1-7 publish records")
    draws = _take(rng, _PLANS[shade_level])
    identity = draws[-3] = draws[-3].to_bytes(387, "little")  # null certificate: 3 zero bytes
    record = object.__new__(_SynthRecord)
    _set(record, "hash", hashlib.sha256(identity).digest())  # all 387 bytes are key bytes
    _set(record, "_draws", (shade_level, *draws))
    return record


def _record_fields(level: int, caps: int, *draws) -> tuple:
    """The build half of :func:`synth_record`: the record's fields after
    ``hash``, made from its level and the values its plan drew, each turned
    into the field it stands for. Floodfills also publish their netdb counts."""
    choices, address = _RECIPES[level]
    n = len(address.plan) if address else 0
    version, *counts, identity, offset, signature = draws[n:]
    options = {"caps": choices[caps], "router.version": _VERSIONS[version]}
    if counts:
        options["netdb.knownRouters"] = str(500 + counts[0])
        options["netdb.knownLeaseSets"] = str(counts[1])
    addresses = (address.build(*draws[:n]),) if address else ()
    return (Destination(identity), EPOCH_2025_MS + offset, addresses, options,
            signature.to_bytes(64, "little"))


def generate_network(spec: NetworkSpec) -> NetworkModel:
    """Build the full ground-truth model for a spec, deterministically.

    Process-global effect: the build runs inside
    :func:`~shadescope.netdb._bulk_build`. Garbage in the young generations
    is collected first if the collector is enabled, cyclic garbage
    collection is paused for the rest of the call, and the caller's enabled
    flag is restored on return, also when the call raises. On return, every
    tracked object in the process, the new model included, moves to the
    oldest generation unscanned, unless the caller holds frozen objects.
    """
    with _bulk_build():
        rng = random.Random(spec.seed)
        levels = [level for level in sorted(spec.counts) for _ in range(spec.counts[level])]
        rng.shuffle(levels)

        routers: dict[bytes, SimRouter] = {}
        records: list[RouterInfo] = []
        floodfills: list[bytes] = []
        exclusive: list[bytes] = []
        for level in levels:
            if level == 8:
                identity = Destination(_identity_bytes(rng))
                router = SimRouter(hash_identity(identity), SHADES[8], None)
                exclusive.append(router.hash)
            else:
                record = synth_record(rng, level)
                router = SimRouter(record.hash, SHADES[level], record)
                records.append(record)
                if level == 1:
                    floodfills.append(router.hash)
            routers[router.hash] = router

        knowledge = _assign_knowledge(records, floodfills, spec.k, spec.date)
        return NetworkModel(
            spec=spec,
            routers=routers,
            published=tuple(record.hash for record in records),
            floodfills=tuple(floodfills),
            exclusive=frozenset(exclusive),
            knowledge=knowledge,
        )


def _assign_knowledge(
    records: Sequence[RouterInfo],
    floodfills: Sequence[bytes],
    k: int,
    date: str,
) -> dict[bytes, dict[bytes, RouterInfo]]:
    """Store each published record on the k floodfills nearest its routing key,
    as answered in one batch by :class:`~shadescope.dht.FloodfillTable`.
    Each floodfill's store lists its records in published order."""
    stores: dict[bytes, dict[bytes, RouterInfo]] = {f: {} for f in floodfills}
    if not (floodfills and records):
        return stores
    hashes = [record.hash for record in records]
    table = FloodfillTable(floodfills)
    holders = table.nearest(routing_keys(hashes, date), k)
    slots = [stores[f] for f in table.hashes]
    # Row by row: one list of all rows would hold an int object per holder.
    for record_hash, record, row in zip(hashes, records, holders):
        for j in row.tolist():
            slots[j][record_hash] = record
    return stores


def completeness_metrics(model: NetworkModel) -> VisibilityMetrics:
    """Observable completeness ratio and its complement.

    Both ratios are computed directly from the integer counts so each is
    the correctly rounded value of its exact fraction.
    """
    total = len(model.routers)
    if total == 0:
        raise ValueError("model has no routers")
    published = len(model.published)
    return VisibilityMetrics(rho=published / total, xi=(total - published) / total)


class SimulatedSource(NetDbSource):
    """Directory source backed by a generated model.

    The local and console views are empty: an initially unknown record
    becomes visible only in a probe's answer, the floodfill's entry in
    ``model.knowledge``, which callers read and never change. With a nonzero
    ``failure_rate``, each probe draws once from the source's one
    ``random.Random(failure_seed)`` and fails when the draw falls below the
    rate, so which probes fail depends only on the seed and on each probe's
    place in the sequence of probes. A rate outside [0, 1], NaN included,
    raises :class:`~shadescope.encoding.InputError`, as does a probe of a
    hash that is not one of the model's floodfills: a bad plan, not a
    failed probe.
    """

    def __init__(self, model: NetworkModel, failure_rate: float = 0.0, failure_seed: int = 0):
        if not 0.0 <= failure_rate <= 1.0:
            raise InputError(f"failure_rate must lie in [0, 1], got {failure_rate}")
        self._model = model
        self._failure_rate = failure_rate
        self._rng = random.Random(failure_seed)

    def probe_floodfill(self, floodfill: bytes) -> Mapping[bytes, RouterInfo]:
        stored = self._model.knowledge.get(floodfill)
        if stored is None:
            raise InputError("plan includes a hash outside the model's floodfills")
        if self._failure_rate and self._rng.random() < self._failure_rate:
            raise ProbeTransportError("injected probe failure")
        return stored


def run_probe_experiment(
    model: NetworkModel,
    targets: Sequence[bytes],
    plan: ProbePlan,
    failure_rate: float = 0.0,
    failure_seed: int = 0,
) -> list[HitCurve]:
    """Replay every target against one simulated pass over the plan.

    One ``SimulatedSource(model, failure_rate, failure_seed)`` serves every
    target (a rate outside [0, 1] raises ``InputError``, as does a target
    outside the model or a planned hash that is not a key of
    ``model.knowledge``, the floodfills the source answers for), and
    :func:`~shadescope.protocol.classify_sweep` probes each planned
    floodfill once. So there is one failure pattern, and every target sees
    it, as in one pass over the probing pool: probe *i* fails for every
    target or for none. Each report is the one a fresh source seeded alike
    would give that target alone. A bytearray target is replayed, and its
    curve and report keyed, as bytes.

    A curve has one point per plan batch the run reached: (batch end, 0)
    for each batch before the last, then (probes used, 1 for a hit or 0).
    A run that ends before any probe ran gives the single point (0, 0).
    The points depend only on that outcome, so each distinct one is built
    once and its tuple is shared by every curve that reached it.
    """
    if not all(map(model.knowledge.__contains__, plan.floodfills)):
        raise InputError("plan includes a hash outside the model's floodfills")
    try:
        known = all(map(model.routers.__contains__, targets))
    except TypeError:  # an unhashable target, such as a bytearray
        known = False
    if not known:  # name the first bad target, if there is one
        for target in targets:
            target = check_hash(target)  # a hash of the wrong shape raises here
            if target not in model.routers:
                raise InputError(f"target not in model: {hash_to_b64(target)}")
    source = SimulatedSource(model, failure_rate, failure_seed)
    reports = classify_sweep(targets, source, plan)
    ends = tuple(accumulate(len(batch) for batch in plan.batches()))
    misses = tuple((end, 0) for end in ends)
    shared: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    curves: list[HitCurve] = []
    for report in reports:
        outcome = (report.probes_used, int(report.record is not None))
        points = shared.get(outcome)
        if points is None:
            points = misses[: bisect_left(ends, report.probes_used)] + (outcome,)
            shared[outcome] = points
        curves.append(HitCurve(report.subject, points, report))
    return curves


class _Cells(dict):
    """Row tails ``,probes,hits`` and CRLF, keyed by ``(probes, hits)`` point;
    each is formatted on its first lookup and stored."""

    def __missing__(self, point: tuple[int, int]) -> str:
        probes, hits = point
        cell = self[point] = f",{probes},{hits}\r\n"
        return cell


def export_curves(curves: Sequence[HitCurve], path: Union[str, Path]) -> None:
    """CSV rows target,cumulative_probes,hits: one row per point, after a header.

    Curves are ordered by base64 target in a stable sort, so curves with one
    target keep their given order; a curve's rows keep its points in the
    order given, unsorted, and a curve without points writes no row.

    Points are ``(int, int)`` pairs, as :class:`HitCurve` types them. Each
    distinct point is formatted once per call and reused by value, so a
    point given as ``(True, 5.0)`` would print as the ``(1, 5)`` that
    compares equal to it, if that was formatted first. Each distinct
    ``points`` object gets one set of row tails per call, reused by every
    curve that holds that object, as the curves of one
    :func:`run_probe_experiment` outcome do.

    ``path`` is opened by :func:`~shadescope.netdb._open_output`: if writing
    fails, a file this call created is removed, and one that was there
    before is left, truncated.
    """
    if not curves:
        raise ValueError("no curves to export")
    with _open_output(path) as fh:
        _write_curves(curves, fh)


def _write_curves(curves: Sequence[HitCurve], fh: TextIO) -> None:
    """:func:`export_curves` into ``fh``, a stream from ``_open_output``."""
    keyed = sorted(((hash_to_b64(c.target), c.points) for c in curves), key=itemgetter(0))
    # Base64 hashes and integers never need quoting, so the lines are
    # formatted directly: the bytes are csv.writer's. One set of row tails
    # per distinct points object per call: ["", ",probes,hits\r\n", ...],
    # and a target's rows are the target joined with them (the leading ""
    # puts it first). Tails are keyed by id(points), which is safe because
    # ``keyed`` holds every points object until the call returns; keying by
    # value would hash every point of every curve again, the cost this saves.
    cell = _Cells().__getitem__
    tails: dict[int, list[str]] = {}
    fh.write("target,cumulative_probes,hits\r\n")
    for target, points in keyed:
        tail = tails.get(id(points))
        if tail is None:
            tail = tails[id(points)] = ["", *map(cell, points)]
        fh.write(target.join(tail))

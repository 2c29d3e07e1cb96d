"""Deterministic synthetic-overlay generator and probe-experiment engine.

A generated network is fully reproducible from its spec and seed: router
identities, capability profiles, floodfill knowledge placement, and
probe experiments all derive from one seeded RNG. Records for published
routers are stored on the k floodfills XOR-nearest to their routing key
for the generation date, so probe behavior mirrors the real placement
rule; the k nearest come from one batched query to
:class:`~shadescope.dht.FloodfillTable`, the same kernel that answers
association and responsibility, as holder indices that one stable sort
groups into each floodfill's store of records. Every synthesized record is
checked against :func:`~shadescope.classify.classify` before use.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import floor
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .classify import ShadeReport, classify
from .dht import FloodfillTable, normalize_date, routing_key
from .encoding import hash_to_b64
from .model import (
    BANDWIDTH_LETTERS,
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    Destination,
    RouterInfo,
    Shade,
    TransportAddress,
    hash_identity,
    shade_for_level,
)
from .protocol import ProbePlan, ProbeTransportError, classify_sweep

EPOCH_2025_MS = 1_735_689_600_000
_VERSIONS = ("0.9.67", "0.9.68", "2.12.0")


class InfeasibleSpecError(ValueError):
    """The network spec cannot be realized (bad fractions, missing mass)."""


# The JSON type of each spec-file key; true and false are not numbers here.
_SPEC_TYPES = {"n_routers": int, "floodfill_fraction": (int, float),
               "shade_distribution": dict, "k": int, "seed": int, "date": str}


@dataclass(frozen=True)
class NetworkSpec:
    """Generation parameters. shade_distribution maps levels "1".."8" to
    fractions of n_routers; level "1" may be omitted and is then implied
    by floodfill_fraction."""

    n_routers: int
    floodfill_fraction: float
    shade_distribution: dict
    k: int = 4
    seed: int = 0
    date: str = "20250101"

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "NetworkSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise InfeasibleSpecError(f"spec file is not UTF-8 text: {path}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, too deep or too long a number
            raise InfeasibleSpecError(f"spec file is not readable JSON: {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise InfeasibleSpecError("spec must be a JSON object")
        unknown = set(raw) - set(_SPEC_TYPES)
        if unknown:
            raise InfeasibleSpecError(f"unknown spec keys: {sorted(unknown)}")
        for key, value in raw.items():
            if isinstance(value, bool) or not isinstance(value, _SPEC_TYPES[key]):
                raise InfeasibleSpecError(f"spec key {key!r} has the wrong type: {value!r}")
        try:
            return cls(**raw)
        except TypeError as exc:  # a required key is missing
            raise InfeasibleSpecError(f"incomplete spec: {exc}") from None


@dataclass(frozen=True)
class SimRouter:
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


@dataclass(frozen=True)
class HitCurve:
    """Cumulative directory hits per probe batch for one target.

    ``points`` are (cumulative probes, hits) at the end of each plan batch
    the run reached, derived from the plan's batch ends, the report's
    ``probes_used`` and whether it found the record.
    """

    target: bytes
    points: tuple[tuple[int, int], ...]
    report: Optional[ShadeReport] = None


def _allocate_counts(spec: NetworkSpec) -> dict[int, int]:
    """Largest-remainder allocation of router counts per shade level."""
    n = spec.n_routers
    if n < 1:
        raise InfeasibleSpecError("n_routers must be >= 1")
    if not 0.0 <= spec.floodfill_fraction <= 1.0:
        raise InfeasibleSpecError("floodfill_fraction must lie in [0, 1]")
    fractions: dict[int, float] = {}
    for key, value in spec.shade_distribution.items():
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (str(key).isdecimal() and numeric):
            raise InfeasibleSpecError(f"bad shade_distribution entry {key!r}: {value!r}")
        level = int(key)
        if not 1 <= level <= 8:
            raise InfeasibleSpecError(f"shade level out of range: {key}")
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


def _synth_identity(rng: random.Random) -> Destination:
    # Null certificate: 387 bytes total.
    return Destination(rng.randbytes(384) + b"\x00\x00\x00")


def _direct_address(rng: random.Random) -> TransportAddress:
    host = f"10.{rng.randrange(0, 256)}.{rng.randrange(0, 256)}.{rng.randrange(1, 255)}"
    return TransportAddress(
        style=rng.choice(("NTCP2", "SSU2")),
        cost=rng.randrange(5, 15),
        options={"host": host, "port": str(rng.randrange(9000, 31000))},
    )


def _introducer_address(rng: random.Random) -> TransportAddress:
    return TransportAddress(
        style="SSU2",
        cost=5,
        options={
            "ih0": hash_to_b64(rng.randbytes(32)),
            "itag0": str(rng.randrange(1, 2**31 + 1)),
        },
    )


# How each publishing shade's record is made: the bandwidth letters one is
# drawn from, the flag letters after it, and the address maker (None: the
# record publishes no address).
_RECIPES = {
    1: (HIGH_BANDWIDTH, "fR", _direct_address),
    2: (HIGH_BANDWIDTH, "R", _direct_address),
    3: (LOW_BANDWIDTH, "R", _direct_address),
    4: (BANDWIDTH_LETTERS, "U", _direct_address),
    5: (LOW_BANDWIDTH, "U", _introducer_address),
    6: (LOW_BANDWIDTH, "H", None),
    7: (LOW_BANDWIDTH, "", None),
}


def synth_record(rng: random.Random, shade_level: int) -> RouterInfo:
    """A record whose capability profile classifies exactly to ``shade_level``.

    Raises :class:`RuntimeError` if the record made does not classify to
    ``shade_level``; the check holds under ``python -O`` too.
    """
    if shade_level not in _RECIPES:
        raise ValueError("only shades 1-7 publish records")
    letters, flags, make_address = _RECIPES[shade_level]
    caps = rng.choice(letters) + flags
    addresses = (make_address(rng),) if make_address else ()
    options = {"caps": caps, "router.version": rng.choice(_VERSIONS)}
    if shade_level == 1:
        options["netdb.knownRouters"] = str(rng.randrange(500, 9001))
        options["netdb.knownLeaseSets"] = str(rng.randrange(0, 401))
    record = RouterInfo(
        identity=_synth_identity(rng),
        published_ms=EPOCH_2025_MS + rng.randrange(0, 86_400_001),
        addresses=addresses,
        options=options,
        signature=rng.randbytes(64),
    )
    level = classify(record.profile()).level
    if level != shade_level:
        raise RuntimeError(f"record made for shade {shade_level} classifies as {level}")
    return record


def generate_network(spec: NetworkSpec) -> NetworkModel:
    """Build the full ground-truth model for a spec, deterministically."""
    try:
        normalize_date(spec.date)
    except ValueError as exc:
        raise InfeasibleSpecError(str(exc)) from None
    if spec.k < 1:
        raise InfeasibleSpecError("replication k must be >= 1")
    counts = _allocate_counts(spec)
    rng = random.Random(spec.seed)

    levels: list[int] = []
    for level in sorted(counts):
        levels.extend([level] * counts[level])
    rng.shuffle(levels)

    routers: dict[bytes, SimRouter] = {}
    records: list[RouterInfo] = []
    floodfills: list[bytes] = []
    exclusive: list[bytes] = []
    for level in levels:
        if level == 8:
            identity = _synth_identity(rng)
            router = SimRouter(
                hash=hash_identity(identity),
                shade=shade_for_level(8),
                record=None,
            )
            exclusive.append(router.hash)
        else:
            record = synth_record(rng, level)
            router = SimRouter(
                hash=record.hash,
                shade=shade_for_level(level),
                record=record,
            )
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
    as answered in one batch by :class:`~shadescope.dht.FloodfillTable`."""
    groups = _records_by_holder(records, floodfills, k, date) if floodfills and records else {}
    return {f: groups.get(f, {}) for f in floodfills}


def _records_by_holder(
    records: Sequence[RouterInfo],
    floodfills: Sequence[bytes],
    k: int,
    date: str,
) -> dict[bytes, dict[bytes, RouterInfo]]:
    """The published records each floodfill holds, by hash, in published order."""
    hashes = [record.hash for record in records]
    keys = [routing_key(record_hash, date) for record_hash in hashes]
    table = FloodfillTable(floodfills)
    holders = table.nearest(keys, k)
    # One stable sort of the flat holder indices groups the records by holder.
    flat = holders.ravel()
    order = np.argsort(flat, kind="stable")
    picked = order // holders.shape[1]
    by_hash = np.array(hashes, dtype=object)[picked].tolist()
    by_record = np.array(records, dtype=object)[picked].tolist()
    bounds = np.searchsorted(flat[order], np.arange(len(table) + 1)).tolist()
    stores = (dict(zip(by_hash[a:b], by_record[a:b])) for a, b in zip(bounds, bounds[1:]))
    return dict(zip(table.hashes, stores))


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


class SimulatedSource:
    """Directory source backed by a generated model.

    The local and console views are empty: an initially unknown record
    becomes visible only in a probe's answer, the floodfill's entry in
    ``model.knowledge``, which callers read and never change. With a nonzero
    ``failure_rate``, each probe draws once from ``rng`` and fails when the
    draw falls below the rate, so which probes fail depends only on the
    seed and on each probe's place in the sequence of probes.
    """

    def __init__(
        self,
        model: NetworkModel,
        failure_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        self._model = model
        self._failure_rate = failure_rate
        self._rng = rng if rng is not None else random.Random(0)

    def lookup_local(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None

    def lookup_console(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None

    def probe_floodfill(self, floodfill: bytes) -> Mapping[bytes, RouterInfo]:
        stored = self._model.knowledge.get(floodfill)
        if stored is None:
            raise ProbeTransportError("probed hash is not a floodfill")
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

    One :class:`SimulatedSource` seeded with ``failure_seed`` serves every
    target, and :func:`~shadescope.protocol.classify_sweep` probes each
    planned floodfill once. So there is one failure pattern, and every
    target sees it, as in one pass over the probing pool: probe *i* fails
    for every target or for none. Each report is the one a fresh source
    seeded alike would give that target alone.

    A curve has one point per plan batch the run reached: (batch end, 0)
    for each batch before the last, then (probes used, 1 for a hit or 0).
    A run that ends before any probe ran gives the single point (0, 0).
    """
    if not set(model.floodfills).issuperset(plan.floodfills):
        raise ValueError("plan includes a hash outside the model's floodfills")
    for target in targets:
        if target not in model.routers:
            raise ValueError(f"target not in model: {hash_to_b64(target)}")
    source = SimulatedSource(model, failure_rate, random.Random(failure_seed))
    reports = classify_sweep(targets, source, plan)
    ends = tuple(accumulate(len(batch) for batch in plan.batches()))
    misses = tuple((end, 0) for end in ends)
    curves: list[HitCurve] = []
    for target, report in zip(targets, reports):
        used = report.probes_used
        hit = int(report.record is not None)
        points = misses[: bisect_left(ends, used)] + ((used, hit),)
        curves.append(HitCurve(target=target, points=points, report=report))
    return curves


def export_curves(curves: Sequence[HitCurve], path: Union[str, Path]) -> None:
    """CSV rows target,cumulative_probes,hits ordered by target then probes."""
    if not curves:
        raise ValueError("no curves to export")
    keyed = sorted(((hash_to_b64(c.target), c.points) for c in curves), key=itemgetter(0))
    # Base64 hashes and integers never need quoting, so the lines are
    # formatted directly: the bytes are csv.writer's, at a third of its cost.
    with open(Path(path), "w", newline="") as fh:
        fh.write("target,cumulative_probes,hits\r\n")
        for target, points in keyed:
            fh.write("".join(f"{target},{probes},{hits}\r\n" for probes, hits in points))

"""Multi-source shade classification and the LeaseSet gateway scan.

The classification run checks a local directory view, then a console
cache, then expands the console view by probing floodfills in batches,
re-checking the target after each batch. The first retrieval
short-circuits to capability classification; full exhaustion with no
retrieval yields level 8. A sweep runs many targets through one pass
over the probe plan, probing each floodfill once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional, Protocol, Sequence, Union

from .classify import Evidence, EvidenceSource, ShadeReport, classify, profile_diagnostics
from .encoding import check_hash, hash_to_b64
from .model import LeaseSet, RouterInfo, SHADE_EXCLUSIVE

# A gateway match is evidence of routing participation, not hosting.
GATEWAY_SCAN_NOTE = "routing participation, not hosting"


class ProbeTransportError(Exception):
    """A floodfill probe could not be delivered or answered."""


class NetDbSource(Protocol):
    """Pluggable record source: local view, console cache, probe effect."""

    def lookup_local(self, router_hash: bytes) -> Optional[RouterInfo]: ...

    def lookup_console(self, router_hash: bytes) -> Optional[RouterInfo]: ...

    def probe_floodfill(self, floodfill: bytes) -> None:
        """Expand the console view with the floodfill's stored records.

        Raises :class:`ProbeTransportError` when the probe cannot complete.
        """
        ...


class SnapshotSource:
    """Local lookups from a loaded snapshot; console lookups and probes go
    to an optional backing source, such as a simulated network.

    Without a backing source, console lookups miss and probes raise
    :class:`ProbeTransportError`. Without a snapshot, local lookups miss.
    """

    def __init__(self, local, backing: Optional[NetDbSource] = None):
        self._local = local
        self._backing = backing

    def lookup_local(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None if self._local is None else self._local.lookup(router_hash)

    def lookup_console(self, router_hash: bytes) -> Optional[RouterInfo]:
        if self._backing is None:
            return None
        return self._backing.lookup_console(router_hash)

    def probe_floodfill(self, floodfill: bytes) -> None:
        if self._backing is None:
            raise ProbeTransportError("no probe transport configured")
        self._backing.probe_floodfill(floodfill)


@dataclass(frozen=True)
class ProbePlan:
    """Ordered floodfill probe schedule, consumed in fixed batches."""

    floodfills: tuple[bytes, ...]
    batch_size: int = 5
    max_probes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.max_probes is not None and self.max_probes < 0:
            raise ValueError("max_probes must be non-negative")
        for f in self.floodfills:
            check_hash(f, "planned floodfill")

    @property
    def probe_limit(self) -> int:
        if self.max_probes is None:
            return len(self.floodfills)
        return min(self.max_probes, len(self.floodfills))

    def batches(self) -> Iterator[tuple[bytes, ...]]:
        limit = self.probe_limit
        for start in range(0, limit, self.batch_size):
            yield self.floodfills[start : min(start + self.batch_size, limit)]


def classify_remote(subject: bytes, source: NetDbSource, plan: ProbePlan) -> ShadeReport:
    """Run the full multi-source classification of one router hash.

    The console view is re-checked after each batch of ``plan.batches()``,
    and the run stops at the first hit, so the probed floodfills are always
    ``plan.floodfills[:report.probes_used]``. The 1-based plan indices of
    probes that raised :class:`ProbeTransportError` are kept in
    ``report.failed_at``; together with the plan they are the whole probe
    record (see :func:`write_probe_log`).

    A run whose every attempted probe failed is inconclusive (shade None)
    rather than level 8: absence cannot be certified from missing evidence.
    """
    return classify_sweep((subject,), source, plan)[0]


def classify_sweep(
    subjects: Sequence[bytes], source: NetDbSource, plan: ProbePlan
) -> list[ShadeReport]:
    """Classify several router hashes against one shared pass over ``plan``.

    Each subject gets the local and then the console lookup. The plan's
    floodfills are then probed once each, in order, and after each batch
    the console view is re-checked for the subjects still unseen. A subject
    seen after a batch gets the report :func:`classify_remote` gives when
    it stops at that batch: ``probes_used`` is the batch's end and
    ``failed_at`` the failures so far. The sweep stops once every subject
    is seen; the rest share the level-8 (or inconclusive) report of the
    whole plan. Reports come back in the order of ``subjects``.

    The reports equal one :func:`classify_remote` run per subject on a
    fresh source whenever a probe's outcome depends only on its place in
    the plan and the console view is the union of what the probes
    returned, as with :class:`~shadescope.sim.SimulatedSource` under one
    seed.
    """
    for subject in subjects:
        check_hash(subject, "subject hash")
    reports: list[Optional[ShadeReport]] = [None] * len(subjects)
    misses = (
        Evidence(EvidenceSource.LOCAL_NETDB, False),
        Evidence(EvidenceSource.CONSOLE_CACHE, False),
    )
    pending: list[int] = []
    for i, subject in enumerate(subjects):
        record = source.lookup_local(subject)
        if record is not None:
            evidence = (Evidence(EvidenceSource.LOCAL_NETDB, True),)
            reports[i] = _hit_report(subject, record, evidence, 0, ())
            continue
        record = source.lookup_console(subject)
        if record is not None:
            evidence = (misses[0], Evidence(EvidenceSource.CONSOLE_CACHE, True))
            reports[i] = _hit_report(subject, record, evidence, 0, ())
        else:
            pending.append(i)

    probes_used = 0
    failed_at: list[int] = []
    for batch in plan.batches():
        if not pending:
            break
        for floodfill in batch:
            probes_used += 1
            try:
                source.probe_floodfill(floodfill)
            except ProbeTransportError:
                failed_at.append(probes_used)
        seen = False
        for i in pending:
            record = source.lookup_console(subjects[i])
            if record is not None:
                evidence = misses + (
                    Evidence(EvidenceSource.FLOODFILL_PROBE, True, probes_used),
                )
                reports[i] = _hit_report(
                    subjects[i], record, evidence, probes_used, tuple(failed_at)
                )
                seen = True
        if seen:
            pending = [i for i in pending if reports[i] is None]

    if pending:
        if probes_used > 0 and len(failed_at) == probes_used:
            shade = None  # inconclusive: no probe ever answered
        else:
            shade = SHADE_EXCLUSIVE
        evidence = misses + (Evidence(EvidenceSource.FLOODFILL_PROBE, False, probes_used),)
        for i in pending:
            reports[i] = ShadeReport(
                subject=subjects[i],
                shade=shade,
                evidence=evidence,
                probes_used=probes_used,
                failed_at=tuple(failed_at),
            )
    return reports


def _hit_report(
    subject: bytes,
    record: RouterInfo,
    evidence: tuple[Evidence, ...],
    probes_used: int,
    failed_at: tuple[int, ...],
) -> ShadeReport:
    profile = record.profile()
    return ShadeReport(
        subject=subject,
        shade=classify(profile),
        evidence=evidence,
        profile=profile,
        caps=record.caps,
        probes_used=probes_used,
        diagnostics=tuple(profile_diagnostics(profile)),
        failed_at=failed_at,
    )


def shade8_certificate(report: ShadeReport) -> bool:
    """True only for a conclusive level-8 report with zero failed probes.

    The certificate is the full conjunction: local miss, console miss,
    and a miss from every probed floodfill. Any failed probe leaves the
    evidence incomplete, so no certificate is issued.
    """
    return (
        report.shade is not None
        and report.shade.level == 8
        and report.failed_probes == 0
    )


class MatchKind(Enum):
    EXACT_HASH = "ExactHash"
    PREFIX = "Prefix"


@dataclass(frozen=True)
class GatewayMatch:
    leaseset: LeaseSet
    lease_index: int
    match_kind: MatchKind

    @property
    def note(self) -> str:
        return GATEWAY_SCAN_NOTE


def gateway_scan(
    target: bytes, leasesets: Sequence[LeaseSet]
) -> list[GatewayMatch]:
    """Find leases whose gateway equals the target hash (or prefix).

    A 32-byte target matches exactly; 4 to 31 bytes match as a prefix.
    Matches indicate routing participation only, never hosting, and must
    not feed a shade verdict.
    """
    if not 4 <= len(target) <= 32:
        raise ValueError("target must be a 32-byte hash or a prefix of >= 4 bytes")
    if len(target) == 32:
        kind, hit = MatchKind.EXACT_HASH, lambda gw: gw == target
    else:
        kind, hit = MatchKind.PREFIX, lambda gw: gw.startswith(target)
    matches = []
    for ls in leasesets:
        for idx, lease in enumerate(ls.leases):
            if hit(lease.gateway):
                matches.append(GatewayMatch(ls, idx, kind))
    return matches


def write_probe_log(report: ShadeReport, plan: ProbePlan, path: Union[str, Path]) -> None:
    """Write the per-probe CSV log of a run of ``plan``: probe_index,floodfill_b64,result.

    The probed floodfills are the first ``report.probes_used`` of the plan;
    a row's result is ``failed`` when its index is in ``report.failed_at``
    and ``ok`` otherwise.
    """
    failed = set(report.failed_at)
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_index", "floodfill_b64", "result"])
        for index, floodfill in enumerate(plan.floodfills[: report.probes_used], 1):
            writer.writerow(
                [index, hash_to_b64(floodfill), "failed" if index in failed else "ok"]
            )

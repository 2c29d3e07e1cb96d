"""Multi-source shade classification.

The classification run checks a local directory view, then a console
cache, then probes floodfills in batches until a probe of a batch
answers with the target's record. The first retrieval short-circuits
to capability classification; full exhaustion with no retrieval
yields level 8. A sweep runs many targets through one pass over the
probe plan, probing each floodfill once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, TextIO, Union

from .classify import EvidenceSource, ShadeReport
from .encoding import InputError, _check_hashes, hash_to_b64
from .model import RouterInfo
from .netdb import _open_output


class ProbeTransportError(Exception):
    """A floodfill probe could not be delivered or answered."""


class NetDbSource:
    """Record source: local view, console cache, floodfill probes. This base
    is the empty one, and a subclass overrides what it answers."""

    def lookup_local(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None

    def lookup_console(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None

    def probe_floodfill(self, floodfill: bytes) -> Mapping[bytes, RouterInfo]:
        """The records the floodfill answers with, by router hash.

        Raises :class:`ProbeTransportError` when the probe cannot complete.
        """
        raise ProbeTransportError("no probe transport configured")


class SnapshotSource(NetDbSource):
    """Local lookups from a loaded snapshot; console lookups and probes go
    to a backing source, such as a simulated network.

    The default backing is the empty source: console lookups miss and probes
    raise :class:`ProbeTransportError`. Without a snapshot, local lookups miss.
    """

    def __init__(self, local, backing: NetDbSource = NetDbSource()):
        self._local = local
        self._backing = backing

    def lookup_local(self, router_hash: bytes) -> Optional[RouterInfo]:
        return None if self._local is None else self._local.lookup(router_hash)

    def lookup_console(self, router_hash: bytes) -> Optional[RouterInfo]:
        return self._backing.lookup_console(router_hash)

    def probe_floodfill(self, floodfill: bytes) -> Mapping[bytes, RouterInfo]:
        return self._backing.probe_floodfill(floodfill)


@dataclass(frozen=True)
class ProbePlan:
    """Ordered floodfill probe schedule, consumed in fixed batches. A
    bytearray floodfill is stored as bytes, so it can key a lookup.
    ``batch_size`` and ``max_probes`` (None: no limit) are ints, not bools."""

    floodfills: tuple[bytes, ...]
    batch_size: int = 5
    max_probes: Optional[int] = None

    def __post_init__(self) -> None:
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise InputError(f"batch size must be a positive integer: {self.batch_size!r}")
        if self.max_probes is not None and (type(self.max_probes) is not int
                                            or self.max_probes < 0):
            raise InputError(f"max_probes must be a non-negative integer: {self.max_probes!r}")
        object.__setattr__(self, "floodfills",
                           _check_hashes(self.floodfills, "planned floodfill"))

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

    The run stops at the first batch after which the subject is seen, so
    the probed floodfills are ``plan.floodfills[:report.probes_used]``;
    with ``report.failed_at`` they are the whole probe record (see
    :func:`write_probe_log`). :class:`ShadeReport` derives the verdict.
    """
    return classify_sweep((subject,), source, plan)[0]


def classify_sweep(
    subjects: Sequence[bytes], source: NetDbSource, plan: ProbePlan
) -> list[ShadeReport]:
    """Classify several router hashes against one shared pass over ``plan``.

    Each subject gets the local and then the console lookup, once, before
    any probe. The plan's floodfills are then probed once each, in order,
    and a pending subject is seen at the end of the first batch whose
    answers include its record (when two probes of a batch answer with
    it, the later answer is kept), until every subject is seen. A
    subject's :class:`ShadeReport` holds the facts at the batch that
    revealed it, or at the end of the sweep. Reports come back in the
    order of ``subjects``; a bytearray subject is looked up, and reported,
    as bytes.

    Each report equals :func:`classify_remote` on a fresh source whenever
    a probe's answer depends only on its place in the plan, as with
    :class:`~shadescope.sim.SimulatedSource` under one seed.
    """
    subjects = _check_hashes(subjects, "subject hash")
    reports: list[Optional[ShadeReport]] = [None] * len(subjects)
    pending: dict[bytes, list[int]] = {}
    for i, subject in enumerate(subjects):
        record = source.lookup_local(subject)
        if record is not None:
            reports[i] = ShadeReport(subject, EvidenceSource.LOCAL_NETDB, record)
            continue
        record = source.lookup_console(subject)
        if record is not None:
            reports[i] = ShadeReport(subject, EvidenceSource.CONSOLE_CACHE, record)
        else:
            pending.setdefault(subject, []).append(i)

    probes_used = 0
    failed_at: list[int] = []
    for batch in plan.batches():
        if not pending:
            break
        answers: dict[bytes, RouterInfo] = {}
        for floodfill in batch:
            probes_used += 1
            try:
                answer = source.probe_floodfill(floodfill)
            except ProbeTransportError:
                failed_at.append(probes_used)
                continue
            # This walks the smaller side, so a probe costs at most its answer's size.
            for router_hash in pending.keys() & answer.keys():
                answers[router_hash] = answer[router_hash]
        for router_hash, record in answers.items():
            for i in pending.pop(router_hash):
                reports[i] = ShadeReport(
                    subjects[i], EvidenceSource.FLOODFILL_PROBE, record,
                    probes_used, tuple(failed_at),
                )

    failed = tuple(failed_at)
    return [
        report or ShadeReport(subject, None, None, probes_used, failed)
        for subject, report in zip(subjects, reports)
    ]


def shade8_certificate(report: ShadeReport) -> bool:
    """True only when the report's level-8 certificate is issued
    (:attr:`ShadeReport.certificate`): a conclusive level 8 over at least
    one probe, none of which failed."""
    return report.certificate == "issued"


def write_probe_log(report: ShadeReport, plan: ProbePlan, path: Union[str, Path]) -> None:
    """Write the per-probe CSV log of a run of ``plan``: probe_index,floodfill_b64,result.

    The probed floodfills are the first ``report.probes_used`` of the plan;
    a row's result is ``failed`` when its index is in ``report.failed_at``
    and ``ok`` otherwise. If writing fails, a file this call created is
    removed, as :func:`~shadescope.netdb._open_output` rules.
    """
    with _open_output(path) as fh:
        _write_probe_log(report, plan, fh)


def _write_probe_log(report: ShadeReport, plan: ProbePlan, fh: TextIO) -> None:
    """:func:`write_probe_log` into ``fh``, a stream from ``_open_output``."""
    failed = set(report.failed_at)
    writer = csv.writer(fh)
    writer.writerow(["probe_index", "floodfill_b64", "result"])
    for index, floodfill in enumerate(plan.floodfills[: report.probes_used], 1):
        writer.writerow(
            [index, hash_to_b64(floodfill), "failed" if index in failed else "ok"]
        )

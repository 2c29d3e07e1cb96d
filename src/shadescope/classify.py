"""Visibility-shade classification of capability profiles.

Levels 1-7 cover routers present in the queried directory view, ordered
from fully observable (Beacon) to present-but-unreachable (Phantom).
Level 8 (Exclusive) is reserved for routers with no record at all and is
assigned only from absence, never from capability flags.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Optional

from .encoding import hash_to_b64
from .model import (
    HIGH_BANDWIDTH,
    SHADE_EXCLUSIVE,
    SHADES,
    CapabilityProfile,
    RouterInfo,
    Shade,
    _set,
)


def classify(profile: Optional[CapabilityProfile]) -> Shade:
    """Map a record's capability profile to its shade; no record is level 8.

    Precedence: with a published address, the floodfill flag dominates,
    then the firewalled flag, then bandwidth tiering. Without one,
    declared introducers dominate the hidden flag.
    """
    if profile is None:
        return SHADE_EXCLUSIVE
    if profile.alpha:
        if profile.kappa_f:
            return SHADES[1]
        if profile.kappa_U:
            return SHADES[4]
        if profile.bandwidth_class and profile.bandwidth_class in HIGH_BANDWIDTH:
            return SHADES[2]
        return SHADES[3]
    if profile.iota:
        return SHADES[5]
    if profile.kappa_H:
        return SHADES[6]
    return SHADES[7]


def profile_diagnostics(profile: Optional[CapabilityProfile]) -> list[str]:
    """Flag contradictory field combinations worth surfacing in reports."""
    if profile is None:
        return []
    notes = []
    if profile.kappa_H and profile.alpha:
        notes.append(
            "hidden flag set but a direct address is published; "
            "address wins, classified among shades 1-4"
        )
    if profile.kappa_H and profile.iota and not profile.alpha:
        notes.append(
            "hidden flag set alongside declared introducers; "
            "introducers win, classified Veiled"
        )
    return notes


class EvidenceSource(Enum):
    """The record sources, declared in the order a run consults them."""

    LOCAL_NETDB = "LocalNetDb"
    CONSOLE_CACHE = "ConsoleCache"
    FLOODFILL_PROBE = "FloodfillProbe"


@dataclass(frozen=True)
class Evidence:
    source: EvidenceSource
    hit: bool
    probes_used: int = 0


@dataclass(frozen=True, init=False, slots=True)
class ShadeReport:
    """Outcome of a multi-source classification run, built from its facts.

    The facts are ``found_by``, the source that found the subject's
    ``record`` (both None when no source did), ``probes_used``, and
    ``failed_at``, the 1-based plan indices of the failed probes. The
    verdict is derived from them, once, on construction: a found record
    gets its capability shade; otherwise ``shade`` is None (inconclusive)
    when probes ran and every one failed, since absence cannot be
    certified from missing evidence, and level 8 in every other case.
    """

    subject: bytes
    found_by: Optional[EvidenceSource] = None
    record: Optional[RouterInfo] = None
    probes_used: int = 0
    failed_at: tuple[int, ...] = ()
    profile: Optional[CapabilityProfile] = field(init=False)
    shade: Optional[Shade] = field(init=False)

    def __init__(self, subject: bytes, found_by: Optional[EvidenceSource] = None,
                 record: Optional[RouterInfo] = None, probes_used: int = 0,
                 failed_at: tuple[int, ...] = ()) -> None:
        if (found_by is None) != (record is None):
            raise ValueError("found_by and record must be given together")
        profile = shade = None
        if record is not None:
            profile = record.profile()
            shade = classify(profile)
        elif probes_used == 0 or len(failed_at) < probes_used:
            shade = SHADE_EXCLUSIVE
        _set(self, "subject", subject)
        _set(self, "found_by", found_by)
        _set(self, "record", record)
        _set(self, "probes_used", probes_used)
        _set(self, "failed_at", failed_at)
        _set(self, "profile", profile)
        _set(self, "shade", shade)

    @property
    def caps(self) -> Optional[str]:
        return None if self.record is None else self.record.caps

    @property
    def diagnostics(self) -> tuple[str, ...]:
        return tuple(profile_diagnostics(self.profile))

    @property
    def failed_probes(self) -> int:
        return len(self.failed_at)

    @property
    def inconclusive(self) -> bool:
        return self.shade is None

    @property
    def certificate(self) -> Optional[str]:
        """The level-8 certificate: ``"issued"`` when at least one floodfill
        was probed and none failed, so local, console and every probe missed;
        otherwise ``"no_probes"`` or ``"failed_probes"``, the evidence it
        lacks. None for any verdict but level 8."""
        if self.shade is None or self.shade.level != 8:
            return None
        if self.probes_used == 0:
            return "no_probes"
        return "failed_probes" if self.failed_probes else "issued"

    @property
    def evidence(self) -> tuple[Evidence, ...]:
        """The lookups in source order, cut off at ``found_by``; the probe
        entry carries ``probes_used``."""
        chain = []
        for source in EvidenceSource:
            hit = source is self.found_by
            probes = self.probes_used if source is EvidenceSource.FLOODFILL_PROBE else 0
            chain.append(Evidence(source, hit, probes))
            if hit:
                break
        return tuple(chain)

    def to_dict(self) -> dict:
        return {
            "subject": hash_to_b64(self.subject),
            "shade": None if self.shade is None else asdict(self.shade),
            "inconclusive": self.inconclusive,
            "evidence": [
                {
                    "source": e.source.value,
                    "hit": e.hit,
                    "probes_used": e.probes_used,
                }
                for e in self.evidence
            ],
            "caps": self.caps,
            "alpha": self.profile.alpha if self.profile else None,
            "iota": self.profile.iota if self.profile else None,
            "probes_used": self.probes_used,
            "failed_probes": self.failed_probes,
            "certificate": self.certificate,
            "diagnostics": list(self.diagnostics),
        }

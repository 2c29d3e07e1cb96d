"""Visibility-shade classification of capability profiles.

Levels 1-7 cover routers present in the queried directory view, ordered
from fully observable (Beacon) to present-but-unreachable (Phantom).
Level 8 (Exclusive) is reserved for routers with no record at all and is
assigned only from absence, never from capability flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .encoding import hash_to_b64
from .model import HIGH_BANDWIDTH, CapabilityProfile, Shade, SHADES, SHADE_EXCLUSIVE


class ProfileAbsentError(ValueError):
    """Raised when capability mapping is asked to classify a missing record."""


def f_cap(profile: Optional[CapabilityProfile]) -> Shade:
    """Map an existing record's capability profile to a shade in 1..7.

    Precedence: with a published address, the floodfill flag dominates,
    then the firewalled flag, then bandwidth tiering. Without one,
    declared introducers dominate the hidden flag.
    """
    if profile is None:
        raise ProfileAbsentError("capability mapping requires an existing record")
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


def classify(profile: Optional[CapabilityProfile]) -> Shade:
    """Full classifier: absence of a record wins over every capability field."""
    if profile is None:
        return SHADE_EXCLUSIVE
    return f_cap(profile)


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
    LOCAL_NETDB = "LocalNetDb"
    CONSOLE_CACHE = "ConsoleCache"
    FLOODFILL_PROBE = "FloodfillProbe"


@dataclass(frozen=True)
class Evidence:
    source: EvidenceSource
    hit: bool
    probes_used: int = 0


@dataclass(frozen=True)
class ShadeReport:
    """Outcome of a multi-source classification run.

    ``shade`` is None when the run was inconclusive (every attempted
    probe failed), which is deliberately distinct from level 8.
    ``failed_at`` holds the 1-based plan indices of the failed probes.
    """

    subject: bytes
    shade: Optional[Shade]
    evidence: tuple[Evidence, ...]
    profile: Optional[CapabilityProfile] = None
    caps: Optional[str] = None
    probes_used: int = 0
    diagnostics: tuple[str, ...] = ()
    failed_at: tuple[int, ...] = ()

    @property
    def failed_probes(self) -> int:
        return len(self.failed_at)

    @property
    def inconclusive(self) -> bool:
        return self.shade is None

    def to_dict(self) -> dict:
        shade = None
        if self.shade is not None:
            shade = {
                "level": self.shade.level,
                "name": self.shade.name,
                "layer": self.shade.layer,
            }
        return {
            "subject": hash_to_b64(self.subject),
            "shade": shade,
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
            "diagnostics": list(self.diagnostics),
        }

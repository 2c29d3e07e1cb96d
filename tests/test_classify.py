import itertools

import pytest

from shadescope.classify import (
    Evidence,
    EvidenceSource,
    ShadeReport,
    classify,
    profile_diagnostics,
)
from shadescope.model import CapabilityProfile, Destination, RouterInfo, SHADES, TransportAddress
from shadescope.protocol import shade8_certificate

BANDWIDTHS = [None, "K", "L", "M", "N", "O", "P", "X"]


def make_profile(kappa_f=False, kappa_H=False, kappa_U=False,
                 alpha=False, iota=False, bandwidth=None):
    return CapabilityProfile(
        kappa_f=kappa_f, kappa_H=kappa_H, kappa_U=kappa_U,
        alpha=alpha, iota=iota, bandwidth_class=bandwidth,
    )


def all_profiles():
    for kf, kH, kU, alpha, iota in itertools.product((False, True), repeat=5):
        for bw in BANDWIDTHS:
            yield make_profile(kf, kH, kU, alpha, iota, bw)


class TestFCap:
    """The capability mapping of an existing record, levels 1-7."""

    def test_floodfill_with_address_is_beacon(self):
        assert classify(make_profile(kappa_f=True, alpha=True)).level == 1

    def test_unreachable_silent_is_phantom(self):
        assert classify(make_profile(alpha=False, iota=False)).level == 7

    def test_firewalled_with_address_beats_bandwidth(self):
        profile = make_profile(kappa_U=True, alpha=True, bandwidth="X")
        assert classify(profile).level == 4

    def test_range_is_one_to_seven(self):
        for profile in all_profiles():
            assert 1 <= classify(profile).level <= 7


class TestClassify:
    def test_absence_is_exclusive(self):
        assert classify(None).level == 8
        assert classify(None).name == "Exclusive"

    def test_floodfill_record_is_beacon(self):
        assert classify(make_profile(kappa_f=True, alpha=True, bandwidth="X")).level == 1

    def test_high_bandwidth_record_is_relay(self):
        assert classify(make_profile(alpha=True, bandwidth="X")).level == 2

    def test_absence_precedes_every_capability_combination(self):
        # The absent value carries no fields at all, so no capability
        # combination can leak into a level-8 verdict.
        assert classify(None) is SHADES[8]

    def test_totality(self):
        seen = set()
        for profile in all_profiles():
            seen.add(classify(profile).level)
        assert seen == {1, 2, 3, 4, 5, 6, 7}

    def test_layer_consistency(self):
        for profile in all_profiles():
            shade = classify(profile)
            assert (shade.layer == 2) == (shade.level == 8)
        assert classify(None).layer == 2


class TestTableRows:
    """Each taxonomy row, with unconstrained fields false/absent, maps to
    its own level."""

    def test_row_1_beacon(self):
        assert classify(make_profile(kappa_f=True, alpha=True)).level == 1

    @pytest.mark.parametrize("bw", ["N", "O", "P", "X"])
    def test_row_2_relay_high_cap(self, bw):
        assert classify(make_profile(alpha=True, bandwidth=bw)).level == 2

    @pytest.mark.parametrize("bw", [None, "K", "L", "M"])
    def test_row_3_passive_low_cap(self, bw):
        assert classify(make_profile(alpha=True, bandwidth=bw)).level == 3

    def test_row_4_cloaked(self):
        assert classify(make_profile(kappa_U=True, alpha=True)).level == 4

    def test_row_5_veiled(self):
        assert classify(make_profile(alpha=False, iota=True)).level == 5

    def test_row_6_declared(self):
        assert classify(make_profile(kappa_H=True, alpha=False)).level == 6

    def test_row_7_phantom(self):
        assert classify(make_profile(alpha=False, iota=False)).level == 7

    def test_row_8_exclusive(self):
        assert classify(None).level == 8


class TestDiagnostics:
    def test_hidden_flag_with_published_address(self):
        notes = profile_diagnostics(make_profile(kappa_H=True, alpha=True))
        assert len(notes) == 1
        assert "address wins" in notes[0]

    def test_hidden_flag_with_introducers(self):
        notes = profile_diagnostics(make_profile(kappa_H=True, iota=True))
        assert len(notes) == 1
        assert "introducers win" in notes[0]

    def test_clean_profiles_have_no_notes(self):
        assert profile_diagnostics(make_profile(alpha=True, bandwidth="X")) == []
        assert profile_diagnostics(None) == []


def make_record(caps, addresses=()):
    return RouterInfo(
        identity=Destination(b"A" * 384 + b"\x00\x00\x00"),
        published_ms=0,
        addresses=tuple(addresses),
        options={"caps": caps},
    )


DIRECT = TransportAddress("NTCP2", options={"host": "10.0.0.1", "port": "1234"})
INTRODUCER = TransportAddress("SSU2", options={"ih0": "x" * 44, "itag0": "7"})


class TestShadeReport:
    def test_exclusive_report_dict(self):
        report = ShadeReport(subject=bytes(32), probes_used=500)
        payload = report.to_dict()
        assert payload["shade"] == {"level": 8, "name": "Exclusive", "layer": 2}
        assert payload["inconclusive"] is False
        assert [e["source"] for e in payload["evidence"]] == [
            "LocalNetDb", "ConsoleCache", "FloodfillProbe",
        ]
        assert payload["caps"] is None
        assert payload["alpha"] is None and payload["iota"] is None

    def test_hit_report_dict(self):
        record = make_record("XfR", [DIRECT])
        report = ShadeReport(
            subject=record.hash, found_by=EvidenceSource.LOCAL_NETDB, record=record
        )
        payload = report.to_dict()
        assert payload["shade"]["level"] == 1
        assert payload["caps"] == "XfR"
        assert payload["alpha"] is True and payload["iota"] is False

    def test_inconclusive_report(self):
        report = ShadeReport(
            subject=bytes(32),
            probes_used=10,
            failed_at=tuple(range(1, 11)),
        )
        assert report.inconclusive is True
        assert report.to_dict()["shade"] is None

    def test_failed_probes_counts_failed_at(self):
        report = ShadeReport(
            subject=bytes(32),
            probes_used=9,
            failed_at=(2, 5, 9),
        )
        assert report.failed_probes == len(report.failed_at) == 3
        assert report.to_dict()["failed_probes"] == 3

    def test_level8_iff_all_miss_and_no_profile(self):
        report = ShadeReport(subject=bytes(32), probes_used=3)
        assert report.shade == SHADES[8]
        assert all(not e.hit for e in report.evidence)
        assert report.profile is None
        assert report.caps is None and report.diagnostics == ()

    @pytest.mark.parametrize("found_by", list(EvidenceSource))
    @pytest.mark.parametrize(
        "caps, addresses, level",
        [("XfR", [DIRECT], 1), ("OR", [DIRECT], 2), ("HR", [INTRODUCER], 5), ("HR", [], 6)],
    )
    def test_shade_is_derived_from_the_found_record(self, found_by, caps, addresses, level):
        record = make_record(caps, addresses)
        report = ShadeReport(record.hash, found_by, record, probes_used=15, failed_at=(3,))
        assert report.shade == SHADES[level] == classify(record.profile())
        assert report.profile == record.profile()
        assert report.caps == caps
        assert report.diagnostics == tuple(profile_diagnostics(record.profile()))
        chain = list(EvidenceSource)[: list(EvidenceSource).index(found_by) + 1]
        assert [e.source for e in report.evidence] == chain
        assert [e.hit for e in report.evidence] == [False] * (len(chain) - 1) + [True]
        probes = [15 if e.source is EvidenceSource.FLOODFILL_PROBE else 0 for e in report.evidence]
        assert [e.probes_used for e in report.evidence] == probes

    def test_every_probe_failed_is_inconclusive(self):
        report = ShadeReport(bytes(32), probes_used=4, failed_at=(1, 2, 3, 4))
        assert report.shade is None and report.inconclusive is True
        assert report.evidence == (
            Evidence(EvidenceSource.LOCAL_NETDB, False),
            Evidence(EvidenceSource.CONSOLE_CACHE, False),
            Evidence(EvidenceSource.FLOODFILL_PROBE, False, 4),
        )
        assert shade8_certificate(report) is False
        partial = ShadeReport(bytes(32), probes_used=4, failed_at=(1, 2, 3))
        assert partial.shade == SHADES[8]
        assert shade8_certificate(partial) is False

    def test_zero_probes_is_level8_without_certificate(self):
        report = ShadeReport(bytes(32))
        assert report.shade == SHADES[8] and report.inconclusive is False
        assert report.evidence[-1] == Evidence(EvidenceSource.FLOODFILL_PROBE, False, 0)
        assert shade8_certificate(report) is False
        assert shade8_certificate(ShadeReport(bytes(32), probes_used=1)) is True

    def test_found_by_and_record_go_together(self):
        record = make_record("XfR", [DIRECT])
        with pytest.raises(ValueError):
            ShadeReport(record.hash, EvidenceSource.LOCAL_NETDB)
        with pytest.raises(ValueError):
            ShadeReport(record.hash, record=record)

    @pytest.mark.parametrize("name", ["shade", "evidence", "profile", "caps", "diagnostics"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            ShadeReport(bytes(32), **{name: None})

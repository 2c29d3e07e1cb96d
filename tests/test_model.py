import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadescope.encoding import (
    EncodingError,
    hash_from_b32,
    hash_from_b64,
    hash_to_b32,
    hash_to_b64,
    parse_hash_text,
)
from shadescope.model import (
    CapabilityProfile,
    Destination,
    DestinationError,
    RouterInfo,
    SHADES,
    TransportAddress,
    hash_identity,
    shade_for_level,
)
from shadescope.sim import synth_record
from shadescope.wire import decode_router_info, encode_router_info

# Frozen from an independent hashlib/base64 run before the build.
DEST_387 = b"A" * 384 + b"\x00\x00\x00"
DEST_387_SHA = "db26b4fc1aaed5dbb90f1e9f306d43d537379862901a21c7d5dbebba53ab31e3"
DEST_391 = b"A" * 384 + b"\x05" + b"\x00\x04" + b"A" * 4
DEST_391_SHA = "047b1fe9da65850fc7fd57188953609774801073b2689acf9e657fda9050d0da"
RANGE32_B64 = "AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8="


class TestHashText:
    def test_b64_frozen_value(self):
        assert hash_to_b64(bytes(range(32))) == RANGE32_B64

    def test_b64_is_44_chars_with_padding(self):
        text = hash_to_b64(b"\xff" * 32)
        assert len(text) == 44
        assert text.endswith("=")

    def test_b64_decode_accepts_missing_padding(self):
        value = bytes(range(32))
        assert hash_from_b64(RANGE32_B64) == value
        assert hash_from_b64(RANGE32_B64.rstrip("=")) == value

    @given(st.binary(min_size=32, max_size=32))
    def test_b64_round_trip(self, value):
        assert hash_from_b64(hash_to_b64(value)) == value

    @given(st.binary(min_size=32, max_size=32))
    def test_b32_round_trip(self, value):
        assert hash_from_b32(hash_to_b32(value)) == value

    def test_b64_rejects_standard_alphabet(self):
        text = "+" + RANGE32_B64[1:]
        with pytest.raises(EncodingError):
            hash_from_b64(text)

    @pytest.mark.parametrize("bad", ["", "AAAA", "x" * 45])
    def test_b64_rejects_wrong_length(self, bad):
        with pytest.raises(EncodingError):
            hash_from_b64(bad)

    def test_b32_rejects_wrong_length(self):
        with pytest.raises(EncodingError):
            hash_from_b32("a" * 51)

    def test_b32_case_folds(self):
        value = b"\xab" * 32
        assert hash_from_b32(hash_to_b32(value).upper()) == value

    def test_parse_hash_text_all_forms(self):
        value = bytes(range(32))
        assert parse_hash_text(value.hex()) == value
        assert parse_hash_text(hash_to_b64(value)) == value
        assert parse_hash_text(hash_to_b32(value)) == value
        assert parse_hash_text(hash_to_b32(value) + ".b32.i2p") == value

    def test_parse_hash_text_rejects_garbage(self):
        with pytest.raises(EncodingError):
            parse_hash_text("not-a-hash")


class TestDestination:
    def test_minimum_length_enforced(self):
        with pytest.raises(DestinationError):
            Destination(b"A" * 386)

    def test_null_certificate(self):
        dest = Destination(DEST_387)
        assert dest.cert_type == 0
        assert dest.cert_len == 0
        assert dest.size == 387

    def test_key_certificate(self):
        dest = Destination(DEST_391)
        assert dest.cert_type == 5
        assert dest.cert_len == 4
        assert dest.size == 391

    def test_truncated_certificate_payload(self):
        with pytest.raises(DestinationError):
            Destination(b"A" * 384 + b"\x05" + b"\x00\x10" + b"A" * 4)

    def test_extra_bytes_allowed(self):
        dest = Destination(DEST_387 + b"private key material")
        assert dest.size == 387
        assert dest.key_bytes == DEST_387


class TestHashIdentity:
    def test_null_cert_hashes_387_bytes(self):
        assert hash_identity(Destination(DEST_387)).hex() == DEST_387_SHA

    def test_key_cert_hashes_391_bytes(self):
        assert hash_identity(Destination(DEST_391)).hex() == DEST_391_SHA

    @given(st.binary(min_size=0, max_size=64))
    def test_trailing_bytes_never_change_hash(self, suffix):
        base = hash_identity(Destination(DEST_391))
        assert hash_identity(Destination(DEST_391 + suffix)) == base

    def test_matches_direct_sha256(self):
        dest = Destination(DEST_387)
        assert hash_identity(dest) == hashlib.sha256(DEST_387).digest()


class TestShade:
    def test_level_name_bijection(self):
        names = {shade.name for shade in SHADES.values()}
        assert len(names) == 8
        assert [SHADES[i].level for i in range(1, 9)] == list(range(1, 9))

    def test_expected_names(self):
        expected = [
            "Beacon", "Relay", "Passive", "Cloaked",
            "Veiled", "Declared", "Phantom", "Exclusive",
        ]
        assert [SHADES[i].name for i in range(1, 9)] == expected

    def test_layers(self):
        assert all(SHADES[i].layer == 1 for i in range(1, 8))
        assert SHADES[8].layer == 2

    @pytest.mark.parametrize("bad", [0, 9, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            shade_for_level(bad)


def _record(addresses=(), options=None):
    dest = Destination(DEST_387)
    return RouterInfo(
        identity=dest,
        published_ms=0,
        addresses=tuple(addresses),
        options=options or {},
    )


class TestRouterInfo:
    def test_hash_is_derived_from_identity(self):
        with pytest.raises(TypeError):
            RouterInfo(hash=bytes(32), identity=Destination(DEST_387), published_ms=0)
        decoded = decode_router_info(encode_router_info(_record()))
        synthesized = synth_record(random.Random(0), 2)
        for record in (decoded, synthesized):
            assert record.hash == hash_identity(record.identity)

    def test_alpha_requires_host_and_port(self):
        direct = TransportAddress("NTCP2", options={"host": "10.0.0.1", "port": "1234"})
        host_only = TransportAddress("NTCP2", options={"host": "10.0.0.1"})
        assert _record([direct]).alpha is True
        assert _record([host_only]).alpha is False
        assert _record([]).alpha is False

    def test_introducer_only_address_sets_iota_not_alpha(self):
        intro = TransportAddress("SSU2", options={"ih0": "x" * 44, "itag0": "99"})
        record = _record([intro])
        assert record.iota is True
        assert record.alpha is False

    def test_iota_matches_itag_keys_only(self):
        other = TransportAddress("SSU2", options={"ihost": "nope", "tag0": "1"})
        assert _record([other]).iota is False

    def test_option_accessors(self):
        record = _record(
            options={
                "caps": "XfR",
                "router.version": "2.12.0",
                "netdb.knownRouters": "7778",
                "netdb.knownLeaseSets": "213",
            }
        )
        assert record.caps == "XfR"
        assert record.is_floodfill is True
        assert record.version == "2.12.0"
        assert record.known_routers == 7778
        assert record.known_leasesets == 213

    def test_missing_counts_reported_absent(self):
        record = _record(options={"caps": "LR"})
        assert record.known_routers is None
        assert record.known_leasesets is None

    def test_non_decimal_digit_count_reported_absent(self):
        # "²" is a digit to str.isdigit but not an int() literal.
        record = decode_router_info(encode_router_info(
            _record(options={"caps": "LR", "netdb.knownRouters": "²"})
        ))
        assert record.options["netdb.knownRouters"] == "²"
        assert record.known_routers is None

    def test_profile_extraction(self):
        direct = TransportAddress("NTCP2", options={"host": "10.0.0.1", "port": "1"})
        record = _record([direct], options={"caps": "XfR"})
        profile = record.profile()
        assert profile == CapabilityProfile(
            kappa_f=True, kappa_H=False, kappa_U=False,
            alpha=True, iota=False, bandwidth_class="X",
        )

    # Flags by letter membership, the first bandwidth letter as the class,
    # and every other letter ignored.
    @pytest.mark.parametrize("caps, flags, bandwidth", [
        ("XfR", "f", "X"),
        ("", "", None),
        ("XR", "", "X"),
        ("LUH", "HU", "L"),
        ("Xz", "", "X"),
        ("XK", "", "X"),
        ("LRD", "", "L"),
    ], ids=["XfR", "empty", "XR", "LUH", "Xz", "XK", "LRD"])
    def test_profile_reads_caps(self, caps, flags, bandwidth):
        profile = _record(options={"caps": caps}).profile()
        assert profile == CapabilityProfile(
            kappa_f="f" in flags, kappa_H="H" in flags, kappa_U="U" in flags,
            alpha=False, iota=False, bandwidth_class=bandwidth,
        )

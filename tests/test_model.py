import base64
import copy
import dataclasses
import hashlib
import inspect
import pickle
import random
import re
import sys
import threading
from operator import attrgetter, methodcaller

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadescope.classify import EvidenceSource, ShadeReport, classify
from shadescope.encoding import (
    EncodingError,
    InputError,
    hash_from_b32,
    hash_from_b64,
    hash_to_b32,
    hash_to_b64,
    parse_hash_text,
    service_hash,
)
from shadescope.model import (
    BANDWIDTH_LETTERS,
    CapabilityProfile,
    Destination,
    DestinationError,
    Lease,
    LeaseSet,
    RouterInfo,
    SHADES,
    TransportAddress,
    _PROFILES,
    hash_identity,
)
from shadescope.sim import HitCurve, synth_record
from shadescope.wire import decode_router_info, encode_router_info, lenient_extract

from fixtures import oracle_has_introducers, oracle_hash_from_b32, oracle_profile, random_record

# Frozen from an independent hashlib/base64 run before the build.
DEST_387 = b"A" * 384 + b"\x00\x00\x00"
DEST_387_SHA = "db26b4fc1aaed5dbb90f1e9f306d43d537379862901a21c7d5dbebba53ab31e3"
DEST_391 = b"A" * 384 + b"\x05" + b"\x00\x04" + b"A" * 4
DEST_391_SHA = "047b1fe9da65850fc7fd57188953609774801073b2689acf9e657fda9050d0da"
RANGE32_B64 = "AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8="


def b32_outcome(read, text):
    """The hash ``read`` returns for ``text``, or the text of its EncodingError."""
    try:
        return read(text)
    except EncodingError as exc:
        return str(exc)


class TestHashText:
    def test_b64_frozen_value(self):
        assert hash_to_b64(bytes(range(32))) == RANGE32_B64

    def test_b64_is_44_chars_with_padding(self):
        text = hash_to_b64(b"\xff" * 32)
        assert len(text) == 44
        assert text.endswith("=")

    @given(st.binary(min_size=32, max_size=32))
    def test_b64_equals_the_base64_module(self, value):
        expected = base64.b64encode(value, b"-~").decode()
        assert hash_to_b64(value) == expected
        assert hash_to_b64(bytearray(value)) == expected

    @given(st.binary(max_size=64).filter(lambda value: len(value) != 32))
    def test_b64_encode_rejects_wrong_length(self, value):
        for given_value in (value, bytearray(value)):
            with pytest.raises(EncodingError, match="^hash must be exactly 32 bytes$"):
                hash_to_b64(given_value)

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

    @pytest.mark.parametrize("text", ["A" * 42 + "B=", "A" * 42 + "B", "A" * 42 + "D=",
                                      RANGE32_B64[:42] + "9="])
    def test_b64_rejects_a_second_spelling(self, text):
        # The last of 43 characters carries 2 unused bits, which must be zero.
        with pytest.raises(EncodingError, match=re.escape(repr(text))):
            hash_from_b64(text)

    @pytest.mark.parametrize("text", ["a" * 51 + "b", "A" * 51 + "B", "a" * 51 + "r",
                                      "a" * 51 + "7"])
    def test_b32_rejects_a_second_spelling(self, text):
        # The last of 52 characters carries 4 unused bits, which must be zero.
        with pytest.raises(EncodingError, match=re.escape(repr(text))):
            hash_from_b32(text)

    def test_b32_case_folds(self):
        value = b"\xab" * 32
        assert hash_from_b32(hash_to_b32(value).upper()) == value

    @pytest.mark.parametrize("suffix", ["", ".b32.i2p"])
    @pytest.mark.parametrize("read", [service_hash, parse_hash_text])
    def test_b32_kelvin_sign_is_no_spelling_of_k(self, read, suffix):
        # str.lower folds U+212A KELVIN SIGN to "k": only ASCII text is
        # folded and decoded, so each hash has one spelling in each case.
        text = hash_to_b32(b"\x05" * 32)
        kelvin = text.replace("k", "\u212a", 1)
        assert kelvin != text and kelvin.lower() == text
        with pytest.raises(EncodingError, match=re.escape(repr(kelvin))):
            read(kelvin + suffix)

    @given(st.binary(min_size=32, max_size=32), st.sampled_from(["lower", "upper", "mixed"]),
           st.randoms(use_true_random=False))
    def test_b32_matches_oracle_on_hashes(self, value, case, rng):
        text = hash_to_b32(value)
        if case == "upper":
            text = text.upper()
        elif case == "mixed":
            text = "".join(rng.choice((ch, ch.upper())) for ch in text)
        assert b32_outcome(hash_from_b32, text) == b32_outcome(oracle_hash_from_b32, text) == value

    @pytest.mark.parametrize("last", "abcdefghijklmnopqrstuvwxyz234567")
    def test_b32_matches_oracle_on_every_last_char(self, last):
        # Only the 2 of 32 last characters with the 4 unused bits zero, 'a'
        # and 'q', spell a hash; the other 30 are rejected by both readers.
        stem = hash_to_b32(bytes(range(32)))[:-1]
        for text in (stem + last, (stem + last).upper()):
            outcome = b32_outcome(hash_from_b32, text)
            assert outcome == b32_outcome(oracle_hash_from_b32, text)
            assert isinstance(outcome, bytes) == (last in "aq")

    @given(st.text(alphabet="aAzZ27Q18=\u212a \n", min_size=50, max_size=54))
    def test_b32_matches_oracle_on_any_text(self, text):
        assert b32_outcome(hash_from_b32, text) == b32_outcome(oracle_hash_from_b32, text)

    def test_parse_hash_text_all_forms(self):
        value = bytes(range(32))
        assert parse_hash_text(value.hex()) == value
        assert parse_hash_text(hash_to_b64(value)) == value
        assert parse_hash_text(hash_to_b32(value)) == value
        assert parse_hash_text(hash_to_b32(value) + ".b32.i2p") == value

    def test_parse_hash_text_rejects_garbage(self):
        with pytest.raises(EncodingError):
            parse_hash_text("not-a-hash")

    @pytest.mark.parametrize("text", ["00" * 32 + ".b32.i2p", "A" * 43 + ".B32.I2P",
                                      "A" * 43 + "=.b32.i2p"])
    def test_parse_hash_text_takes_the_suffix_on_base32_only(self, text):
        with pytest.raises(EncodingError, match="unrecognized hash form"):
            parse_hash_text(text)


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
        assert dest.data == DEST_387

    def test_mutable_buffer_is_kept_as_bytes(self):
        buf = bytearray(DEST_387)
        dest = Destination(buf)
        buf[0] ^= 1
        assert type(dest.data) is bytes and dest.data == DEST_387
        assert hash(dest) == hash(Destination(DEST_387))

    def test_size_is_derived_not_an_argument(self):
        with pytest.raises(TypeError):
            Destination(DEST_391, 387)

    def test_error_messages(self):
        with pytest.raises(DestinationError) as short:
            Destination(b"A" * 386)
        assert str(short.value) == "destination too short: 386 bytes, need 387"
        with pytest.raises(DestinationError) as truncated:
            Destination(b"A" * 384 + b"\x05" + b"\x00\x10" + b"A" * 4)
        assert str(truncated.value) == (
            "destination truncated: certificate declares 16 payload bytes, total 403, have 391"
        )


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


class TestLease:
    GATEWAY = bytes(range(32))

    @pytest.mark.parametrize("tunnel_id, expiry_ms", [
        (-1, 0), (2**32, 0), (0, 2**64), (True, 0), ("5", 0), (0, -1), (0, False), (0, 1.0),
    ], ids=["negative", "tunnel-2**32", "expiry-2**64", "bool", "str", "negative-expiry",
            "bool-expiry", "float-expiry"])
    def test_fields_outside_their_widths_raise(self, tunnel_id, expiry_ms):
        with pytest.raises(InputError):
            Lease(self.GATEWAY, tunnel_id, expiry_ms)

    def test_fields_at_their_maxima_build(self):
        lease = Lease(self.GATEWAY, 2**32 - 1, 2**64 - 1)
        assert (lease.tunnel_id, lease.expiry_ms) == (2**32 - 1, 2**64 - 1)

    def test_mutable_gateway_is_kept_as_bytes(self):
        buf = bytearray(self.GATEWAY)
        lease = Lease(buf, 1, 2)
        buf[0] = 0xFF
        assert type(lease.gateway) is bytes and lease.gateway == self.GATEWAY
        assert hash(lease) == hash(Lease(self.GATEWAY, 1, 2))

    def test_mutable_destination_hash_is_kept_as_bytes(self):
        buf = bytearray(self.GATEWAY)
        leaseset = LeaseSet(buf)
        before = leaseset.b32
        buf[0] = 1
        assert type(leaseset.destination_hash) is bytes
        assert leaseset.b32 == before == LeaseSet(self.GATEWAY).b32


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
        assert _record([direct]).profile().alpha is True
        assert _record([host_only]).profile().alpha is False
        assert _record([]).profile().alpha is False

    def test_introducer_only_address_sets_iota_not_alpha(self):
        intro = TransportAddress("SSU2", options={"ih0": "x" * 44, "itag0": "99"})
        profile = _record([intro]).profile()
        assert profile.iota is True
        assert profile.alpha is False

    def test_iota_matches_itag_keys_only(self):
        other = TransportAddress("SSU2", options={"ihost": "nope", "tag0": "1"})
        assert _record([other]).profile().iota is False

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

    @pytest.mark.parametrize("count", ["²", "٣٠", "１２"])
    def test_non_ascii_digit_count_reported_absent_by_both_readers(self, count):
        # "²" is a digit to str.isdigit but not an int() literal; Arabic-Indic
        # and fullwidth digits are int() literals but not ASCII. Only ASCII
        # digits count, and the strict and lenient readers agree.
        data = encode_router_info(_record(options={"caps": "LR", "netdb.knownRouters": count}))
        record = decode_router_info(data)
        assert record.options["netdb.knownRouters"] == count
        assert record.known_routers is None
        assert lenient_extract(data).known_routers is None

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


class TestInternedProfiles:
    def test_table_holds_every_profile_once(self):
        assert len(_PROFILES) == 2**5 * (len(BANDWIDTH_LETTERS) + 1)
        for fields, profile in _PROFILES.items():
            fresh = CapabilityProfile(*fields)
            assert profile == fresh
            assert classify(profile) == classify(fresh)

    def test_equal_capabilities_share_one_profile(self):
        rng = random.Random(12)
        records = [random_record(rng) for _ in range(300)]
        records += [synth_record(rng, level) for level in range(1, 8) for _ in range(10)]
        by_value: dict = {}
        for record in records:
            profile = record.profile()
            assert by_value.setdefault(profile, profile) is profile
        assert len(by_value) > 10

    def test_profile_is_the_table_entry(self):
        direct = TransportAddress("NTCP2", options={"host": "10.0.0.1", "port": "1"})
        a = _record([direct], options={"caps": "XfR"})
        b = _record([direct], options={"caps": "fXRz"})
        assert a.profile() is b.profile() is _PROFILES[True, False, False, True, False, "X"]


# Each class built from its required arguments only, and one field change
# for dataclasses.replace.
_BUILDERS = {
    Destination: (lambda: Destination(DEST_391), {"data": DEST_387}),
    TransportAddress: (lambda: TransportAddress("NTCP2"), {"cost": 7}),
    RouterInfo: (lambda: RouterInfo(Destination(DEST_387), 0), {"published_ms": 5}),
    ShadeReport: (lambda: ShadeReport(bytes(32)), {"probes_used": 3}),
    HitCurve: (lambda: HitCurve(bytes(32), ((5, 0),)), {"points": ((5, 1),)}),
}
each_record_class = pytest.mark.parametrize("cls", list(_BUILDERS), ids=lambda c: c.__name__)


class TestConstructors:
    """The hand-written constructors keep the dataclass contract."""

    @each_record_class
    def test_signature_is_the_init_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        init_fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [p.name for p in params] == [f.name for f in init_fields]
        for param, f in zip(params, init_fields):
            if f.default is not dataclasses.MISSING:
                assert param.default == f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert param.default is None  # None: a new default_factory() value
            else:
                assert param.default is inspect.Parameter.empty

    @each_record_class
    def test_replace_and_fresh_default_options(self, cls):
        build, changes = _BUILDERS[cls]
        a, b = build(), build()
        assert a == b and repr(a) == repr(b)
        changed = dataclasses.replace(a, **changes)
        assert changed != a
        assert all(getattr(changed, name) == value for name, value in changes.items())
        assert dataclasses.replace(changed, **{name: getattr(a, name) for name in changes}) == a
        if "options" in {f.name for f in dataclasses.fields(cls)}:
            assert a.options == {} and a.options is not b.options

    @each_record_class
    def test_frozen(self, cls):
        instance = _BUILDERS[cls][0]()
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, f.name, getattr(instance, f.name))

    def test_records_keep_no_reference_to_caller_containers(self):
        options = {"caps": "XfR"}
        address_options = {"host": "10.0.0.1", "port": "1"}
        addresses = [TransportAddress("NTCP2", options=address_options)]
        record = RouterInfo(Destination(DEST_387), 0, addresses, options)
        twin = RouterInfo(Destination(DEST_387), 0,
                          (TransportAddress("NTCP2", options=dict(address_options)),),
                          dict(options))
        before = record.profile()
        options["caps"] = "L"
        del address_options["host"]
        addresses.clear()
        assert record.is_floodfill is True
        assert record.profile() is before and before.kappa_f and before.alpha
        assert record == twin and record.addresses[0] == twin.addresses[0]

    def test_router_hash_ignores_identity_bytes_past_its_size(self):
        padded = RouterInfo(Destination(DEST_391 + b"private key material"), 0)
        assert padded.hash == RouterInfo(Destination(DEST_391), 0).hash
        assert padded.hash.hex() == DEST_391_SHA

    def test_router_hash_holds_after_caller_buffer_changes(self):
        buf = bytearray(DEST_387)
        record = RouterInfo(Destination(buf), 0)
        buf[0] ^= 1
        assert record.hash == hash_identity(record.identity)
        assert record.hash.hex() == DEST_387_SHA

    @each_record_class
    def test_construction_leaves_no_instance_dict(self, cls):
        # The classes are slotted: every field lives in a slot of the
        # instance, which has no __dict__ to cost memory per record.
        instance = _BUILDERS[cls][0]()
        assert not hasattr(instance, "__dict__")
        assert {f.name for f in dataclasses.fields(cls)} <= set(type(instance).__slots__)

    @each_record_class
    def test_pickle_and_copies_are_equal(self, cls):
        instance = _BUILDERS[cls][0]()
        for twin in (pickle.loads(pickle.dumps(instance)), copy.copy(instance),
                     copy.deepcopy(instance)):
            assert type(twin) is cls and twin == instance

    def test_nested_records_round_trip_through_pickle_and_deepcopy(self):
        # A curve holds a report, which holds a record with both address kinds.
        rng = random.Random(4)
        record = synth_record(rng, 1)
        record = dataclasses.replace(
            record, addresses=record.addresses + synth_record(rng, 5).addresses)
        report = ShadeReport(record.hash, EvidenceSource.FLOODFILL_PROBE, record, 7, (2,))
        curve = HitCurve(record.hash, ((5, 0), (7, 1)), report)
        for twin in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
            assert twin == curve and twin.report.record.hash == record.hash
            assert twin.report.record.profile() is record.profile()
            assert twin.report.shade == report.shade and twin.report.record is not record


_COMPARED = [f.name for f in dataclasses.fields(RouterInfo) if f.compare]


def _built(record: RouterInfo) -> bool:
    return getattr(record, "_draws", None) is None


class TestDeferredRecord:
    """A synthesised record holds its hash and its draws; its other fields
    are built together on the first read of any of them."""

    @pytest.mark.parametrize("level", range(1, 8))
    def test_hash_names_the_identity_before_and_after_the_build(self, level):
        for seed in range(6):
            record = synth_record(random.Random(seed), level)
            named = record.hash
            assert not _built(record)
            identity = record.identity
            assert _built(record)
            assert named == record.hash == hash_identity(identity)

    @pytest.mark.parametrize("level", range(1, 8))
    def test_equals_its_decoded_encoding(self, level):
        record, twin, shown = (synth_record(random.Random(level), level) for _ in range(3))
        decoded = decode_router_info(encode_router_info(record))
        assert not _built(twin) and twin == decoded and decoded == twin
        for name in _COMPARED:
            assert getattr(record, name) == getattr(decoded, name), name
        assert not _built(shown) and repr(shown) == repr(record)

    @pytest.mark.parametrize("read", [
        *map(attrgetter, ["identity", "published_ms", "addresses", "options", "signature",
                          "caps"]), methodcaller("profile"),
    ], ids=["identity", "published_ms", "addresses", "options", "signature", "caps", "profile"])
    def test_any_field_read_builds_every_field(self, read):
        record = synth_record(random.Random(2), 1)
        read(record)
        assert _built(record)
        assert record == synth_record(random.Random(2), 1)

    def test_other_records_hold_every_field(self):
        for record in (_record(), decode_router_info(encode_router_info(_record()))):
            assert _built(record)
            assert all(name in dir(record) for name in _COMPARED)

    def test_missing_attribute_raises(self):
        record = synth_record(random.Random(1), 3)
        with pytest.raises(AttributeError):
            record.no_such_field
        assert not _built(record)

    @pytest.mark.parametrize("copy_of", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                         copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copies_of_an_unbuilt_record_are_equal(self, copy_of):
        original = synth_record(random.Random(3), 5)
        twin = copy_of(original)
        assert type(twin) is type(original) and _built(twin)
        assert twin == synth_record(random.Random(3), 5)

    def test_replace_builds_the_record_it_copies(self):
        record = synth_record(random.Random(4), 2)
        changed = dataclasses.replace(record, published_ms=5)
        assert _built(record) and _built(changed)
        assert changed.published_ms == 5 and changed.hash == record.hash

    def test_threads_reading_one_unbuilt_record_see_equal_fields(self):
        # More threads than cores and a short switch interval, so builds can
        # interleave: two threads may both build, and every read must still
        # see the same values.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                record = synth_record(random.Random(seed), 1)
                barrier = threading.Barrier(4, timeout=10)
                seen = []

                def read(first):
                    # Each thread starts on a different field, so any may build.
                    names = _COMPARED[first:] + _COMPARED[:first]
                    barrier.wait()
                    seen.append({name: getattr(record, name) for name in names})

                threads = [threading.Thread(target=read, args=(i + 1,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 4 and all(view == seen[0] for view in seen)
                assert seen[0] == {name: getattr(record, name) for name in _COMPARED}
        finally:
            sys.setswitchinterval(interval)


# Introducer-like option keys: a prefix, a tail of decimal digits (ASCII
# and Arabic-Indic "٣", category Nd), a superscript "²" (a digit, not Nd)
# or letters, and sometimes a trailing newline, which fullmatch rejects.
INTRODUCER_KEYS = st.builds(
    lambda prefix, tail, end: prefix + tail + end,
    st.sampled_from(["ih", "itag", "IH", "i", "tag", ""]),
    st.text(alphabet=st.sampled_from("0123456789٣²ab"), max_size=4),
    st.sampled_from(["", "\n"]),
)


class TestRecordPredicateOracles:
    @given(st.lists(INTRODUCER_KEYS, max_size=4))
    def test_has_introducers_matches_regex(self, keys):
        address = TransportAddress("SSU2", options={key: "x" for key in keys})
        assert address.has_introducers == oracle_has_introducers(address)

    @pytest.mark.parametrize("key, expected", [
        ("ih0", True), ("itag12", True), ("ih٣", True), ("ih", False),
        ("itag", False), ("ih²", False), ("ih1\n", False), ("IH1", False),
        ("ihtag1", False), ("i1", False),
    ])
    def test_has_introducers_examples(self, key, expected):
        address = TransportAddress("SSU2", options={key: "x"})
        assert address.has_introducers is expected
        assert oracle_has_introducers(address) is expected

    def test_profile_matches_field_by_field_definition(self):
        rng = random.Random(11)
        records = [random_record(rng) for _ in range(400)]
        records += [synth_record(rng, level) for level in range(1, 8) for _ in range(20)]
        for record in records:
            assert record.profile() == oracle_profile(record)

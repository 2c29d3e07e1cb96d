import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadescope.model import CERT_LEN_OFFSET, Destination, RouterInfo, TransportAddress
from shadescope import wire
from shadescope.wire import (
    KNOWN_STYLES,
    DecodeError,
    EncodeError,
    decode_router_info,
    encode_router_info,
    lenient_extract,
)

from fixtures import oracle_decode_router_info, oracle_encode_router_info, random_record


def make_record(caps=None, addresses=(), version=None, extra=None, cert_len=0,
                published_ms=1_700_000_000_000, signature=b"\x5a" * 64):
    rng = random.Random(hash((caps, version, cert_len, len(addresses))) & 0xFFFF)
    if cert_len:
        data = rng.randbytes(384) + b"\x05" + cert_len.to_bytes(2, "big") + rng.randbytes(cert_len)
    else:
        data = rng.randbytes(384) + b"\x00\x00\x00"
    identity = Destination(data)
    options = {}
    if caps is not None:
        options["caps"] = caps
    if version is not None:
        options["router.version"] = version
    options.update(extra or {})
    return RouterInfo(
        identity=identity,
        published_ms=published_ms,
        addresses=tuple(addresses),
        options=options,
        signature=signature,
    )


def direct(style="NTCP2", host="10.1.2.3", port="12345", cost=10):
    return TransportAddress(style, cost=cost, options={"host": host, "port": port})


def introducer(tag="77"):
    return TransportAddress("SSU2", cost=5, options={"ih0": "i" * 44, "itag0": tag})


# Manifest written before the fixture bytes existed; decode must reproduce
# these fields exactly from encode output.
MANIFEST = [
    {"caps": "XfR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "XR", "styles": ("SSU2",), "alpha": True, "iota": False, "version": "0.9.68"},
    {"caps": "LR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "0.9.67"},
    {"caps": "MU", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "KU", "styles": ("SSU2",), "alpha": False, "iota": True, "version": "2.12.0"},
    {"caps": "LH", "styles": (), "alpha": False, "iota": False, "version": "0.9.68"},
    {"caps": "K", "styles": (), "alpha": False, "iota": False, "version": "0.9.68"},
    {"caps": "PfR", "styles": ("NTCP2", "SSU2"), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "NR", "styles": ("SSU2",), "alpha": True, "iota": False, "version": "0.9.67"},
    {"caps": "OR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "", "styles": (), "alpha": False, "iota": False, "version": None},
    {"caps": "XfR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "0.9.68"},
    {"caps": "LU", "styles": ("SSU2",), "alpha": False, "iota": True, "version": "0.9.68"},
    {"caps": "MR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "XU", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "0.9.67"},
    {"caps": "MH", "styles": (), "alpha": False, "iota": False, "version": "2.12.0"},
    {"caps": "L", "styles": (), "alpha": False, "iota": False, "version": "0.9.67"},
    {"caps": "NfR", "styles": ("SSU2",), "alpha": True, "iota": False, "version": "2.12.0"},
    {"caps": "PR", "styles": ("NTCP2",), "alpha": True, "iota": False, "version": "0.9.68"},
    {"caps": "KH", "styles": (), "alpha": False, "iota": False, "version": "0.9.68"},
]


def record_from_manifest(row, index):
    addresses = []
    for style in row["styles"]:
        if row["alpha"]:
            addresses.append(direct(style=style, port=str(10000 + index)))
        elif row["iota"]:
            addresses.append(introducer(tag=str(index)))
    return make_record(
        caps=row["caps"] if row["caps"] or row["version"] else None,
        addresses=addresses,
        version=row["version"],
        cert_len=4 if index % 5 == 0 else 0,
    )


class TestManifestCorpus:
    def test_decode_matches_manifest_fields(self):
        for index, row in enumerate(MANIFEST):
            record = record_from_manifest(row, index)
            decoded = decode_router_info(encode_router_info(record))
            assert decoded.caps == row["caps"]
            assert decoded.profile().alpha == row["alpha"]
            assert decoded.profile().iota == row["iota"]
            assert decoded.version == row["version"]
            assert tuple(a.style for a in decoded.addresses) == tuple(
                row["styles"] if (row["alpha"] or row["iota"]) else ()
            )
            assert decoded == record

    def test_lenient_extractor_cross_checks_manifest(self):
        for index, row in enumerate(MANIFEST):
            record = record_from_manifest(row, index)
            extracted = lenient_extract(encode_router_info(record))
            if "caps" in record.options:
                assert extracted.caps == row["caps"]
            else:
                assert extracted.caps is None
            assert extracted.version == row["version"]


class TestRoundTrip:
    def test_empty_record(self):
        record = make_record()
        decoded = decode_router_info(encode_router_info(record))
        assert decoded == record
        assert decoded.addresses == ()
        assert decoded.profile().alpha is False

    def test_key_certificate_identity_section(self):
        record = make_record(caps="XfR", cert_len=4)
        encoded = encode_router_info(record)
        assert record.identity.size == 391
        assert encoded[:391] == record.identity.data
        assert decode_router_info(encoded) == record

    def test_mutable_buffer_decodes_to_bytes(self):
        blob = encode_router_info(make_record(caps="XfR", cert_len=4))
        decoded = decode_router_info(bytearray(blob))
        assert type(decoded.identity.data) is bytes
        assert decoded == decode_router_info(blob)

    def test_mutable_buffer_decodes_to_declared_types(self):
        record = make_record(caps="XfR", version="2.12.0", cert_len=4,
                             addresses=[direct("NTCP2"), introducer()])
        decoded = decode_router_info(bytearray(encode_router_info(record)))
        assert decoded == record
        assert type(decoded.hash) is bytes and type(decoded.identity) is Destination
        assert type(decoded.identity.data) is bytes
        assert type(decoded.published_ms) is int and type(decoded.signature) is bytes
        assert type(decoded.addresses) is tuple and type(decoded.options) is dict
        mappings = [decoded.options]
        for address in decoded.addresses:
            assert type(address) is TransportAddress and type(address.style) is str
            assert type(address.cost) is int and type(address.expiration_ms) is int
            assert type(address.options) is dict
            mappings.append(address.options)
        assert all(type(text) is str for mapping in mappings for item in mapping.items()
                   for text in item)

    def test_decoder_keeps_the_mappings_it_reads(self, monkeypatch):
        # Each mapping is a new dict the decoder made, so the record keeps it
        # rather than a copy; two decodes still share no dict.
        read = []

        def recording(*args):
            entries, end = read_mapping(*args)
            read.append(entries)
            return entries, end

        read_mapping = wire._read_mapping
        monkeypatch.setattr(wire, "_read_mapping", recording)
        blob = encode_router_info(make_record(caps="XfR", addresses=[direct("NTCP2"),
                                                                     introducer()]))
        a = decode_router_info(blob)
        kept = [x.options for x in a.addresses] + [a.options]
        assert len(kept) == len(read) == 3 and all(x is y for x, y in zip(kept, read))
        b = decode_router_info(blob)
        assert a == b and a.options is not b.options
        assert all(x.options is not y.options for x, y in zip(a.addresses, b.addresses))

    def test_null_certificate_identity_section(self):
        record = make_record(caps="LR")
        assert record.identity.size == 387
        assert encode_router_info(record)[:387] == record.identity.data

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_records_round_trip(self, seed):
        record = random_record(random.Random(seed))
        assert decode_router_info(encode_router_info(record)) == record

    def test_mapping_order_is_canonical_on_encode(self):
        a = make_record(extra={"zz": "1", "aa": "2"})
        b = make_record(extra={"aa": "2", "zz": "1"})
        assert encode_router_info(a) == encode_router_info(b)


class TestSharedNames:
    """Option keys and styles the package reads by name decode to one shared
    string each; any other name, such as an introducer key, is a new string
    per record, as before."""

    KNOWN = make_record(
        caps="XfR", version="2.12.0",
        extra={"netdb.knownRouters": "500", "netdb.knownLeaseSets": "7"},
        addresses=[direct("NTCP2"), introducer(), TransportAddress("NTCP"),
                   TransportAddress("SSU")],
    )

    @staticmethod
    def _decode_twice(record):
        blob = encode_router_info(record)
        a, b = decode_router_info(blob), decode_router_info(blob)
        assert a == b == record
        return a, b

    @staticmethod
    def _assert_keys_shared(a, b, shared):
        assert list(a) == list(b)
        for x, y in zip(a, b):
            assert (x is y) is (x in shared), x

    def test_known_option_keys_and_styles_are_shared(self):
        a, b = self._decode_twice(self.KNOWN)
        known = {"caps", "router.version", "netdb.knownRouters", "netdb.knownLeaseSets",
                 "host", "port"}
        self._assert_keys_shared(a.options, b.options, known)
        for x, y in zip(a.addresses, b.addresses):
            self._assert_keys_shared(x.options, y.options, known)
        assert [x.style for x in a.addresses] == ["NTCP2", "SSU2", "NTCP", "SSU"]
        assert all(x.style is y.style for x, y in zip(a.addresses, b.addresses))

    def test_non_ascii_mapping_shares_known_keys_only(self):
        record = make_record(caps="LU", extra={"note": "café", "ih1": "x"},
                             addresses=[TransportAddress("SSU3", options={"host": "é"})])
        a, b = self._decode_twice(record)
        self._assert_keys_shared(a.options, b.options, {"caps"})
        self._assert_keys_shared(a.addresses[0].options, b.addresses[0].options, {"host"})
        assert a.addresses[0].style is not b.addresses[0].style


class TestDecodeErrors:
    def test_truncated_identity(self):
        # Short of the 387-byte minimum, and short of what a certificate declares.
        for data in (b"\x00" * 100, encode_router_info(make_record(cert_len=4))[:390]):
            with pytest.raises(DecodeError) as exc:
                decode_router_info(data)
            assert str(exc.value) == "truncated identity (at offset 0)"
            assert exc.value.offset == 0

    def test_truncated_after_identity(self):
        data = encode_router_info(make_record())[:390]
        with pytest.raises(DecodeError) as exc:
            decode_router_info(data)
        assert exc.value.offset >= 387

    def test_truncated_mapping(self):
        record = make_record(caps="XfR")
        data = encode_router_info(record)
        cut = data[: len(data) - len(record.signature) - 5]
        with pytest.raises(DecodeError) as exc:
            decode_router_info(cut)
        assert "mapping" in str(exc.value) or "truncated" in str(exc.value)

    def test_mapping_length_mismatch(self):
        record = make_record(caps="XfR", signature=b"")
        data = bytearray(encode_router_info(record))
        # Inflate the declared mapping size beyond the entry bytes.
        mapping_at = ROUTER_OPTIONS_AT
        declared = int.from_bytes(data[mapping_at : mapping_at + 2], "big")
        data[mapping_at : mapping_at + 2] = (declared + 3).to_bytes(2, "big")
        data += b"\x00\x00\x00"
        with pytest.raises(DecodeError) as exc:
            decode_router_info(bytes(data))
        assert "mapping" in str(exc.value)
        assert isinstance(exc.value.offset, int)

    def test_malformed_mapping_separator(self):
        record = make_record(caps="Xf", signature=b"")
        data = bytearray(encode_router_info(record))
        equals_at = data.index(b"=", 387)
        data[equals_at] = ord("!")
        with pytest.raises(DecodeError) as exc:
            decode_router_info(bytes(data))
        assert "expected" in str(exc.value)

    def test_errors_name_offsets(self):
        for payload in (b"", b"\x01" * 50, b"\x02" * 400):
            with pytest.raises(DecodeError) as exc:
                decode_router_info(payload)
            assert "offset" in str(exc.value)


def decode_outcome(decode, data):
    """The record ``decode`` returns, or the text and offset of its DecodeError."""
    try:
        return decode(data)
    except DecodeError as exc:
        return str(exc), exc.offset


# The router options of a record with no address: identity, publish time,
# address count, peer count.
ROUTER_OPTIONS_AT = 387 + 8 + 1 + 1


def _entry(key: bytes, value: bytes) -> bytes:
    return bytes([len(key)]) + key + b"=" + bytes([len(value)]) + value + b";"


class TestDecoderOracle:
    """The decoder against the cursor-object decoder it replaced: the same
    record, or a DecodeError of the same text at the same offset."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_every_prefix(self, seed):
        blob = encode_router_info(random_record(random.Random(seed)))
        for cut in range(len(blob) + 1):
            assert (decode_outcome(decode_router_info, blob[:cut])
                    == decode_outcome(oracle_decode_router_info, blob[:cut]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.data())
    def test_overwritten_bytes(self, seed, data):
        blob = bytearray(encode_router_info(random_record(random.Random(seed))))
        # From the certificate length on: the identity bytes before it are opaque.
        writes = st.tuples(
            st.integers(CERT_LEN_OFFSET, len(blob) - 1),
            st.one_of(st.sampled_from(b"\x00\x01;=\x80\xff"), st.integers(0, 255)))
        for at, value in data.draw(st.lists(writes, min_size=1, max_size=3)):
            blob[at] = value
        blob = bytes(blob)
        assert decode_outcome(decode_router_info, blob) == decode_outcome(oracle_decode_router_info, blob)

    @pytest.mark.parametrize("tail, expected", [
        (b"\x01X;", ("router options mapping length mismatch (at offset 406)", 406)),
        (b"", ("truncated router options mapping (at offset 405)", 405)),
    ], ids=["bytes-follow", "data-ends"])
    def test_equals_on_last_mapping_byte(self, tail, expected):
        # An '=' on the mapping's last byte reads the value's length byte past
        # the mapping: a mismatch one byte on, or truncation if data ends there.
        blob = bytearray(encode_router_info(make_record(caps="X", signature=b"")))
        mapping_at = ROUTER_OPTIONS_AT
        assert blob[mapping_at + 2:] == b"\x04caps=\x01X;"
        blob[mapping_at : mapping_at + 2] = (6).to_bytes(2, "big")
        blob = bytes(blob[: mapping_at + 8]) + tail
        assert decode_outcome(decode_router_info, blob) == expected
        assert decode_outcome(oracle_decode_router_info, blob) == expected

    @pytest.mark.parametrize("body, expected", [
        (_entry("ключ".encode(), "значение".encode()) + _entry(b"k", "é".encode()),
         {"ключ": "значение", "k": "é"}),
        (_entry(b"\xff", b"1") + _entry(b"b", b"2") + _entry(b"c", b"3"),
         ("router options is not valid UTF-8 (at offset 401)", 401)),
        (_entry(b"a", b"1") + _entry(b"b", b"\xc3") + _entry(b"c", b"3"),
         ("router options is not valid UTF-8 (at offset 410)", 410)),
        (_entry(b"a", b"1") + _entry(b"b", b"2") + _entry(b"\xe2\x82", b"3"),
         ("router options is not valid UTF-8 (at offset 414)", 414)),
        (_entry(b"a", b"x=y;z") + _entry(b"", b"v") + _entry(b"k", b""),
         {"a": "x=y;z", "": "v", "k": ""}),
        (_entry(b"a", b"1") + b"\x01c=",
         ("router options mapping length mismatch (at offset 409)", 409)),
        (_entry(b"a", b"1") + b"\x02cd",
         ("router options mapping length mismatch (at offset 408)", 408)),
        (_entry(b"a", b"1") + b"\x01c=\x01d",
         ("router options mapping length mismatch (at offset 410)", 410)),
    ], ids=["multibyte-utf8", "bad-utf8-first", "bad-utf8-middle", "bad-utf8-last",
            "separators-in-value-and-empty-strings", "ends-on-equals", "key-ends-mapping",
            "value-ends-mapping"])
    def test_router_options_body(self, body, expected):
        # Non-ASCII bodies and malformed ASCII ones both go through the
        # decoder's exact per-entry loop; the rest are read in one decode.
        blob = encode_router_info(make_record(signature=b""))
        assert blob[ROUTER_OPTIONS_AT:] == b"\x00\x00"
        blob = blob[:ROUTER_OPTIONS_AT] + len(body).to_bytes(2, "big") + body + b"\x5a" * 8
        outcome = decode_outcome(decode_router_info, blob)
        assert outcome == decode_outcome(oracle_decode_router_info, blob)
        assert (outcome.options if isinstance(expected, dict) else outcome) == expected


# Short text of any code points, and one character repeated to lengths
# around the 127/128-byte and 255/256-byte edges in one to four bytes each.
MAPPING_TEXT = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="ab=;", max_size=6),
    st.builds(mul, st.sampled_from("aé€😀"), st.integers(30, 140)),
)
# Pairs in drawn order, so any insertion order.
MAPPINGS = st.lists(st.tuples(MAPPING_TEXT, MAPPING_TEXT), max_size=6).map(dict)
# Mappings near and over the 65,535-byte limit, keys inserted in either order.
BIG_MAPPINGS = st.builds(
    lambda n, value, backwards: {f"k{i:04d}": value for i in (range(n)[::-1] if backwards
                                                               else range(n))},
    st.integers(250, 600), st.builds(mul, st.sampled_from("aé"), st.integers(50, 250)),
    st.booleans())
# Integer ranges reach one past each end of their field, and a few
# addresses are repeated past the 255-address limit.
ADDRESSES = st.builds(
    TransportAddress,
    style=st.sampled_from(KNOWN_STYLES + ("A" * 255,)) | st.text(max_size=3)
    | st.sampled_from(KNOWN_STYLES),
    cost=st.integers(-1, 256),
    expiration_ms=st.integers(-1, 2**64),
    options=MAPPINGS,
)
RECORDS = st.builds(
    RouterInfo,
    identity=st.sampled_from([Destination(bytes(387)),
                              Destination(bytes(385) + b"\x00\x04abcd")]),
    published_ms=st.integers(-1, 2**64),
    addresses=st.builds(mul, st.lists(ADDRESSES, max_size=3), st.sampled_from([1] * 9 + [256])),
    options=MAPPINGS | MAPPINGS | BIG_MAPPINGS,
    signature=st.binary(max_size=70),
)


def encode_outcome(encode, record):
    """The record's bytes, or the type and text of the error encoding raised."""
    try:
        return encode(record)
    except ValueError as exc:
        return type(exc), str(exc)


class TestEncoderOracle:
    """The encoder against the bytearray encoder it replaced: the same bytes,
    or an error of the same type and text."""

    @settings(max_examples=300, deadline=None)
    @given(RECORDS)
    def test_matches_oracle(self, record):
        assert encode_outcome(encode_router_info, record) == encode_outcome(
            oracle_encode_router_info, record)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_records_match_oracle(self, seed):
        record = random_record(random.Random(seed))
        assert encode_router_info(record) == oracle_encode_router_info(record)


class TestEncodeErrors:
    def test_oversize_mapping(self):
        big = {f"k{i:04d}": "v" * 250 for i in range(300)}
        with pytest.raises(EncodeError):
            encode_router_info(make_record(extra=big))

    def test_oversize_mapping_string(self):
        with pytest.raises(EncodeError, match="mapping string exceeds 255 bytes"):
            encode_router_info(make_record(extra={"k": "v" * 300}))

    def test_oversize_mapping_string_past_chr(self):
        # Longer than chr() can count.
        with pytest.raises(EncodeError, match="mapping string exceeds 255 bytes"):
            encode_router_info(make_record(extra={"k": "v" * 0x110000}))

    @pytest.mark.parametrize("style", ["", "A" * 256, "bad style"])
    def test_invalid_style(self, style):
        address = TransportAddress(style, options={})
        with pytest.raises(EncodeError):
            encode_router_info(make_record(addresses=[address]))

    @pytest.mark.parametrize("cost", [300, -1])
    def test_address_cost_out_of_range(self, cost):
        address = TransportAddress("NTCP2", cost=cost, options={})
        with pytest.raises(EncodeError, match="address cost"):
            encode_router_info(make_record(addresses=[address]))

    @pytest.mark.parametrize("published_ms", [-1, 2**64])
    def test_publish_time_out_of_range(self, published_ms):
        with pytest.raises(EncodeError, match="publish time"):
            encode_router_info(make_record(published_ms=published_ms))

    def test_address_expiration_out_of_range(self):
        address = TransportAddress("NTCP2", expiration_ms=-5, options={})
        with pytest.raises(EncodeError, match="address expiration"):
            encode_router_info(make_record(addresses=[address]))


class TestLenientExtract:
    def test_agrees_with_strict_on_clean_records(self):
        for seed in range(200):
            record = random_record(random.Random(seed))
            extracted = lenient_extract(encode_router_info(record))
            if "caps" in record.options:
                assert extracted.caps == record.options["caps"], seed
            else:
                assert extracted.caps is None
            assert extracted.version == record.version

    def test_signature_flips_do_not_matter(self):
        record = make_record(caps="XfR", version="2.12.0", signature=b"\x00" * 40)
        data = bytearray(encode_router_info(record))
        for i in range(1, 33):
            data[-i] ^= 0xFF
        assert lenient_extract(bytes(data)) == lenient_extract(encode_router_info(record))

    def test_truncation_mid_signature_keeps_caps(self):
        record = make_record(caps="XfR", version="2.12.0")
        data = encode_router_info(record)
        cut = data[: len(data) - 30]
        extracted = lenient_extract(cut)
        assert extracted.caps == "XfR"
        assert extracted.version == "2.12.0"

    def test_truncation_fuzz_never_raises(self):
        record = make_record(
            caps="XfR",
            version="2.12.0",
            addresses=[direct()],
            extra={"netdb.knownRouters": "7778", "netdb.knownLeaseSets": "213"},
        )
        data = encode_router_info(record)
        for cut in range(0, len(data), 7):
            lenient_extract(data[:cut])
        lenient_extract(b"")
        lenient_extract(b"\xff" * 512)

    def test_counts_and_styles(self):
        record = make_record(
            caps="XfR",
            addresses=[direct(style="NTCP2"), introducer()],
            extra={"netdb.knownRouters": "7778", "netdb.knownLeaseSets": "213"},
        )
        extracted = lenient_extract(encode_router_info(record))
        assert extracted.known_routers == 7778
        assert extracted.known_leasesets == 213
        assert "NTCP2" in extracted.styles
        assert "SSU2" in extracted.styles

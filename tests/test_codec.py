import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadescope.model import Destination, RouterInfo, TransportAddress
from shadescope.wire import (
    DecodeError,
    EncodeError,
    decode_router_info,
    encode_router_info,
    lenient_extract,
)

from fixtures import random_record


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
            assert decoded.alpha == row["alpha"]
            assert decoded.iota == row["iota"]
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
        assert decoded.alpha is False

    def test_key_certificate_identity_section(self):
        record = make_record(caps="XfR", cert_len=4)
        encoded = encode_router_info(record)
        assert record.identity.size == 391
        assert encoded[:391] == record.identity.key_bytes
        assert decode_router_info(encoded) == record

    def test_null_certificate_identity_section(self):
        record = make_record(caps="LR")
        assert record.identity.size == 387
        assert encode_router_info(record)[:387] == record.identity.key_bytes

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_records_round_trip(self, seed):
        record = random_record(random.Random(seed))
        assert decode_router_info(encode_router_info(record)) == record

    def test_mapping_order_is_canonical_on_encode(self):
        a = make_record(extra={"zz": "1", "aa": "2"})
        b = make_record(extra={"aa": "2", "zz": "1"})
        assert encode_router_info(a) == encode_router_info(b)


class TestDecodeErrors:
    def test_truncated_identity(self):
        with pytest.raises(DecodeError) as exc:
            decode_router_info(b"\x00" * 100)
        assert "identity" in str(exc.value)
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
        mapping_at = 387 + 8 + 1 + 1
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


class TestEncodeErrors:
    def test_oversize_mapping(self):
        big = {f"k{i:04d}": "v" * 250 for i in range(300)}
        with pytest.raises(EncodeError):
            encode_router_info(make_record(extra=big))

    def test_oversize_mapping_string(self):
        with pytest.raises(EncodeError):
            encode_router_info(make_record(extra={"k": "v" * 300}))

    @pytest.mark.parametrize("style", ["", "A" * 256, "bad style"])
    def test_invalid_style(self, style):
        address = TransportAddress(style, options={})
        with pytest.raises(EncodeError):
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

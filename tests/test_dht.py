import datetime as dt
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadescope.dht import (
    FloodfillTable,
    association_rows,
    daily_mod_key,
    derive_b32,
    normalize_date,
    routing_key,
    routing_keys,
    xor_association,
)
from shadescope.encoding import EncodingError, hash_to_b32, service_hash
from shadescope.model import Destination

from fixtures import oracle_nearest, xor_distance

# Frozen from an independent hashlib/base32 oracle run before the build.
MK_20250101 = "15ccdd9f6056a69f2eab97206923d1d8027d8af36c7febf694b928b1d82b70f3"
MK_20250102 = "4337ba8d3d047d13dce5fcbb643a07d985616ef93fbc2061ea2a58eafa777387"
MK_20250615 = "4b84946aa8fac807308fccb8e0876d196ce09f01563d5b0b73e8337d5bb86f6f"
RK_ZERO_20250101 = "ceee9a60fe7cf91add6a2fe22df6c35e30d2eaad6c55997e19c2cd8d6455dedc"
SHA_32_ZEROS = "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"
RK_RANGE32_20250615 = "f3a6194b596ad38fc7a823ad5ae1bf9bb8525a6ff72944a7c92f76da0c79a676"

DEST_391 = b"A" * 384 + b"\x05" + b"\x00\x04" + b"A" * 4
DEST_391_B32 = "ar5r72o2mwcq7r75k4misu3as52iaedtwjujvt46mv75vecq2dna.b32.i2p"
DEST_387 = b"A" * 384 + b"\x00\x00\x00"
DEST_387_B32 = "3mtlj7a2v3k5xoipd2pta3kd2u3tpgdcsancdr6v3pv3uu5lghrq.b32.i2p"


class TestDailyModKey:
    def test_frozen_digests(self):
        assert daily_mod_key("20250101").hex() == MK_20250101
        assert daily_mod_key("20250102").hex() == MK_20250102
        assert daily_mod_key("20250615").hex() == MK_20250615

    def test_adjacent_dates_differ(self):
        assert daily_mod_key("20250101") != daily_mod_key("20250102")

    def test_bad_date_raises_on_every_call(self):
        # The cache holds validated dates only; an error is raised afresh.
        for _ in range(2):
            with pytest.raises(ValueError):
                daily_mod_key("20251399")

    @pytest.mark.parametrize("bad", ["2025-01-01", "2025011", "20251301", "20250230"])
    def test_bad_dates_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_date(bad)


class TestRoutingKey:
    def test_zero_hash_reduces_to_hashed_mod_key(self):
        assert routing_key(bytes(32), "20250101").hex() == RK_ZERO_20250101
        mk = daily_mod_key("20250101")
        assert routing_key(bytes(32), "20250101") == hashlib.sha256(mk).digest()

    def test_self_cancellation(self):
        mk = daily_mod_key("20250101")
        assert routing_key(mk, "20250101").hex() == SHA_32_ZEROS

    def test_frozen_random_input(self):
        assert routing_key(bytes(range(32)), "20250615").hex() == RK_RANGE32_20250615

    def test_thirty_consecutive_dates_no_collisions(self):
        h = bytes(range(32))
        start = dt.date(2025, 6, 1)
        dates = [(start + dt.timedelta(days=i)).strftime("%Y%m%d") for i in range(30)]
        keys = {routing_key(h, date) for date in dates}
        assert len(keys) == 30

    def test_date_objects_rejected(self):
        # Only a yyyyMMdd string names the UTC day; 23:30 at -05:00 is already
        # 20250102 in UTC, so an object is rejected rather than keyed by a guess.
        eastern = dt.timezone(dt.timedelta(hours=-5))
        for date in (dt.date(2025, 1, 1), dt.datetime(2025, 1, 1, 23, 30, tzinfo=eastern)):
            with pytest.raises(ValueError):
                routing_key(bytes(32), date)

    def test_requires_32_bytes(self):
        with pytest.raises(EncodingError):
            routing_key(b"\x00" * 31, "20250101")


class TestRoutingKeys:
    @given(st.lists(st.binary(min_size=32, max_size=32), max_size=20),
           st.sampled_from(["20250101", "20250615", "20241231"]))
    def test_matches_routing_key_key_by_key(self, hashes, date):
        assert routing_keys(hashes, date) == [routing_key(h, date) for h in hashes]

    def test_accepts_bytearray(self):
        assert routing_keys([bytearray(range(32))], "20250615") == [
            bytes.fromhex(RK_RANGE32_20250615)]

    def test_empty_batch(self):
        assert routing_keys([], "20250101") == []

    @pytest.mark.parametrize("bad", [b"\x00" * 31, b"\x00" * 33, "a" * 32, None],
                             ids=["short", "long", "str", "none"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_bad_hash_at_any_position(self, bad, position):
        hashes = [bytes([i]) * 32 for i in range(5)]
        hashes[position] = bad
        with pytest.raises(EncodingError) as single:
            routing_key(bad, "20250101")
        with pytest.raises(EncodingError) as batch:
            routing_keys(hashes, "20250101")
        assert str(batch.value) == str(single.value) == "record hash must be exactly 32 bytes"

    def test_bad_date_rejected(self):
        with pytest.raises(ValueError):
            routing_keys([bytes(32)], "20251399")


class TestXorDistance:
    """``fixtures.xor_distance``, the distance oracle of the association-row test."""

    def test_identical_is_zero(self):
        assert xor_distance(b"\x07" * 32, b"\x07" * 32) == 0

    def test_full_complement(self):
        assert xor_distance(bytes(32), b"\xff" * 32) == 2**256 - 1

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_symmetry(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)

    def test_big_endian_interpretation(self):
        a = b"\x01" + bytes(31)
        assert xor_distance(a, bytes(32)) == 1 << 248


# Corners of the 64-bit word space: all ones (where a prefix range ends at
# 2**64), all zeros, and both sides of the top-bit split.
_BASES = (b"\xff" * 32, bytes(32), b"\x80" + bytes(31), b"\x7f" + b"\xff" * 31)


@st.composite
def near_hashes(draw):
    """A hash sharing 0-32 leading bytes with a corner base, so keys and
    floodfills often agree on all of word 0 and differ only in words 1-3."""
    base = draw(st.sampled_from(_BASES))
    shared = draw(st.integers(0, 32))
    return base[:shared] + draw(st.binary(min_size=32 - shared, max_size=32 - shared))


HASHES = st.one_of(st.binary(min_size=32, max_size=32), near_hashes())


@st.composite
def floodfill_sets(draw):
    """1-40 floodfill hashes, some of them repeated."""
    distinct = draw(st.lists(HASHES, min_size=1, max_size=40))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=5))
    return draw(st.permutations(distinct + repeats))


# Values check_hash rejects, each in a type or length of its own.
BAD_HASHES = pytest.mark.parametrize(
    "bad", [bytes(31), bytes(33), "k" * 32, memoryview(bytes(32)), None],
    ids=["short", "long", "str", "memoryview", "none"])


def nearest_hashes(table, keys, k):
    """The table's nearest floodfills per key as hash tuples, nearest first."""
    return [tuple(table.hashes[i] for i in row) for row in table.nearest(keys, k)]


class TestFloodfillTable:
    @settings(max_examples=200)
    @given(floodfill_sets(), st.lists(HASHES, max_size=12), st.integers(1, 45))
    def test_nearest_equals_exhaustive_sort(self, floodfills, keys, k):
        table = FloodfillTable(floodfills)
        expected = [oracle_nearest(key, floodfills, k) for key in keys]
        assert nearest_hashes(table, keys, k) == expected

    def test_equal_word0_ranked_on_words_1_to_3(self):
        rng = random.Random(41)
        word0 = rng.randbytes(8)
        floodfills = [word0 + rng.randbytes(24) for _ in range(50)]
        floodfills += [rng.randbytes(32) for _ in range(50)]
        keys = [word0 + rng.randbytes(24) for _ in range(30)]
        for k in (1, 2, 4, 8):
            assert nearest_hashes(FloodfillTable(floodfills), keys, k) == [
                oracle_nearest(key, floodfills, k) for key in keys
            ]

    def test_all_ones_prefix(self):
        # The prefix range of an all-ones word would end at 2**64, past uint64.
        rng = random.Random(42)
        ones = b"\xff" * 8
        floodfills = [ones + rng.randbytes(24) for _ in range(6)]
        floodfills += [b"\xff" * 7 + rng.randbytes(25) for _ in range(6)]
        floodfills += [rng.randbytes(32) for _ in range(20)]
        keys = [ones + rng.randbytes(24) for _ in range(10)] + [b"\xff" * 32]
        for k in (1, 3, 6, 7, 13):
            assert nearest_hashes(FloodfillTable(floodfills), keys, k) == [
                oracle_nearest(key, floodfills, k) for key in keys
            ]

    def test_duplicates_fill_slots_and_order_is_free(self):
        rng = random.Random(43)
        distinct = [rng.randbytes(32) for _ in range(10)]
        floodfills = distinct + distinct[:4] + distinct[:2]
        key = rng.randbytes(32)
        expected = oracle_nearest(key, floodfills, 5)
        for _ in range(5):
            rng.shuffle(floodfills)
            assert nearest_hashes(FloodfillTable(floodfills), [key], 5) == [expected]

    def test_k_at_least_f_returns_every_floodfill_nearest_first(self):
        rng = random.Random(44)
        floodfills = [rng.randbytes(32) for _ in range(7)]
        key = rng.randbytes(32)
        for k in (7, 8, 100):
            (got,) = nearest_hashes(FloodfillTable(floodfills), [key], k)
            assert got == oracle_nearest(key, floodfills, 7)

    def test_single_floodfill(self):
        f = b"\x42" * 32
        keys = [bytes(32), b"\xff" * 32, f]
        assert nearest_hashes(FloodfillTable([f]), keys, 1) == [(f,)] * 3
        assert nearest_hashes(FloodfillTable([f]), keys, 4) == [(f,)] * 3

    def test_mixed_run_lengths_in_one_batch(self):
        # Short runs of random floodfills, one long run of 40 floodfills
        # with equal word 0 (ranked on words 1-3), and hand-placed word-0
        # distances around a base word: a tie beyond the top k, a tie at
        # the k-th place, and a tie inside the top k.
        rng = random.Random(45)

        def with_word0(word):
            return word.to_bytes(8, "big") + rng.randbytes(24)

        shared = rng.getrandbits(64)
        floodfills = [rng.randbytes(32) for _ in range(200)]
        floodfills += [with_word0(shared) for _ in range(40)]
        keys = [rng.randbytes(32) for _ in range(20)]
        keys += [with_word0(shared) for _ in range(10)]
        for distances in ((1, 2, 4, 5, 6, 6), (1, 2, 4, 6, 6), (1, 1, 2, 4, 5)):
            base = rng.getrandbits(60) << 4
            floodfills += [with_word0(base ^ d) for d in distances]
            keys.append(with_word0(base))
        rng.shuffle(floodfills)
        table = FloodfillTable(floodfills)
        for k in (1, 3, 4, 6):
            got = table.nearest(keys, k)
            assert got.shape == (len(keys), k) and got.dtype == np.intp
            assert nearest_hashes(table, keys, k) == [
                oracle_nearest(key, floodfills, k) for key in keys
            ]

    def test_empty_key_batch(self):
        got = FloodfillTable([bytes(32), b"\x01" * 32]).nearest([], 4)
        assert got.shape == (0, 2)

    def test_empty_set_rejected(self):
        table = FloodfillTable([])
        assert len(table) == 0
        with pytest.raises(ValueError):
            table.nearest([bytes(32)], 1)

    def test_bad_inputs_rejected(self):
        with pytest.raises(EncodingError):
            FloodfillTable([bytes(31)])
        with pytest.raises(EncodingError):
            FloodfillTable([bytes(32)]).nearest([bytes(33)], 1)
        with pytest.raises(ValueError):
            FloodfillTable([bytes(32)]).nearest([bytes(32)], 0)

    @pytest.mark.parametrize("at", [0, 4, 9], ids=["first", "middle", "last"])
    @BAD_HASHES
    def test_bad_key_rejected_at_any_position(self, at, bad):
        keys = [bytes([i]) * 32 for i in range(10)]
        keys[at] = bad
        with pytest.raises(EncodingError, match="^storage key must be exactly 32 bytes$"):
            FloodfillTable([bytes(32), b"\x01" * 32]).nearest(keys, 1)

    def test_bytearray_keys_accepted(self):
        table = FloodfillTable([bytes([i]) * 32 for i in range(0, 256, 17)])
        keys = [bytes([i]) * 32 for i in range(0, 256, 5)]
        got = table.nearest([bytearray(key) for key in keys], 3)
        assert got.tolist() == table.nearest(keys, 3).tolist()

    @pytest.mark.parametrize("at", [0, 4, 9], ids=["first", "middle", "last"])
    @BAD_HASHES
    def test_bad_floodfill_rejected_at_any_position(self, at, bad):
        floodfills = [bytes([i]) * 32 for i in range(10)]
        floodfills[at] = bad
        with pytest.raises(EncodingError, match="^floodfill hash must be exactly 32 bytes$"):
            FloodfillTable(iter(floodfills))

    def test_bytearray_floodfills_held_as_bytes(self):
        floodfills = [bytes([i]) * 32 for i in range(200, 0, -7)]
        table = FloodfillTable(bytearray(f) for f in floodfills)
        assert table.hashes == tuple(sorted(floodfills))
        assert {type(f) for f in table.hashes} == {bytes}


def responsible(key_hash, floodfills):
    """The floodfill responsible for ``key_hash`` on 2025-01-01, from the table."""
    (nearest,) = nearest_hashes(FloodfillTable(floodfills), [routing_key(key_hash, "20250101")], 1)
    return nearest[0]


class TestResponsibleFloodfill:
    def test_singleton(self):
        rng = random.Random(0)
        f = rng.randbytes(32)
        assert responsible(rng.randbytes(32), [f]) == f

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            responsible(bytes(32), [])

    def test_analytically_forced_argmin(self):
        # Storage key 0x01 then zeros: distance to 0x00... is 0x01...,
        # distance to 0x80... is 0x81..., so the zero hash must win.
        storage_key = b"\x01" + bytes(31)
        low = bytes(32)
        high = b"\x80" + bytes(31)
        assert nearest_hashes(FloodfillTable([low, high]), [storage_key], 1) == [(low,)]
        assert nearest_hashes(FloodfillTable([high, low]), [storage_key], 1) == [(low,)]

    def test_matches_exhaustive_scan_on_64_random(self):
        rng = random.Random(17)
        floodfills = [rng.randbytes(32) for _ in range(64)]
        for _ in range(20):
            target = rng.randbytes(32)
            (expected,) = oracle_nearest(routing_key(target, "20250101"), floodfills, 1)
            assert responsible(target, floodfills) == expected

    def test_permutation_invariant(self):
        rng = random.Random(3)
        floodfills = [rng.randbytes(32) for _ in range(16)]
        target = rng.randbytes(32)
        baseline = responsible(target, floodfills)
        for _ in range(10):
            rng.shuffle(floodfills)
            assert responsible(target, floodfills) == baseline


def _b32_of(h: bytes) -> str:
    return hash_to_b32(h) + ".b32.i2p"


def brute_force_association(target, eepsite_hashes, floodfills, date):
    """Independent double-loop oracle over raw hash bytes."""
    mk = hashlib.sha256(date.encode()).digest()
    out = []
    for service in eepsite_hashes:
        mixed = bytes(a ^ b for a, b in zip(service, mk))
        rk = int.from_bytes(hashlib.sha256(mixed).digest(), "big")
        own = int.from_bytes(target, "big") ^ rk
        closest = True
        for f in floodfills:
            if f == target:
                continue
            if (int.from_bytes(f, "big") ^ rk) < own:
                closest = False
                break
        if closest:
            out.append(service)
    return out


class TestXorAssociation:
    def test_empty_eepsites(self):
        matched, warnings = xor_association(bytes(32), [], [bytes(32)], "20250101")
        assert matched == [] and warnings == []

    def test_target_only_floodfill_matches_everything(self):
        rng = random.Random(5)
        target = rng.randbytes(32)
        sites = [_b32_of(rng.randbytes(32)) for _ in range(7)]
        matched, _ = xor_association(target, sites, [target], "20250101")
        assert matched == sites

    def test_undecodable_entries_skipped_with_warning(self):
        rng = random.Random(6)
        target = rng.randbytes(32)
        sites = ["definitely not b32", _b32_of(rng.randbytes(32))]
        matched, warnings = xor_association(target, sites, [target], "20250101")
        assert matched == sites[1:]
        assert len(warnings) == 1

    def test_census_scale_fixture_equals_oracle(self):
        # 1,536 floodfills x 172 candidate addresses, full census scale.
        rng = random.Random(99)
        floodfills = [rng.randbytes(32) for _ in range(1536)]
        target = floodfills[0]
        service_hashes = [rng.randbytes(32) for _ in range(172)]
        expected = brute_force_association(target, service_hashes, floodfills, "20250101")
        matched, warnings = xor_association(
            target, [_b32_of(h) for h in service_hashes], floodfills, "20250101"
        )
        assert warnings == []
        assert matched == [_b32_of(h) for h in expected]

    def test_target_inside_floodfill_map_is_skipped_in_scan(self):
        rng = random.Random(12)
        target = rng.randbytes(32)
        floodfills = [target] + [rng.randbytes(32) for _ in range(10)]
        sites = [_b32_of(rng.randbytes(32)) for _ in range(20)]
        with_target, _ = xor_association(target, sites, floodfills, "20250101")
        without_target, _ = xor_association(target, sites, floodfills[1:], "20250101")
        assert with_target == without_target

    def test_consistency_with_responsibility_rule(self):
        # Membership in the association set must agree with the single
        # responsible-floodfill rule over the scan set plus the target.
        rng = random.Random(21)
        for _ in range(25):
            floodfills = [rng.randbytes(32) for _ in range(rng.randint(1, 64))]
            target = rng.choice(floodfills) if rng.random() < 0.5 else rng.randbytes(32)
            services = [rng.randbytes(32) for _ in range(rng.randint(0, 16))]
            matched, _ = xor_association(
                target, [_b32_of(h) for h in services], floodfills, "20250101"
            )
            pool = set(floodfills) | {target}
            for service in services:
                nearest = oracle_nearest(routing_key(service, "20250101"), pool, 1)
                assert (_b32_of(service) in matched) == (nearest == (target,))

    @given(floodfill_sets(), st.lists(HASHES, max_size=10), st.booleans(), st.data())
    def test_rows_equal_oracle_with_target_inside_or_outside(
        self, floodfills, services, inside, data
    ):
        target = data.draw(st.sampled_from(floodfills) if inside else HASHES)
        rows, warnings = association_rows(
            target, [_b32_of(h) for h in services], floodfills, "20250101"
        )
        assert warnings == []
        expected = brute_force_association(target, services, floodfills, "20250101")
        assert [r.address for r in rows if r.responsible] == [_b32_of(h) for h in expected]
        others = [f for f in floodfills if f != target]
        for row, service in zip(rows, services):
            rk = routing_key(service, "20250101")
            assert row.target_distance == xor_distance(target, rk)
            assert row.other_distance == min(
                (xor_distance(f, rk) for f in others), default=None
            )

    def test_duplicated_target_does_not_hide_the_nearest_other(self):
        rng = random.Random(45)
        target = rng.randbytes(32)
        floodfills = [target, target, rng.randbytes(32)]
        services = [rng.randbytes(32) for _ in range(20)]
        rows, _ = association_rows(target, [_b32_of(h) for h in services], floodfills, "20250101")
        assert all(row.other_distance is not None for row in rows)

    def test_bad_date_rejected_without_addresses(self):
        with pytest.raises(ValueError):
            xor_association(bytes(32), [], [bytes(32)], "20251399")


class TestB32:
    def test_derive_shape(self):
        address = derive_b32(Destination(DEST_387))
        head, _, tail = address.partition(".")
        assert len(head) == 52
        assert address.endswith(".b32.i2p")

    def test_frozen_addresses(self):
        assert derive_b32(Destination(DEST_391)) == DEST_391_B32
        assert derive_b32(Destination(DEST_387)) == DEST_387_B32

    def test_key_certificate_covers_391_bytes(self):
        # Same leading 387 bytes, different certificate: addresses differ.
        assert derive_b32(Destination(DEST_391)) != derive_b32(
            Destination(DEST_391[:384] + b"\x00\x00\x00")
        )

    @given(st.binary(min_size=32, max_size=32))
    def test_decode_inverts_encode(self, value):
        assert service_hash(hash_to_b32(value) + ".b32.i2p") == value
        assert service_hash(hash_to_b32(value)) == value

    def test_mixed_case_accepted(self):
        value = b"\xc3" * 32
        assert service_hash(hash_to_b32(value).upper() + ".B32.I2P") == value

    def test_wrong_length_rejected(self):
        with pytest.raises(EncodingError):
            service_hash("a" * 51)

    def test_bad_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            service_hash("1" * 52)  # '1' is not a base32 char

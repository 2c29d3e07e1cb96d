import random

import pytest

from shadescope.encoding import hash_to_b32, hash_to_b64
from shadescope.model import Lease, LeaseSet
from shadescope.netdb import NetDbError, load_leasesets, load_netdb_dir
from shadescope.sim import synth_record
from shadescope.wire import encode_router_info

from fixtures import write_fixture_corpus, write_leasesets


class TestLoadNetDbDir:
    def test_empty_directory(self, tmp_path):
        snapshot = load_netdb_dir(tmp_path)
        stats = snapshot.stats
        assert (stats.total, stats.floodfill_count, stats.parse_failures) == (0, 0, 0)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(NetDbError):
            load_netdb_dir(tmp_path / "nope")

    def test_fixture_corpus_counts(self, corpus_dir):
        snapshot = load_netdb_dir(corpus_dir)
        stats = snapshot.stats
        assert stats.total == 100
        assert stats.floodfill_count == 48
        assert stats.parse_failures == 0
        assert round(100.0 * stats.floodfill_count / len(snapshot.records), 1) == 48.0

    def test_corrupt_file_is_isolated(self, tmp_path):
        records = write_fixture_corpus(tmp_path, n=10, floodfill_count=4, seed=3)
        bad = tmp_path / ("routerInfo-" + "x" * 44 + ".dat")
        bad.write_bytes(b"\x00\x01garbage")
        snapshot = load_netdb_dir(tmp_path)
        stats = snapshot.stats
        assert stats.parse_failures == 1
        assert len(snapshot.records) == len(records)
        assert stats.total == 11
        assert snapshot.failures[0].filename == bad.name

    def test_truncated_record_counts_as_parse_failure(self, tmp_path):
        record = synth_record(random.Random(5), 1)
        data = encode_router_info(record)
        # Cut inside the 387-byte identity, so strict decoding fails.
        broken = data[:386]
        (tmp_path / "routerInfo-broken.dat").write_bytes(broken)
        snapshot = load_netdb_dir(tmp_path)
        assert snapshot.stats.parse_failures == 1

    def test_only_matching_filenames_are_scanned(self, tmp_path):
        write_fixture_corpus(tmp_path, n=3, floodfill_count=1, seed=1)
        (tmp_path / "README.txt").write_text("not a record")
        (tmp_path / "leaseSet-x.dat").write_bytes(b"\x00")
        assert load_netdb_dir(tmp_path).stats.total == 3

    def test_lookup_and_floodfill_hashes(self, corpus_dir):
        snapshot = load_netdb_dir(corpus_dir)
        ff = snapshot.floodfill_hashes
        assert len(ff) == 48
        assert snapshot.lookup(ff[0]).is_floodfill
        assert snapshot.lookup(bytes(32)) is None

    def test_stats_rederivable_by_rescan(self, corpus_dir):
        snapshot = load_netdb_dir(corpus_dir)
        recount = sum(1 for r in snapshot.records.values() if "f" in r.caps)
        assert recount == snapshot.stats.floodfill_count
        assert snapshot.stats.total == len(snapshot.records) + len(snapshot.failures)


def _hashes(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(32) for _ in range(n)]


class TestLeaseSets:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "ls.txt"
        path.write_text("")
        leasesets, warnings = load_leasesets(path)
        assert leasesets == [] and warnings == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetDbError):
            load_leasesets(tmp_path / "missing.txt")

    def test_single_line_two_leases(self, tmp_path):
        dest, gw1, gw2 = _hashes(3, seed=1)
        line = (
            f"{hash_to_b64(dest)} {hash_to_b32(dest)} "
            f"{hash_to_b64(gw1)}:17:1700000000000,{hash_to_b64(gw2)}:18:1700000001000\n"
        )
        path = tmp_path / "ls.txt"
        path.write_text("# comment line\n" + line)
        leasesets, warnings = load_leasesets(path)
        assert warnings == []
        assert len(leasesets) == 1
        ls = leasesets[0]
        assert ls.destination_hash == dest
        assert ls.b32.endswith(".b32.i2p")
        assert [l.gateway for l in ls.leases] == [gw1, gw2]
        assert [l.tunnel_id for l in ls.leases] == [17, 18]

    def test_sixty_nine_leasesets(self, tmp_path):
        rng = random.Random(42)
        lines = []
        for _ in range(69):
            dest = rng.randbytes(32)
            gw = rng.randbytes(32)
            lines.append(
                f"{hash_to_b64(dest)} {hash_to_b32(dest)} "
                f"{hash_to_b64(gw)}:{rng.randint(1, 2**31)}:1700000000000"
            )
        path = tmp_path / "ls.txt"
        path.write_text("\n".join(lines) + "\n")
        leasesets, warnings = load_leasesets(path)
        assert len(leasesets) == 69
        assert warnings == []

    def test_zero_lease_forms(self, tmp_path):
        dest = _hashes(1, seed=9)[0]
        path = tmp_path / "ls.txt"
        path.write_text(f"{hash_to_b64(dest)} - -\n{hash_to_b64(dest)} -\n")
        leasesets, warnings = load_leasesets(path)
        assert warnings == []
        assert all(ls.leases == () for ls in leasesets)
        assert all(ls.b32 is None for ls in leasesets)

    def test_malformed_lines_become_warnings(self, tmp_path):
        dest, gw = _hashes(2, seed=4)
        good = f"{hash_to_b64(dest)} - {hash_to_b64(gw)}:5:100"
        path = tmp_path / "ls.txt"
        path.write_text("nonsense\n" + good + "\nshort b64\n")
        leasesets, warnings = load_leasesets(path)
        assert len(leasesets) == 1
        assert len(warnings) == 2
        assert all(w.startswith("line ") for w in warnings)

    def test_b32_column_must_match_hash(self, tmp_path):
        dest, other = _hashes(2, seed=6)
        path = tmp_path / "ls.txt"
        path.write_text(f"{hash_to_b64(dest)} {hash_to_b32(other)} -\n")
        leasesets, warnings = load_leasesets(path)
        assert leasesets == []
        assert len(warnings) == 1

    def test_write_read_round_trip(self, tmp_path):
        rng = random.Random(7)
        originals = [
            LeaseSet(
                destination_hash=(d := rng.randbytes(32)),
                b32=hash_to_b32(d) + ".b32.i2p",
                leases=tuple(
                    Lease(rng.randbytes(32), rng.randint(0, 2**31), 1700000000000)
                    for _ in range(rng.randint(0, 3))
                ),
            )
            for _ in range(12)
        ]
        path = tmp_path / "ls.txt"
        write_leasesets(originals, path)
        loaded, warnings = load_leasesets(path)
        assert warnings == []
        assert loaded == originals

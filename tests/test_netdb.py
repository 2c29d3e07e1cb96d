import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from shadescope.encoding import hash_to_b32, hash_to_b64
from shadescope.model import Lease, LeaseSet, RouterInfo
from shadescope import netdb
from shadescope.netdb import NetDbError, load_leasesets, load_netdb_dir
from shadescope.sim import synth_record
from shadescope.wire import decode_router_info, encode_router_info

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

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="bound measured on CPython 3.11; object sizes differ by version")
    def test_memory_per_decoded_record(self, tmp_path):
        # Traced bytes a loaded snapshot holds per record, after a warm-up
        # load, on CPython 3.11.7: 1,344 with slotted records that keep the
        # decoder's own mappings, no destination size, and the option keys
        # and styles the package reads shared; 1,352 with a slot per record
        # for draws; 1,366 with each mapping copied; 1,406 with a size slot
        # per destination; 1,756 with dict-backed records and a copy of each
        # name per record. The bound lies halfway between the last two.
        rng = random.Random(8)
        for i in range(700):
            _record_file(tmp_path, synth_record(rng, 1 + i % 7))
        load_netdb_dir(tmp_path)
        tracemalloc.start()
        try:
            snapshot = load_netdb_dir(tmp_path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(snapshot.records) == 700
        assert held / len(snapshot.records) < 1_581


class _Node:
    """A weak-referenceable object for building reference cycles."""


class TestLoadCollector:
    """A snapshot load builds by the one collector rule, netdb._bulk_build."""

    def test_decoding_runs_with_the_collector_paused(self, collector, corpus_dir, monkeypatch):
        seen = []

        def recording_decode(data):
            seen.append(gc.isenabled())
            return decode_router_info(data)

        monkeypatch.setattr(netdb, "decode_router_info", recording_decode)
        assert len(load_netdb_dir(corpus_dir).records) == 100
        assert seen == [False] * 100
        assert gc.isenabled() is collector

    def test_collector_flag_restored_when_decoding_raises(self, collector, corpus_dir,
                                                          monkeypatch):
        seen = []

        def failing_decode(data):
            seen.append(gc.isenabled())
            raise RuntimeError("decode failed")

        monkeypatch.setattr(netdb, "decode_router_info", failing_decode)
        with pytest.raises(RuntimeError, match="decode failed"):
            load_netdb_dir(corpus_dir)
        assert seen == [False]  # raised inside the pause
        assert gc.isenabled() is collector

    def test_caller_frozen_objects_stay_frozen(self, corpus_dir):
        kept = [[i] for i in range(1000)]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen >= len(kept)
            load_netdb_dir(corpus_dir)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_snapshot_is_promoted_unscanned(self, collector, corpus_dir):
        # The new records leave the young generation without a scan, so the
        # next young collection does not walk them.
        snapshot = load_netdb_dir(corpus_dir)
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert any(obj is snapshot.records for obj in gc.get_objects(generation=2))

    def test_garbage_made_before_the_load_is_freed_not_promoted(self, collector, tmp_path):
        # An empty snapshot allocates too little to trigger a collection of
        # its own, so only the young collection before the build frees the
        # cycle; with the collector off, the caller's choice stands.
        gc.collect()
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        load_netdb_dir(tmp_path)
        assert (ref() is None) is collector


def _record_file(directory, record, name=None):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (name or f"routerInfo-{hash_to_b64(record.hash)}.dat")
    path.write_bytes(encode_router_info(record))
    return path


def _load_in_child(directory):
    """``load_netdb_dir(directory)`` in a child process, under a 20 s timeout
    and a 1 GiB address-space limit set after its imports: the record count
    and each failure's file name and error."""
    src = str(Path(netdb.__file__).resolve().parents[1])
    script = ("import json, resource, sys; from shadescope.netdb import load_netdb_dir; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "s = load_netdb_dir(sys.argv[1]); "
              "print(json.dumps([len(s.records), [[f.filename, f.error] for f in s.failures]]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(directory)], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestSnapshotWalk:
    """Which files a snapshot load reads, and in which order."""

    def test_nested_subdirectories_are_searched(self, tmp_path):
        rng = random.Random(11)
        records = [synth_record(rng, 1 + i % 7) for i in range(4)]
        _record_file(tmp_path, records[0])
        _record_file(tmp_path / "r0", records[1])
        _record_file(tmp_path / "r0" / "deeper", records[2])
        _record_file(tmp_path / "r1" / "a" / "b", records[3])
        snapshot = load_netdb_dir(tmp_path)
        assert set(snapshot.records) == {r.hash for r in records}
        assert snapshot.failures == [] and snapshot.warnings == []

    def test_failures_follow_path_component_order(self, tmp_path):
        # As strings, "a-b/..." sorts before "a/..." ('-' < '/'); by path
        # components, "a" sorts before "a-b". Within a/, files and
        # subdirectories interleave by name.
        layout = ["a-b/routerInfo-1.dat", "a/routerInfo-2.dat", "a/z/routerInfo-3.dat",
                  "a.b/routerInfo-4.dat", "routerInfo-5.dat", "a/routerInfo-6.dat"]
        for i, rel in enumerate(layout):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"\x00" * i)
        snapshot = load_netdb_dir(tmp_path)
        # Each failure names its path below the snapshot root.
        assert [f.filename for f in snapshot.failures] == [
            os.path.join(*rel.split("/")) for rel in (
                "a/routerInfo-2.dat", "a/routerInfo-6.dat", "a/z/routerInfo-3.dat",
                "a-b/routerInfo-1.dat", "a.b/routerInfo-4.dat", "routerInfo-5.dat")
        ]
        assert all("truncated identity (at offset 0)" == f.error for f in snapshot.failures)

    def test_later_duplicate_in_path_component_order_is_kept(self, tmp_path):
        record = synth_record(random.Random(12), 1)
        name = f"routerInfo-{hash_to_b64(record.hash)}.dat"
        copies = {}
        for sub, tag in (("a-b", b"\x01"), ("a", b"\x02"), ("a/z", b"\x03")):
            copies[sub] = RouterInfo(identity=record.identity, published_ms=record.published_ms,
                                     addresses=record.addresses, options=record.options,
                                     signature=tag * 64)
            _record_file(tmp_path / sub, copies[sub], name)
        snapshot = load_netdb_dir(tmp_path)
        # Loaded as a/, a/z/, a-b/: the last one read replaces the others,
        # and each warning names the copy that replaced, by its path.
        assert snapshot.records == {record.hash: copies["a-b"]}
        assert snapshot.warnings == [f"duplicate record replaced: {os.path.join(sub, name)}"
                                     for sub in ("a/z", "a-b")]
        assert len(set(snapshot.warnings)) == 2

    def test_directory_with_record_name_is_unreadable(self, tmp_path):
        _record_file(tmp_path, synth_record(random.Random(13), 2))
        (tmp_path / "routerInfo-x.dat").mkdir()
        snapshot = load_netdb_dir(tmp_path)
        assert len(snapshot.records) == 1
        [failure] = snapshot.failures
        assert failure.filename == "routerInfo-x.dat"
        assert failure.error.startswith("unreadable: ")
        assert str(tmp_path / "routerInfo-x.dat") in failure.error

    @pytest.mark.parametrize("given, shown", [(".", "sub/routerInfo-x.dat"),
                                              ("./sub/", "sub/routerInfo-x.dat"),
                                              ("sub", "sub/routerInfo-x.dat")])
    def test_unreadable_error_names_the_path_as_given(self, tmp_path, monkeypatch, given, shown):
        (tmp_path / "sub" / "routerInfo-x.dat").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        [failure] = load_netdb_dir(given).failures
        assert failure.error == f"unreadable: not a regular file: '{shown}'"

    def test_file_removed_after_the_walk_is_unreadable(self, tmp_path, monkeypatch):
        rng = random.Random(15)
        kept, removed = synth_record(rng, 1), synth_record(rng, 2)
        _record_file(tmp_path, kept)
        gone = _record_file(tmp_path, removed)
        walk = netdb._record_paths

        def walk_then_remove(top):
            paths = walk(top)
            gone.unlink()
            return paths

        monkeypatch.setattr(netdb, "_record_paths", walk_then_remove)
        snapshot = load_netdb_dir(tmp_path)
        assert set(snapshot.records) == {kept.hash}
        assert snapshot.failures == [netdb.ParseFailure(
            gone.name, f"unreadable: [Errno 2] No such file or directory: '{gone}'")]

    def test_record_past_one_read_is_read_whole(self, tmp_path):
        # 200 KiB of signature: more than three 64 KiB chunks.
        record = synth_record(random.Random(16), 3)
        padded = dataclasses.replace(record, signature=bytes(range(256)) * 800)
        _record_file(tmp_path, padded)
        snapshot = load_netdb_dir(tmp_path)
        assert snapshot.records == {record.hash: padded}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_with_record_name_does_not_block(self, tmp_path):
        # Opening a FIFO for reading waits for a writer unless it is opened
        # non-blocking, so the load runs in a child that a timeout can end.
        _record_file(tmp_path, synth_record(random.Random(17), 1))
        fifo = tmp_path / "routerInfo-fifo.dat"
        os.mkfifo(fifo)
        assert _load_in_child(tmp_path) == [
            1, [[fifo.name, f"unreadable: not a regular file: '{fifo}'"]]]

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_symlink_to_endless_device_is_not_read(self, tmp_path):
        # Read to its end, /dev/zero never ends: the child's address-space
        # limit turns that into a MemoryError instead of a full host.
        _record_file(tmp_path, synth_record(random.Random(18), 1))
        link = tmp_path / "routerInfo-zero.dat"
        link.symlink_to("/dev/zero")
        assert _load_in_child(tmp_path) == [
            1, [[link.name, f"unreadable: not a regular file: '{link}'"]]]

    def test_file_grown_after_its_fstat_is_read_whole(self, tmp_path, monkeypatch):
        # A file larger than its fstat said fills the first read, so reading
        # goes on until a read comes back short.
        record = synth_record(random.Random(19), 2)
        padded = dataclasses.replace(record, signature=bytes(range(256)) * 300)
        _record_file(tmp_path, padded)
        fstat = os.fstat

        def stale_fstat(fd):
            info = list(fstat(fd))
            info[6] = 10  # st_size
            return os.stat_result(info)

        monkeypatch.setattr(os, "fstat", stale_fstat)
        assert load_netdb_dir(tmp_path).records == {record.hash: padded}

    def test_file_grown_by_whole_chunks_is_read_whole(self, tmp_path, monkeypatch):
        # The first read and then one 64 KiB read come back full, so reading
        # stops only at the empty read after them.
        record = synth_record(random.Random(20), 2)
        unsigned = len(encode_router_info(dataclasses.replace(record, signature=b"")))
        padded = dataclasses.replace(record, signature=b"\x5a" * (11 + 65536 - unsigned))
        path = _record_file(tmp_path, padded)
        assert path.stat().st_size == 11 + 65536
        fstat = os.fstat

        def stale_fstat(fd):
            info = list(fstat(fd))
            info[6] = 10  # st_size
            return os.stat_result(info)

        monkeypatch.setattr(os, "fstat", stale_fstat)
        assert load_netdb_dir(tmp_path).records == {record.hash: padded}

    def test_symlinked_subdirectory_is_not_followed(self, tmp_path):
        rng = random.Random(14)
        inside, outside = synth_record(rng, 1), synth_record(rng, 2)
        netdb = tmp_path / "netdb"
        _record_file(netdb, inside)
        _record_file(tmp_path / "elsewhere", outside)
        (netdb / "linked").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        snapshot = load_netdb_dir(netdb)
        assert set(snapshot.records) == {inside.hash}
        assert snapshot.failures == []


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
        # A file that cannot be read raises the OSError naming it, as a spec does.
        missing = tmp_path / "missing.txt"
        with pytest.raises(FileNotFoundError, match=re.escape(repr(str(missing)))):
            load_leasesets(missing)

    def test_not_a_regular_file(self, tmp_path):
        with pytest.raises(OSError, match=re.escape(f"not a regular file: {str(tmp_path)!r}")):
            load_leasesets(tmp_path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "ls.txt"
        path.write_bytes(b"\xff\n")
        with pytest.raises(NetDbError, match="not UTF-8"):
            load_leasesets(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_keep_line_numbers(self, tmp_path, newline):
        dest, gw = _hashes(2, seed=8)
        lines = ["# services", f"{hash_to_b64(dest)} - {hash_to_b64(gw)}:5:100",
                 "nonsense", "", f"{hash_to_b64(gw)} {hash_to_b32(dest)} -"]
        unix, other = tmp_path / "unix.txt", tmp_path / "other.txt"
        unix.write_bytes("\n".join(lines).encode())
        other.write_bytes(newline.join(lines).encode())
        assert load_leasesets(other) == load_leasesets(unix)
        assert load_leasesets(unix)[1] == [
            "line 3: expected 2 or 3 columns, got 1",
            "line 5: b32 column does not match destination hash"]

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
        assert all(ls.b32 == hash_to_b32(dest) + ".b32.i2p" for ls in leasesets)

    def test_upper_case_column_loads_as_canonical_address(self, tmp_path):
        dest = _hashes(1, seed=5)[0]
        canonical = hash_to_b32(dest) + ".b32.i2p"
        path = tmp_path / "ls.txt"
        path.write_text(f"{hash_to_b64(dest)} {canonical.upper()} -\n"
                        f"{hash_to_b64(dest)} {hash_to_b32(dest).upper()}\n")
        leasesets, warnings = load_leasesets(path)
        assert warnings == []
        assert [ls.b32 for ls in leasesets] == [canonical, canonical]

    def test_malformed_lines_become_warnings(self, tmp_path):
        dest, gw = _hashes(2, seed=4)
        good = f"{hash_to_b64(dest)} - {hash_to_b64(gw)}:5:100"
        path = tmp_path / "ls.txt"
        path.write_text("nonsense\n" + good + "\nshort b64\n")
        leasesets, warnings = load_leasesets(path)
        assert len(leasesets) == 1
        assert len(warnings) == 2
        assert all(w.startswith("line ") for w in warnings)

    @pytest.mark.parametrize("lease, message", [
        ("-1:100", "tunnel_id is not a decimal integer below 2**32: '-1'"),
        ("+5:100", "tunnel_id is not a decimal integer below 2**32: '+5'"),
        ("1_000:100", "tunnel_id is not a decimal integer below 2**32: '1_000'"),
        ("\u0665:100", "tunnel_id is not a decimal integer below 2**32: '\u0665'"),
        (f"{2**32}:100", f"tunnel_id is not a decimal integer below 2**32: '{2**32}'"),
        ("1" * 20 + ":100", f"tunnel_id is not a decimal integer below 2**32: '{'1' * 20}'"),
        ("5:", "expiry_ms is not a decimal integer below 2**64: ''"),
        ("5:-100", "expiry_ms is not a decimal integer below 2**64: '-100'"),
        (f"5:{2**64}", f"expiry_ms is not a decimal integer below 2**64: '{2**64}'"),
    ], ids=["negative", "plus", "underscore", "arabic-indic", "tunnel-2**32", "tunnel-20-digits",
            "empty-expiry", "negative-expiry", "expiry-2**64"])
    def test_bad_lease_fields_become_warnings(self, tmp_path, lease, message):
        dest, gw = _hashes(2, seed=3)
        path = tmp_path / "ls.txt"
        path.write_text(f"{hash_to_b64(dest)} - {hash_to_b64(gw)}:{lease}\n"
                        f"{hash_to_b64(dest)} - {hash_to_b64(gw)}:{2**32 - 1}:0{2**64 - 1}\n")
        leasesets, warnings = load_leasesets(path)
        assert warnings == [f"line 1: {message}"]
        assert leasesets == [LeaseSet(dest, (Lease(gw, 2**32 - 1, 2**64 - 1),))]

    @pytest.mark.parametrize("leases, chunk", [
        ("{gw}:5", "{gw}:5"),
        ("{gw}:1:2:3", "{gw}:1:2:3"),
        ("{gw}:1:2,", ""),
    ], ids=["two-fields", "four-fields", "trailing-comma"])
    def test_lease_of_another_shape_becomes_warning(self, tmp_path, leases, chunk):
        dest, gw = _hashes(2, seed=3)
        gw_text = hash_to_b64(gw)
        path = tmp_path / "ls.txt"
        path.write_text(f"{hash_to_b64(dest)} - {leases.format(gw=gw_text)}\n"
                        f"{hash_to_b64(dest)} - {gw_text}:1:2\n")
        leasesets, warnings = load_leasesets(path)
        assert warnings == [
            f"line 1: lease is not gateway:tunnel_id:expiry_ms: {chunk.format(gw=gw_text)!r}"]
        assert leasesets == [LeaseSet(dest, (Lease(gw, 1, 2),))]

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
                destination_hash=rng.randbytes(32),
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

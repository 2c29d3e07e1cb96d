import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadescope
from shadescope import cli
from shadescope.classify import ShadeReport
from shadescope.cli import build_parser, main
from shadescope.encoding import hash_to_b32, hash_to_b64, parse_hash_text
from shadescope.model import RouterInfo
from shadescope.netdb import load_netdb_dir
from shadescope.protocol import ProbePlan, write_probe_log
from shadescope.sim import MAX_K, MAX_ROUTERS, HitCurve, export_curves, synth_record
from shadescope.wire import encode_router_info

from fixtures import write_fixture_corpus

DEST_391 = b"A" * 384 + b"\x05" + b"\x00\x04" + b"A" * 4
DEST_387 = b"A" * 384 + b"\x00\x00\x00"
NON_UTF8 = b'{"n_routers": 50, "seed": "\xff\xfe"}\n'


def assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _child_env() -> dict:
    """The environment for a child that imports this checkout's package."""
    src = str(Path(shadescope.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _main_in_child(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` in a child process, under a 20 s timeout and a 1 GiB
    address-space limit set after its imports: its exit code and stderr.
    An input that blocks or allocates without end fails the caller's test
    instead of stalling it or filling the host."""
    script = ("import resource, sys; from shadescope.cli import main; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=20)
    return done.returncode, done.stderr


class TestScan:
    def test_fixture_corpus_percentage(self, corpus_dir, capsys):
        assert main(["scan", "--netdb", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "48 (48.0%)" in out
        assert "Beacon" in out

    def test_json_matches_table_facts(self, corpus_dir, capsys):
        main(["scan", "--netdb", str(corpus_dir), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["floodfill_count"] == 48
        assert payload["floodfill_pct"] == 48.0
        assert payload["records"] == 100
        assert payload["shade_histogram"]["1"] == 48
        assert sum(payload["shade_histogram"].values()) == 100

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["scan", "--netdb", str(tmp_path)]) == 0
        assert "records: 0" in capsys.readouterr().out

    def test_missing_dir_is_input_error(self, tmp_path, capsys):
        assert main(["scan", "--netdb", str(tmp_path / "none")]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_counted(self, tmp_path, capsys):
        write_fixture_corpus(tmp_path, n=5, floodfill_count=2, seed=4)
        (tmp_path / ("routerInfo-" + "y" * 44 + ".dat")).write_bytes(b"junk")
        main(["scan", "--netdb", str(tmp_path)])
        assert "parse failures: 1" in capsys.readouterr().out

    def test_duplicate_record_warns(self, tmp_path, capsys):
        (record,) = write_fixture_corpus(tmp_path, n=1, floodfill_count=1, seed=4)
        (original,) = tmp_path.glob("routerInfo-*.dat")
        (tmp_path / "routerInfo-copy.dat").write_bytes(original.read_bytes())
        assert main(["scan", "--netdb", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "records: 1   parse failures: 0   total: 1" in captured.out
        assert captured.err.startswith("warning: duplicate record replaced: routerInfo-")
        assert captured.err.count("\n") == 1
        main(["lookup", record.hash.hex(), "--netdb", str(tmp_path)])
        assert capsys.readouterr().err == captured.err

    def test_env_var_default(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("SHADESCOPE_NETDB", str(corpus_dir))
        assert main(["scan"]) == 0
        assert "48 (48.0%)" in capsys.readouterr().out

    def test_no_dir_given(self, capsys, monkeypatch):
        monkeypatch.delenv("SHADESCOPE_NETDB", raising=False)
        assert main(["scan"]) == 2

    def test_csv_format(self, corpus_dir, capsys):
        main(["scan", "--netdb", str(corpus_dir), "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "shade,name,count"
        assert lines[1].startswith("1,Beacon,48")


class TestLookup:
    def test_absent_hash_is_exclusive(self, sim_spec_file, sim_model, capsys):
        target = sorted(sim_model.exclusive)[0]
        code = main([
            "lookup", hash_to_b64(target),
            "--simulate", str(sim_spec_file),
            "--batch", "5", "--max-probes", "100",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Shade 8: Exclusive" in out
        assert "no hit (100 probes" in out

    def test_absent_hash_json_zero_hits(self, sim_spec_file, sim_model, capsys):
        target = sorted(sim_model.exclusive)[0]
        main([
            "lookup", hash_to_b64(target),
            "--simulate", str(sim_spec_file),
            "--max-probes", "50", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["shade"]["level"] == 8
        assert payload["probes_used"] == 50
        assert all(e["hit"] is False for e in payload["evidence"])

    def test_floodfill_record_in_snapshot(self, corpus_dir, capsys):
        snapshot = load_netdb_dir(corpus_dir)
        target = snapshot.floodfill_hashes[0]
        code = main(["lookup", hash_to_b64(target), "--netdb", str(corpus_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Shade 1: Beacon" in out
        assert "local netdb" in out

    def test_present_hash_never_probes(self, corpus_dir, capsys):
        snapshot = load_netdb_dir(corpus_dir)
        target = snapshot.floodfill_hashes[0]
        main(["lookup", hash_to_b64(target), "--netdb", str(corpus_dir),
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["probes_used"] == 0

    def test_relay_record(self, corpus_dir, capsys):
        snapshot = load_netdb_dir(corpus_dir)
        relay = next(
            h for h, r in snapshot.records.items()
            if not r.is_floodfill
            and r.profile().alpha
            and r.caps.rstrip("R").endswith(("N", "O", "P", "X"))
        )
        main(["lookup", hash_to_b64(relay), "--netdb", str(corpus_dir)])
        assert "Shade 2: Relay" in capsys.readouterr().out

    def test_all_probes_failing_is_exit_3(self, sim_spec_file, sim_model, capsys):
        target = sorted(sim_model.exclusive)[0]
        code = main([
            "lookup", hash_to_b64(target),
            "--simulate", str(sim_spec_file),
            "--max-probes", "20", "--fail-rate", "1.0",
        ])
        assert code == 3
        assert "inconclusive" in capsys.readouterr().out

    def test_probe_log_written(self, sim_spec_file, sim_model, tmp_path, capsys):
        target = sorted(sim_model.exclusive)[0]
        log = tmp_path / "probes.csv"
        main([
            "lookup", hash_to_b64(target),
            "--simulate", str(sim_spec_file),
            "--max-probes", "10", "--out", str(log),
        ])
        lines = log.read_text().splitlines()
        assert lines[0] == "probe_index,floodfill_b64,result"
        assert len(lines) == 11

    def test_requires_a_source(self, capsys, monkeypatch):
        monkeypatch.delenv("SHADESCOPE_NETDB", raising=False)
        assert main(["lookup", hash_to_b64(bytes(32))]) == 2

    def test_bad_hash_is_input_error(self, corpus_dir, capsys):
        assert main(["lookup", "zzz", "--netdb", str(corpus_dir)]) == 2
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("text", ["00" * 32 + ".b32.i2p", "A" * 43 + ".B32.I2P"],
                             ids=["hex", "base64"])
    def test_b32_suffix_on_another_form_is_input_error(self, corpus_dir, capsys, text):
        assert main(["lookup", text, "--netdb", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "unrecognized hash form" in err

    def test_second_spelling_of_a_hash_is_input_error(self, corpus_dir, capsys):
        # "a" * 52 is the hash of 32 zero bytes; the set low bit is unused.
        text = "a" * 51 + "b"
        assert main(["lookup", text, "--netdb", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert repr(text) in err

    def test_bad_xor_assoc_target_is_input_error(self, assoc_fixture, capsys):
        netdb, ls_file, _, _, date = assoc_fixture
        code = main([
            "xor-assoc", "zzz",
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        assert code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_snapshot_only_absent_hash_gets_no_certificate(self, corpus_dir, capsys):
        # Without --simulate there is nothing to probe: level 8, but uncertified.
        assert main(["lookup", hash_to_b64(bytes(32)), "--netdb", str(corpus_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "verdict: Shade 8: Exclusive (layer 2), from the local and console views only: "
            "no floodfill was probed",
            "certificate: not issued (no floodfill probed)",
        ]

    @pytest.mark.parametrize("flags, verdict, certificate, status", [
        (["--max-probes", "0"],
         "verdict: Shade 8: Exclusive (layer 2), from the local and console views only: "
         "no floodfill was probed",
         "certificate: not issued (no floodfill probed)", "no_probes"),
        (["--max-probes", "20"],
         "verdict: Shade 8: Exclusive (layer 2)",
         "certificate: zero-hit conjunction holds over 20 probed floodfills", "issued"),
        (["--max-probes", "20", "--fail-rate", "0.5"],
         "verdict: Shade 8: Exclusive (layer 2)",
         "certificate: not issued (incomplete probe evidence)", "failed_probes"),
    ], ids=["no-probes", "probed", "probes-failed"])
    def test_level8_verdict_says_whether_floodfills_were_probed(
        self, sim_spec_file, sim_model, capsys, flags, verdict, certificate, status
    ):
        target = sorted(sim_model.exclusive)[0]
        argv = ["lookup", hash_to_b64(target), "--simulate", str(sim_spec_file), *flags]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [verdict, certificate]
        main([*argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "alpha", "batch", "caps", "certificate", "diagnostics", "evidence",
            "fail_rate", "failed_probes", "inconclusive", "iota", "probes_used", "seed",
            "shade", "subject",
        ]
        assert payload["shade"] == {"level": 8, "name": "Exclusive", "layer": 2}
        assert payload["certificate"] == status

    @pytest.mark.parametrize("flags", [["--batch", "0"], ["--max-probes", "-1"]])
    def test_bad_probe_plan_is_input_error(self, corpus_dir, flags, capsys):
        code = main(["lookup", hash_to_b64(bytes(32)), "--netdb", str(corpus_dir), *flags])
        assert code == 2
        assert_one_line_error(capsys.readouterr().err)


class TestXorAssoc:
    def test_single_match(self, assoc_fixture, capsys):
        netdb, ls_file, target, expected_b32, date = assoc_fixture
        code = main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "responsible for 1 service address(es)" in out
        assert expected_b32 in out

    def test_json_fields(self, assoc_fixture, capsys):
        netdb, ls_file, target, expected_b32, date = assoc_fixture
        main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date, "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["matched"] == [expected_b32]
        assert payload["candidates"] == 172
        assert payload["floodfills"] == 25

    def test_csv_bytes(self, assoc_fixture, capsys):
        netdb, ls_file, target, expected_b32, date = assoc_fixture
        code = main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date, "--format", "csv",
        ])
        # One row per leaseset line, in file order, each column given
        # without its suffix in the fixture.
        addresses = [line.split()[1] + ".b32.i2p" for line in ls_file.read_text().splitlines()]
        expected = "b32,matched\n" + "".join(
            f"{address},{address == expected_b32}\n" for address in addresses)
        assert code == 0
        assert capsys.readouterr().out == expected
        assert expected.count(",True\n") == 1

    def test_non_floodfill_target_warns(self, assoc_fixture, capsys):
        netdb, ls_file, _, _, date = assoc_fixture
        outsider = bytes(32)
        code = main([
            "xor-assoc", hash_to_b64(outsider),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: target is not a known floodfill in this snapshot\n"

    def test_floodfill_target_prints_no_warning(self, assoc_fixture, capsys):
        netdb, ls_file, target, _, date = assoc_fixture
        code = main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_distances_table(self, assoc_fixture, capsys):
        netdb, ls_file, target, _, date = assoc_fixture
        main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date, "--distances",
        ])
        assert "distance table" in capsys.readouterr().out

    def test_missing_leaseset_file(self, assoc_fixture, capsys):
        netdb, _, target, _, date = assoc_fixture
        code = main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", "/nonexistent/file.txt",
            "--netdb", str(netdb),
            "--date", date,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: '/nonexistent/file.txt'\n")

    def test_non_utf8_leaseset_file_is_input_error(self, assoc_fixture, tmp_path, capsys):
        netdb, _, target, _, date = assoc_fixture
        ls_file = tmp_path / "leasesets.txt"
        ls_file.write_bytes(NON_UTF8)
        code = main([
            "xor-assoc", hash_to_b64(target),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert str(ls_file) in err

    @pytest.mark.parametrize("date", ["\uff12\uff10\uff12\uff15\uff10\uff11\uff10\uff11",
                                      "\u0662\u0660\u0662\u0665\u0660\u0661\u0660\u0661"],
                             ids=["fullwidth", "arabic-indic"])
    def test_non_ascii_digit_date_is_not_yyyymmdd(self, assoc_fixture, capsys, date):
        netdb, ls_file, target, _, _ = assoc_fixture
        code = main([
            "xor-assoc", target.hex(),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", date,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "date must be yyyyMMdd" in err

    def test_impossible_date_is_input_error(self, assoc_fixture, capsys):
        netdb, ls_file, target, _, _ = assoc_fixture
        code = main([
            "xor-assoc", target.hex(),
            "--leasesets", str(ls_file),
            "--netdb", str(netdb),
            "--date", "20251399",
        ])
        assert code == 2
        assert_one_line_error(capsys.readouterr().err)


class TestB32:
    def test_key_certificate_destination(self, tmp_path, capsys):
        path = tmp_path / "dest.dat"
        path.write_bytes(DEST_391)
        assert main(["b32", str(path)]) == 0
        out = capsys.readouterr().out
        assert "391 bytes" in out
        assert ".b32.i2p" in out

    def test_null_certificate_destination(self, tmp_path, capsys):
        path = tmp_path / "dest.dat"
        path.write_bytes(DEST_387)
        main(["b32", str(path)])
        assert "387 bytes" in capsys.readouterr().out

    def test_base64_input(self, tmp_path, capsys):
        import base64

        path = tmp_path / "dest.txt"
        path.write_text(base64.b64encode(DEST_391, b"-~").decode() + "\n")
        main(["b32", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 391
        assert payload["cert_type"] == 5
        assert payload["b32"].endswith(".b32.i2p")

    @pytest.mark.parametrize("form", ["raw", "base64", "wrapped"])
    def test_key_file_reads_as_its_destination(self, tmp_path, capsys, form):
        # A key file is the destination followed by its private keys, which
        # neither the size nor the address may count. Wrapped base64 has a
        # newline every 76 columns, as coreutils base64 writes it.
        import base64

        keys = DEST_387 + bytes(range(256)) + bytes(range(128))
        path = tmp_path / "keys.dat"
        if form == "raw":
            path.write_bytes(keys)
        elif form == "base64":
            path.write_text(base64.b64encode(keys, b"-~").decode() + "\n")
        else:
            path.write_bytes(base64.encodebytes(keys))
        bare = tmp_path / "dest.dat"
        bare.write_bytes(DEST_387)
        assert main(["b32", str(bare)]) == 0
        expected = capsys.readouterr().out.splitlines()
        assert main(["b32", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == expected[1:]
        assert out[1].startswith("size: 387 bytes")

    def test_stable_across_runs(self, tmp_path, capsys):
        path = tmp_path / "dest.dat"
        path.write_bytes(DEST_391)
        main(["b32", str(path)])
        first = capsys.readouterr().out
        main(["b32", str(path)])
        assert capsys.readouterr().out == first

    def test_malformed_destination(self, tmp_path, capsys):
        path = tmp_path / "dest.dat"
        path.write_bytes(b"too short")
        assert main(["b32", str(path)]) == 2

    @pytest.mark.parametrize("altchars", [b"+/", b"-~"])
    def test_short_base64_destination_reports_its_decoded_size(self, tmp_path, capsys, altchars):
        # Both readings fail; the error describes the 300 decoded bytes,
        # not the base64 text read as raw bytes.
        import base64

        path = tmp_path / "dest.txt"
        path.write_text(base64.b64encode(DEST_391[:300], altchars).decode() + "\n")
        assert main(["b32", str(path)]) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "destination too short: 300 bytes, need 387" in err


class TestSimulate:
    def test_census_shape_flat_zero(self, tmp_path, capsys):
        dist = {
            "2": 500 / 3242, "3": 500 / 3242, "4": 300 / 3242,
            "5": 200 / 3242, "6": 100 / 3242, "7": 85 / 3242, "8": 1 / 3242,
        }
        spec = {
            "n_routers": 3242, "floodfill_fraction": 1556 / 3242,
            "shade_distribution": dist, "k": 4, "seed": 0, "date": "20250101",
        }
        spec_path = tmp_path / "census.json"
        spec_path.write_text(json.dumps(spec))
        out_csv = tmp_path / "curves.csv"
        code = main([
            "simulate", str(spec_path),
            "--targets", "shade8", "--max-probes", "500",
            "--out", str(out_csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1556 floodfills" in out
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 101
        assert all(line.endswith(",0") for line in lines[1:])

    def test_metrics_printed(self, tmp_path, capsys):
        spec = {
            "n_routers": 1000, "floodfill_fraction": 0.4,
            "shade_distribution": {"2": 0.5, "8": 0.1}, "k": 2, "seed": 1,
        }
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps(spec))
        main(["simulate", str(spec_path), "--out", str(tmp_path / "c.csv")])
        out = capsys.readouterr().out
        assert "rho = 0.900" in out
        assert "xi = 0.100" in out

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spec = {
            "n_routers": 300, "floodfill_fraction": 0.3,
            "shade_distribution": {"2": 0.6, "8": 0.1}, "k": 2, "seed": 9,
        }
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(spec_path), "--seed", "3", "--out", str(a)])
        main(["simulate", str(spec_path), "--seed", "3", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_matches_table_facts(self, tmp_path, capsys):
        spec = {
            "n_routers": 1000, "floodfill_fraction": 0.4,
            "shade_distribution": {"2": 0.5, "8": 0.1}, "k": 2, "seed": 1,
        }
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps(spec))
        main(["simulate", str(spec_path), "--out", str(tmp_path / "c.csv"),
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho"] == 0.9
        assert payload["xi"] == 0.1
        assert payload["exclusive"] == 100
        assert payload["floodfills"] == 400

    def test_infeasible_spec_is_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "n_routers": 100, "floodfill_fraction": 0.5,
            "shade_distribution": {"1": 0.0, "2": 1.0},
        }))
        assert main(["simulate", str(spec_path)]) == 2

    def test_bad_selector(self, tmp_path, capsys):
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps({
            "n_routers": 50, "floodfill_fraction": 0.5,
            "shade_distribution": {"2": 0.5},
        }))
        assert main(["simulate", str(spec_path), "--targets", "shade99"]) == 2


class TestGenConfig:
    def test_exclusive_contents(self, capsys):
        assert main(["genconfig", "exclusive"]) == 0
        out = capsys.readouterr().out
        assert "router.floodfillParticipant=false" in out
        assert "router.maxParticipatingTunnels=0" in out
        assert "router.dynamicKeys=true" in out

    def test_exclusive_has_exactly_ten_parameters(self, capsys):
        main(["genconfig", "exclusive"])
        out = capsys.readouterr().out
        from shadescope.profiles import profile_parameters

        assert len(profile_parameters(out)) == 10

    def test_ghost_extends_exclusive(self, capsys):
        from shadescope.profiles import profile_parameters

        main(["genconfig", "exclusive"])
        base = profile_parameters(capsys.readouterr().out)
        main(["genconfig", "ghost"])
        ghost_out = capsys.readouterr().out
        ghost = profile_parameters(ghost_out)
        assert ghost[: len(base)] == base
        assert len(ghost) >= len(base) + 8
        assert "NON-NORMATIVE" in ghost_out

    def test_out_file_and_json(self, tmp_path, capsys):
        target = tmp_path / "router.config"
        main(["genconfig", "exclusive", "--out", str(target), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert target.read_text() == payload["text"]
        assert len(payload["parameters"]) == 10
        assert payload["text"].endswith("\n")
        assert "\r" not in payload["text"]


SMALL_SPEC = {"n_routers": 50, "floodfill_fraction": 0.5,
              "shade_distribution": {"2": 0.4, "8": 0.1}}


@pytest.mark.parametrize("command", [["simulate"], ["lookup", "00" * 32, "--simulate"]],
                         ids=["simulate", "lookup"])
@pytest.mark.parametrize("spec, flags", [
    pytest.param({**SMALL_SPEC, "n_routers": "x"}, [], id="n_routers-text"),
    pytest.param({**SMALL_SPEC, "k": "4"}, [], id="k-text"),
    pytest.param({**SMALL_SPEC, "k": 0}, [], id="k-zero"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"2": 0.1, "8": 0.1}}, [], id="sum-0.7"),
    pytest.param({**SMALL_SPEC, "date": 20250101}, [], id="date-number"),
    pytest.param({**SMALL_SPEC, "date": "20251340"}, [], id="date-impossible"),
    pytest.param({**SMALL_SPEC, "date": "2025-01-01"}, [], id="date-dashed"),
    pytest.param({**SMALL_SPEC, "seed": True}, [], id="seed-bool"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"x": 0.5}}, [], id="level-text"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"2": "0.5"}}, [], id="fraction-text"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"2": float("nan"), "8": 0.1}}, [],
                 id="fraction-nan"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"2": 10**400, "8": 0.1}}, [],
                 id="fraction-huge-int"),
    pytest.param({**SMALL_SPEC, "n_routers": 100, "floodfill_fraction": 0.48,
                  "shade_distribution": {"01": 0.3, "1": 0.48, "2": 0.42, "8": 0.1}}, [],
                 id="level-leading-zero"),
    pytest.param({**SMALL_SPEC, "shade_distribution": {"\uff11": 0.5, "2": 0.4, "8": 0.1}}, [],
                 id="level-full-width"),
    pytest.param(b'{"n_routers": 50, "floodfill_fraction": 0.5, "seed": 1, "seed": 2,'
                 b' "shade_distribution": {"2": 0.4, "8": 0.1}}', [], id="duplicate-key"),
    pytest.param(b'{"n_routers": 50, "floodfill_fraction": 0.5,'
                 b' "shade_distribution": {"2": 0.1, "8": 0.1, "2": 0.4}}', [],
                 id="duplicate-level"),
    pytest.param({"n_routers": 50}, [], id="missing-keys"),
    pytest.param([SMALL_SPEC], [], id="not-an-object"),
    pytest.param(NON_UTF8, [], id="non-utf8"),
    pytest.param(b"[" * 200_000, [], id="deep-nesting"),
    pytest.param(b'{"n_routers": ' + b"1" * 5000 + b"}", [], id="huge-integer"),
    pytest.param(SMALL_SPEC, ["--fail-rate", "2"], id="fail-rate-2"),
    pytest.param(SMALL_SPEC, ["--fail-rate", "-1"], id="fail-rate-negative"),
    pytest.param(SMALL_SPEC, ["--fail-rate", "nan"], id="fail-rate-nan"),
])
def test_bad_spec_or_fail_rate_is_input_error(tmp_path, capsys, command, spec, flags):
    # Checked before --out is opened, so an existing --out keeps its bytes.
    spec_path, out = tmp_path / "net.json", tmp_path / "out.csv"
    spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    out.write_bytes(b"kept,1\r\n")
    assert main([*command, str(spec_path), *flags, "--out", str(out)]) == 2
    assert_one_line_error(capsys.readouterr().err)
    assert out.read_bytes() == b"kept,1\r\n"


def _named_input_argv(command: str, path: str, corpus_dir, workdir) -> list[str]:
    """The argv of ``command`` with ``path`` as its named input file."""
    return {
        "simulate": ["simulate", path, "--out", str(workdir / "curves.csv")],
        "xor-assoc": ["xor-assoc", "00" * 32, "--leasesets", path,
                      "--netdb", str(corpus_dir), "--date", "20250101"],
        "b32": ["b32", path],
        "lookup": ["lookup", "00" * 32, "--simulate", path],
    }[command]


NAMED_INPUT_COMMANDS = ["simulate", "xor-assoc", "b32", "lookup"]


@pytest.mark.parametrize("command", NAMED_INPUT_COMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode)))
def test_arbitrary_input_file_exits_0_or_2(tmp_path_factory, corpus_dir, command, data):
    workdir = tmp_path_factory.getbasetemp() / "arbitrary-input"
    workdir.mkdir(exist_ok=True)
    path = workdir / "input"
    path.write_bytes(data)
    argv = _named_input_argv(command, str(path), corpus_dir, workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert_one_line_error(err.getvalue())


@pytest.mark.parametrize("kind", [
    pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                  reason="no named pipes")),
    pytest.param("dev-zero", marks=pytest.mark.skipif(not os.path.exists("/dev/zero"),
                                                      reason="no /dev/zero")),
    "directory",
])
@pytest.mark.parametrize("command", NAMED_INPUT_COMMANDS)
def test_named_input_must_be_a_regular_file(tmp_path, corpus_dir, command, kind):
    # A FIFO without a writer blocks whoever opens it for reading, and
    # /dev/zero never ends; neither may be read, and neither is.
    path = tmp_path / "input"
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "dev-zero":
        path.symlink_to("/dev/zero")
    else:
        path.mkdir()
    code, err = _main_in_child(_named_input_argv(command, str(path), corpus_dir, tmp_path))
    assert (code, err) == (2, f"error: not a regular file: {str(path)!r}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_output_fifo_without_reader_fails_at_once(tmp_path):
    # Opening a FIFO for writing waits for a reader; an output file is never
    # waited on, and /dev/null still takes its write.
    fifo = tmp_path / "F"
    os.mkfifo(fifo)
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    for command in (["genconfig", "exclusive"], ["simulate", str(spec_path)],
                    ["lookup", "00" * 32, "--simulate", str(spec_path)]):
        code, err = _main_in_child([*command, "--out", str(fifo)])
        assert code == 2, err
        assert_one_line_error(err)
        assert repr(str(fifo)) in err
    assert main(["simulate", str(spec_path), "--out", os.devnull]) == 0
    script = ("import sys\n"
              "from shadescope.classify import ShadeReport\n"
              "from shadescope.protocol import ProbePlan, write_probe_log\n"
              "from shadescope.sim import HitCurve, export_curves\n"
              "for write in (lambda: export_curves([HitCurve(bytes(32), ((5, 0),))], sys.argv[1]),\n"
              "              lambda: write_probe_log(ShadeReport(bytes(32)), ProbePlan(()), sys.argv[1])):\n"
              "    try:\n"
              "        write()\n"
              "    except OSError as exc:\n"
              "        print(type(exc).__name__, exc.filename)\n")
    done = subprocess.run([sys.executable, "-c", script, str(fifo)], env=_child_env(),
                          capture_output=True, text=True, timeout=20)
    assert done.stdout.splitlines() == [f"OSError {fifo}"] * 2, done.stderr


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="no /dev/full or /proc/self/fd")
def test_full_disk_is_an_error(tmp_path, capsys):
    # Buffered writes to /dev/full fail with ENOSPC at a flush, at the
    # latest when the file is closed; the error still reaches the caller,
    # and the descriptor is closed.
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    assert main(["simulate", str(spec_path), "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert err.startswith("error: [Errno 28] ")
    open_fds = len(os.listdir("/proc/self/fd"))
    for write in (lambda: export_curves([HitCurve(bytes(32), ((5, 0),))], "/dev/full"),
                  lambda: write_probe_log(ShadeReport(bytes(32)), ProbePlan(()), "/dev/full")):
        with pytest.raises(OSError):
            write()
        assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("key, limit", [("n_routers", MAX_ROUTERS), ("k", MAX_K)])
def test_oversized_spec_exits_2_before_allocating(tmp_path, key, limit):
    # A billion routers would take terabytes to generate; the child's
    # address-space limit turns any attempt into a failure of this test.
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps({**SMALL_SPEC, key: 10**9}))
    for command in (["simulate", str(spec_path), "--out", str(tmp_path / "curves.csv")],
                    ["lookup", "00" * 32, "--simulate", str(spec_path)]):
        code, err = _main_in_child(command)
        assert code == 2, err
        assert_one_line_error(err)
        assert f"must lie in [1, {limit}]" in err


@pytest.mark.parametrize("argv", [["lookup", "00" * 32], ["simulate", "net.json"],
                                  ["b32", "dest.dat"], ["genconfig", "exclusive"]],
                         ids=lambda argv: argv[0])
def test_csv_only_on_commands_with_rows(argv, capsys):
    assert main([*argv, "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert "invalid choice: 'csv'" in err


PROBE_OPTIONS = ("--batch", "--max-probes", "--seed", "--fail-rate")


def test_lookup_and_simulate_share_probe_options():
    sub = build_parser()._subparsers._group_actions[0].choices
    def probe_actions(command):
        actions = {a.option_strings[0]: a for a in sub[command]._actions if a.option_strings}
        return [actions[flag] for flag in PROBE_OPTIONS]
    for lookup, simulate in zip(probe_actions("lookup"), probe_actions("simulate")):
        assert (lookup.dest, lookup.type, lookup.default) == \
            (simulate.dest, simulate.type, simulate.default)
        assert simulate.help and simulate.help == lookup.help
    assert [a.default for a in probe_actions("simulate")] == [5, None, None, 0.0]


def test_commands_that_never_rank_leave_numpy_unloaded(corpus_dir, tmp_path):
    # numpy serves only XOR-nearest ranking; these commands never rank. The
    # child then ranks once, to show that this is what imports it.
    dest = tmp_path / "dest.dat"
    dest.write_bytes(DEST_387)
    present = hash_to_b64(next(iter(load_netdb_dir(corpus_dir).records)))
    commands = [["genconfig", "exclusive"], ["b32", str(dest)],
                ["scan", "--netdb", str(corpus_dir)],
                ["lookup", present, "--netdb", str(corpus_dir)],
                ["lookup", hash_to_b64(bytes(32)), "--netdb", str(corpus_dir)]]
    script = ("import json, sys; from shadescope.cli import main; "
              "codes = [main(json.loads(argv)) for argv in sys.argv[1:]]; "
              "unranked = 'numpy' in sys.modules; "
              "from shadescope.dht import FloodfillTable; "
              "FloodfillTable([bytes(32)]).nearest([bytes(32)], 1); "
              "print(json.dumps([codes, unranked, 'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", script, *map(json.dumps, commands)],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0] * len(commands), False, True]


# -- one facts record per command ---------------------------------------

TABLES = {
    "scan": cli._scan_table,
    "lookup": cli._lookup_table,
    "xor-assoc": cli._xor_assoc_table,
    "b32": cli._b32_table,
    "simulate": cli._simulate_table,
    "genconfig": cli._genconfig_table,
}


def table_of_json(argv: list[str], capsys, code: int = 0) -> str:
    """The table output of ``argv``, checked to equal its command's renderer
    applied to ``json.loads`` of its JSON output, byte for byte."""
    assert main([*argv, "--format", "table"]) == code
    table = capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == code
    facts = json.loads(capsys.readouterr().out)
    assert table == "".join(f"{line}\n" for line in TABLES[argv[0]](facts))
    return table


def write_netdb(directory: Path, records) -> Path:
    directory.mkdir()
    for record in records:
        path = directory / f"routerInfo-{hash_to_b64(record.hash)}.dat"
        path.write_bytes(encode_router_info(record))
    return directory


@pytest.fixture
def noted_netdb(tmp_path):
    """A snapshot of one record whose hidden flag contradicts its address."""
    base = synth_record(random.Random(4), 2)
    record = RouterInfo(base.identity, base.published_ms, base.addresses,
                        {**base.options, "caps": "HOR"}, base.signature)
    return write_netdb(tmp_path / "noted", [record]), record.hash


@pytest.mark.parametrize("case, shown", [
    ("snapshot-note", "note: hidden flag set but a direct address is published"),
    ("probe-hit", "  floodfill probes: HIT ("),
    ("certified", "certificate: zero-hit conjunction holds over 20 probed floodfills"),
    ("no-probes", "certificate: not issued (no floodfill probed)"),
    ("failed-probes", "certificate: not issued (incomplete probe evidence)"),
    ("inconclusive", "verdict: inconclusive"),
])
def test_lookup_table_is_its_json_rendered(sim_spec_file, sim_model, noted_netdb, capsys,
                                           case, shown):
    exclusive = sorted(sim_model.exclusive)[0].hex()
    simulated = ["--simulate", str(sim_spec_file)]
    argv = {
        "snapshot-note": [noted_netdb[1].hex(), "--netdb", str(noted_netdb[0])],
        "probe-hit": [sim_model.published[0].hex(), *simulated],
        "certified": [exclusive, *simulated, "--max-probes", "20"],
        "no-probes": [exclusive, *simulated, "--max-probes", "0"],
        "failed-probes": [exclusive, *simulated, "--max-probes", "20", "--fail-rate", "0.5"],
        "inconclusive": [exclusive, *simulated, "--max-probes", "20", "--fail-rate", "1"],
    }[case]
    table = table_of_json(["lookup", *argv], capsys, 3 if case == "inconclusive" else 0)
    assert shown in table


@pytest.mark.parametrize("case, shown", [
    ("hit", "hits 1"), ("miss", "Shade 8: Exclusive"), ("inconclusive", "  inconclusive  "),
])
def test_simulate_table_is_its_json_rendered(sim_spec_file, sim_model, tmp_path, capsys,
                                             case, shown):
    flags = {
        "hit": ["--targets", sim_model.published[0].hex()],
        "miss": ["--targets", "shade8", "--max-probes", "30"],
        "inconclusive": ["--targets", "shade8", "--max-probes", "30", "--fail-rate", "1"],
    }[case]
    argv = ["simulate", str(sim_spec_file), *flags, "--out", str(tmp_path / "c.csv")]
    assert shown in table_of_json(argv, capsys)


@pytest.mark.parametrize("case", ["matched", "distances", "null-other"])
def test_xor_assoc_table_is_its_json_rendered(assoc_fixture, tmp_path, capsys, case):
    netdb, ls_file, target, expected_b32, date = assoc_fixture
    if case == "null-other":  # the target is the only floodfill: no other is nearest
        only = synth_record(random.Random(5), 1)
        netdb, target = write_netdb(tmp_path / "one-floodfill", [only]), only.hash
    argv = ["xor-assoc", target.hex(), "--leasesets", str(ls_file),
            "--netdb", str(netdb), "--date", date]
    table = table_of_json([*argv, *(["--distances"] if case != "matched" else [])], capsys)
    assert ("distance table" in table) == (case != "matched")
    assert ("best-other None" in table) == (case == "null-other")


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_genconfig_table_is_its_json_rendered(tmp_path, capsys, out):
    argv = ["genconfig", "ghost", *(["--out", str(tmp_path / "router.config")] if out else [])]
    table = table_of_json(argv, capsys)
    assert (table == "") == out


def test_scan_and_b32_tables_are_their_json_rendered(corpus_dir, tmp_path, capsys):
    assert "48 (48.0%)" in table_of_json(["scan", "--netdb", str(corpus_dir)], capsys)
    dest = tmp_path / "dest.dat"
    dest.write_bytes(DEST_391)
    assert "391 bytes" in table_of_json(["b32", str(dest)], capsys)


@pytest.mark.parametrize("kind", ["published", "exclusive"])
def test_lookup_and_simulate_draw_failures_by_one_rule(sim_spec_file, sim_model, tmp_path,
                                                       capsys, kind):
    # Both commands seed probe-failure draws from --seed, so one target
    # replayed by either gets one verdict from one failure pattern.
    flags = ["--seed", "5", "--fail-rate", "0.2", "--max-probes", "40", "--format", "json"]
    spec, out = str(sim_spec_file), str(tmp_path / "c.csv")
    main(["simulate", spec, "--targets", "all", *flags, "--out", out])
    swept = json.loads(capsys.readouterr().out)
    level = 8 if kind == "exclusive" else 2
    target = next(t for t, r in zip(swept["targets"], swept["results"])
                  if r["shade"]["level"] == level and r["hits"] == (kind == "published"))
    target = parse_hash_text(target).hex()
    keys = ("shade", "probes_used", "failed_probes")

    assert main(["lookup", target, "--simulate", spec, *flags]) == 0
    looked = json.loads(capsys.readouterr().out)
    assert main(["simulate", spec, "--targets", target, *flags, "--out", out]) == 0
    simulated = json.loads(capsys.readouterr().out)["results"][0]
    assert {k: looked[k] for k in keys} == {k: simulated[k] for k in keys}
    assert looked["failed_probes"] > 0


EARLY_CASES = [
    (command, flags)
    for command in ("simulate", "lookup")
    for flags in (["--batch", "0"], ["--max-probes", "-1"], ["--fail-rate", "2"],
                  ["--targets", "shade9"], ["--targets", "zz"], ["--out", "missing/x.csv"],
                  # Level 8 is spelled shade8 alone.
                  *(["--targets", text] for text in
                    ("shade+8", "shade 8", "shade08", "shade\u0668", "shade8 ")))
    if command == "simulate" or flags[0] != "--targets"
]


@pytest.mark.parametrize("command, flags", EARLY_CASES,
                         ids=[f"{c}{''.join(f)}" for c, f in EARLY_CASES])
def test_bad_input_exits_2_before_generation(tmp_path, capsys, monkeypatch, command, flags):
    def refuse(spec):
        raise AssertionError("the network was generated")

    monkeypatch.setattr(cli, "generate_network", refuse)
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    argv = (["simulate", str(spec_path)] if command == "simulate"
            else ["lookup", "00" * 32, "--simulate", str(spec_path)])
    if flags[0] == "--out":
        flags = ["--out", str(tmp_path / flags[1])]
    assert main([*argv, *flags]) == 2
    assert_one_line_error(capsys.readouterr().err)


def test_failed_run_removes_only_the_out_file_it_created(tmp_path, corpus_dir, capsys):
    # SMALL_SPEC has no Shade 4 router, and the lookup's --netdb is missing:
    # both fail after --out was opened.
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    commands = (["simulate", str(spec_path), "--targets", "shade4"],
                ["lookup", "00" * 32, "--simulate", str(spec_path),
                 "--netdb", str(tmp_path / "absent")])
    for command in commands:
        new, old = tmp_path / "new.out", tmp_path / "old.out"
        old.write_text("kept\n")
        for out in (new, old):
            assert main([*command, "--out", str(out)]) == 2
            assert_one_line_error(capsys.readouterr().err)
        assert not new.exists() and old.exists()


def test_lookup_rejects_a_bad_spec_before_loading_the_snapshot(corpus_dir, tmp_path,
                                                               capsys, monkeypatch):
    loads = []
    monkeypatch.setattr(cli, "load_netdb_dir", lambda directory: loads.append(directory))
    spec_path = tmp_path / "net.json"
    spec_path.write_text(json.dumps({**SMALL_SPEC, "k": 0}))
    argv = ["lookup", "00" * 32, "--netdb", str(corpus_dir), "--simulate", str(spec_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert "replication k must lie in" in err
    assert loads == []


@pytest.mark.parametrize("command", ["lookup", "xor-assoc", "simulate"])
def test_hash_starting_with_dash_is_passed_after_double_dash_or_in_hex(
        sim_spec_file, sim_model, assoc_fixture, tmp_path, capsys, command):
    # About one base64 hash in 64 starts with "-", which argparse reads as an
    # option. The help and README name the forms that pass it through.
    subject = next(h for h in sim_model.published if hash_to_b64(h).startswith("-"))
    shown = hash_to_b64(subject)
    spec, out = str(sim_spec_file), str(tmp_path / "c.csv")
    netdb, ls_file, _, _, date = assoc_fixture
    options = {
        "lookup": ["--simulate", spec],
        "xor-assoc": ["--leasesets", str(ls_file), "--netdb", str(netdb), "--date", date],
        "simulate": [spec, "--out", out],
    }[command] + ["--format", "json"]
    if command == "simulate":
        bare = ["simulate", *options, "--targets", shown]
        forms = [["simulate", *options, f"--targets={shown}"],
                 ["simulate", *options, "--targets", subject.hex()]]
    else:
        bare = [command, shown, *options]
        forms = [[command, *options, "--", shown], [command, subject.hex(), *options]]

    assert main(bare) == 2
    assert_one_line_error(capsys.readouterr().err)
    printed = []
    for argv in forms:
        assert main(argv) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert f'"{shown}"' in printed[0]


# -- one exit for every input error -------------------------------------

# A command line each command accepts, up to its options.
COMMAND_LINES = {
    "scan": ["scan"],
    "lookup": ["lookup", "00" * 32],
    "xor-assoc": ["xor-assoc", "00" * 32, "--leasesets", "ls.txt"],
    "b32": ["b32", "dest.dat"],
    "simulate": ["simulate", "net.json"],
    "genconfig": ["genconfig", "exclusive"],
}


def _command_line_errors():
    """(argv, program named in the error) for each bad command line. An
    error in a command's arguments, an unknown option included, names the
    command; a missing or unknown command names the program alone."""
    yield pytest.param([], "shadescope", id="no-command")
    yield pytest.param(["bogus"], "shadescope", id="unknown-command")
    for command, argv in COMMAND_LINES.items():
        prog = f"shadescope {command}"
        if len(argv) > 1:
            yield pytest.param([command], prog, id=f"missing-positional-{command}")
        if command in ("lookup", "simulate"):
            yield pytest.param([*argv, "--batch", "abc"], prog, id=f"batch-abc-{command}")
        yield pytest.param([*argv, "--format", "xml"], prog, id=f"format-xml-{command}")
        yield pytest.param([*argv, "--bogus"], prog, id=f"unknown-option-{command}")


@pytest.mark.parametrize("argv, prog", _command_line_errors())
def test_bad_command_line_is_one_error_line(argv, prog, capsys):
    # main returns; a SystemExit from argparse would fail the test.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert_one_line_error(captured.err)
    assert captured.err.startswith(f"error: {prog}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", [None, *COMMAND_LINES])
def test_help_still_prints_usage_and_exits_0(command, capsys):
    parser = build_parser()
    if command is not None:
        parser = parser._subparsers._group_actions[0].choices[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == parser.format_help() and captured.err == ""


def test_target_absent_from_the_model_is_one_error_line(sim_spec_file, sim_model,
                                                        tmp_path, capsys):
    absent = bytes(32)
    assert absent not in sim_model.routers
    out = tmp_path / "new.csv"
    argv = ["simulate", str(sim_spec_file), "--targets", absent.hex(), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert err == f"error: target not in model: {hash_to_b64(absent)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["genconfig", "lookup", "simulate"])
def test_empty_out_is_an_input_error_on_every_command(command, sim_spec_file, capsys):
    argv = {
        "genconfig": ["genconfig", "exclusive"],
        "lookup": ["lookup", "00" * 32, "--simulate", str(sim_spec_file)],
        "simulate": ["simulate", str(sim_spec_file)],
    }[command]
    assert main([*argv, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert_one_line_error(captured.err)
    assert captured.out == ""


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_in_process_exits_141_quietly(monkeypatch, capsys):
    fd_before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["genconfig", "exclusive"]) == 141
    assert capsys.readouterr().err == ""
    # The caller's own descriptors are left alone.
    fd_after = os.fstat(1)
    assert (fd_after.st_dev, fd_after.st_ino) == (fd_before.st_dev, fd_before.st_ino)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_broken_pipe_in_child_exits_141_quietly(sim_spec_file, tmp_path, unbuffered):
    # The JSON of every target is over 64 KiB, more than a pipe buffers, so
    # the child is still writing when the reader closes the pipe.
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["simulate", str(sim_spec_file), "--targets", "all", "--format", "json",
            "--out", str(tmp_path / "c.csv")]
    with subprocess.Popen([sys.executable, "-m", "shadescope.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=20) == 141
    assert err == b""

    # A short output still in the stdout buffer when main returns, into a
    # pipe whose reader is already gone: the interpreter's last flush must
    # not report the closed pipe either.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "shadescope.cli", "genconfig", "exclusive"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=20)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadescope.cli import build_parser, main
from shadescope.encoding import hash_to_b32, hash_to_b64
from shadescope.netdb import load_netdb_dir

from fixtures import write_fixture_corpus

DEST_391 = b"A" * 384 + b"\x05" + b"\x00\x04" + b"A" * 4
DEST_387 = b"A" * 384 + b"\x00\x00\x00"
NON_UTF8 = b'{"n_routers": 50, "seed": "\xff\xfe"}\n'


def assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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

    @pytest.mark.parametrize("flags, verdict, certificate", [
        (["--max-probes", "0"],
         "verdict: Shade 8: Exclusive (layer 2), from the local and console views only: "
         "no floodfill was probed",
         "certificate: not issued (no floodfill probed)"),
        (["--max-probes", "20"],
         "verdict: Shade 8: Exclusive (layer 2)",
         "certificate: zero-hit conjunction holds over 20 probed floodfills"),
        (["--max-probes", "20", "--fail-rate", "0.5"],
         "verdict: Shade 8: Exclusive (layer 2)",
         "certificate: not issued (incomplete probe evidence)"),
    ], ids=["no-probes", "probed", "probes-failed"])
    def test_level8_verdict_says_whether_floodfills_were_probed(
        self, sim_spec_file, sim_model, capsys, flags, verdict, certificate
    ):
        target = sorted(sim_model.exclusive)[0]
        argv = ["lookup", hash_to_b64(target), "--simulate", str(sim_spec_file), *flags]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [verdict, certificate]
        main([*argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "alpha", "caps", "diagnostics", "evidence", "failed_probes", "inconclusive",
            "iota", "probes_used", "shade", "subject",
        ]
        assert payload["shade"] == {"level": 8, "name": "Exclusive", "layer": 2}

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
    spec_path = tmp_path / "net.json"
    spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    assert main([*command, str(spec_path), *flags, "--out", str(tmp_path / "out.csv")]) == 2
    assert_one_line_error(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["simulate", "xor-assoc"])
@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode)))
def test_arbitrary_input_file_exits_0_or_2(tmp_path_factory, corpus_dir, command, data):
    workdir = tmp_path_factory.getbasetemp() / "arbitrary-input"
    workdir.mkdir(exist_ok=True)
    path = workdir / "input"
    path.write_bytes(data)
    if command == "simulate":
        argv = ["simulate", str(path), "--out", str(workdir / "curves.csv")]
    else:
        argv = ["xor-assoc", "00" * 32, "--leasesets", str(path),
                "--netdb", str(corpus_dir), "--date", "20250101"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert_one_line_error(err.getvalue())


@pytest.mark.parametrize("argv", [["lookup", "00" * 32], ["simulate", "net.json"],
                                  ["b32", "dest.dat"], ["genconfig", "exclusive"]],
                         ids=lambda argv: argv[0])
def test_csv_only_on_commands_with_rows(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


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

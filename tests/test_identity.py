"""Byte-identity gates for placement, association and probe replay.

The curve and distance digests were recorded from the per-call scans
that preceded ``dht.FloodfillTable``; placement, association and the
distance table must keep producing exactly these bytes. The probe-CSV
and ``simulate --targets all`` digests were recorded from the replay
that kept one log object per probe and sampled curves through a
per-batch callback; the probe CSV and the hit curves must keep these
bytes under injected probe failures. The duplicate-target digest was
recorded from the replay that ran each target on its own source; the
single shared probe sweep must give the same curves. The 12,968-router
model digest was recorded from the generator whose placement ranked each
key's candidates with a per-key ``sorted`` and whose records were
profiled through a regex; the cheaper synthesis and the vectorised
ranking must give the same routers, records, shades and placement.
The damaged-snapshot digests were recorded from the decoder that read
through a cursor object and the loader that sorted ``Path.rglob``
results; the offset-local decoder and the string-keyed walk must give
the same ``scan``/``xor-assoc`` output and the same failure list. The
failure-list digest was re-recorded when failures began naming their path
below the snapshot root instead of the base name; with the ``sub/`` prefix
taken off its names, the new listing is the old one, byte for byte.
The ``simulate --targets all`` digest was re-recorded when ``simulate``
began drawing probe failures from ``--seed``, as ``lookup`` does, instead
of from seed 0: the new bytes are those of ``run_probe_experiment`` with
``failure_seed=5`` on the replay that preceded the change. The
``simulate --targets all --format json`` digest was recorded from the
command that converted each result's shade with its own
``dataclasses.asdict`` call; one dict per shade level must print the same.
"""

import hashlib
import json
import os
import random

import pytest

from shadescope.cli import main
from shadescope.encoding import hash_to_b32, hash_to_b64
from shadescope.netdb import load_netdb_dir
from shadescope.protocol import ProbePlan
from shadescope.sim import NetworkSpec, export_curves, generate_network, run_probe_experiment
from shadescope.wire import encode_router_info

from fixtures import write_fixture_corpus
from test_acceptance import CENSUS_DISTRIBUTION, census_spec

CURVE_SHA256 = {
    0: "3a225635957685eb125e04fc9f76ef1afb376f3511363752e1cb4f0914347a42",
    1: "4ea1a202e861118f677cf7f54f294f2e3ea098420d6e19394212ec07f05e867f",
    2: "b3c526fe271a07b327b9db33ac98c9edaa474073c29e5297606a77ec55134801",
    3: "12aa0e7a21c9510c6489027eab39b9e0fa54f31f7ce064ed8451a483b8ad724c",
    4: "da679cef96bc478eef7d09de5abfcac4ed49cbc9c1ab91eab7c59fc4253b0a4b",
}
XOR_ASSOC_DISTANCES_SHA256 = (
    "8ac3083c8a885dede739668e1611be5192f4de90f39482d8374b9ef1ad4d9c4b"
)
LOOKUP_PROBE_CSV_SHA256 = (
    "a08b4519e3d9b5123bb3b513120d18bf6e093bd2dc23154e0a864fa248cbf7ee"
)
SIMULATE_ALL_CURVES_SHA256 = (
    "ab8c348f14d710f66c187bf77a9430058bf22ce805b7db68505282f6139f26e0"
)
SIMULATE_ALL_JSON_SHA256 = (
    "fc89e7af82e504cd7ab160c345162f3817f64d35cbc1409252a4cae762201d95"
)
DUPLICATE_TARGETS_CURVES_SHA256 = (
    "66b355af673788643fd5a5013f1f61aed5e7c5de7e6dc6823d87d23aa2e69310"
)
MODEL_12968_SHA256 = (
    "a6503987bd82763a230e9482700a103a9e23233d8769dfb3402f6fab069e1eea"
)
DAMAGED_SCAN_JSON_SHA256 = (
    "3b4d9d49a19556773f70cd5b1c2fd74f3267ceec86b14341d289c5bc2c1add3e"
)
DAMAGED_XOR_ASSOC_JSON_SHA256 = (
    "9f5044603dd5bda57270749d8399c16ba25413ded147a573c96a2e70a959e789"
)
DAMAGED_FAILURES_SHA256 = (
    "95c0ff859fa50aa67b715b6794012f93f33209499fd8d299be956227587f1335"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(CURVE_SHA256))
def test_census_curve_csv_unchanged(seed, tmp_path):
    # Published targets under a 500-probe plan hit or miss depending on
    # exactly which k floodfills hold their records.
    model = generate_network(census_spec(seed))
    targets = list(model.published[:200]) + sorted(model.exclusive)
    plan = ProbePlan(model.floodfills, batch_size=5, max_probes=500)
    path = tmp_path / "curves.csv"
    export_curves(run_probe_experiment(model, targets, plan), path)
    assert _sha256(path.read_bytes()) == CURVE_SHA256[seed]


def test_xor_assoc_distances_json_unchanged(assoc_fixture, capsys):
    netdb, ls_file, target, _, date = assoc_fixture
    code = main([
        "xor-assoc", hash_to_b64(target),
        "--leasesets", str(ls_file),
        "--netdb", str(netdb),
        "--date", date, "--distances", "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["distances"]) == 172
    assert _sha256(out.encode()) == XOR_ASSOC_DISTANCES_SHA256


def test_lookup_probe_csv_unchanged(sim_spec_file, sim_model, tmp_path, capsys):
    # An exclusive target probes the whole budget; 30% of probes fail.
    target = sorted(sim_model.exclusive)[0]
    out = tmp_path / "probes.csv"
    code = main([
        "lookup", hash_to_b64(target),
        "--simulate", str(sim_spec_file),
        "--seed", "3", "--fail-rate", "0.3", "--max-probes", "60",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(out.read_text().splitlines()) == 61
    assert _sha256(out.read_bytes()) == LOOKUP_PROBE_CSV_SHA256


def test_simulate_all_curves_unchanged(sim_spec_file, tmp_path, capsys):
    # Every router is a target: published targets hit after one of the
    # eight batches or run out of budget, under 20% failed probes drawn
    # from --seed.
    out = tmp_path / "curves.csv"
    code = main([
        "simulate", str(sim_spec_file),
        "--targets", "all", "--seed", "5", "--fail-rate", "0.2",
        "--max-probes", "40", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out.read_bytes()) == SIMULATE_ALL_CURVES_SHA256


def test_simulate_all_json_unchanged(sim_spec_file, tmp_path, monkeypatch, capsys):
    # The run of test_simulate_all_curves_unchanged, reported as JSON: one
    # result per target, each with its shade, from relative paths so the
    # bytes do not name the temporary directory.
    (tmp_path / "net.json").write_bytes(sim_spec_file.read_bytes())
    monkeypatch.chdir(tmp_path)
    code = main([
        "simulate", "net.json",
        "--targets", "all", "--seed", "5", "--fail-rate", "0.2",
        "--max-probes", "40", "--out", "curves.csv", "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["results"]) == 400
    assert _sha256(out.encode()) == SIMULATE_ALL_JSON_SHA256


def test_duplicate_targets_curves_unchanged(sim_model, tmp_path):
    # Repeated targets under 30% probe failures and a shuffled plan in
    # batches of 3: some published targets hit, some run out of budget.
    floodfills = list(sim_model.floodfills)
    random.Random(9).shuffle(floodfills)
    plan = ProbePlan(tuple(floodfills), batch_size=3, max_probes=45)
    published = list(sim_model.published)
    targets = published[:60] + sorted(sim_model.exclusive) + published[10:30]
    curves = run_probe_experiment(
        sim_model, targets, plan, failure_rate=0.3, failure_seed=4
    )
    assert len(curves) == 81
    path = tmp_path / "curves.csv"
    export_curves(curves, path)
    assert _sha256(path.read_bytes()) == DUPLICATE_TARGETS_CURVES_SHA256


def test_census_x4_model_unchanged():
    # Four times the census: longer shared-prefix runs and more word-0
    # neighbours for the placement kernel than census size reaches.
    spec = NetworkSpec(n_routers=12968, floodfill_fraction=1556 / 3242,
                       shade_distribution=CENSUS_DISTRIBUTION, k=4, seed=0)
    model = generate_network(spec)
    digest = hashlib.sha256()
    for router_hash, router in model.routers.items():
        digest.update(router_hash + bytes([router.shade.level]))
        if router.record is not None:
            blob = encode_router_info(router.record)
            digest.update(len(blob).to_bytes(4, "big") + blob)
    for floodfill in sorted(model.knowledge):
        holders = sorted(model.knowledge[floodfill])
        digest.update(floodfill + len(holders).to_bytes(4, "big") + b"".join(holders))
    assert digest.hexdigest() == MODEL_12968_SHA256


@pytest.fixture(scope="module")
def damaged_snapshot(tmp_path_factory):
    """A 160-record snapshot, a fifth of it one directory down, with 12
    files cut short and 6 with 1-3 bytes after the identity overwritten;
    and 64 services.

    Returns (root, floodfill target); the snapshot is ``root/netdb`` and
    the leaseset file ``root/leasesets.txt``.
    """
    root = tmp_path_factory.mktemp("damaged")
    netdb = root / "netdb"
    records = write_fixture_corpus(netdb, n=160, floodfill_count=60, seed=17)
    rng = random.Random(17)
    files = sorted(netdb.iterdir())
    (netdb / "sub").mkdir()
    for path in rng.sample(files, 32):
        path.rename(netdb / "sub" / path.name)
    files = sorted(netdb.rglob("routerInfo-*.dat"))
    damaged = rng.sample(files, 18)
    for path in damaged[:12]:
        data = path.read_bytes()
        # From the identity's last bytes to the 64-byte signature, so
        # strict decoding fails in every section.
        path.write_bytes(data[: rng.randrange(380, len(data) - 64)])
    for path in damaged[12:]:
        data = bytearray(path.read_bytes())
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(387, len(data) - 64)] = rng.randrange(256)
        path.write_bytes(bytes(data))
    intact = {p.name for p in files if p not in damaged}
    target = min(r.hash for r in records
                 if r.is_floodfill and f"routerInfo-{hash_to_b64(r.hash)}.dat" in intact)
    services = [rng.randbytes(32) for _ in range(64)]
    (root / "leasesets.txt").write_text(
        "".join(f"{hash_to_b64(s)} {hash_to_b32(s)} -\n" for s in services))
    return root, target


def test_damaged_snapshot_failures_unchanged(damaged_snapshot, monkeypatch):
    root, _ = damaged_snapshot
    monkeypatch.chdir(root)
    snapshot = load_netdb_dir("netdb")
    assert len(snapshot.failures) >= 12
    # Names are paths below the snapshot root, so copies in sub/ read apart.
    assert {f.filename.rpartition(os.sep)[0] for f in snapshot.failures} == {"", "sub"}
    listing = "".join(f"{f.filename}\t{f.error}\n" for f in snapshot.failures)
    assert _sha256(listing.encode()) == DAMAGED_FAILURES_SHA256


def test_damaged_snapshot_scan_json_unchanged(damaged_snapshot, monkeypatch, capsys):
    root, _ = damaged_snapshot
    monkeypatch.chdir(root)
    code = main(["scan", "--netdb", "netdb", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["total"] == 160
    assert _sha256(out.encode()) == DAMAGED_SCAN_JSON_SHA256


def test_damaged_snapshot_xor_assoc_json_unchanged(damaged_snapshot, monkeypatch, capsys):
    root, target = damaged_snapshot
    monkeypatch.chdir(root)
    code = main([
        "xor-assoc", target.hex(), "--leasesets", "leasesets.txt",
        "--netdb", "netdb", "--date", "20250101", "--distances", "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["distances"]) == 64
    assert _sha256(out.encode()) == DAMAGED_XOR_ASSOC_JSON_SHA256

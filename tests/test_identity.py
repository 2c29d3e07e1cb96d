"""Byte-identity gate for XOR-nearest selection.

The digests below were recorded from the per-call scans that preceded
``dht.FloodfillTable``; placement, association and the distance table
must keep producing exactly these bytes.
"""

import hashlib
import json

import pytest

from shadescope.cli import main
from shadescope.encoding import hash_to_b64
from shadescope.protocol import ProbePlan
from shadescope.sim import export_curves, generate_network, run_probe_experiment

from test_acceptance import census_spec

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

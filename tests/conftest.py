import gc
import json
import random

import pytest

from shadescope.dht import routing_key
from shadescope.encoding import hash_to_b32, hash_to_b64
from shadescope.sim import NetworkSpec, generate_network

from fixtures import oracle_nearest, write_fixture_corpus

ACCEPTANCE_TITLES = {
    "test_criterion_1": "shade-8 zero-hit reproduction over 50 seeds",
    "test_criterion_2": "classifier fidelity vs exhaustive table oracle",
    "test_criterion_3": "xor association equals brute-force oracle",
    "test_criterion_4": "routing-key and b32 byte-exact vs oracle",
    "test_criterion_5": "codec round-trip, lenient agreement, corrupt isolation",
    "test_criterion_6": "visibility metrics exactness",
    "test_criterion_7": "fixture corpus floodfill fraction 48.0%",
    "test_criterion_8": "hit-curve properties and probes-to-hit mean",
    "test_criterion_9": "exclusive config profile parameters",
}

_acceptance_results: dict[str, str] = {}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the cyclic collector on, then off; restore it after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Deterministic 100-record corpus with 48 floodfill-flagged records."""
    directory = tmp_path_factory.mktemp("netdb-corpus")
    write_fixture_corpus(directory, n=100, floodfill_count=48, seed=7)
    return directory


@pytest.fixture(scope="module")
def sim_spec_file(tmp_path_factory):
    payload = {
        "n_routers": 400,
        "floodfill_fraction": 0.4,
        "shade_distribution": {"2": 0.3, "3": 0.2, "7": 0.0975, "8": 0.0025},
        "k": 3,
        "seed": 20,
        "date": "20250101",
    }
    path = tmp_path_factory.mktemp("spec") / "net.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def sim_model(sim_spec_file):
    return generate_network(NetworkSpec.from_file(sim_spec_file))


@pytest.fixture(scope="module")
def assoc_fixture(tmp_path_factory):
    """A snapshot + 172-address leaseset file where one floodfill is the
    responsible node for exactly one address (seed found by scanning with
    the brute-force responsibility rule)."""
    directory = tmp_path_factory.mktemp("assoc-netdb")
    records = write_fixture_corpus(directory, n=60, floodfill_count=25, seed=31)
    floodfills = [r.hash for r in records if r.is_floodfill]
    date = "20250101"
    chosen_target = None
    chosen_sites = None
    for attempt in range(200):
        rng = random.Random(1000 + attempt)
        sites = [rng.randbytes(32) for _ in range(172)]
        nearest = [oracle_nearest(routing_key(s, date), floodfills, 1) for s in sites]
        for target in floodfills:
            wins = [s for s, n in zip(sites, nearest) if n == (target,)]
            if len(wins) == 1:
                chosen_target, chosen_sites, the_win = target, sites, wins[0]
                break
        if chosen_target:
            break
    assert chosen_target is not None
    ls_file = tmp_path_factory.mktemp("assoc-ls") / "leasesets.txt"
    lines = [f"{hash_to_b64(s)} {hash_to_b32(s)} -" for s in chosen_sites]
    ls_file.write_text("\n".join(lines) + "\n")
    return directory, ls_file, chosen_target, hash_to_b32(the_win) + ".b32.i2p", date


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for key in ACCEPTANCE_TITLES:
        if f"{key}_" in report.nodeid or report.nodeid.endswith(key):
            _acceptance_results[key] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_TITLES):
        outcome = _acceptance_results.get(key)
        if outcome:
            number = key.rsplit("_", 1)[1]
            terminalreporter.write_line(
                f"criterion {number}: {outcome} - {ACCEPTANCE_TITLES[key]}"
            )

"""Acceptance suite. Each test is one exit criterion; the terminal summary
(see conftest) prints one pass/fail line per criterion."""

import base64
import hashlib
import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from shadescope.classify import classify
from shadescope.dht import routing_key, xor_association, derive_b32
from shadescope.encoding import hash_to_b32
from shadescope.model import CapabilityProfile, Destination
from shadescope.netdb import load_netdb_dir
from shadescope.profiles import profile_parameters, render_profile
from shadescope.protocol import ProbePlan, shade8_certificate
from shadescope.sim import (
    NetworkSpec,
    completeness_metrics,
    generate_network,
    run_probe_experiment,
)
from shadescope.wire import decode_router_info, encode_router_info, lenient_extract

from fixtures import random_record, write_fixture_corpus

CENSUS_DISTRIBUTION = {
    "2": 500 / 3242,
    "3": 500 / 3242,
    "4": 300 / 3242,
    "5": 200 / 3242,
    "6": 100 / 3242,
    "7": 85 / 3242,
    "8": 1 / 3242,
}


def census_spec(seed):
    return NetworkSpec(
        n_routers=3242,
        floodfill_fraction=1556 / 3242,
        shade_distribution=CENSUS_DISTRIBUTION,
        k=4,
        seed=seed,
        date="20250101",
    )


def test_criterion_1_shade8_zero_hit_over_50_seeds():
    """One absent target, 500 probes in batches of 5: level 8 every time,
    zero hits at every checkpoint, 50 seeds, under 60 seconds."""
    started = time.monotonic()
    for seed in range(50):
        model = generate_network(census_spec(seed))
        assert len(model.routers) == 3242
        assert len(model.floodfills) == 1556
        assert len(model.exclusive) == 1
        target = next(iter(model.exclusive))
        plan = ProbePlan(model.floodfills, batch_size=5, max_probes=500)
        curve = run_probe_experiment(model, [target], plan)[0]
        report = curve.report
        assert report.shade is not None and report.shade.level == 8
        assert report.probes_used == 500
        assert report.failed_probes == 0
        assert len(curve.points) == 100
        assert all(hits == 0 for _, hits in curve.points)
        assert shade8_certificate(report) is True
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"50-seed reproduction took {elapsed:.1f}s"


def _table_oracle(delta, kappa_f, kappa_H, kappa_U, alpha, iota, bandwidth):
    """Hand-written taxonomy table: absence first, then the row ladder."""
    if not delta:
        return 8
    if alpha:
        if kappa_f:
            return 1  # floodfill flag + address
        if kappa_U:
            return 4  # firewalled + address
        if bandwidth in ("N", "O", "P", "X"):
            return 2  # high-cap + address
        return 3  # low-cap + address
    if iota:
        return 5  # introducers declared, no address
    if kappa_H:
        return 6  # hidden flag, no address
    return 7  # present in directory, no path to it


def test_criterion_2_classifier_fidelity():
    bandwidths = [None, "K", "L", "M", "N", "O", "P", "X"]
    checked = 0
    for kf, kH, kU, alpha, iota in itertools.product((False, True), repeat=5):
        for bw in bandwidths:
            profile = CapabilityProfile(
                kappa_f=kf, kappa_H=kH, kappa_U=kU,
                alpha=alpha, iota=iota, bandwidth_class=bw,
            )
            expected = _table_oracle(True, kf, kH, kU, alpha, iota, bw)
            assert classify(profile).level == expected
            assert _table_oracle(False, kf, kH, kU, alpha, iota, bw) == 8
            checked += 1
    assert checked == 2**5 * 8

    # Anchored cases: floodfill caps with an address, relay caps with an
    # address, and no record at all.
    beacon = CapabilityProfile(
        kappa_f=True, kappa_H=False, kappa_U=False,
        alpha=True, iota=False, bandwidth_class="X",
    )
    relay = CapabilityProfile(
        kappa_f=False, kappa_H=False, kappa_U=False,
        alpha=True, iota=False, bandwidth_class="X",
    )
    assert classify(beacon).level == 1
    assert classify(relay).level == 2
    assert classify(None).level == 8
    assert classify(None).layer == 2


def test_criterion_3_xor_association_oracle_equivalence():
    def oracle(target, services, floodfills, date):
        mod_key = hashlib.sha256(date.encode("ascii")).digest()
        kept = []
        for service in services:
            mixed = bytes(x ^ y for x, y in zip(service, mod_key))
            rk = int.from_bytes(hashlib.sha256(mixed).digest(), "big")
            own = int.from_bytes(target, "big") ^ rk
            if all(
                (int.from_bytes(f, "big") ^ rk) >= own
                for f in floodfills
                if f != target
            ):
                kept.append(service)
        return kept

    rng = random.Random(30_000)
    for instance in range(200):
        n_ff = rng.randint(1, 64)
        n_sites = rng.randint(0, 32)
        floodfills = [rng.randbytes(32) for _ in range(n_ff)]
        # Tie case every other instance: the target sits inside the scan
        # set, where only the f != target exclusion keeps it eligible.
        if instance % 2 == 0:
            target = rng.choice(floodfills)
        else:
            target = rng.randbytes(32)
        services = [rng.randbytes(32) for _ in range(n_sites)]
        date = rng.choice(("20250101", "20250615", "20301231"))
        expected = {hash_to_b32(s) + ".b32.i2p" for s in oracle(target, services, floodfills, date)}
        got, warnings = xor_association(
            target, [hash_to_b32(s) + ".b32.i2p" for s in services], floodfills, date
        )
        assert warnings == []
        assert set(got) == expected, f"instance {instance}"


def test_criterion_4_routing_key_and_b32_byte_exact():
    def oracle_rk(h, date):
        mk = hashlib.sha256(date.encode("ascii")).digest()
        return hashlib.sha256(bytes(a ^ b for a, b in zip(h, mk))).digest()

    def oracle_b32(dest_bytes):
        length = 387 + int.from_bytes(dest_bytes[385:387], "big")
        digest = hashlib.sha256(dest_bytes[:length]).digest()
        return base64.b32encode(digest).decode().rstrip("=").lower() + ".b32.i2p"

    rng = random.Random(40_000)
    for _ in range(100):
        h = rng.randbytes(32)
        date = f"20{rng.randint(20, 35)}{rng.randint(1, 12):02d}{rng.randint(1, 28):02d}"
        assert routing_key(h, date) == oracle_rk(h, date)

    for _ in range(100):
        body = rng.randbytes(384)
        if rng.random() < 0.5:
            dest = body + b"\x00\x00\x00"
            expected_size = 387
        else:
            cert_len = rng.randint(1, 8)
            dest = body + b"\x05" + cert_len.to_bytes(2, "big") + rng.randbytes(cert_len)
            expected_size = 387 + cert_len
        parsed = Destination(dest)
        assert parsed.size == expected_size
        assert derive_b32(parsed) == oracle_b32(dest)

    # Analytic cases: XOR with the zero hash is the identity, so the key
    # is the double-hashed date; a null certificate means 387 bytes.
    date = "20250101"
    mk = hashlib.sha256(date.encode()).digest()
    assert routing_key(bytes(32), date) == hashlib.sha256(mk).digest()
    null_cert = bytes(384) + b"\x00\x00\x00"
    assert Destination(null_cert).size == 387
    assert derive_b32(Destination(null_cert)) == oracle_b32(null_cert)

    # The 4-byte key-certificate case: 391 identity bytes hashed.
    key_cert = bytes(384) + b"\x05" + b"\x00\x04" + b"\xaa\xbb\xcc\xdd"
    assert Destination(key_cert).size == 391
    assert derive_b32(Destination(key_cert)) == oracle_b32(key_cert)


def test_criterion_5_codec_round_trip_and_lenient_agreement(tmp_path):
    rng = random.Random(50_000)
    for i in range(1000):
        record = random_record(rng)
        data = encode_router_info(record)
        assert decode_router_info(data) == record, f"record {i}"
        extracted = lenient_extract(data)
        if "caps" in record.options:
            assert extracted.caps == record.options["caps"], f"record {i}"
        else:
            assert extracted.caps is None, f"record {i}"
        assert extracted.version == record.version, f"record {i}"

    # Corrupt-file isolation: one bad file never poisons the snapshot.
    write_fixture_corpus(tmp_path, n=20, floodfill_count=8, seed=5)
    (tmp_path / ("routerInfo-" + "q" * 44 + ".dat")).write_bytes(b"\xde\xad\xbe\xef")
    snapshot = load_netdb_dir(tmp_path)
    assert snapshot.stats.parse_failures == 1
    assert len(snapshot.records) == 20
    assert snapshot.stats.floodfill_count == 8


def test_criterion_6_metrics_exactness():
    spec = NetworkSpec(
        n_routers=1000,
        floodfill_fraction=0.4,
        shade_distribution={"2": 0.3, "3": 0.2, "8": 0.1},
        k=2,
        seed=0,
    )
    model = generate_network(spec)
    assert len(model.exclusive) == 100
    metrics = completeness_metrics(model)
    assert metrics.xi == 0.100
    assert metrics.rho == 0.900

    rng = random.Random(60_000)
    for _ in range(10):
        n = rng.randint(50, 400)
        spec = NetworkSpec(
            n_routers=n,
            floodfill_fraction=0.25,
            shade_distribution={"2": 0.35, "5": 0.2, "8": 0.2},
            k=1,
            seed=rng.randint(0, 10_000),
        )
        model = generate_network(spec)
        published = sum(1 for r in model.routers.values() if r.record is not None)
        total = len(model.routers)
        metrics = completeness_metrics(model)
        assert metrics.rho == published / total
        assert metrics.xi == (total - published) / total


def test_criterion_7_corpus_floodfill_fraction(corpus_dir):
    snapshot = load_netdb_dir(corpus_dir)
    stats = snapshot.stats
    fraction = 100.0 * stats.floodfill_count / len(snapshot.records)
    assert round(fraction, 1) == 48.0


def test_criterion_8_curve_properties_and_mean_probes_to_hit():
    model = generate_network(census_spec(0))
    assert model.spec.k == 4 and len(model.floodfills) == 1556

    # Monotonicity and flat-zero exclusivity on a mixed target set.
    mixed_targets = list(model.published[:5]) + sorted(model.exclusive)
    plan = ProbePlan(model.floodfills, batch_size=5, max_probes=500)
    for curve in run_probe_experiment(model, mixed_targets, plan):
        hits = [h for _, h in curve.points]
        assert hits == sorted(hits)
        if curve.target in model.exclusive:
            assert hits == [0] * len(hits)

    # Mean probes to first hit, 1,000 seeded trials through the protocol.
    rng = random.Random(0)
    published = list(model.published)
    measured = []
    for trial in range(1000):
        target = published[rng.randrange(len(published))]
        order = list(model.floodfills)
        random.Random(10_000 + trial).shuffle(order)
        trial_plan = ProbePlan(tuple(order), batch_size=5)
        curve = run_probe_experiment(model, [target], trial_plan)[0]
        assert curve.report.shade is not None and curve.report.shade.level < 8
        measured.append(curve.report.probes_used)

    # Monte-Carlo oracle: k holders uniformly placed in a probe order
    # sampled without replacement, detection at the batch-of-5 boundary.
    oracle_rng = random.Random(424242)
    pool = len(model.floodfills)
    draws = [
        math.ceil(min(oracle_rng.sample(range(1, pool + 1), 4)) / 5) * 5
        for _ in range(200_000)
    ]
    oracle_mean = statistics.mean(draws)
    mean = statistics.mean(measured)
    assert abs(mean - oracle_mean) <= 0.05 * oracle_mean, (mean, oracle_mean)

    # Exact oracle: the first of the k holders sits at probe position j with
    # probability C(F-j, k-1) / C(F, k), and is seen at the end of its batch.
    # At F = 1,556 and k = 4 the mean is 313.405. The Monte-Carlo mean must
    # agree within 4 standard errors (each about 0.57 probes here): a wrong
    # sampler or closed form misses that, while a correct pair does so with
    # probability below 1e-4.
    exact_mean = sum(Fraction(math.comb(pool - j, 3), math.comb(pool, 4)) * 5 * math.ceil(j / 5)
                     for j in range(1, pool - 2))
    assert round(float(exact_mean), 3) == 313.405
    standard_error = statistics.stdev(draws) / math.sqrt(len(draws))
    assert abs(oracle_mean - exact_mean) <= 4 * standard_error, (oracle_mean, float(exact_mean))


def test_criterion_9_exclusive_profile_parameters():
    # The documented 10-parameter profile, comments included.
    documented_profile = (
        "router.isHidden=true\n"
        "router.hiddenMode=true\n"
        "i2np.udp.addressSources=      # empty\n"
        "i2np.ntcp2.autoip=false\n"
        "router.floodfillParticipant=false\n"
        "router.maxParticipatingTunnels=0\n"
        "router.sharePercentage=0\n"
        "router.enablePeerTest=false\n"
        "router.dynamicKeys=true        # ephemeral identity\n"
        "i2np.udp.requireIntroductions=true\n"
    )
    rendered = render_profile("exclusive")
    assert profile_parameters(rendered) == profile_parameters(documented_profile)
    assert len(profile_parameters(rendered)) == 10
    stripped = [line.split("#", 1)[0].strip() for line in rendered.splitlines()]
    expected = [line.split("#", 1)[0].strip() for line in documented_profile.splitlines()]
    assert stripped == expected

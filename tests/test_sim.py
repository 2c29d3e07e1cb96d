import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shadescope
from shadescope.classify import classify
from shadescope.dht import routing_key
from shadescope.protocol import ProbePlan
from shadescope.sim import (
    HitCurve,
    InfeasibleSpecError,
    NetworkSpec,
    SimulatedSource,
    completeness_metrics,
    export_curves,
    generate_network,
    run_probe_experiment,
    synth_record,
)

from fixtures import load_curves, oracle_nearest, random_record, write_fixture_corpus


def small_spec(seed=0, n=60, k=2):
    return NetworkSpec(
        n_routers=n,
        floodfill_fraction=0.3,
        shade_distribution={"2": 0.2, "3": 0.15, "5": 0.15, "7": 0.1, "8": 0.1},
        k=k,
        seed=seed,
    )


class TestSynthRecord:
    @pytest.mark.parametrize("level", range(1, 8))
    def test_classifies_to_requested_level(self, level):
        for seed in range(10):
            record = synth_record(random.Random(seed), level)
            assert classify(record.profile()).level == level

    def test_rejects_level_8(self):
        with pytest.raises(ValueError):
            synth_record(random.Random(0), 8)

    def test_self_check_holds_under_optimize(self):
        # A classifier that disagrees with the recipe must stop synthesis
        # even with assertions stripped.
        code = (
            "import random, shadescope.sim as sim\n"
            "from shadescope.model import SHADES\n"
            "sim.classify = lambda profile: SHADES[8]\n"
            "sim.synth_record(random.Random(0), 2)\n"
        )
        src = str(Path(shadescope.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode != 0
        assert "record made for shade 2 classifies as 8" in result.stderr

    def test_generation_checks_every_published_record(self, monkeypatch):
        # The self-check classifies each synthesized record exactly once.
        calls = []

        def counting_classify(profile):
            calls.append(profile)
            return classify(profile)

        monkeypatch.setattr(shadescope.sim, "classify", counting_classify)
        model = generate_network(small_spec(seed=3, n=120))
        assert len(model.published) > 0
        assert len(calls) == len(model.published)

    def test_floodfills_carry_counts(self):
        record = synth_record(random.Random(1), 1)
        assert record.known_routers is not None
        assert record.known_leasesets is not None


class TestGenerateNetwork:
    def test_single_router_network(self):
        spec = NetworkSpec(
            n_routers=1, floodfill_fraction=1.0, shade_distribution={"1": 1.0},
            k=3, seed=5,
        )
        model = generate_network(spec)
        assert len(model.routers) == 1
        the_hash = model.published[0]
        assert model.floodfills == (the_hash,)
        assert model.exclusive == frozenset()
        assert model.knowledge[the_hash] == {the_hash: model.routers[the_hash].record}

    def test_ten_percent_exclusive(self):
        spec = NetworkSpec(
            n_routers=1000,
            floodfill_fraction=0.3,
            shade_distribution={"2": 0.3, "3": 0.3, "8": 0.1},
            k=2,
            seed=1,
        )
        model = generate_network(spec)
        assert len(model.exclusive) == 100
        assert len(model.published) == 900

    def test_census_shape_counts(self):
        dist = {
            "2": 500 / 3242, "3": 500 / 3242, "4": 300 / 3242,
            "5": 200 / 3242, "6": 100 / 3242, "7": 85 / 3242, "8": 1 / 3242,
        }
        spec = NetworkSpec(
            n_routers=3242, floodfill_fraction=1556 / 3242,
            shade_distribution=dist, k=4, seed=0,
        )
        model = generate_network(spec)
        assert len(model.routers) == 3242
        assert len(model.floodfills) == 1556
        assert len(model.exclusive) == 1

    def test_conservation(self):
        for seed in range(5):
            model = generate_network(small_spec(seed=seed))
            assert len(model.published) + len(model.exclusive) == len(model.routers)
            assert set(model.published) | model.exclusive == set(model.routers)
            assert set(model.published) & model.exclusive == set()

    def test_shades_match_published_state(self):
        model = generate_network(small_spec(seed=2))
        for router in model.routers.values():
            if router.shade.level == 8:
                assert router.record is None
                assert router.hash in model.exclusive
            else:
                assert router.record is not None
                assert classify(router.record.profile()) == router.shade

    def test_determinism(self):
        a = generate_network(small_spec(seed=9))
        b = generate_network(small_spec(seed=9))
        assert list(a.routers) == list(b.routers)
        assert a.knowledge == b.knowledge
        assert a.floodfills == b.floodfills
        c = generate_network(small_spec(seed=10))
        assert list(a.routers) != list(c.routers)

    def test_replication_is_min_k_floodfills(self):
        model = generate_network(small_spec(seed=4, k=3))
        counts = {h: 0 for h in model.published}
        for stored in model.knowledge.values():
            for h in stored:
                counts[h] += 1
        expected = min(3, len(model.floodfills))
        assert set(counts.values()) == {expected}

    def test_knowledge_placement_matches_exact_nearest(self):
        model = generate_network(small_spec(seed=6, n=40, k=2))
        for h in model.published:
            nearest = oracle_nearest(routing_key(h, model.spec.date), model.floodfills, 2)
            holders = [f for f in model.floodfills if h in model.knowledge[f]]
            assert sorted(nearest) == sorted(holders)

    def test_structural_incompleteness(self):
        # Any model with an exclusive router: stored union is a proper
        # subset of the full router set.
        for seed in range(8):
            model = generate_network(small_spec(seed=seed))
            stored_union = set().union(*model.knowledge.values())
            assert stored_union <= set(model.published)
            assert stored_union < set(model.routers)


class TestSpecValidation:
    def test_floodfills_without_shade1_mass(self):
        spec = NetworkSpec(
            n_routers=100, floodfill_fraction=0.5,
            shade_distribution={"1": 0.0, "2": 0.5, "3": 0.5},
        )
        with pytest.raises(InfeasibleSpecError):
            generate_network(spec)

    def test_distribution_must_sum_to_one(self):
        spec = NetworkSpec(
            n_routers=100, floodfill_fraction=0.2,
            shade_distribution={"2": 0.2},
        )
        with pytest.raises(InfeasibleSpecError):
            generate_network(spec)

    def test_explicit_shade1_must_agree_with_fraction(self):
        spec = NetworkSpec(
            n_routers=100, floodfill_fraction=0.5,
            shade_distribution={"1": 0.2, "2": 0.8},
        )
        with pytest.raises(InfeasibleSpecError):
            generate_network(spec)

    def test_bad_level_key(self):
        spec = NetworkSpec(
            n_routers=10, floodfill_fraction=0.5,
            shade_distribution={"9": 1.0},
        )
        with pytest.raises(InfeasibleSpecError):
            generate_network(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_routers": 0},
            {"floodfill_fraction": 1.5},
            {"k": 0},
        ],
    )
    def test_bad_scalars(self, kwargs):
        base = dict(
            n_routers=10, floodfill_fraction=0.5,
            shade_distribution={"2": 0.5}, k=1, seed=0,
        )
        base.update(kwargs)
        with pytest.raises(InfeasibleSpecError):
            generate_network(NetworkSpec(**base))

    def test_spec_file_round_trip(self, tmp_path):
        payload = {
            "n_routers": 40, "floodfill_fraction": 0.25,
            "shade_distribution": {"2": 0.5, "8": 0.25},
            "k": 2, "seed": 11, "date": "20250401",
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        spec = NetworkSpec.from_file(path)
        assert spec.n_routers == 40 and spec.seed == 11 and spec.date == "20250401"
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec.from_file(_write(tmp_path, {"n_routers": 1, "bogus": 2}))

    @pytest.mark.parametrize("data", [b"[" * 200_000, b'{"n_routers": ' + b"1" * 5000 + b"}"],
                             ids=["deep-nesting", "huge-integer"])
    def test_unparseable_spec_names_the_file(self, tmp_path, data):
        path = tmp_path / "net.json"
        path.write_bytes(data)
        with pytest.raises(InfeasibleSpecError, match="not readable JSON") as exc:
            NetworkSpec.from_file(path)
        assert str(path) in str(exc.value)

    def test_non_utf8_spec_keeps_its_own_message(self, tmp_path):
        # UnicodeDecodeError is also a ValueError; it must not read as bad JSON.
        path = tmp_path / "net.json"
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(InfeasibleSpecError, match="not UTF-8 text") as exc:
            NetworkSpec.from_file(path)
        assert str(path) in str(exc.value)


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return path


class TestMetrics:
    def test_all_published(self):
        spec = NetworkSpec(
            n_routers=20, floodfill_fraction=0.5,
            shade_distribution={"2": 0.5}, k=1, seed=0,
        )
        metrics = completeness_metrics(generate_network(spec))
        assert metrics.rho == 1.0 and metrics.xi == 0.0

    def test_exact_tenth(self):
        spec = NetworkSpec(
            n_routers=1000, floodfill_fraction=0.4,
            shade_distribution={"2": 0.5, "8": 0.1}, k=1, seed=0,
        )
        metrics = completeness_metrics(generate_network(spec))
        assert metrics.rho == 0.9
        assert metrics.xi == 0.1

    def test_matches_independent_recount(self):
        for seed in range(5):
            model = generate_network(small_spec(seed=seed))
            published = sum(1 for r in model.routers.values() if r.record is not None)
            absent = sum(1 for r in model.routers.values() if r.record is None)
            metrics = completeness_metrics(model)
            assert metrics.rho == published / (published + absent)
            assert metrics.xi == absent / (published + absent)


class TestSimulatedSource:
    def test_holder_probe_answers_with_the_record(self):
        model = generate_network(small_spec(seed=3))
        target = model.published[0]
        holders = [f for f in model.floodfills if target in model.knowledge[f]]
        others = [f for f in model.floodfills if target not in model.knowledge[f]]
        source = SimulatedSource(model)
        assert source.lookup_local(target) is None
        assert source.lookup_console(target) is None
        answer = source.probe_floodfill(holders[0])
        assert answer[target] is model.routers[target].record
        assert all(record.hash == h and record is model.routers[h].record
                   for h, record in answer.items())
        assert target not in source.probe_floodfill(others[0])
        # The answer reaches only the caller: both lookups still miss.
        assert source.lookup_local(target) is None
        assert source.lookup_console(target) is None

    def test_probing_non_floodfill_fails(self):
        from shadescope.protocol import ProbeTransportError

        model = generate_network(small_spec(seed=3))
        source = SimulatedSource(model)
        with pytest.raises(ProbeTransportError):
            source.probe_floodfill(bytes(32))


class TestProbeExperiment:
    def test_shade8_curve_is_flat_zero(self):
        model = generate_network(small_spec(seed=7))
        target = sorted(model.exclusive)[0]
        plan = ProbePlan(model.floodfills, batch_size=5)
        curve = run_probe_experiment(model, [target], plan)[0]
        assert all(hits == 0 for _, hits in curve.points)
        assert curve.report.shade.level == 8
        assert curve.report.probes_used == plan.probe_limit

    def test_record_on_all_floodfills_hits_first_batch(self):
        spec = NetworkSpec(
            n_routers=30, floodfill_fraction=0.5,
            shade_distribution={"2": 0.5}, k=100, seed=2,
        )
        model = generate_network(spec)
        target = [h for h in model.published if h not in set(model.floodfills)][0]
        plan = ProbePlan(model.floodfills, batch_size=5)
        curve = run_probe_experiment(model, [target], plan)[0]
        assert curve.points == ((5, 1),)
        assert curve.report.probes_used == 5

    def test_empty_plan_yields_single_zero_probe_point(self):
        model = generate_network(small_spec(seed=8))
        target = model.published[0]
        plan = ProbePlan(model.floodfills, batch_size=5, max_probes=0)
        curve = run_probe_experiment(model, [target], plan)[0]
        assert curve.points == ((0, 0),)
        assert curve.report.probes_used == 0

    def test_monotone_hits(self):
        model = generate_network(small_spec(seed=12))
        plan = ProbePlan(model.floodfills, batch_size=3)
        targets = list(model.routers)[:10]
        for curve in run_probe_experiment(model, targets, plan):
            hits = [h for _, h in curve.points]
            assert hits == sorted(hits)

    def test_target_outside_model_rejected(self):
        model = generate_network(small_spec(seed=1))
        plan = ProbePlan(model.floodfills, batch_size=5)
        with pytest.raises(ValueError):
            run_probe_experiment(model, [bytes(32)], plan)

    def test_plan_outside_model_rejected(self):
        model = generate_network(small_spec(seed=1))
        plan = ProbePlan((bytes(32),), batch_size=5)
        with pytest.raises(ValueError):
            run_probe_experiment(model, [model.published[0]], plan)

    def test_failure_injection_can_force_inconclusive(self):
        model = generate_network(small_spec(seed=13))
        target = sorted(model.exclusive)[0]
        plan = ProbePlan(model.floodfills, batch_size=5)
        curve = run_probe_experiment(
            model, [target], plan, failure_rate=1.0
        )[0]
        assert curve.report.inconclusive is True

    def test_shade8_unreachable_across_random_models(self):
        # 50 random models: every exclusive target stays invisible under a
        # full-floodfill probe plan.
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(20, 80)
            spec = NetworkSpec(
                n_routers=n,
                floodfill_fraction=0.3,
                shade_distribution={"2": 0.3, "3": 0.2, "7": 0.1, "8": 0.1},
                k=rng.randint(1, 4),
                seed=seed,
            )
            model = generate_network(spec)
            plan = ProbePlan(model.floodfills, batch_size=5)
            targets = sorted(model.exclusive)[:2]
            for curve in run_probe_experiment(model, targets, plan):
                assert curve.report.shade.level == 8
                assert all(h == 0 for _, h in curve.points)


class TestCurveExport:
    def test_flat_zero_row_count(self, tmp_path):
        points = tuple((p, 0) for p in range(5, 505, 5))
        curve = HitCurve(target=bytes(32), points=points)
        path = tmp_path / "curves.csv"
        export_curves([curve], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "target,cumulative_probes,hits"
        assert len(lines) == 101  # header + 100 checkpoints
        assert all(line.endswith(",0") for line in lines[1:])

    def test_grouped_and_ordered(self, tmp_path):
        rng = random.Random(14)
        a, b = sorted((rng.randbytes(32), rng.randbytes(32)))
        curves = [
            HitCurve(target=b, points=((5, 0), (10, 1))),
            HitCurve(target=a, points=((5, 1),)),
        ]
        path = tmp_path / "curves.csv"
        export_curves(curves, path)
        loaded = load_curves(path)
        assert {c.target: c.points for c in loaded} == {
            a: ((5, 1),),
            b: ((5, 0), (10, 1)),
        }
        rows = path.read_text().splitlines()[1:]
        targets_in_file = [row.split(",")[0] for row in rows]
        assert targets_in_file == sorted(targets_in_file)

    def test_round_trip(self, tmp_path):
        model = generate_network(small_spec(seed=15))
        plan = ProbePlan(model.floodfills, batch_size=4)
        curves = run_probe_experiment(model, list(model.routers)[:6], plan)
        path = tmp_path / "curves.csv"
        export_curves(curves, path)
        reloaded = {c.target: c.points for c in load_curves(path)}
        assert reloaded == {c.target: c.points for c in curves}

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_curves([], tmp_path / "x.csv")


class TestFixtureHelpers:
    def test_corpus_files_decode(self, tmp_path):
        records = write_fixture_corpus(tmp_path, n=12, floodfill_count=5, seed=2)
        files = sorted(tmp_path.glob("routerInfo-*.dat"))
        assert len(files) == 12
        floodfills = [r for r in records if r.is_floodfill]
        assert len(floodfills) == 5

    def test_random_record_deterministic(self):
        assert random_record(random.Random(77)) == random_record(random.Random(77))

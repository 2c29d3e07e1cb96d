import dataclasses
import gc
import json
import random
import sys
import tempfile
import tracemalloc
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadescope
from shadescope.classify import classify
from shadescope.dht import routing_key
from shadescope.encoding import InputError, hash_to_b64
from shadescope.protocol import ProbePlan, ProbeTransportError, classify_remote
from shadescope.sim import (
    HitCurve,
    InfeasibleSpecError,
    MAX_K,
    MAX_ROUTERS,
    NetworkSpec,
    SimulatedSource,
    completeness_metrics,
    export_curves,
    generate_network,
    _PLANS,
    _RECIPES,
    _take,
    run_probe_experiment,
    synth_record,
)

from fixtures import (load_curves, oracle_export_curves, oracle_nearest, oracle_synth_record,
                      random_record, write_fixture_corpus)


def small_spec(seed=0, n=60, k=2):
    return NetworkSpec(
        n_routers=n,
        floodfill_fraction=0.3,
        shade_distribution={"2": 0.2, "3": 0.15, "5": 0.15, "7": 0.1, "8": 0.1},
        k=k,
        seed=seed,
    )


def _built(record):
    return getattr(record, "_draws", None) is None


def census_spec():
    dist = {
        "2": 500 / 3242, "3": 500 / 3242, "4": 300 / 3242,
        "5": 200 / 3242, "6": 100 / 3242, "7": 85 / 3242, "8": 1 / 3242,
    }
    return NetworkSpec(
        n_routers=3242, floodfill_fraction=1556 / 3242,
        shade_distribution=dist, k=4, seed=0,
    )


# Every width synthesis draws below, 1, and powers of two: at 2**j the
# stdlib draws j + 1 bits, one more than a width of 2**j - 1 needs.
SYNTH_WIDTHS = (2, 3, 4, 7, 10, 254, 256, 401, 8501, 22000, 86_400_001, 2**31)
DRAW_WIDTHS = (1,) + SYNTH_WIDTHS + tuple(2**j for j in range(1, 80, 7))

DRAWS = st.lists(st.one_of(
    st.tuples(st.just("randrange"), st.integers(-5, 5),
              st.one_of(st.sampled_from(DRAW_WIDTHS), st.integers(1, 2**80))),
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(st.just("randbytes"), st.integers(0, 70)),
), max_size=30)


def _plan_entry(draw):
    """One draw as a plan entry for :func:`_take`, the value it stands for,
    and the same draw through the stdlib method."""
    kind, *args = draw
    if kind == "randrange":
        start, width = args
        return ((width, width.bit_length()), lambda value: start + value,
                lambda stdlib: stdlib.randrange(start, start + width))
    if kind == "choice":
        seq = tuple(range(100, 100 + args[0]))
        return ((len(seq), len(seq).bit_length()), seq.__getitem__,
                lambda stdlib: stdlib.choice(seq))
    (n,) = args
    return ((1 << 8 * n, 8 * n), lambda value: value.to_bytes(n, "little"),
            lambda stdlib: stdlib.randbytes(n))


class TestDraws:
    """Synthesis draws as ``Random.randrange``/``choice``/``randbytes`` would."""

    @pytest.mark.parametrize("width", DRAW_WIDTHS)
    def test_below_matches_randrange_at_each_width(self, width):
        helper, stdlib = random.Random(5), random.Random(5)
        for _ in range(50):
            assert _take(helper, ((width, width.bit_length()),)) == [stdlib.randrange(width)]
            assert helper.getstate() == stdlib.getstate()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64), DRAWS)
    def test_interleaved_draws_match_stdlib(self, seed, draws):
        # Each draw taken alone, and all of them taken as one plan, agree
        # with the stdlib methods drawn in turn.
        helper, stdlib, whole = random.Random(seed), random.Random(seed), random.Random(seed)
        entries = [_plan_entry(draw) for draw in draws]
        values = _take(whole, tuple(entry for entry, _, _ in entries))
        for (entry, value_of, stdlib_draw), value in zip(entries, values):
            (alone,) = _take(helper, (entry,))
            assert value_of(alone) == value_of(value) == stdlib_draw(stdlib)
            assert helper.getstate() == stdlib.getstate()
        assert whole.getstate() == stdlib.getstate()

    def test_synth_widths_are_the_plans_bounded_draws(self):
        # Every entry but a raw-bits one (bound 1 << bits) can draw again,
        # so each of their widths is one of those tested above.
        bounded = {bound for plan in _PLANS.values() for bound, bits in plan if bound != 1 << bits}
        assert bounded == set(SYNTH_WIDTHS)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 7))
    def test_synth_record_matches_stdlib_definition(self, seed, level):
        helper, stdlib = random.Random(seed), random.Random(seed)
        assert synth_record(helper, level) == oracle_synth_record(stdlib, level)
        assert helper.getstate() == stdlib.getstate()


class TestSynthRecord:
    # A profile reads only the caps string and which address maker ran, never
    # the random values, so drawing every caps choice of a recipe covers every
    # profile synthesis can make for that level.
    @pytest.mark.parametrize("level", range(1, 8))
    def test_classifies_to_requested_level(self, level):
        choices, _ = _RECIPES[level]
        drawn = set()
        for seed in range(64):
            record = synth_record(random.Random(seed), level)
            assert classify(record.profile()).level == level
            drawn.add(record.caps)
        assert drawn == set(choices)

    def test_rejects_level_8(self):
        with pytest.raises(ValueError):
            synth_record(random.Random(0), 8)

    def test_floodfills_carry_counts(self):
        record = synth_record(random.Random(1), 1)
        assert record.known_routers is not None
        assert record.known_leasesets is not None

    # Level 7 is left out: its caps are one letter, which CPython shares
    # however it is made.
    @pytest.mark.parametrize("level", range(1, 7))
    def test_equal_caps_share_one_string(self, level):
        rng = random.Random(level)
        first: dict[str, str] = {}
        for _ in range(40):
            caps = synth_record(rng, level).caps
            assert caps is first.setdefault(caps, caps)


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
        # Ground truth of a whole model: every published record classifies to
        # its router's true shade, only level-8 routers go unpublished, and
        # each level has its spec count.
        spec = census_spec()
        model = generate_network(spec)
        assert len(model.routers) == 3242
        assert len(model.floodfills) == 1556
        assert len(model.exclusive) == 1
        for router in model.routers.values():
            if router.shade.level == 8:
                assert router.record is None
                assert router.hash in model.exclusive
            else:
                assert classify(router.record.profile()) == router.shade
        levels = Counter(router.shade.level for router in model.routers.values())
        assert levels == Counter(spec.counts)

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="bound measured on CPython 3.11; object sizes differ by version")
    def test_census_model_memory_per_router(self):
        # Traced bytes a census model holds per router, after a warm-up
        # generation, on CPython 3.11.7: 1,086 with records that keep their
        # raw draws until a field is read; 1,140 when they kept the drawn
        # values offset and the address builder; 1,673 with every record
        # built at synthesis; 1,713 with a size slot per destination; 1,889
        # with dict-backed records and a caps string per record. The bound
        # lies halfway between 1,140 and 1,673.
        spec = census_spec()
        generate_network(spec)
        tracemalloc.start()
        try:
            model = generate_network(spec)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / len(model.routers) < 1_407

    def test_census_generation_builds_no_record(self):
        # Generation reads only each record's hash; a replay of the
        # exclusive target, as criterion 1 runs it, reads no record either.
        model = generate_network(census_spec())
        records = [router.record for router in model.routers.values() if router.record is not None]
        assert len(records) == 3241 and not any(map(_built, records))
        plan = ProbePlan(model.floodfills, batch_size=5, max_probes=500)
        curve, = run_probe_experiment(model, sorted(model.exclusive), plan)
        assert curve.report.shade.level == 8 and curve.report.probes_used == 500
        assert not any(map(_built, records))

    def test_replay_builds_exactly_the_records_it_found(self):
        model = generate_network(small_spec(seed=3, n=400))
        plan = ProbePlan(model.floodfills, batch_size=5, max_probes=20)
        targets = sorted(model.routers)[:150]
        found = {id(curve.report.record) for curve in run_probe_experiment(model, targets, plan)
                 if curve.report.record is not None}
        built = {id(router.record) for router in model.routers.values()
                 if router.record is not None and _built(router.record)}
        published = sum(model.routers[target].record is not None for target in targets)
        assert 0 < len(found) < published
        assert built == found

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

    def test_each_store_lists_its_records_in_published_order(self):
        model = generate_network(small_spec(seed=8, n=120, k=3))
        nearest = {h: oracle_nearest(routing_key(h, model.spec.date), model.floodfills, 3)
                   for h in model.published}
        assert list(model.knowledge) == list(model.floodfills)
        for f, stored in model.knowledge.items():
            assert list(stored) == [h for h in model.published if f in nearest[h]]
            assert all(record is model.routers[h].record for h, record in stored.items())

    def test_collector_flag_restored(self, collector):
        generate_network(small_spec())
        assert gc.isenabled() is collector

    def test_collector_flag_restored_when_generation_raises(self, collector, monkeypatch):
        seen = []

        def failing_synth(rng, level):
            seen.append(gc.isenabled())
            raise RuntimeError("synthesis failed")

        monkeypatch.setattr(shadescope.sim, "synth_record", failing_synth)
        with pytest.raises(RuntimeError, match="synthesis failed"):
            generate_network(small_spec())
        assert seen == [False]  # raised inside the pause
        assert gc.isenabled() is collector

    def test_caller_frozen_objects_stay_frozen(self):
        kept = [[i] for i in range(1000)]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen >= len(kept)
            generate_network(small_spec())
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_census_model_is_promoted_unscanned(self):
        # The new model leaves the young generation without a scan, so the
        # next young collection does not walk it.
        model = generate_network(census_spec())
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert any(obj is model.knowledge for obj in gc.get_objects(generation=2))

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
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec(
                n_routers=100, floodfill_fraction=0.5,
                shade_distribution={"1": 0.0, "2": 0.5, "3": 0.5},
            )

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec(
                n_routers=100, floodfill_fraction=0.2,
                shade_distribution={"2": 0.2},
            )

    def test_explicit_shade1_must_agree_with_fraction(self):
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec(
                n_routers=100, floodfill_fraction=0.5,
                shade_distribution={"1": 0.2, "2": 0.8},
            )

    def test_bad_level_key(self):
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec(
                n_routers=10, floodfill_fraction=0.5,
                shade_distribution={"9": 1.0},
            )

    @pytest.mark.parametrize("distribution, message", [
        ({2: 0.1, "2": 0.4, "8": 0.1}, "shade level 2 given twice"),
        ({"01": 0.5, "2": 0.4, "8": 0.1}, "bad shade_distribution entry '01'"),
    ])
    def test_each_level_has_one_key(self, distribution, message):
        with pytest.raises(InfeasibleSpecError, match=message):
            NetworkSpec(n_routers=10, floodfill_fraction=0.5,
                        shade_distribution=distribution)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_routers": 0},
            {"n_routers": MAX_ROUTERS + 1},
            {"floodfill_fraction": 1.5},
            {"k": 0},
            {"k": MAX_K + 1},
        ],
    )
    def test_bad_scalars(self, kwargs):
        base = dict(
            n_routers=10, floodfill_fraction=0.5,
            shade_distribution={"2": 0.5}, k=1, seed=0,
        )
        base.update(kwargs)
        with pytest.raises(InfeasibleSpecError):
            NetworkSpec(**base)

    @pytest.mark.parametrize("kwargs", [
        {"k": 2.5}, {"k": True}, {"n_routers": 40.0}, {"n_routers": True}, {"seed": "x"},
    ], ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()))
    def test_constructor_checks_types(self, kwargs):
        # The file's type rule holds for a spec made in code too: no numpy
        # TypeError later, and no bool read as a number.
        base = dict(n_routers=40, floodfill_fraction=0.25,
                    shade_distribution={"2": 0.5, "8": 0.25})
        with pytest.raises(InfeasibleSpecError, match="wrong type"):
            NetworkSpec(**{**base, **kwargs})

    @pytest.mark.parametrize("date", ["\uff12\uff10\uff12\uff15\uff10\uff11\uff10\uff11",
                                      "\u0662\u0660\u0662\u0665\u0660\u0661\u0660\u0661"],
                             ids=["fullwidth", "arabic-indic"])
    def test_non_ascii_digit_date_is_not_yyyymmdd(self, date):
        # \d would match these digits; only ASCII ones spell a date.
        with pytest.raises(InfeasibleSpecError, match="date must be yyyyMMdd"):
            NetworkSpec(n_routers=10, floodfill_fraction=0.5, shade_distribution={"2": 0.5},
                        date=date)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), k=st.integers(0, 6), seed=st.integers(0, 3),
           date=st.sampled_from(["20250101", "20250401", "20251231", "20251301"]))
    def test_a_spec_that_constructs_generates_its_counts(self, data, n, k, seed, date):
        # Counts drawn per level (level 1 sometimes implied by the floodfill
        # fraction), or a fraction drawn at random: the spec either refuses
        # itself or generates a model with exactly its counts per level.
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=7, max_size=7)))
        drawn = {level: hi - lo for level, (lo, hi) in
                 enumerate(zip([0, *cuts], [*cuts, n]), start=1)}
        distribution = {str(level): c / n for level, c in drawn.items()}
        if data.draw(st.booleans()):
            del distribution["1"]
        if data.draw(st.integers(0, 3)) == 0:
            level = data.draw(st.sampled_from(sorted(distribution)))
            distribution[level] = data.draw(st.floats(0, 1))
        try:
            spec = NetworkSpec(n_routers=n, floodfill_fraction=drawn[1] / n,
                               shade_distribution=distribution, k=k, seed=seed, date=date)
        except InfeasibleSpecError:
            return
        model = generate_network(spec)
        levels = [router.shade.level for router in model.routers.values()]
        assert len(model.routers) == spec.n_routers == sum(spec.counts.values())
        assert {level: levels.count(level) for level in spec.counts} == spec.counts

    def test_stored_mappings_are_read_only_copies(self):
        # Neither the caller's dict nor the stored mappings can change a
        # checked spec, so it builds what it says; replace() still builds.
        distribution = {"2": 0.5, "8": 0.25}
        spec = NetworkSpec(n_routers=40, floodfill_fraction=0.25,
                           shade_distribution=distribution)
        built = generate_network(spec)
        distribution["2"] = 0.25
        distribution["7"] = 0.25
        with pytest.raises(TypeError):
            spec.counts[2] += 5
        with pytest.raises(TypeError):
            spec.shade_distribution["2"] = 0.75
        assert spec.shade_distribution == {"2": 0.5, "8": 0.25}
        assert spec.counts == {1: 10, 2: 20, 8: 10}
        assert spec == NetworkSpec(n_routers=40, floodfill_fraction=0.25,
                                   shade_distribution={"2": 0.5, "8": 0.25})
        again = generate_network(spec)
        assert len(again.routers) == spec.n_routers
        assert {h: r.shade for h, r in again.routers.items()} == {
            h: r.shade for h, r in built.routers.items()}
        replaced = dataclasses.replace(spec, seed=2)
        assert replaced.seed == 2 and replaced.counts == spec.counts
        levels = [r.shade.level for r in generate_network(replaced).routers.values()]
        assert {level: levels.count(level) for level in replaced.counts} == replaced.counts

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

    @pytest.mark.parametrize("rate", [float("nan"), -1.0, 1.5, float("inf")])
    def test_failure_rate_outside_unit_interval_rejected(self, rate):
        # Unchecked, NaN or a negative rate fails no probe, so a level-8 run
        # would be certified under a rate that means nothing.
        model = generate_network(small_spec(seed=3))
        with pytest.raises(ValueError, match="failure_rate"):
            SimulatedSource(model, rate)
        plan = ProbePlan(model.floodfills, batch_size=5)
        with pytest.raises(ValueError, match="failure_rate"):
            run_probe_experiment(model, sorted(model.exclusive)[:1], plan, failure_rate=rate)

    @pytest.mark.parametrize("seed", [None, 7], ids=["default", "seed 7"])
    def test_failures_are_draws_from_the_failure_seed(self, seed):
        # Probe i fails when draw i of random.Random(failure_seed) falls
        # below the rate; the seed defaults to 0.
        model = generate_network(small_spec(seed=3))
        source = (SimulatedSource(model, 0.5) if seed is None
                  else SimulatedSource(model, 0.5, failure_seed=seed))
        draws = random.Random(seed or 0)
        for floodfill in model.floodfills * 3:
            expected = draws.random() < 0.5
            try:
                source.probe_floodfill(floodfill)
                failed = False
            except ProbeTransportError:
                failed = True
            assert failed == expected

    def test_probing_non_floodfill_fails(self):
        model = generate_network(small_spec(seed=3))
        source = SimulatedSource(model)
        with pytest.raises(InputError):
            source.probe_floodfill(bytes(32))

    @pytest.mark.parametrize("mixed", [False, True], ids=["non-floodfills", "mixed"])
    def test_plan_outside_the_floodfills_is_an_input_error(self, mixed):
        # A planned hash the model has no floodfill for is a bad plan, as
        # run_probe_experiment states it, not a probe that failed: neither
        # an inconclusive verdict nor a "failed_probes" certificate.
        model = generate_network(small_spec(seed=3))
        others = [h for h in model.published if h not in model.knowledge][:5]
        plan = ProbePlan((*model.floodfills, *others) if mixed else tuple(others), batch_size=5)
        message = "plan includes a hash outside the model's floodfills"
        with pytest.raises(InputError, match=message):
            classify_remote(sorted(model.exclusive)[0], SimulatedSource(model), plan)
        with pytest.raises(InputError, match=message):
            run_probe_experiment(model, sorted(model.exclusive)[:1], plan)


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

    @pytest.mark.parametrize("first, bad, message", [
        (None, bytes(31), "^hash must be exactly 32 bytes$"),
        (None, "a" * 32, "^hash must be exactly 32 bytes$"),
        (None, [0] * 32, "^hash must be exactly 32 bytes$"),
        (bytes(32), bytes(31), "^target not in model: "),
    ], ids=["short", "text", "unhashable", "absent-before-short"])
    def test_first_bad_target_names_the_error(self, first, bad, message):
        # The membership pass finds a bad target; the loop after it raises
        # for the first one, as the check of a 32-byte hash or the naming
        # of an absent one would.
        model = generate_network(small_spec(seed=1))
        plan = ProbePlan(model.floodfills, batch_size=5)
        targets = [model.published[0], *([first] if first else []), bad]
        with pytest.raises(InputError, match=message):
            run_probe_experiment(model, targets, plan)

    def test_bytearray_targets_are_replayed_as_bytes(self):
        model = generate_network(small_spec(seed=16))
        plan = ProbePlan(model.floodfills, batch_size=3)
        targets = list(model.routers)[:12]
        given = [bytearray(t) if i % 2 else t for i, t in enumerate(targets)]
        curves = run_probe_experiment(model, given, plan, 0.2, 3)
        assert curves == run_probe_experiment(model, targets, plan, 0.2, 3)
        assert all(type(c.target) is bytes and type(c.report.subject) is bytes
                   for c in curves)

    def test_bytearray_plan_floodfills_are_probed_as_bytes(self):
        model = generate_network(small_spec(seed=17))
        plan = ProbePlan(tuple(map(bytearray, model.floodfills)), batch_size=3)
        assert plan == ProbePlan(model.floodfills, batch_size=3)
        assert all(type(f) is bytes for f in plan.floodfills)
        targets = list(model.routers)[:12]
        assert (run_probe_experiment(model, targets, plan, 0.2, 4)
                == run_probe_experiment(model, targets, ProbePlan(model.floodfills, 3), 0.2, 4))

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

    @pytest.mark.parametrize("failure_rate", [0.0, 0.3, 1.0])
    def test_points_are_the_outcome_formula_shared_per_outcome(self, failure_rate):
        # Shuffled plans of random batch sizes and budgets over random models:
        # each curve's points are the per-target formula, curves that used as
        # many probes with the same hit hold one tuple, and no tuple is shared
        # across two outcomes.
        shared_curves = 0
        for seed in range(12):
            rng = random.Random(seed)
            model = generate_network(small_spec(seed=seed, n=rng.randint(30, 90), k=rng.randint(1, 4)))
            floodfills = list(model.floodfills)
            rng.shuffle(floodfills)
            plan = ProbePlan(tuple(floodfills), batch_size=rng.randint(1, 7),
                             max_probes=rng.choice([None, 0, rng.randint(1, len(floodfills))]))
            ends = tuple(accumulate(len(batch) for batch in plan.batches()))
            misses = tuple((end, 0) for end in ends)
            curves = run_probe_experiment(model, list(model.routers), plan,
                                          failure_rate=failure_rate, failure_seed=seed)
            by_outcome = {}
            for curve in curves:
                used = curve.report.probes_used
                hit = int(curve.report.record is not None)
                assert curve.points == misses[:bisect_left(ends, used)] + ((used, hit),)
                assert curve.points is by_outcome.setdefault((used, hit), curve.points)
            assert len({id(points) for points in by_outcome.values()}) == len(by_outcome)
            shared_curves += len(curves) - len(by_outcome)
        assert shared_curves > 0


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

    @pytest.mark.parametrize("existed", [False, True], ids=["new path", "existing path"])
    def test_failed_export_removes_only_a_file_it_created(self, tmp_path, existed):
        # The second curve's point cannot be formatted, so the export fails
        # after the header and the first curve's row were written.
        good, bad = HitCurve(bytes(32), ((5, 0),)), HitCurve(bytes([1]) * 32, (None,))
        path = tmp_path / "curves.csv"
        if existed:
            path.write_text("kept\n")
        with pytest.raises(TypeError):
            export_curves([good, bad], path)
        if existed:  # left, truncated, holding what was written before the failure
            assert path.read_bytes() == (b"target,cumulative_probes,hits\r\n"
                                         + hash_to_b64(bytes(32)).encode() + b",5,0\r\n")
        else:
            assert not path.exists()

    def test_longer_file_is_rewritten_to_exactly_the_new_bytes(self, tmp_path):
        curves = [HitCurve(bytes(32), ((5, 0), (10, 1)))]
        fresh, path = tmp_path / "fresh.csv", tmp_path / "curves.csv"
        export_curves(curves, fresh)
        path.write_bytes(b"x" * 100_000 + b"\n")
        export_curves(curves, path)
        assert path.read_bytes() == fresh.read_bytes()

    def test_failed_export_into_a_longer_file_holds_what_was_written(self, tmp_path):
        # The old file is longer than what the export writes before it
        # fails; none of the old content is left after the new bytes.
        good, bad = HitCurve(bytes(32), ((5, 0),)), HitCurve(bytes([1]) * 32, (None,))
        path = tmp_path / "curves.csv"
        path.write_bytes(b"old row\r\n" * 10_000)
        with pytest.raises(TypeError):
            export_curves([good, bad], path)
        assert path.read_bytes() == (b"target,cumulative_probes,hits\r\n"
                                     + hash_to_b64(bytes(32)).encode() + b",5,0\r\n")

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_curves([], tmp_path / "x.csv")

    def test_curve_without_points_writes_no_row(self, tmp_path):
        a, b = bytes(32), bytes([1]) * 32
        path = tmp_path / "curves.csv"
        export_curves([HitCurve(target=a, points=()), HitCurve(target=b, points=((5, 0),))], path)
        assert path.read_bytes() == (b"target,cumulative_probes,hits\r\n"
                                     + hash_to_b64(b).encode() + b",5,0\r\n")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.builds(HitCurve,
                  target=st.sampled_from([bytes([i]) * 32 for i in (0, 7, 62, 63, 255)])
                  | st.binary(min_size=32, max_size=32),
                  points=st.lists(st.tuples(st.integers(-2**70, 2**70) | st.integers(-3, 12),
                                            st.integers(-2**70, 2**70) | st.integers(-1, 2)),
                                  max_size=8).map(tuple)),
        min_size=1, max_size=12))
    def test_bytes_equal_oracle(self, curves):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            export_curves(curves, new)
            oracle_export_curves(curves, old)
            assert new.read_bytes() == old.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shared_points_bytes_equal_oracle(self, data):
        # Curves draw their points from a small pool of tuple objects, so
        # many share one object, as one run_probe_experiment outcome's do.
        # The pool also holds an equal-valued copy and a same-length variant
        # of each tuple, and the empty tuple.
        point = st.tuples(st.integers(0, 600), st.integers(0, 1))
        base = data.draw(st.lists(st.lists(point, min_size=1, max_size=6).map(tuple),
                                  min_size=1, max_size=4))
        copies = [tuple(list(points)) for points in base]
        variants = [tuple((probes + 1, hits) for probes, hits in points) for points in base]
        pool = base + copies + variants + [()]
        assert all(c is not b for c, b in zip(copies, base))
        targets = st.sampled_from([bytes([i]) * 32 for i in (0, 7, 62, 63, 255)])
        picks = data.draw(st.lists(st.tuples(targets | st.binary(min_size=32, max_size=32),
                                             st.integers(0, len(pool) - 1)),
                                   min_size=1, max_size=20))
        curves = [HitCurve(target=target, points=pool[i]) for target, i in picks]
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            export_curves(curves, new)
            oracle_export_curves(curves, old)
            assert new.read_bytes() == old.read_bytes()

    def test_export_past_the_buffer_equals_oracle(self, tmp_path):
        # 400 targets x 100 points is about 2 MB, so the output buffer
        # flushes several times before close.
        rng = random.Random(20)
        curves = [HitCurve(target=rng.randbytes(32),
                           points=tuple((rng.randrange(10**6), rng.randrange(2)) for _ in range(100)))
                  for _ in range(400)]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        export_curves(curves, new)
        oracle_export_curves(curves, old)
        assert new.stat().st_size > 2 * (1 << 20)
        assert new.read_bytes() == old.read_bytes()

    def test_export_makes_few_write_calls(self, tmp_path):
        # About 9 MB of rows: one write(2) per target's block, as through an
        # 8 KiB buffer, would be about 2,000 calls. Only this process's own
        # counters are read.
        def write_calls():
            fields = dict(line.split(": ") for line in Path("/proc/self/io").read_text().splitlines())
            return int(fields["syscw"])

        rng = random.Random(21)
        points = tuple((5 * i, int(i == 99)) for i in range(1, 101))
        curves = [HitCurve(target=rng.randbytes(32), points=points) for _ in range(2000)]
        path = tmp_path / "curves.csv"
        try:
            before = write_calls()
        except OSError:
            pytest.skip("/proc/self/io cannot be read")
        export_curves(curves, path)
        calls = write_calls() - before
        assert path.stat().st_size > 9 * 10**6
        assert calls <= 16


class TestFixtureHelpers:
    def test_corpus_files_decode(self, tmp_path):
        records = write_fixture_corpus(tmp_path, n=12, floodfill_count=5, seed=2)
        files = sorted(tmp_path.glob("routerInfo-*.dat"))
        assert len(files) == 12
        floodfills = [r for r in records if r.is_floodfill]
        assert len(floodfills) == 5

    def test_random_record_deterministic(self):
        assert random_record(random.Random(77)) == random_record(random.Random(77))

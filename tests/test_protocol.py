import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadescope.classify import Evidence, EvidenceSource, classify
from shadescope.encoding import hash_to_b64
from shadescope.model import SHADE_EXCLUSIVE
from shadescope.netdb import NetDbSnapshot
from shadescope.protocol import (
    ProbePlan,
    ProbeTransportError,
    SnapshotSource,
    classify_remote,
    classify_sweep,
    shade8_certificate,
    write_probe_log,
)
from shadescope.sim import (
    NetworkSpec,
    SimulatedSource,
    generate_network,
    run_probe_experiment,
    synth_record,
)


def record_for(level, seed=0):
    return synth_record(random.Random(seed), level)


class ScriptedSource:
    """A probe answers with the floodfill's ``knowledge`` records; the console
    view is fixed, as in the real protocol."""

    def __init__(self, local=None, console=None, knowledge=None, fail=frozenset()):
        self.local = local or {}
        self.console = dict(console or {})
        self.knowledge = knowledge or {}
        self.fail = set(fail)
        self.console_calls = []
        self.probe_calls = []

    def lookup_local(self, h):
        return self.local.get(h)

    def lookup_console(self, h):
        self.console_calls.append(h)
        return self.console.get(h)

    def probe_floodfill(self, f):
        self.probe_calls.append(f)
        if f in self.fail:
            raise ProbeTransportError("scripted failure")
        return self.knowledge.get(f, {})


def _hashes(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(32) for _ in range(n)]


class TestProbePlan:
    def test_batches_partition_in_order(self):
        ff = tuple(_hashes(12, seed=1))
        plan = ProbePlan(ff, batch_size=5, max_probes=11)
        batches = list(plan.batches())
        assert [len(b) for b in batches] == [5, 5, 1]
        assert tuple(x for b in batches for x in b) == ff[:11]

    def test_default_budget_is_whole_list(self):
        plan = ProbePlan(tuple(_hashes(7)), batch_size=3)
        assert plan.probe_limit == 7
        assert [len(b) for b in list(plan.batches())] == [3, 3, 1]

    def test_budget_capped_by_list(self):
        plan = ProbePlan(tuple(_hashes(4)), batch_size=2, max_probes=100)
        assert plan.probe_limit == 4

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ProbePlan((), batch_size=0)


class TestClassifyRemote:
    def test_local_hit_shortcircuits_everything(self):
        record = record_for(1)
        source = ScriptedSource(local={record.hash: record})
        plan = ProbePlan(tuple(_hashes(10)), batch_size=5)
        report = classify_remote(record.hash, source, plan)
        assert report.shade.level == 1
        assert report.probes_used == 0
        assert source.probe_calls == []
        assert [e.source for e in report.evidence] == [EvidenceSource.LOCAL_NETDB]
        assert report.caps == record.caps

    def test_console_hit(self):
        record = record_for(2)
        source = ScriptedSource(console={record.hash: record})
        report = classify_remote(record.hash, source, ProbePlan((), batch_size=5))
        assert report.shade.level == 2
        assert [e.source for e in report.evidence] == [
            EvidenceSource.LOCAL_NETDB,
            EvidenceSource.CONSOLE_CACHE,
        ]
        assert report.evidence[0].hit is False
        assert report.evidence[1].hit is True

    def test_planted_knowledge_in_third_batch(self):
        record = record_for(3)
        floodfills = _hashes(30, seed=2)
        # Only one floodfill, sitting in batch 3 (indexes 10..14), knows it.
        knowing = floodfills[12]
        source = ScriptedSource(knowledge={knowing: {record.hash: record}})
        plan = ProbePlan(tuple(floodfills), batch_size=5)
        report = classify_remote(record.hash, source, plan)
        assert report.shade.level == 3
        assert report.probes_used == 15
        assert report.evidence[-1] == report.evidence[2]
        assert report.evidence[2].source == EvidenceSource.FLOODFILL_PROBE
        assert report.evidence[2].hit is True
        assert report.evidence[2].probes_used == 15

    def test_exhaustion_returns_exclusive(self):
        target = bytes(32)
        plan = ProbePlan(tuple(_hashes(20, seed=3)), batch_size=5, max_probes=10)
        source = ScriptedSource()
        report = classify_remote(target, source, plan)
        assert report.shade.level == 8
        assert report.probes_used == 10
        assert report.failed_probes == 0
        assert [e.hit for e in report.evidence] == [False, False, False]
        assert shade8_certificate(report) is True

    def test_monotone_no_probe_after_hit(self):
        record = record_for(4)
        floodfills = _hashes(20, seed=4)
        source = ScriptedSource(knowledge={floodfills[1]: {record.hash: record}})
        plan = ProbePlan(tuple(floodfills), batch_size=5)
        report = classify_remote(record.hash, source, plan)
        assert report.probes_used == 5
        assert source.probe_calls == floodfills[:5]

    def test_all_probes_failing_is_inconclusive(self):
        floodfills = _hashes(6, seed=5)
        source = ScriptedSource(fail=frozenset(floodfills))
        plan = ProbePlan(tuple(floodfills), batch_size=2)
        report = classify_remote(bytes(32), source, plan)
        assert report.inconclusive is True
        assert report.shade is None
        assert report.failed_probes == 6
        assert shade8_certificate(report) is False

    def test_partial_failure_blocks_certificate(self):
        floodfills = _hashes(6, seed=6)
        source = ScriptedSource(fail=frozenset(floodfills[:1]))
        plan = ProbePlan(tuple(floodfills), batch_size=3)
        report = classify_remote(bytes(32), source, plan)
        assert report.shade.level == 8
        assert report.failed_probes == 1
        assert shade8_certificate(report) is False

    def test_source_order_in_evidence(self):
        target = bytes(32)
        source = ScriptedSource()
        report = classify_remote(target, source, ProbePlan(tuple(_hashes(4)), batch_size=2))
        order = [e.source for e in report.evidence]
        assert order == [
            EvidenceSource.LOCAL_NETDB,
            EvidenceSource.CONSOLE_CACHE,
            EvidenceSource.FLOODFILL_PROBE,
        ]

    def test_checkpoint_callback_sees_every_batch(self):
        # Hit-curve points are the plan's batch ends up to the probes used.
        spec = NetworkSpec(n_routers=40, floodfill_fraction=0.5,
                           shade_distribution={"2": 0.25, "8": 0.25}, k=2, seed=1)
        model = generate_network(spec)
        plan = ProbePlan(model.floodfills[:12], batch_size=5)
        (curve,) = run_probe_experiment(model, [sorted(model.exclusive)[0]], plan)
        assert curve.points == ((5, 0), (10, 0), (12, 0))

    def test_probe_count_bound(self):
        floodfills = _hashes(9, seed=8)
        plan = ProbePlan(tuple(floodfills), batch_size=4, max_probes=50)
        report = classify_remote(bytes(32), ScriptedSource(), plan)
        assert report.probes_used == min(50, len(floodfills)) == plan.probe_limit


def per_subject_replay(subject, source, plan):
    """Reference: one run for one subject on its own source, probing the
    plan in order until the first batch whose answers include the subject."""
    evidence = []
    record = source.lookup_local(subject)
    evidence.append(Evidence(EvidenceSource.LOCAL_NETDB, record is not None))
    if record is None:
        record = source.lookup_console(subject)
        evidence.append(Evidence(EvidenceSource.CONSOLE_CACHE, record is not None))
    probes_used, failed_at = 0, []
    if record is None:
        for batch in plan.batches():
            for floodfill in batch:
                probes_used += 1
                try:
                    answer = source.probe_floodfill(floodfill)
                except ProbeTransportError:
                    failed_at.append(probes_used)
                    continue
                if subject in answer:
                    record = answer[subject]
            if record is not None:
                break
        evidence.append(
            Evidence(EvidenceSource.FLOODFILL_PROBE, record is not None, probes_used)
        )
    if record is not None:
        shade = classify(record.profile())
    elif probes_used and len(failed_at) == probes_used:
        shade = None
    else:
        shade = SHADE_EXCLUSIVE
    return shade, tuple(evidence), probes_used, tuple(failed_at)


@st.composite
def sweep_cases(draw):
    spec = NetworkSpec(
        n_routers=draw(st.integers(12, 60)),
        floodfill_fraction=0.3,
        shade_distribution={"2": 0.25, "3": 0.2, "7": 0.1, "8": 0.15},
        k=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
    )
    model = generate_network(spec)
    floodfills = list(model.floodfills)
    random.Random(draw(st.integers(0, 2**16))).shuffle(floodfills)
    floodfills = floodfills[: draw(st.integers(0, len(floodfills)))]
    plan = ProbePlan(
        tuple(floodfills),
        batch_size=draw(st.integers(1, 7)),
        max_probes=draw(st.one_of(st.none(), st.integers(0, len(floodfills) + 3))),
    )
    routers = sorted(model.routers)
    targets = draw(st.lists(st.sampled_from(routers), min_size=1, max_size=12))
    targets += sorted(model.exclusive)[:1] + targets[:1]  # an exclusive and a repeat
    local = draw(st.sets(st.sampled_from(sorted(model.published)), max_size=4))
    return model, plan, targets, local


class TestClassifySweep:
    @settings(max_examples=80, deadline=None)
    @given(
        case=sweep_cases(),
        failure_rate=st.sampled_from([0.0, 0.3, 1.0]),
        failure_seed=st.integers(0, 2**16),
        snapshot=st.booleans(),
    )
    def test_sweep_equals_one_run_per_subject(self, case, failure_rate, failure_seed, snapshot):
        model, plan, targets, local = case

        def fresh_source():
            simulated = SimulatedSource(model, failure_rate, random.Random(failure_seed))
            if not snapshot:
                return simulated
            records = {h: model.routers[h].record for h in local}
            return SnapshotSource(NetDbSnapshot(records=records), simulated)

        reports = classify_sweep(targets, fresh_source(), plan)
        assert [r.subject for r in reports] == targets
        for target, report in zip(targets, reports):
            expected = per_subject_replay(target, fresh_source(), plan)
            got = (report.shade, report.evidence, report.probes_used, report.failed_at)
            assert got == expected

    def test_sweep_probes_each_floodfill_once_until_all_seen(self):
        record, other = record_for(2, seed=1), record_for(3, seed=2)
        floodfills = _hashes(9, seed=12)
        source = ScriptedSource(knowledge={floodfills[1]: {record.hash: record},
                                           floodfills[4]: {other.hash: other}})
        plan = ProbePlan(tuple(floodfills), batch_size=3)
        reports = classify_sweep([other.hash, record.hash, other.hash], source, plan)
        assert [r.probes_used for r in reports] == [6, 3, 6]
        assert source.probe_calls == floodfills[:6]

    def test_sweep_looks_up_the_console_once_per_subject(self):
        found, late, cached = (record_for(level, seed=level) for level in (2, 3, 4))
        floodfills = _hashes(12, seed=13)
        source = ScriptedSource(console={cached.hash: cached},
                                knowledge={floodfills[0]: {found.hash: found},
                                           floodfills[8]: {late.hash: late}})
        plan = ProbePlan(tuple(floodfills), batch_size=3)
        subjects = [found.hash, bytes(32), late.hash, cached.hash]
        reports = classify_sweep(subjects, source, plan)
        assert [r.probes_used for r in reports] == [3, 12, 9, 0]
        assert source.console_calls == subjects
        assert source.probe_calls == floodfills

    def test_later_answer_in_a_batch_wins(self):
        first = record_for(2, seed=5)
        later = dataclasses.replace(first, published_ms=first.published_ms + 1)
        floodfills = _hashes(4, seed=14)
        source = ScriptedSource(knowledge={floodfills[0]: {first.hash: first},
                                           floodfills[1]: {later.hash: later}})
        plan = ProbePlan(tuple(floodfills), batch_size=2)
        (report,) = classify_sweep([first.hash], source, plan)
        assert report.record is later
        assert report.probes_used == 2

    def test_unknown_target_listed_last_is_rejected(self, sim_model):
        plan = ProbePlan(sim_model.floodfills[:10], batch_size=5)
        targets = list(sim_model.published[:3]) + [bytes(32)]
        with pytest.raises(ValueError, match="target not in model"):
            run_probe_experiment(sim_model, targets, plan)


class TestCertificate:
    def test_requires_conclusive_exclusive(self):
        record = record_for(1)
        source = ScriptedSource(local={record.hash: record})
        report = classify_remote(record.hash, source, ProbePlan((), batch_size=1))
        assert shade8_certificate(report) is False

    @pytest.mark.parametrize("floodfills, max_probes", [(0, None), (6, 0)])
    def test_requires_at_least_one_probe(self, floodfills, max_probes):
        plan = ProbePlan(tuple(_hashes(floodfills, seed=9)), batch_size=3, max_probes=max_probes)
        source = ScriptedSource()
        report = classify_remote(bytes(32), source, plan)
        assert report.shade.level == 8
        assert report.probes_used == 0 and source.probe_calls == []
        assert shade8_certificate(report) is False


class TestSnapshotSourceAndLog:
    def test_snapshot_source_has_no_probe_transport(self):
        source = SnapshotSource(None)
        assert source.lookup_console(bytes(32)) is None
        with pytest.raises(ProbeTransportError):
            source.probe_floodfill(bytes(32))

    def test_snapshot_source_with_backing(self):
        local, remote = record_for(1, seed=1), record_for(2, seed=2)
        floodfill = _hashes(1, seed=10)[0]
        backing = ScriptedSource(
            local={remote.hash: remote}, knowledge={floodfill: {remote.hash: remote}}
        )
        source = SnapshotSource(NetDbSnapshot(records={local.hash: local}), backing)
        assert source.lookup_local(local.hash) is local
        assert source.lookup_local(remote.hash) is None  # the backing's local view is unused
        assert source.probe_floodfill(floodfill) == {remote.hash: remote}
        assert backing.probe_calls == [floodfill]
        # The answer reaches only the caller: both lookups still miss.
        assert source.lookup_local(remote.hash) is None
        assert source.lookup_console(remote.hash) is None

    def test_probe_log_csv(self, tmp_path):
        floodfills = _hashes(4, seed=9)
        source = ScriptedSource(fail=frozenset(floodfills[2:3]))
        plan = ProbePlan(tuple(floodfills), batch_size=2)
        report = classify_remote(bytes(32), source, plan)
        assert report.failed_at == (3,)
        out = tmp_path / "probes.csv"
        write_probe_log(report, plan, out)
        assert out.read_text().splitlines() == [
            "probe_index,floodfill_b64,result",
            f"1,{hash_to_b64(floodfills[0])},ok",
            f"2,{hash_to_b64(floodfills[1])},ok",
            f"3,{hash_to_b64(floodfills[2])},failed",
            f"4,{hash_to_b64(floodfills[3])},ok",
        ]

    def test_probe_log_stops_at_the_hit(self, tmp_path):
        record = record_for(2, seed=3)
        floodfills = _hashes(6, seed=11)
        source = ScriptedSource(fail=frozenset(floodfills[:1]),
                                knowledge={floodfills[3]: {record.hash: record}})
        plan = ProbePlan(tuple(floodfills), batch_size=2)
        report = classify_remote(record.hash, source, plan)
        assert (report.probes_used, report.failed_at) == (4, (1,))
        out = tmp_path / "probes.csv"
        write_probe_log(report, plan, out)
        assert out.read_text().splitlines() == [
            "probe_index,floodfill_b64,result",
            f"1,{hash_to_b64(floodfills[0])},failed",
            f"2,{hash_to_b64(floodfills[1])},ok",
            f"3,{hash_to_b64(floodfills[2])},ok",
            f"4,{hash_to_b64(floodfills[3])},ok",
        ]

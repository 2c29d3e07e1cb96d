"""Layered benchmark for shadescope.

Run from the repository root (one process, no worker threads):

    python3 perfbench/run.py --workload census --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``census``, ``simulate-32k``, ``snapshot-scan``.
Each is a closed loop with one client. The run sets up its inputs several
times (each set-up starts from a fresh import of the package), then repeats
operations until ``--seconds`` have passed and checks every output against
oracles. Operations 0 and 1 take the same input, so the digests of their
outputs must agree.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries per-layer metrics from spans recorded around
calls into the package modules, on every other operation, so the
untraced operations in between measure the tracing overhead. The first
operation of a run is a warm-up: checked, but neither timed nor traced. Earlier lines
give the environment, the digests, a self-time table and the workload's
own metric names. Files go to ``.perfbench-work/`` in the repository root.
Exit codes: 0 correct, 1 a gate failed, 2 the package is missing.
"""

from __future__ import annotations

import os

# Keep numpy's BLAS pool at one thread: the benchmark is one process, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import pkgutil
import resource
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import Tracer
from timing import Clock, SpeedSampler
from workloads import WORKLOADS, OpResult

PACKAGE = "shadescope"
WORKDIR = Path(".perfbench-work")
REFERENCE = Path(__file__).resolve().parent / "digests.json"

# Metrics read from the ops phase of the trace, divided by traced operations.
# Layer stat fields: calls, busy (inclusive seconds), self (exclusive seconds).
TRACE_STATS = {
    "sim.placement.s": ("sim.placement", "busy", "s"),
    "dht.routing_key.calls": ("dht.routing_key", "calls", "count"),
    "sim.synth.calls": ("sim.synth", "calls", "count"),
    "sim.synth.s": ("sim.synth", "busy", "s"),
    "classify.calls": ("classify", "calls", "count"),
    "classify.s": ("classify", "busy", "s"),
    "protocol.classify_remote.calls": ("protocol.classify_remote", "calls", "count"),
    "protocol.classify_remote.self_s": ("protocol.classify_remote", "self", "s"),
    "sim.source.probe.s": ("sim.source.probe", "busy", "s"),
    "sim.export.s": ("sim.export", "busy", "s"),
    "netdb.load.self_s": ("netdb.load", "self", "s"),
    "wire.decode.calls": ("wire.decode", "calls", "count"),
    "wire.decode.s": ("wire.decode", "busy", "s"),
    "wire.decode.failures": ("wire.decode", "failures", "count"),
    "wire.lenient.calls": ("wire.lenient", "calls", "count"),
    "wire.lenient.s": ("wire.lenient", "busy", "s"),
    "dht.xor_association.s": ("dht.xor_association", "busy", "s"),
    "cli.distance_table.s": ("cli.distance_table", "busy", "s"),
}
TRACE_COUNTS = (
    "sim.placement.records", "protocol.probes", "protocol.probes_failed",
    "protocol.hits", "protocol.inconclusive", "sim.export.rows", "netdb.load.files",
    "wire.lenient.recovered", "dht.xor_association.services",
    "dht.xor_association.matched", "cli.distance_table.rows",
)
# Encoding happens only while setting up, so it is divided by set-ups.
SETUP_STATS = {
    "wire.encode.calls": ("wire.encode", "calls", "count"),
    "wire.encode.s": ("wire.encode", "busy", "s"),
}


def fresh_import():
    """Import the package and all its modules as on first use (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return pkg


def git_commit(root: Path):
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}")


def run_op(workload, pkg, number: int, sampler: SpeedSampler, tracer) -> OpResult:
    """Run operation ``number``; operations 0 and 1 both take input 0."""
    clock = Clock(sampler, tracer)
    inputs = max(number - 1, 0)
    if tracer is not None:
        tracer.install()
        tracer.begin("op", f"op-{number}")
    try:
        if tracer is not None:
            with tracer.span("bench.op"):
                result = workload.op(pkg, inputs, clock)
        else:
            result = workload.op(pkg, inputs, clock)
    except Exception:  # an operation that crashes is a failed operation
        result = OpResult(errors=[traceback.format_exc()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.traced = tracer is not None
    return result


def end_to_end_metrics(workload, results: list, setup_times: list, raw=False) -> dict:
    """Medians over operations; times at reference speed unless ``raw``."""
    def stage(r, name):
        return (r.stages if raw else r.scaled)[name]

    def med(values):
        values = list(values)
        return median(values) if values else 0.0

    rate_time = med(sum(stage(r, s) for s in workload.rate_stages) for r in results)
    items = med(r.counts["items"] for r in results)
    return {
        "setup_s": (med(t[0 if raw else 1] for t in setup_times), "s"),
        "load_s": (med(stage(r, "load") for r in results), "s"),
        "query_s": (med(stage(r, "query") for r in results), "s"),
        "items_per_s": (items / rate_time if rate_time else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trace_metrics(tracer: Tracer, traced: list, untraced: list, setups: int) -> dict:
    ops = max(len(traced), 1)
    metrics = {}
    for name, (layer, attr, unit) in TRACE_STATS.items():
        metrics[name] = (getattr(tracer.stat("op", layer), attr) / ops, unit)
    for name, (layer, attr, unit) in SETUP_STATS.items():
        metrics[name] = (getattr(tracer.stat("setup", layer), attr) / setups, unit)
    counts = tracer.counts["op"]
    for name in TRACE_COUNTS:
        metrics[name] = (counts[name] / ops, "count")
    rk = tracer.stat("op", "dht.routing_key")
    metrics["dht.routing_key.us_per_call"] = (1e6 * rk.busy / rk.calls if rk.calls else 0.0, "us")
    probes = counts["protocol.probes"]
    metrics["protocol.hit_ratio"] = (counts["protocol.hits"] / probes if probes else 0.0, "ratio")
    metrics["protocol.published_level8"] = (
        sum(r.counts.get("protocol.published_level8", 0) for r in traced) / ops, "count")
    op_time = [sum(r.scaled.values()) for r in traced]
    base = [sum(r.scaled.values()) for r in untraced]
    overhead = median(op_time) - median(base) if op_time and base else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / median(base) if base else 0.0, "ratio")
    metrics["trace.missing_spans"] = (len(tracer.missing | tracer.counter_errors), "count")
    return metrics


def self_time_table(tracer: Tracer, ops: int, setups: int) -> list:
    rows = []
    for (phase, layer), stat in sorted(tracer.stats.items()):
        n = ops if phase == "op" else setups
        rows.append({"phase": phase, "layer": layer, "calls": stat.calls / n,
                     "busy_s": stat.busy / n, "self_s": stat.self / n})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    source = root / "src"
    if not (source / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {source}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(source))
    pkg = fresh_import()  # also writes bytecode, so timed imports do not compile
    if Path(pkg.__file__).resolve().parent != (source / PACKAGE).resolve():
        print(f"error: {PACKAGE} was imported from {pkg.__file__}", file=sys.stderr)
        return 2

    workdir = WORKDIR / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    env = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    emit("env", env)

    sampler = SpeedSampler()
    run_errors = []
    setup_times = []  # (seconds, seconds at reference speed)
    for repeat in range(workload.setup_repeats):
        with sampler.region() as region:
            pkg = fresh_import()
            if tracer is not None:
                tracer.install()
                tracer.begin("setup", f"setup-{repeat}")
            try:
                run_errors += workload.setup(pkg, repeat)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        setup_times.append((region.seconds, region.scaled))
    run_errors += workload.prepare()

    # Operation 0 warms the allocator and caches and repeats the input of
    # operation 1: it is checked, not timed or traced. Traced runs then trace
    # every odd operation.
    results = []
    deadline = perf_counter() + args.seconds
    min_ops = 3 if tracer is not None else 2
    while len(results) < min_ops or perf_counter() < deadline:
        traced = tracer is not None and len(results) % 2 == 1
        results.append(run_op(workload, pkg, len(results), sampler,
                              tracer if traced else None))

    seen: dict = {}
    for number, result in enumerate(results):
        for label, value in result.digests.items():
            emit("digest", {"op": number, "input": label, "sha256": value})
            result.check(seen.setdefault(label, value) == value,
                         f"output differs on a repeat: {label}")

    if REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text())
        expected = recorded["digests"].get(args.workload, {})
        if args.seed == recorded["seed"] and expected:
            same = all(results[0].digests.get(k) == v for k, v in expected.items())
            print(f"reference digests (seed {args.seed}): "
                  + ("match" if same else "MISMATCH: outputs changed since they were recorded"))

    failed_ops = [r for r in results if r.errors]
    for result in failed_ops[:3]:
        print("error: " + "; ".join(result.errors[:5]), file=sys.stderr)
    for message in run_errors:
        print(f"error: {message}", file=sys.stderr)
    attempted = workload.setup_repeats + len(results)
    failed = len(failed_ops) + bool(run_errors)
    timed = [r for r in results[1:] if {"load", "query"} <= set(r.scaled)]
    untraced = [r for r in timed if not r.traced]
    end_to_end = end_to_end_metrics(workload, untraced or timed, setup_times)
    summary = {"ops": len(results), "error_rate": failed / attempted}
    summary.update({alias: end_to_end[name] for alias, name in workload.aliases.items()})
    summary["unscaled"] = end_to_end_metrics(workload, untraced or timed, setup_times, raw=True)
    for key in sorted({k for r in timed for k in r.counts}):
        summary[key] = median(r.counts[key] for r in timed)

    if tracer is None:
        metrics = end_to_end
    else:
        traced_ops = [r for r in timed if r.traced]
        metrics = trace_metrics(tracer, traced_ops, untraced, workload.setup_repeats)
        for row in self_time_table(tracer, max(len(traced_ops), 1), workload.setup_repeats):
            emit("layer", row)
        if tracer.missing or tracer.counter_errors:
            emit("missing_spans", sorted(tracer.missing | tracer.counter_errors))
        tracer.write(workdir / f"spans-seed{args.seed}.jsonl")
    emit("summary", summary)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"env": env, "summary": summary, "digests": seen, "setup_s": setup_times,
              "ops": [{"stages": r.stages, "scaled": r.scaled, "traced": r.traced}
                      for r in results],
              "errors": [e for r in failed_ops for e in r.errors] + run_errors, "result": result}
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

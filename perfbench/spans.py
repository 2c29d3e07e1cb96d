"""Span tracing around calls into shadescope modules, installed from outside.

A :class:`Tracer` rebinds selected module functions (and one method) to
wrappers that time each call, keep a stack of open spans, and count
layer-specific outcomes from arguments and results. Nothing inside the
package changes; uninstalling restores every original binding.

Spans of coarse boundaries are kept one per call. Hot leaf calls (one
per record, per probe, per routing key) are aggregated per parent span,
so a traced 32k-router run stays small in memory. Self time of a layer is
its busy time minus the busy time of the traced calls nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(counts, args, kwargs, result) -> None:
    counts["netdb.load.files"] += result.stats.total


def _count_lenient(counts, args, kwargs, result) -> None:
    counts["wire.lenient.recovered"] += result.caps is not None


def _count_association(counts, args, kwargs, result) -> None:
    counts["dht.xor_association.services"] += len(_arg(args, kwargs, 1, "eepsites"))
    counts["dht.xor_association.matched"] += len(result[0])


def _count_distance_table(counts, args, kwargs, result) -> None:
    counts["cli.distance_table.rows"] += len(result)


def _count_placement(counts, args, kwargs, result) -> None:
    counts["sim.placement.records"] += len(_arg(args, kwargs, 0, "published"))


def _count_export(counts, args, kwargs, result) -> None:
    curves = _arg(args, kwargs, 0, "curves")
    counts["sim.export.rows"] += sum(len(c.points) for c in curves)


def _count_report(counts, args, kwargs, report) -> None:
    counts["protocol.probes"] += report.probes_used
    counts["protocol.probes_failed"] += report.failed_probes
    counts["protocol.inconclusive"] += report.shade is None
    counts["protocol.hits"] += any(
        e.source.value == "FloodfillProbe" and e.hit for e in report.evidence
    )


@dataclass(frozen=True)
class Boundary:
    """One traced call site: ``module:attr`` recorded under ``layer``."""

    layer: str
    module: str
    attr: str
    keep: bool = True
    count: Optional[Callable] = None


# Dotted layer names; an in-program trace can reuse them.
BOUNDARIES = (
    Boundary("cli.scan", "shadescope.cli", "cmd_scan"),
    Boundary("cli.xor_assoc", "shadescope.cli", "cmd_xor_assoc"),
    Boundary("cli.distance_table", "shadescope.cli", "_distance_table",
             count=_count_distance_table),
    Boundary("netdb.load", "shadescope.netdb", "load_netdb_dir", count=_count_load),
    Boundary("wire.decode", "shadescope.wire", "decode_router_info", keep=False),
    Boundary("wire.lenient", "shadescope.wire", "lenient_extract", keep=False,
             count=_count_lenient),
    Boundary("wire.encode", "shadescope.wire", "encode_router_info", keep=False),
    Boundary("classify", "shadescope.classify", "classify", keep=False),
    Boundary("dht.routing_key", "shadescope.dht", "routing_key", keep=False),
    Boundary("dht.xor_association", "shadescope.dht", "xor_association",
             count=_count_association),
    Boundary("sim.generate", "shadescope.sim", "generate_network"),
    Boundary("sim.synth", "shadescope.sim", "synth_record", keep=False),
    Boundary("sim.placement", "shadescope.sim", "_assign_knowledge",
             count=_count_placement),
    Boundary("sim.replay", "shadescope.sim", "run_probe_experiment"),
    Boundary("sim.source.probe", "shadescope.sim", "SimulatedSource.probe_floodfill",
             keep=False),
    Boundary("protocol.classify_remote", "shadescope.protocol", "classify_remote",
             count=_count_report),
    Boundary("sim.export", "shadescope.sim", "export_curves", count=_count_export),
)


class LayerStat:
    __slots__ = ("calls", "busy", "self", "failures")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.failures = 0


class Tracer:
    """Collects spans and per-layer totals, grouped by phase ("setup" or "op")."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent id, op id)
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.stats: dict = defaultdict(LayerStat)  # (phase, layer) -> LayerStat
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # phase -> counter
        self.missing: set[str] = set()
        self.counter_errors: set[str] = set()
        # Open calls: [parent id for children, child busy time, own span id, parent id]
        self._frames: list = []
        self._phase = "op"
        self._op: Optional[str] = None
        self._undo: list = []

    # -- binding ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary that resolves; record the rest as missing."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "shadescope" or name.startswith("shadescope."))]
        for boundary in BOUNDARIES:
            owner = sys.modules.get(boundary.module)
            *path, attr = boundary.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(boundary.layer)
                continue
            wrapper = self._wrap(boundary, original)
            if path:  # a method: rebinding on its class reaches every caller
                self._rebind(owner, attr, original, wrapper)
                continue
            # A function is also bound under its name in every module that
            # imported it with ``from .x import y``; rebind all of them.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- spans -----------------------------------------------------------

    def begin(self, phase: str, op_id: str) -> None:
        self._phase = phase
        self._op = op_id

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (operation root or stage)."""
        frame = self._open(True)
        start = perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(frame, name, start, perf_counter(), failed)

    def _open(self, keep: bool) -> list:
        parent = self._frames[-1][0] if self._frames else None
        span_id = None
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [span_id if keep else parent, 0.0, span_id, parent]
        self._frames.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float,
               failed: bool) -> None:
        self._frames.pop()
        busy = end - start
        if self._frames:
            self._frames[-1][1] += busy
        stat = self.stats[(self._phase, name)]
        stat.calls += 1
        stat.busy += busy
        stat.self += busy - frame[1]
        stat.failures += failed
        span_id, parent = frame[2], frame[3]
        if span_id is not None:
            self.spans[span_id] = (name, start, end, parent, self._op)
        else:
            agg = self.aggregates[(name, parent, self._op)]
            agg[0] += 1
            agg[1] += busy
            agg[2] += busy - frame[1]

    def _wrap(self, boundary: Boundary, fn):
        tracer = self
        name, keep, count = boundary.layer, boundary.keep, boundary.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(keep)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(frame, name, start, perf_counter(), failed)
            if count is not None:
                try:
                    count(tracer.counts[tracer._phase], args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.counter_errors.add(name)
            return result

        return wrapper

    # -- reporting -------------------------------------------------------

    def stat(self, phase: str, layer: str) -> LayerStat:
        return self.stats.get((phase, layer)) or LayerStat()

    def write(self, path) -> None:
        """Write kept spans and per-parent aggregates, one JSON object a line."""
        with open(path, "w") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op_id = span
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op_id}) + "\n")
            for (name, parent, op_id), (calls, busy, own) in self.aggregates.items():
                fh.write(json.dumps({"name": name, "parent": parent, "op": op_id,
                                     "calls": calls, "busy_s": busy, "self_s": own}) + "\n")


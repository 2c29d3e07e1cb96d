"""Operator-facing command surface.

Exit codes are stable across commands: 0 success or classified,
2 input error, 3 inconclusive classification, 141 output pipe closed
by its reader.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import dataclasses
import datetime as dt
import json
import os
import random
import sys
from typing import Optional

from . import profiles
from .classify import EvidenceSource, classify
from .dht import association_rows, derive_b32, normalize_date
from .encoding import EncodingError, InputError, hash_to_b64, parse_hash_text
from .model import SHADES, Destination, DestinationError
from .netdb import _open_output, _read_file, load_leasesets, load_netdb_dir
from .protocol import NetDbSource, ProbePlan, SnapshotSource, _write_probe_log, classify_remote
from .sim import (
    NetworkSpec,
    SimulatedSource,
    _LEVEL_KEYS,
    _write_curves,
    completeness_metrics,
    generate_network,
    run_probe_experiment,
)

NETDB_ENV = "SHADESCOPE_NETDB"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # as a filter killed by SIGPIPE reports


def _utc_today() -> str:
    return dt.datetime.now(dt.timezone.utc).strftime("%Y%m%d")


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error as an :class:`InputError`, so it leaves
    through ``main`` like every other input error, not by argparse's exit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadescope",
        description="Directory-visibility analysis for I2P-style overlays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("table", "json")) -> None:
        p.add_argument(
            "--format",
            choices=formats,
            default="table",
            help="output format (default: table)",
        )

    def add_probe_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--batch", type=int, default=5, help="probe batch size (default 5)")
        p.add_argument("--max-probes", type=int, default=None, help="probe budget (default: all)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed of the probe-order shuffle and of the probe-failure draws "
                            "(default: plan order, failures drawn from seed 0)")
        p.add_argument("--fail-rate", type=float, default=0.0, help="injected probe failure rate")

    p = sub.add_parser("scan", help="summarize a netdb directory snapshot")
    p.add_argument("--netdb", default=os.environ.get(NETDB_ENV), help="netdb directory")
    add_common(p, ("table", "json", "csv"))

    p = sub.add_parser("lookup", help="classify a router hash across sources")
    p.add_argument("hash", help="router hash (hex, base64 variant, or base32); "
                                "one starting with '-' goes after '--', or in hex")
    p.add_argument("--netdb", default=os.environ.get(NETDB_ENV), help="local netdb directory")
    p.add_argument("--simulate", help="network spec JSON of a simulated network to probe")
    add_probe_options(p)
    p.add_argument("--out", help="write per-probe CSV log here")
    add_common(p)

    p = sub.add_parser("xor-assoc", help="services a target is responsible for storing")
    p.add_argument("target", help="target router hash; one starting with '-' goes "
                                  "after '--', or in hex")
    p.add_argument("--leasesets", required=True, help="leaseset fixture file")
    p.add_argument("--netdb", default=os.environ.get(NETDB_ENV), help="netdb directory (floodfill set)")
    p.add_argument("--date", default=_utc_today(), help="UTC date yyyyMMdd (default: today)")
    p.add_argument("--distances", action="store_true", help="print the per-service distance table")
    add_common(p, ("table", "json", "csv"))

    p = sub.add_parser("b32", help="derive the service address from a destination file")
    p.add_argument("dest_file", help="destination bytes, raw or base64")
    add_common(p)

    p = sub.add_parser("simulate", help="generate a network and run probe experiments")
    p.add_argument("spec_file", help="network spec JSON")
    p.add_argument("--targets", default="shade8",
                   help="'shadeN', 'all', or an explicit hash (default: shade8); a hash "
                        "starting with '-' is given as --targets=HASH, or in hex")
    add_probe_options(p)
    p.add_argument("--out", default="curves.csv", help="curve CSV path (default curves.csv)")
    add_common(p)

    p = sub.add_parser("genconfig", help="emit a directory-suppression config profile")
    p.add_argument("profile", choices=profiles.PROFILE_NAMES)
    p.add_argument("--out", help="write config here instead of stdout")
    add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser()
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # the top parser's spelling would not name the command
            raise InputError(f"{parser.prog} {args.command}: unrecognized arguments: "
                             f"{' '.join(unknown)}")
        handler = {
            "scan": cmd_scan,
            "lookup": cmd_lookup,
            "xor-assoc": cmd_xor_assoc,
            "b32": cmd_b32,
            "simulate": cmd_simulate,
            "genconfig": cmd_genconfig,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            # The interpreter's last flush goes to /dev/null, not the closed pipe.
            with _open_output(os.devnull) as sink:
                os.dup2(sink.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _emit(args, facts: dict, table, csv_rows: list[list] | None = None) -> None:
    """Print ``facts`` as JSON, the CSV rows, or the lines of ``table(facts)``.

    Each table is rendered from its command's JSON-ready facts alone, so it
    states nothing that the JSON output does not carry."""
    if args.format == "json":
        print(json.dumps(facts, indent=2))
    elif args.format == "csv":  # offered only by commands that pass rows
        for row in csv_rows:
            print(",".join(str(c) for c in row))
    else:
        for line in table(facts):
            print(line)


def _load_snapshot(directory):
    """Load the ``--netdb`` directory, reporting its warnings (duplicate
    records) on stderr; without one given, an input error."""
    if not directory:
        raise InputError(f"no netdb directory given (flag --netdb or ${NETDB_ENV})")
    snapshot = load_netdb_dir(directory)
    for warning in snapshot.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return snapshot


# -- scan ---------------------------------------------------------------


def cmd_scan(args) -> int:
    snapshot = _load_snapshot(args.netdb)
    stats = snapshot.stats
    histogram = {level: 0 for level in range(1, 8)}
    for record in snapshot.records.values():
        histogram[classify(record.profile()).level] += 1
    pct = 100.0 * stats.floodfill_count / len(snapshot.records) if snapshot.records else 0.0
    facts = {
        "netdb_dir": str(snapshot.source_dir),
        "records": len(snapshot.records),
        "parse_failures": stats.parse_failures,
        "total": stats.total,
        "floodfill_count": stats.floodfill_count,
        "floodfill_pct": round(pct, 1),
        "shade_histogram": {str(k): v for k, v in histogram.items()},
    }
    csv_rows = [["shade", "name", "count"]] + [
        [level, SHADES[level].name, histogram[level]] for level in range(1, 8)
    ]
    _emit(args, facts, _scan_table, csv_rows)
    return EXIT_OK


def _scan_table(facts: dict) -> list[str]:
    lines = [
        f"netdb dir: {facts['netdb_dir']}",
        f"records: {facts['records']}   parse failures: {facts['parse_failures']}   "
        f"total: {facts['total']}",
        f"floodfill: {facts['floodfill_count']} ({facts['floodfill_pct']:.1f}%)",
        "shade histogram:",
    ]
    for level, count in facts["shade_histogram"].items():
        lines.append(f"  {level} {SHADES[int(level)].name:<9} {count}")
    return lines


# -- lookup -------------------------------------------------------------


def _probe_plan(args, floodfills=()) -> ProbePlan:
    """The plan of ``--batch`` and ``--max-probes`` over ``floodfills``, in
    ``--seed`` shuffled order. Called with no floodfills before any work, it
    checks these options and ``--fail-rate``."""
    if not 0.0 <= args.fail_rate <= 1.0:
        raise InputError(f"--fail-rate must lie in [0, 1], got {args.fail_rate}")
    if args.seed is not None:
        floodfills = list(floodfills)
        random.Random(args.seed).shuffle(floodfills)
    return ProbePlan(tuple(floodfills), batch_size=args.batch, max_probes=args.max_probes)


def _failure_seed(args) -> int:
    """The seed of the probe-failure draws of ``lookup`` and ``simulate``
    alike: ``--seed``, else 0."""
    return 0 if args.seed is None else args.seed


def cmd_lookup(args) -> int:
    subject = parse_hash_text(args.hash)
    if not args.netdb and not args.simulate:
        raise InputError("need at least one source: --netdb and/or --simulate")
    plan = _probe_plan(args)
    spec = NetworkSpec.from_file(args.simulate) if args.simulate else None

    with contextlib.nullcontext() if args.out is None else _open_output(args.out) as out:
        snapshot = _load_snapshot(args.netdb) if args.netdb else None
        backing = NetDbSource()
        if spec is not None:
            model = generate_network(spec)
            backing = SimulatedSource(model, args.fail_rate, _failure_seed(args))
            plan = _probe_plan(args, model.floodfills)
        report = classify_remote(subject, SnapshotSource(snapshot, backing), plan)
        if out is not None:
            _write_probe_log(report, plan, out)

    facts = {
        **report.to_dict(),
        "batch": plan.batch_size,
        "seed": args.seed,
        "fail_rate": args.fail_rate,
    }
    _emit(args, facts, _lookup_table)
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


_SOURCE_LABELS = {
    EvidenceSource.LOCAL_NETDB.value: "local netdb",
    EvidenceSource.CONSOLE_CACHE.value: "console cache",
    EvidenceSource.FLOODFILL_PROBE.value: "floodfill probes",
}
_CERTIFICATES = {
    "issued": "zero-hit conjunction holds over {} probed floodfills",
    "no_probes": "not issued (no floodfill probed)",
    "failed_probes": "not issued (incomplete probe evidence)",
}


def _lookup_table(facts: dict) -> list[str]:
    lines = [f"target: {facts['subject']}"]
    for ev in facts["evidence"]:
        if ev["source"] == EvidenceSource.FLOODFILL_PROBE.value:
            detail = f"{'HIT' if ev['hit'] else 'no hit'} ({ev['probes_used']} probes"
            if facts["failed_probes"]:
                detail += f", {facts['failed_probes']} failed"
            detail += f", batch {facts['batch']})"
        else:
            detail = "HIT" if ev["hit"] else "MISS"
        lines.append(f"  {_SOURCE_LABELS[ev['source']]:<16}: {detail}")
    shade, certificate = facts["shade"], facts["certificate"]
    if shade is None:
        lines.append("verdict: inconclusive (every probe failed; absence not certified)")
    else:
        verdict = f"verdict: Shade {shade['level']}: {shade['name']} (layer {shade['layer']})"
        if certificate == "no_probes":
            verdict += ", from the local and console views only: no floodfill was probed"
        lines.append(verdict)
        if certificate is not None:
            text = _CERTIFICATES[certificate].format(facts["probes_used"])
            lines.append(f"certificate: {text}")
    if facts["caps"] is not None:
        lines.append(f"caps: {facts['caps']}  alpha: {facts['alpha']}  iota: {facts['iota']}")
    lines.extend(f"note: {note}" for note in facts["diagnostics"])
    return lines


# -- xor-assoc ----------------------------------------------------------


def cmd_xor_assoc(args) -> int:
    target = parse_hash_text(args.target)
    date = normalize_date(args.date)
    snapshot = _load_snapshot(args.netdb)
    leasesets, warnings = load_leasesets(args.leasesets)
    floodfills = snapshot.floodfill_hashes

    record = snapshot.lookup(target)
    if record is None or not record.is_floodfill:
        print("warning: target is not a known floodfill in this snapshot", file=sys.stderr)

    eepsites = [ls.b32 for ls in leasesets]
    rows, assoc_warnings = association_rows(target, eepsites, floodfills, date)
    matched = [row.address for row in rows if row.responsible]
    warnings.extend(assoc_warnings)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    facts = {
        "target": hash_to_b64(target),
        "date": date,
        "floodfills": len(floodfills),
        "candidates": len(eepsites),
        "matched": matched,
    }
    if args.distances:
        facts["distances"] = _distance_table(rows)
    csv_rows = [["b32", "matched"]] + [[row.address, row.responsible] for row in rows]
    _emit(args, facts, _xor_assoc_table, csv_rows)
    return EXIT_OK


def _xor_assoc_table(facts: dict) -> list[str]:
    lines = [
        f"target: {facts['target']}",
        f"date: {facts['date']}   floodfills: {facts['floodfills']}   "
        f"candidates: {facts['candidates']}",
        f"responsible for {len(facts['matched'])} service address(es):",
    ]
    lines.extend(f"  {addr}" for addr in facts["matched"])
    if "distances" in facts:
        lines.append("distance table (top-16 hex digits):")
        for row in facts["distances"]:
            lines.append(
                f"  {row['b32']}  target {row['target_distance'][:16]}  "
                f"best-other {str(row['nearest_other_distance'])[:16]}  "
                f"{'<-- responsible' if row['responsible'] else ''}"
            )
    return lines


def _distance_table(rows) -> list[dict]:
    return [
        {
            "b32": row.address,
            "target_distance": f"{row.target_distance:064x}",
            "nearest_other_distance": (
                f"{row.other_distance:064x}" if row.other_distance is not None else None
            ),
            "responsible": row.responsible,
        }
        for row in rows
    ]


# -- b32 ----------------------------------------------------------------


_B64_FILE_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/-~="
)


def _read_destination(path: str) -> Destination:
    data = _read_file(path)
    try:  # base64 text may be wrapped, as coreutils base64 wraps at 76 columns
        text = b"".join(data.split()).decode("ascii")
    except UnicodeDecodeError:
        return Destination(data)
    if text and set(text) <= _B64_FILE_CHARS:
        normalized = text.translate(str.maketrans("-~", "+/"))
        normalized += "=" * (-len(normalized) % 4)
        try:
            return Destination(base64.b64decode(normalized))
        except DestinationError:  # if the raw bytes are no destination either, say this
            with contextlib.suppress(DestinationError):
                return Destination(data)
            raise
        except ValueError:  # not base64
            pass
    return Destination(data)


def cmd_b32(args) -> int:
    dest = _read_destination(args.dest_file)
    address = derive_b32(dest)
    facts = {
        "file": args.dest_file,
        "size": dest.size,
        "cert_type": dest.cert_type,
        "cert_len": dest.cert_len,
        "b32": address,
    }
    _emit(args, facts, _b32_table)
    return EXIT_OK


def _b32_table(facts: dict) -> list[str]:
    return [
        f"destination file: {facts['file']}",
        f"size: {facts['size']} bytes (certificate type {facts['cert_type']}, "
        f"length {facts['cert_len']})",
        f"b32: {facts['b32']}",
    ]


# -- simulate -----------------------------------------------------------


def _target_selector(text: str):
    """``--targets``, checked before any work: "all", a shade level, or a hash."""
    if text == "all":
        return text
    if text.startswith("shade"):
        level = _LEVEL_KEYS.get(text[len("shade"):])
        if level is None:
            raise InputError(f"bad target selector: {text!r}")
        return level
    try:
        return parse_hash_text(text)
    except EncodingError as exc:
        raise InputError(f"bad target selector: {text!r} ({exc})") from exc


def _select_targets(model, selector) -> list[bytes]:
    if isinstance(selector, bytes):  # run_probe_experiment checks it is in the model
        return [selector]
    if selector == "all":
        return list(model.routers)
    return [h for h, r in model.routers.items() if r.shade.level == selector]


def cmd_simulate(args) -> int:
    _probe_plan(args)
    selector = _target_selector(args.targets)
    spec = NetworkSpec.from_file(args.spec_file)

    with _open_output(args.out) as out:
        model = generate_network(spec)
        targets = _select_targets(model, selector)
        if not targets:
            raise InputError(f"selector {args.targets!r} matches no routers")
        plan = _probe_plan(args, model.floodfills)
        curves = run_probe_experiment(
            model, targets, plan, failure_rate=args.fail_rate, failure_seed=_failure_seed(args)
        )
        _write_curves(curves, out)

    metrics = completeness_metrics(model)
    shades = {shade: dataclasses.asdict(shade) for shade in SHADES.values()}
    facts = {
        "spec_file": args.spec_file,
        "n_routers": len(model.routers),
        "published": len(model.published),
        "exclusive": len(model.exclusive),
        "floodfills": len(model.floodfills),
        "rho": round(metrics.rho, 6),
        "xi": round(metrics.xi, 6),
        "targets": [hash_to_b64(t) for t in targets],
        "probes": plan.probe_limit,
        "batch": plan.batch_size,
        "seed": args.seed,
        "fail_rate": args.fail_rate,
        "curve_file": args.out,
        "results": [
            {
                "shade": None if c.report.shade is None else shades[c.report.shade],
                "probes_used": c.report.probes_used,
                "failed_probes": c.report.failed_probes,
                "hits": c.points[-1][1],
            }
            for c in curves
        ],
    }
    _emit(args, facts, _simulate_table)
    return EXIT_OK


def _simulate_table(facts: dict) -> list[str]:
    # rho and xi from their counts: the 6-digit JSON fields may round differently.
    n, published, exclusive = facts["n_routers"], facts["published"], facts["exclusive"]
    lines = [
        f"network: {n} routers, {facts['floodfills']} floodfills, {exclusive} exclusive",
        f"rho = {published / n:.3f} ({published}/{n})",
        f"xi = {(n - published) / n:.3f} ({exclusive}/{n})",
        f"targets: {len(facts['targets'])}   probes: {facts['probes']} (batch {facts['batch']})",
        f"curves written to {facts['curve_file']}",
    ]
    for target, result in zip(facts["targets"], facts["results"]):
        shade = result["shade"]
        verdict = "inconclusive" if shade is None else f"Shade {shade['level']}: {shade['name']}"
        lines.append(
            f"  {target}  {verdict}  probes {result['probes_used']}  hits {result['hits']}"
        )
    return lines


# -- genconfig ----------------------------------------------------------


def cmd_genconfig(args) -> int:
    text = profiles.render_profile(args.profile)
    if args.out is not None:
        with _open_output(args.out) as out:
            out.write(text)
    facts = {
        "profile": args.profile,
        "parameters": [
            {"key": k, "value": v} for k, v in profiles.profile_parameters(text)
        ],
        "text": text,
        "out": args.out,
    }
    _emit(args, facts, _genconfig_table)
    return EXIT_OK


def _genconfig_table(facts: dict) -> list[str]:
    return [] if facts["out"] is not None else facts["text"].splitlines()


if __name__ == "__main__":
    sys.exit(main())

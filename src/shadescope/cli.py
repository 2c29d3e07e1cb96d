"""Operator-facing command surface.

Exit codes are stable across commands: 0 success or classified,
2 input error, 3 inconclusive classification.
"""

from __future__ import annotations

import argparse
import base64
import datetime as dt
import json
import os
import random
import sys
from typing import Optional

from . import profiles
from .classify import EvidenceSource, ShadeReport, classify
from .dht import association_rows, derive_b32, normalize_date
from .encoding import EncodingError, hash_to_b64, parse_hash_text
from .model import Destination, DestinationError, SHADES
from .netdb import NetDbError, _open_output, _read_file, load_leasesets, load_netdb_dir
from .protocol import (
    ProbePlan,
    SnapshotSource,
    classify_remote,
    shade8_certificate,
    write_probe_log,
)
from .sim import (
    InfeasibleSpecError,
    NetworkSpec,
    SimulatedSource,
    completeness_metrics,
    export_curves,
    generate_network,
    run_probe_experiment,
)

NETDB_ENV = "SHADESCOPE_NETDB"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class CliError(Exception):
    """Input problem; maps to exit code 2."""


def _utc_today() -> str:
    return dt.datetime.now(dt.timezone.utc).strftime("%Y%m%d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed", type=int, default=None, help="shuffle probe order with this seed")
        p.add_argument("--fail-rate", type=float, default=0.0, help="injected probe failure rate")

    p = sub.add_parser("scan", help="summarize a netdb directory snapshot")
    p.add_argument("--netdb", default=os.environ.get(NETDB_ENV), help="netdb directory")
    add_common(p, ("table", "json", "csv"))

    p = sub.add_parser("lookup", help="classify a router hash across sources")
    p.add_argument("hash", help="router hash (hex, base64 variant, or base32)")
    p.add_argument("--netdb", default=os.environ.get(NETDB_ENV), help="local netdb directory")
    p.add_argument("--simulate", help="network spec JSON backing console+probe sources")
    add_probe_options(p)
    p.add_argument("--out", help="write per-probe CSV log here")
    add_common(p)

    p = sub.add_parser("xor-assoc", help="services a target is responsible for storing")
    p.add_argument("target", help="target router hash")
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
                   help="'shadeN', 'all', or an explicit hash (default: shade8)")
    add_probe_options(p)
    p.add_argument("--out", default="curves.csv", help="curve CSV path (default curves.csv)")
    add_common(p)

    p = sub.add_parser("genconfig", help="emit a directory-suppression config profile")
    p.add_argument("profile", choices=profiles.PROFILE_NAMES)
    p.add_argument("--out", help="write config here instead of stdout")
    add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "scan": cmd_scan,
        "lookup": cmd_lookup,
        "xor-assoc": cmd_xor_assoc,
        "b32": cmd_b32,
        "simulate": cmd_simulate,
        "genconfig": cmd_genconfig,
    }[args.command]
    try:
        return handler(args)
    except (CliError, NetDbError, EncodingError, DestinationError,
            InfeasibleSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _emit(args, facts: dict, table_lines: list[str], csv_rows: list[list] | None = None) -> None:
    if args.format == "json":
        print(json.dumps(facts, indent=2))
    elif args.format == "csv":  # offered only by commands that pass rows
        for row in csv_rows:
            print(",".join(str(c) for c in row))
    else:
        for line in table_lines:
            print(line)


def _load_snapshot(directory):
    """Load a netdb directory, reporting its warnings (duplicate records) on stderr."""
    snapshot = load_netdb_dir(directory)
    for warning in snapshot.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return snapshot


# -- scan ---------------------------------------------------------------


def cmd_scan(args) -> int:
    if not args.netdb:
        raise CliError(f"no netdb directory given (flag --netdb or ${NETDB_ENV})")
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
    lines = [
        f"netdb dir: {facts['netdb_dir']}",
        f"records: {facts['records']}   parse failures: {stats.parse_failures}   total: {stats.total}",
        f"floodfill: {stats.floodfill_count} ({pct:.1f}%)",
        "shade histogram:",
    ]
    for level in range(1, 8):
        lines.append(f"  {level} {SHADES[level].name:<9} {histogram[level]}")
    csv_rows = [["shade", "name", "count"]] + [
        [level, SHADES[level].name, histogram[level]] for level in range(1, 8)
    ]
    _emit(args, facts, lines, csv_rows)
    return EXIT_OK


# -- lookup -------------------------------------------------------------


def _check_fail_rate(args) -> None:
    if not 0.0 <= args.fail_rate <= 1.0:
        raise CliError(f"--fail-rate must lie in [0, 1], got {args.fail_rate}")


def _probe_plan(floodfills, args) -> ProbePlan:
    """The probe plan of ``--batch``/``--max-probes``, in ``--seed`` shuffled order."""
    if args.seed is not None:
        floodfills = list(floodfills)
        random.Random(args.seed).shuffle(floodfills)
    try:
        return ProbePlan(tuple(floodfills), batch_size=args.batch, max_probes=args.max_probes)
    except ValueError as exc:  # --batch or --max-probes out of range
        raise CliError(str(exc)) from exc


def cmd_lookup(args) -> int:
    subject = parse_hash_text(args.hash)
    if not args.netdb and not args.simulate:
        raise CliError("need at least one source: --netdb and/or --simulate")
    _check_fail_rate(args)
    snapshot = _load_snapshot(args.netdb) if args.netdb else None

    sim_source = None
    floodfills: tuple[bytes, ...] = ()
    if args.simulate:
        model = generate_network(NetworkSpec.from_file(args.simulate))
        sim_source = SimulatedSource(
            model,
            failure_rate=args.fail_rate,
            rng=random.Random(args.seed if args.seed is not None else 0),
        )
        floodfills = model.floodfills

    plan = _probe_plan(floodfills, args)
    report = classify_remote(subject, SnapshotSource(snapshot, sim_source), plan)

    if args.out:
        write_probe_log(report, plan, args.out)
    _emit(args, report.to_dict(), _report_lines(report, plan))
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


def _report_lines(report: ShadeReport, plan: ProbePlan) -> list[str]:
    lines = [f"target: {hash_to_b64(report.subject)}"]
    labels = {
        EvidenceSource.LOCAL_NETDB: "local netdb",
        EvidenceSource.CONSOLE_CACHE: "console cache",
        EvidenceSource.FLOODFILL_PROBE: "floodfill probes",
    }
    for ev in report.evidence:
        name = labels[ev.source]
        if ev.source is EvidenceSource.FLOODFILL_PROBE:
            detail = f"{'HIT' if ev.hit else 'no hit'} ({ev.probes_used} probes"
            if report.failed_probes:
                detail += f", {report.failed_probes} failed"
            detail += f", batch {plan.batch_size})"
        else:
            detail = "HIT" if ev.hit else "MISS"
        lines.append(f"  {name:<16}: {detail}")
    if report.inconclusive:
        lines.append("verdict: inconclusive (every probe failed; absence not certified)")
    else:
        shade = report.shade
        verdict = f"verdict: Shade {shade.level}: {shade.name} (layer {shade.layer})"
        if shade.level == 8 and report.probes_used == 0:
            verdict += ", from the local and console views only: no floodfill was probed"
            certificate = "not issued (no floodfill probed)"
        elif shade8_certificate(report):
            certificate = f"zero-hit conjunction holds over {report.probes_used} probed floodfills"
        else:
            certificate = "not issued (incomplete probe evidence)"
        lines.append(verdict)
        if shade.level == 8:
            lines.append(f"certificate: {certificate}")
    if report.caps is not None:
        prof = report.profile
        lines.append(f"caps: {report.caps}  alpha: {prof.alpha}  iota: {prof.iota}")
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    return lines


# -- xor-assoc ----------------------------------------------------------


def cmd_xor_assoc(args) -> int:
    target = parse_hash_text(args.target)
    try:
        date = normalize_date(args.date)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not args.netdb:
        raise CliError(f"no netdb directory given (flag --netdb or ${NETDB_ENV})")
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
    lines = [
        f"target: {facts['target']}",
        f"date: {date}   floodfills: {len(floodfills)}   candidates: {len(eepsites)}",
        f"responsible for {len(matched)} service address(es):",
    ]
    lines.extend(f"  {addr}" for addr in matched)
    csv_rows = [["b32", "matched"]] + [[row.address, row.responsible] for row in rows]
    if args.distances:
        table = _distance_table(rows)
        facts["distances"] = table
        lines.append("distance table (top-16 hex digits):")
        for row in table:
            lines.append(
                f"  {row['b32']}  target {row['target_distance'][:16]}  "
                f"best-other {str(row['nearest_other_distance'])[:16]}  "
                f"{'<-- responsible' if row['responsible'] else ''}"
            )
    _emit(args, facts, lines, csv_rows)
    return EXIT_OK


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
    try:
        text = data.decode("ascii").strip()
    except UnicodeDecodeError:
        return Destination(data)
    if text and set(text) <= _B64_FILE_CHARS:
        normalized = text.translate(str.maketrans("-~", "+/"))
        normalized += "=" * (-len(normalized) % 4)
        try:
            return Destination(base64.b64decode(normalized))
        except (ValueError, DestinationError):
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
    lines = [
        f"destination file: {args.dest_file}",
        f"size: {dest.size} bytes (certificate type {dest.cert_type}, length {dest.cert_len})",
        f"b32: {address}",
    ]
    _emit(args, facts, lines)
    return EXIT_OK


# -- simulate -----------------------------------------------------------


def _select_targets(model, selector: str) -> list[bytes]:
    if selector == "all":
        return list(model.routers)
    if selector.startswith("shade"):
        try:
            level = int(selector[len("shade"):])
        except ValueError:
            raise CliError(f"bad target selector: {selector!r}") from None
        if not 1 <= level <= 8:
            raise CliError(f"bad target selector: {selector!r}")
        return [h for h, r in model.routers.items() if r.shade.level == level]
    try:
        wanted = parse_hash_text(selector)
    except EncodingError as exc:
        raise CliError(f"bad target selector: {selector!r} ({exc})") from exc
    if wanted not in model.routers:
        raise CliError("target hash not present in the generated network")
    return [wanted]


def cmd_simulate(args) -> int:
    _check_fail_rate(args)
    spec = NetworkSpec.from_file(args.spec_file)
    model = generate_network(spec)
    metrics = completeness_metrics(model)
    targets = _select_targets(model, args.targets)
    if not targets:
        raise CliError(f"selector {args.targets!r} matches no routers")

    plan = _probe_plan(model.floodfills, args)
    curves = run_probe_experiment(
        model, targets, plan, failure_rate=args.fail_rate
    )
    export_curves(curves, args.out)

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
        "curve_file": args.out,
    }
    lines = [
        f"network: {len(model.routers)} routers, {len(model.floodfills)} floodfills, "
        f"{len(model.exclusive)} exclusive",
        f"rho = {metrics.rho:.3f} ({len(model.published)}/{len(model.routers)})",
        f"xi = {metrics.xi:.3f} ({len(model.exclusive)}/{len(model.routers)})",
        f"targets: {len(targets)}   probes: {plan.probe_limit} (batch {plan.batch_size})",
        f"curves written to {args.out}",
    ]
    for curve in curves:
        final = curve.points[-1]
        shade = curve.report.shade
        verdict = "inconclusive" if shade is None else f"Shade {shade.level}: {shade.name}"
        lines.append(
            f"  {hash_to_b64(curve.target)}  {verdict}  "
            f"probes {curve.report.probes_used}  hits {final[1]}"
        )
    _emit(args, facts, lines)
    return EXIT_OK


# -- genconfig ----------------------------------------------------------


def cmd_genconfig(args) -> int:
    text = profiles.render_profile(args.profile)
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text)
    facts = {
        "profile": args.profile,
        "parameters": [
            {"key": k, "value": v} for k, v in profiles.profile_parameters(text)
        ],
        "text": text,
    }
    _emit(args, facts, [] if args.out else text.splitlines())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

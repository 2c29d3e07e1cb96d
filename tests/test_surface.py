"""The public surface: the package root's exports, the README examples,
the rules that only the CLI prints, that one exception type marks a bad
input and one handler reports it, that one function reads and one writes
(and removes) every file, that one helper drives the garbage collector,
that a spec checks itself, that one module knows the destination layout and
one that a record can be built late, and the module boundaries the
benchmark harness traces."""

import ast
import importlib
import random
import re
from collections import defaultdict
from pathlib import Path

import pytest

import shadescope
from shadescope import cli
from shadescope.classify import EvidenceSource
from shadescope.cli import main
from shadescope.encoding import EncodingError, InputError
from shadescope.model import DestinationError, RouterInfo
from shadescope.netdb import NetDbError
from shadescope.sim import InfeasibleSpecError, SimulatedSource, synth_record

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "NetworkSpec", "ProbePlan", "SnapshotSource", "classify_remote",
    "encode_router_info", "export_curves", "generate_network", "hash_to_b32",
    "hash_to_b64", "load_netdb_dir", "run_probe_experiment", "shade8_certificate",
}


def test_all_is_the_used_surface():
    assert set(shadescope.__all__) == PUBLIC_NAMES
    for name in shadescope.__all__:
        assert getattr(shadescope, name) is not None


def test_readme_library_example_runs(corpus_dir, tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / ".i2p").mkdir()
    (tmp_path / ".i2p" / "netDb").symlink_to(corpus_dir)
    monkeypatch.setenv("HOME", str(tmp_path))
    exec(snippet, {})
    assert "Beacon" in capsys.readouterr().out


def test_readme_spec_example_simulates(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    spec = re.search(r"A network spec is JSON:\n\n```json\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "net.json").write_text(spec)
    assert main(["simulate", str(tmp_path / "net.json"), "--out", str(tmp_path / "curves.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_library_prints_nothing():
    # Only the CLI writes to the terminal; library modules return warnings.
    package = Path(shadescope.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            printing = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "print")
            streams = (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                       and isinstance(node.value, ast.Name) and node.value.id == "sys")
            if printing or streams:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_input_error_type_and_one_handler():
    # Every library error a bad input raises is an InputError, so the CLI
    # needs no error type of its own and main's one handler catches them all.
    for error in (EncodingError, DestinationError, NetDbError, InfeasibleSpecError):
        assert issubclass(error, InputError)
    assert issubclass(InputError, ValueError)
    tree = ast.parse(Path(cli.__file__).read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes and not [name for name in classes
                            if issubclass(getattr(cli, name), BaseException)]
    # Only main prints an "error:" line; each other top-level statement of
    # the module is an offender if any of its strings starts with one.
    reporters = [getattr(statement, "name", f"line {statement.lineno}")
                 for statement in tree.body for node in ast.walk(statement)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and node.value.startswith("error:")]
    assert reporters == ["main"]


FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
FILE_FUNCTIONS = ("_read_file", "_open_output")
REMOVE_CALLS = {"unlink", "remove"}


def _removes_file(func) -> bool:
    # os.unlink, os.remove, or any .unlink() such as Path.unlink.
    if not isinstance(func, ast.Attribute) or func.attr not in REMOVE_CALLS:
        return False
    return func.attr == "unlink" or getattr(func.value, "id", None) == "os"


def test_one_reader_and_one_writer_for_files():
    # netdb._read_file alone reads files and netdb._open_output alone opens
    # them for writing and removes what a failed write created, so one rule
    # decides which files are read and written (no FIFO is waited on), how,
    # and what a failure leaves. Any open, os.open, io.open or Path
    # read/write call elsewhere in the package is an offender, and so is
    # any os.unlink, os.remove or Path.unlink outside _open_output, or a
    # removal imported from os.
    package = Path(shadescope.__file__).parent
    offenders, os_opens = [], {name: 0 for name in FILE_FUNCTIONS}
    removals = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        if path.name == "netdb.py":
            functions = {node.name: node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef) and node.name in FILE_FUNCTIONS}
            assert sorted(functions) == sorted(FILE_FUNCTIONS)
            owner = {id(node): name for name, function in functions.items()
                     for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in REMOVE_CALLS for alias in node.names):
                offenders.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if _removes_file(func):
                if owner.get(id(node)) == "_open_output":
                    removals += 1
                else:
                    offenders.append(f"{path.name}:{node.lineno}")
                continue
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in FILE_CALLS:
                continue
            if id(node) not in owner:
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
                os_opens[owner[id(node)]] += 1
    assert offenders == []
    # Each function's own os.open, and _open_output's one removal: the
    # check sees what it exempts.
    assert os_opens == {name: 1 for name in FILE_FUNCTIONS}
    assert removals == 1


GC_CALLS = {"disable", "enable", "freeze", "unfreeze", "collect"}


def test_one_collector_rule():
    # netdb._bulk_build alone pauses, resumes, freezes or runs the cyclic
    # collector, so every builder follows one rule. A gc call of those names
    # anywhere else in the package, or a name imported from gc, is an offender.
    package = Path(shadescope.__file__).parent
    offenders, helper_calls = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = set()
        if path.name == "netdb.py":
            function, = [node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef) and node.name == "_bulk_build"]
            helper = {id(node) for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                offenders.append(f"{path.name}:{node.lineno}")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "gc"
                    and node.func.attr in GC_CALLS):
                continue
            if id(node) in helper:
                helper_calls.add(node.func.attr)
            else:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    # The check sees what it exempts.
    assert helper_calls == GC_CALLS


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None)


def test_one_spec_rule():
    # NetworkSpec's methods and _allocate_counts, which its constructor
    # calls, alone raise InfeasibleSpecError, so a spec made in code and one
    # read from a file pass one rule. generate_network only builds: it
    # raises nothing and reads no bound; the build runs in its own body.
    package = Path(shadescope.__file__).parent
    offenders, exempt = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in tree.body:
            if getattr(node, "name", None) in ("NetworkSpec", "_allocate_counts"):
                owner.update({id(inner): node.name for inner in ast.walk(node)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and _raised_name(node) == "InfeasibleSpecError":
                if id(node) in owner:
                    exempt.add(owner[id(node)])
                else:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert exempt == {"NetworkSpec", "_allocate_counts"}  # the check sees them

    sim = {node.name: node for node in ast.parse((package / "sim.py").read_text()).body
           if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    from_file, = [node for node in sim["NetworkSpec"].body
                  if getattr(node, "name", None) == "from_file"]
    assert not [node for node in ast.walk(from_file) if isinstance(node, ast.For)]  # decodes only
    generate = sim["generate_network"]
    assert not [node for node in ast.walk(generate) if isinstance(node, ast.Raise)]
    names = {node.id for node in ast.walk(generate) if isinstance(node, ast.Name)}
    assert not names & {"normalize_date", "MAX_K", "MAX_ROUTERS", "_allocate_counts",
                        "InfeasibleSpecError"}
    assert {"_bulk_build", "synth_record", "_assign_knowledge"} <= names  # builds in place


LAYOUT_NAMES = {"DEST_MIN_LEN", "CERT_TYPE_OFFSET", "CERT_LEN_OFFSET"}


def test_one_home_for_the_destination_layout():
    # model alone knows where a destination's certificate sits and so how
    # many bytes it spans, so the router hash, the decoder and the b32 rule
    # agree on its key bytes. A layout name imported, read or used as an
    # attribute anywhere else in the package is an offender.
    package = Path(shadescope.__file__).parent
    offenders, seen = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            for name in names & LAYOUT_NAMES:
                if path.name == "model.py":
                    seen.add(name)
                else:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []
    assert seen == LAYOUT_NAMES  # the check sees what it exempts


DEFERRAL_NAMES = {"__getattr__", "_draws", "_record_fields"}


def test_one_home_for_deferred_records():
    # sim alone knows that a record can be built on its first read, so the
    # records that other modules decode or make have no __getattr__ hook and
    # keep CPython's specialised attribute loads. A deferral name defined,
    # imported, read, used as an attribute or spelled as a string anywhere
    # else in the package is an offender.
    package = Path(shadescope.__file__).parent
    offenders, seen, hooks = [], set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                hooks += [f"{path.name}:{node.name}" for item in node.body
                          if getattr(item, "name", None) == "__getattr__"]
            names = {getattr(node, key, None) for key in ("id", "attr", "name", "value")}
            for name in DEFERRAL_NAMES.intersection(names):
                if path.name == "sim.py":
                    seen.add(name)
                else:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []
    assert seen == DEFERRAL_NAMES  # the check sees what it exempts
    assert hooks == ["sim.py:_SynthRecord"]
    assert "__getattr__" not in vars(RouterInfo)
    assert isinstance(synth_record(random.Random(0), 1), RouterInfo)


def test_traced_boundaries_resolve(monkeypatch):
    # A boundary that no longer resolves is only reported by a traced run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for boundary in spans.BOUNDARIES:
        owner = importlib.import_module(boundary.module)
        for part in boundary.attr.split("."):
            owner = getattr(owner, part, None)
        assert owner is not None, f"{boundary.module}:{boundary.attr} ({boundary.layer})"


@pytest.mark.parametrize("kind", ["probe hit", "level-8 miss", "inconclusive"])
def test_perfbench_report_counters(sim_model, monkeypatch, kind):
    # No traced workload calls classify_remote, so only this test notices
    # when a report attribute the harness counts from goes away.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    subject = sim_model.published[0] if kind == "probe hit" else sorted(sim_model.exclusive)[0]
    source = SimulatedSource(sim_model, 1.0 if kind == "inconclusive" else 0.0, 0)
    plan = shadescope.ProbePlan(sim_model.floodfills, batch_size=5)
    report = shadescope.classify_remote(subject, source, plan)
    counts = defaultdict(int)
    spans._count_report(counts, (subject, source, plan), {}, report)

    floodfills = len(sim_model.floodfills)
    expected = {
        "probe hit": (report.probes_used, 0, 0, 1),
        "level-8 miss": (floodfills, 0, 0, 0),
        "inconclusive": (floodfills, floodfills, 1, 0),
    }[kind]
    got = tuple(counts[f"protocol.{name}"]
                for name in ("probes", "probes_failed", "inconclusive", "hits"))
    assert got == expected
    if kind == "probe hit":
        assert 0 < report.probes_used < floodfills
        assert report.found_by is EvidenceSource.FLOODFILL_PROBE

"""The public surface: the package root's exports, the README examples,
the rules that only the CLI prints and that one function reads input files,
and the module boundaries the benchmark harness traces."""

import ast
import importlib
import random
import re
from collections import defaultdict
from pathlib import Path

import pytest

import shadescope
from shadescope.classify import EvidenceSource
from shadescope.cli import main
from shadescope.sim import SimulatedSource

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


def _reads_a_file(node: ast.AST) -> bool:
    """Whether ``node`` calls ``read_text``, ``read_bytes``, ``os.open``, or an
    ``open`` given no literal write mode ("w", "a" or "x", without "+")."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        return True
    modes = [arg.value for arg in [*node.args, *(kw.value for kw in node.keywords)]
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
             and arg.value and set(arg.value) <= set("rwaxbt+")]
    return not any(set(mode) & set("wax") and not set(mode) & set("r+") for mode in modes)


def test_one_reader_for_input_files():
    # netdb._read_file alone reads input files, so one rule decides which
    # files are read (regular ones only) and how. Writers are not readers.
    package = Path(shadescope.__file__).parent
    offenders, in_reader = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reader = set()
        if path.name == "netdb.py":
            [function] = [node for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef) and node.name == "_read_file"]
            reader = {id(node) for node in ast.walk(function)}
        for node in ast.walk(tree):
            if _reads_a_file(node):
                (in_reader if id(node) in reader else offenders).append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert len(in_reader) == 1  # the reader's own os.open: the check sees it


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
    source = SimulatedSource(sim_model, 1.0 if kind == "inconclusive" else 0.0, random.Random(0))
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

"""The public surface: every name a module exports resolves, the package
root re-exports only exported names, every exported name has a caller
outside its own module, in ``src/mblab`` or ``perfbench/``, unless it
awaits a planned caller, every function, class and method the package
defines is named outside its own definition, so that test-only code lives
in ``tests/oracles.py``, every field of the leaf layout is read outside
the module that builds it, every dataclass field is read but in results
handed back whole, a witness triple travels loose only into the
benchmark's entries, the benchmark's traced runs still find and call
what they bind, every pass size belongs to an entry of the equivalence
registry that runs it below its default, and every definition of
``tests/oracles.py`` is reached from a test or a registry entry."""

import ast
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mblab
from mblab.filtration import LeafLayout
from oracles import EQUIVALENCES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mblab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))

# The two halves of the rescaling route have no caller yet; ROADMAP item 6
# gives them one, an `mblab rescale` command.
AWAITING_CALLER = {"bellman.estimate_rescale_constant", "bellman.recombine_slack"}
# Methods the benchmark's tracer binds by their names as strings only: the
# dense oracle's two routes, which no production route calls.
BENCHMARK_BINDS = {
    "transforms.MartingaleTransform.matrix_apply",
    "transforms.MartingaleTransform.adjoint_apply",
}


def _exports():
    for name in MODULES:
        module = importlib.import_module(f"mblab.{name}")
        for export in getattr(module, "__all__", ()):
            yield name, module, export


def _references(path: Path) -> set[str]:
    """Identifiers a file reads or imports.  In ``perfbench/`` a string
    constant counts too, since the tracer and the report bind functions by
    their (layer-qualified) names."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if path.parent.name == "perfbench":
                refs.add(node.value)
    return refs


def test_every_export_resolves():
    missing = [f"{name}.{export}" for name, module, export in _exports() if not hasattr(module, export)]
    assert missing == []


def test_root_reexports_only_exported_names():
    exported = {export for _, _, export in _exports()}
    public = {
        attr
        for attr, value in vars(mblab).items()
        if not attr.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public - exported == set()


def _files() -> list[Path]:
    """The package's modules but ``__init__.py``, and the benchmark's."""
    return [
        path
        for folder in (PACKAGE, ROOT / "perfbench")
        for path in folder.rglob("*.py")
        if path.name != "__init__.py"
    ]


def test_every_export_has_a_caller():
    files = _files()
    refs = {path: _references(path) for path in files}
    orphans = []
    for name, _, export in _exports():
        qualified = f"{name}.{export}"
        if qualified in AWAITING_CALLER:
            continue
        own = PACKAGE / f"{name}.py"
        if not any(
            export in refs[path] or qualified in refs[path] for path in files if path != own
        ):
            orphans.append(qualified)
    assert orphans == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(path: Path):
    """(qualified name, node) of every module-level function and class of a
    module and every method of its classes but the dunders."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, _DEFS):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS[:2]) and not item.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _named(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) of every import, name and attribute in a file.
    String constants do not count, the tracer's metric names among them."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno))
    return out


def _unnamed() -> list[str]:
    """The package's definitions that no import, name or attribute outside
    their own definition names, in ``src/mblab`` or ``perfbench/``."""
    files = _files()
    named = {path: _named(path) for path in files}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in _definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ident == node.name and not (other == path and line in own)
                for other in files
                for ident, line in named[other]
            ):
                out.append(qualified)
    return out


def test_every_definition_is_named_outside_itself():
    # code only the tests call belongs in tests/oracles.py
    assert [q for q in _unnamed() if q not in AWAITING_CALLER | BENCHMARK_BINDS] == []


def test_exempt_names_are_defined():
    # an exemption outlives its name, or the lack of a caller, only by mistake
    exported = {f"{name}.{export}" for name, _, export in _exports()}
    assert AWAITING_CALLER <= exported
    assert AWAITING_CALLER | BENCHMARK_BINDS <= set(_unnamed())


def test_every_layout_field_is_read_outside_filtration():
    # a field no kernel reads is a second copy of a fact, or an unused view
    read = {
        node.attr
        for path in PACKAGE.glob("*.py")
        if path.name != "filtration.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert [f.name for f in dataclasses.fields(LeafLayout) if f.name not in read] == []


# What a call hands back to its caller whole: the records the command line
# writes field by field through ``dataclasses.asdict``
# and the rescale estimate that awaits its command.  No single field is
# exempt (``RESULT_FIELDS``).
RESULT_RECORDS = {
    "estimator.ScanResult",
    "estimator.SearchResult",
    "estimator.DualityReport",
    "bellman.RescaleEstimate",
}
RESULT_FIELDS: set[str] = set()


def _dataclass_fields():
    """(module.Class, field name) of every dataclass the package defines."""
    for name in MODULES:
        module = importlib.import_module(f"mblab.{name}")
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if dataclasses.is_dataclass(value):
                    yield f"{name}.{attr}", [f.name for f in dataclasses.fields(value)]


def test_every_dataclass_field_is_read():
    # a field nothing reads is state kept for no one, or for the tests only
    read = {
        node.attr
        for path in _files()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls}.{field}"
        for cls, names in _dataclass_fields()
        if cls not in RESULT_RECORDS
        for field in names
        if field not in read and f"{cls}.{field}" not in RESULT_FIELDS
    ]
    assert unread == []


# The entries the benchmark calls with a loose triple, run_all(f, g, op)
# and certify(cand, f, g, op); ROADMAP items 1 and 12 empty this set.
LOOSE_TRIPLE_ENTRIES = {"checks.run_all", "certifier.certify"}


def test_loose_triples_only_at_benchmark_entries():
    # every other function, method or nested function (named module.name)
    # takes a triple as one Witness
    loose = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, _DEFS[:2])
        and {"f", "g", "op"} <= {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
    }
    assert loose == LOOSE_TRIPLE_ENTRIES


@pytest.mark.parametrize("workload", ["deep_tower", "corpus_sweep", "cli_session"])
def test_benchmark_traced_run_binds_the_package(workload):
    # a traced run wraps filtration.split_schedule and the transform's
    # matrix_apply and adjoint_apply by name, and its workloads call
    # run_all, certify and prepare_cell positionally, or run the mblab
    # commands in child processes: a renamed function or a changed call
    # form fails the run or its report checks; every report goes through
    # the traced writer, so its time and bytes cannot read 0
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.splitlines()[-1])
    assert last["correct"] is True
    for metric in ("reporting.bytes_out", "reporting.to_canonical_json_s"):
        assert last["metrics"][metric]["value"] > 0, metric


# The constants that size a bounded pass.  Each belongs to an entry of the
# equivalence registry, which runs its route at a smaller value against the
# route's oracle.
PASS_SIZES = {
    "estimator._BATCH_LEAVES",
    "bellman._EXPAND_FLOATS",
    "bellman._PAIR_BLOCK",
    "transforms._CUT_STACK",
    "certifier._BLOCK",
    "reporting._CHUNK",
    "filtration._RATIO_BLOCK",
}


def test_every_pass_size_is_patched_smaller():
    smallest: dict[str, list] = {}
    for entry in EQUIVALENCES.values():
        for qualified, values in entry.sizes.items():
            smallest.setdefault(qualified, []).append(min(values))
    assert set(smallest) == PASS_SIZES
    for qualified, values in sorted(smallest.items()):
        module, name = qualified.split(".")
        assert max(values) < getattr(importlib.import_module(f"mblab.{module}"), name), qualified


ORACLES = ROOT / "tests" / "oracles.py"


def _oracle_names(path: Path) -> set[str]:
    """The names a test module takes from ``tests/oracles.py``: imported
    from it, or read as its attributes."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "oracles":
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracles":
            out.add(node.attr)
    return out


def test_every_oracle_is_reached():
    # a top-level definition of tests/oracles.py counts as reached through a
    # chain of names from a test module or the registry's entries; one that
    # nothing reaches holds no route to anything
    body = ast.parse(ORACLES.read_text()).body
    uses = lambda node: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    defs = {node.name: uses(node) for node in body if isinstance(node, _DEFS)}
    registry = [node for node in body if isinstance(node, ast.Assign) and "_EQUIVALENCES" in uses(node)]
    tests = [*(ROOT / "tests").glob("test_*.py"), ROOT / "tests" / "conftest.py"]
    frontier = set().union(*map(_oracle_names, tests), *map(uses, registry)) & set(defs)
    reached = set()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[name] for name in frontier)) & set(defs) - reached
    assert sorted(set(defs) - reached) == []

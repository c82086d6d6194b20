"""The public surface: every name a module exports resolves, the package
root re-exports only exported names, every exported name has a caller
outside its own module, in ``src/mblab`` or ``perfbench/``, unless it is
a named test oracle or awaits a planned caller, and the benchmark's traced
runs still find and call what they bind."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mblab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mblab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))

# Exported without a caller in the code: the tests compare production
# routes against these.  The package root does not re-export them.
ORACLES = {
    "martingale.cond_exp",
    "martingale.restrict",
    "transforms.operator_norm",
}
# The two halves of the rescaling route have no caller yet; ROADMAP item 6
# gives them one, an `mblab rescale` command.
AWAITING_CALLER = {"bellman.estimate_rescale_constant", "bellman.recombine_slack"}


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
    assert public & {qualified.split(".")[1] for qualified in ORACLES} == set()


def test_every_export_has_a_caller_or_is_an_oracle():
    files = [
        path
        for folder in (PACKAGE, ROOT / "perfbench")
        for path in folder.rglob("*.py")
        if path.name != "__init__.py"
    ]
    refs = {path: _references(path) for path in files}
    orphans = []
    for name, _, export in _exports():
        qualified = f"{name}.{export}"
        if qualified in ORACLES | AWAITING_CALLER:
            continue
        own = PACKAGE / f"{name}.py"
        if not any(
            export in refs[path] or qualified in refs[path] for path in files if path != own
        ):
            orphans.append(qualified)
    assert orphans == []


def test_exempt_names_are_exported():
    # an exemption outlives its name only by mistake
    exported = {f"{name}.{export}" for name, _, export in _exports()}
    assert ORACLES | AWAITING_CALLER <= exported


@pytest.mark.parametrize("workload", ["deep_tower", "corpus_sweep", "cli_session"])
def test_benchmark_traced_run_binds_the_package(workload):
    # a traced run wraps filtration.split_schedule and the transform's
    # matrix_apply and adjoint_apply by name, and its workloads call
    # run_all, certify and prepare_cell positionally, or run the mblab
    # commands in child processes: a renamed function or a changed call
    # form fails the run or its report checks
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True

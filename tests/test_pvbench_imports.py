"""The benchmark under pvbench/ imports and traces pauliverify names; keep each one alive.

pvbench is not run by the tier-1 suite, so a rename in the package would only
show up when the benchmark runs.  These tests read its source with ``ast`` and
resolve every name it imports from pauliverify and every name its per-layer
tracer wraps.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from pauliverify import energy_test_exact_ppass, ground_state, load_hamiltonian, rescale

ROOT = Path(__file__).resolve().parent.parent
PVBENCH_SOURCES = ["checks.py", "workloads.py", "run.py"]
DATA = Path(__file__).parent / "data"


def _pauliverify_imports(source: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from pauliverify... import name`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "pauliverify":
                found.extend((node.module, alias.name) for alias in node.names)
    return found


IMPORTS = [
    pytest.param(module, name, id=f"{source}:{module}.{name}")
    for source in PVBENCH_SOURCES
    for module, name in _pauliverify_imports(ROOT / "pvbench" / source)
]


def test_pvbench_imports_are_found():
    modules = {p.values[0] for p in IMPORTS}
    assert {"pauliverify", "pauliverify.circuits"} <= modules


@pytest.mark.parametrize("module, name", IMPORTS)
def test_pvbench_import_resolves(module, name):
    # ``from pauliverify import cli`` names a submodule, not an attribute
    assert hasattr(importlib.import_module(module), name) or importlib.util.find_spec(
        f"{module}.{name}"
    )


def _traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of ``TRACED`` in pvbench/tracer.py."""
    for node in ast.parse((ROOT / "pvbench" / "tracer.py").read_text()).body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["TRACED"]:
            return [(module, attr) for _, module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("pvbench/tracer.py assigns no TRACED list")


# Deleted from the package while the tracer still lists them; the tracer
# reports a missing name as absent instead of tracing it.
DELETED_TRACED = {
    ("analysis", "robustness_sweep_ground"),
    ("analysis", "robustness_sweep_circuit"),
    ("single_copy", "stabilizer_test_exact_ppass"),
    ("protocol", "run_ground_protocol"),
    ("protocol", "run_circuit_protocol"),
    ("protocol", "run_hypergraph_protocol"),
}


def test_every_traced_name_resolves():
    # a name that stops resolving silently drops out of the per-layer trace
    missing = set()
    for module, attr in _traced_names():
        obj = importlib.import_module(f"pauliverify.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.add((module, attr))
    assert missing <= DELETED_TRACED


def test_energy_test_exact_ppass_of_a_rescaled_hamiltonian():
    # pvbench passes rescale(h) straight to energy_test_exact_ppass; for H = -Z
    # the rescaled form is (I - Z)/2 and its ground state |0> passes half the time
    h = load_hamiltonian(DATA / "minus_z.json")
    assert energy_test_exact_ppass(ground_state(h), rescale(h)) == 0.5

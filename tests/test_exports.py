"""The package resolves its exports on first use; every exported name keeps working.

Each name has one home: a package module binds a sibling's name only to use it.
"""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import pauliverify
from pauliverify.cli import load_target
from pauliverify.protocol import prepare
from pauliverify.schedules import PROTOCOL_FOR_KIND

# The package's exports, by the module that defines them.
EXPORTED = {
    "schedules": [
        "CapExceededError", "ProtocolParams", "desk_params", "schedule_params",
        "minimal_k_for_sampling_hardness", "supremacy_margin",
    ],
    "paulis": [
        "DENSE_QUBIT_CAP", "PURE_QUBIT_CAP", "PauliString", "PauliSum",
        "decompose_in_pauli_basis", "merge_pauli_terms", "pauli_sum_dense",
    ],
    "states": [
        "DenseState", "MeasurementRecord", "apply_pauli", "computational_state",
        "expectation", "maximally_mixed", "measure_in_bases", "mixed_state",
        "outcome_distribution", "overlap", "partial_trace", "plus_state", "pure_state",
        "random_mixed_state", "random_pure_state", "to_density",
    ],
    "hamiltonians": [
        "HamiltonianSpec", "RescaledHamiltonian", "check_conditions", "exact_diagonalize",
        "ground_state", "load_hamiltonian", "rescale",
    ],
    "hypergraphs": [
        "AdaptiveStabilizerForm", "HypergraphSpec", "adaptive_form", "all_adaptive_forms",
        "build_state", "connectivity", "hypergraph", "load_hypergraph",
        "random_bms_instance", "stabilizer_dense",
    ],
    "circuits": [
        "CircuitSpec", "Gate", "all_stabilizer_decompositions", "build_circuit_state",
        "check_circuit_conditions", "circuit", "conjugate_through_circuit", "load_circuit",
    ],
    "single_copy": [
        "AdaptiveTest", "ParityTest", "adaptive_test_exact_ppass", "energy_test_exact_ppass",
        "monte_carlo_pass_rate", "parity_test_exact_ppass",
    ],
    "protocol": [
        "PreparedTarget", "ProverModel", "VerdictReport", "classically_correlated_prover",
        "coherent_error_prover", "entangled_demo_prover", "honest_prover",
        "iid_deviated_prover", "prepare", "run_seeds",
    ],
    "analysis": ["robustness_sweep"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_export_is_the_object_of_its_module(module, name):
    # ``from pauliverify import name`` reads the attribute, as getattr does
    value = getattr(pauliverify, name)
    assert value is getattr(importlib.import_module(f"pauliverify.{module}"), name)
    assert name in dir(pauliverify)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pauliverify.no_such_name
    with pytest.raises(ImportError):
        exec("from pauliverify import no_such_name", {})
    assert pauliverify.__version__ == "0.1.0"


# ---------------------------------------------------------------------------
# The kinds of target form one table: each spec type names its kind, which
# picks its protocol in schedules.PROTOCOL_FOR_KIND

DATA = Path(__file__).parent / "data"
TARGET_FILES = sorted(p for p in DATA.glob("*.json") if not p.name.startswith("verify_"))


def test_each_target_type_names_one_kind_of_the_protocol_table():
    # the target types are the exported classes whose names end in Spec
    types = [getattr(pauliverify, name) for _, name in NAMES if name.endswith("Spec")]
    kinds = [cls.kind for cls in types]
    assert sorted(kinds) == sorted(PROTOCOL_FOR_KIND)
    # a class attribute, not a field: eq, hash and replace see only the data
    for cls in types:
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("path", TARGET_FILES, ids=[path.name for path in TARGET_FILES])
def test_load_target_returns_the_target_s_own_kind_first(path):
    # pvbench's tracer reads the kind as the first item of the result
    kind, target, _ = load_target(path)
    assert kind == target.kind


def test_the_target_files_cover_every_kind():
    assert {load_target(path)[0] for path in TARGET_FILES} == set(PROTOCOL_FOR_KIND)


def test_prepare_refuses_an_object_of_no_known_kind():
    with pytest.raises(ValueError, match=r"unknown target kind None \(object\)"):
        prepare(object())


SRC = Path(pauliverify.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unread_sibling_imports(source: str) -> list[str]:
    """The names a module imports at top level from a sibling and never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_a_module_imports_from_its_siblings_only_what_it_reads(path):
    assert unread_sibling_imports(path.read_text()) == []


def test_an_unread_sibling_import_is_found():
    source = "from .schedules import capped_dim, quantity\nfrom . import reporting\nquantity(1)\n"
    assert unread_sibling_imports(source) == ["capped_dim", "reporting"]


def unread_private_names(sources: list[str]) -> list[str]:
    """The module-level private names (``_x``, not dunders) that no source reads.

    A name is read when it is loaded, or named as an attribute
    (``states._table_stack``).  A sibling that imports a name must load it,
    which ``unread_sibling_imports`` checks.
    """
    defined, read = [], set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    return [name for name in private if name not in read]


def test_every_private_module_level_name_is_read_in_the_package():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = [
        "def _ceil(x):\n    return x\n\n_CAP = 3\n_used = 1\n_seen: int = 2\n__all__ = []\n",
        "from .schedules import _used\n\nprint(_used, schedules._seen)\n",
    ]
    assert unread_private_names(sources) == ["_ceil", "_CAP"]


# ---------------------------------------------------------------------------
# scipy is a runtime dependency of the robustness tails only: the package
# imports it in one function, and never scipy.stats

def scipy_imports(source: str) -> list[tuple[str | None, str]]:
    """(innermost enclosing function or None, module) of each scipy import in a source.

    An import statement names its module; ``importlib`` takes it as a string
    constant, so a string that is a dotted ``scipy`` name counts too.
    """
    tree = ast.parse(source)
    owner = {}  # ast.walk is breadth first, so an inner function overrides an outer one
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(sub), node.name) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if re.fullmatch(r"scipy(\.\w+)*", node.value) else []
        else:
            continue
        found += [(owner.get(id(node)), n) for n in names if n.split(".")[0] == "scipy"]
    return found


def test_the_package_imports_scipy_only_in_the_binomial_kernel_loader():
    found = [
        (path.stem, function, module)
        for path in sorted(SRC.glob("*.py"))
        for function, module in scipy_imports(path.read_text())
    ]
    assert {(stem, function) for stem, function, _ in found} == {("analysis", "_binomial_kernels")}
    assert not [module for _, _, module in found if module.startswith("scipy.stats")]


def test_a_scipy_import_is_found_with_its_function():
    source = (
        "import scipy\n"
        "def f():\n"
        "    from scipy.special._ufuncs import _binom_sf\n"
        "    def g():\n"
        "        importlib.import_module('scipy.stats')\n"
        "    return 'scipy is large'\n"
        "from .schedules import pass_cut\n"
    )
    assert set(scipy_imports(source)) == {
        (None, "scipy"), ("f", "scipy.special._ufuncs"), ("g", "scipy.stats"),
    }


# ---------------------------------------------------------------------------
# One memo rule: the package's one mutable field default is the state memo
# that ``states._remember`` bounds; a frozen spec type keeps no hidden memo

def default_factory_uses(source: str) -> list[str]:
    """``Class.name`` of each field built by a ``default_factory=`` call, else its line."""
    tree = ast.parse(source)
    fields = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    fields[id(node.value)] = ", ".join(f"{cls.name}.{t.id}" for t in targets)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "default_factory" for k in node.keywords)
    ]
    calls.sort(key=lambda node: node.lineno)
    return [fields.get(id(node), f"line {node.lineno}") for node in calls]


def test_the_one_field_default_factory_is_the_bounded_state_memo():
    found = [
        f"{path.stem}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in default_factory_uses(path.read_text())
    ]
    assert found == ["states:DenseState._cache"]


def test_a_default_factory_is_found_with_its_field():
    source = (
        "@dataclass(frozen=True)\n"
        "class Form:\n"
        "    n: int\n"
        "    _memo: dict = field(default_factory=dict, compare=False)\n"
        "make(default_factory=list)\n"
    )
    assert default_factory_uses(source) == ["Form._memo", "line 5"]

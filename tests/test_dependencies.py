"""Every module the tests import is stdlib, the package, or a declared dependency.

The CI installs ``.[test]`` and nothing else, so an undeclared import fails
there with ModuleNotFoundError although it passes wherever the module
happens to be installed.
"""
import ast
import re
import sys
import tomllib
from pathlib import Path

TESTS = Path(__file__).parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def _declared() -> set[str]:
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {_normalized(re.match(r"[A-Za-z0-9_.-]+", req).group()) for req in requirements}


def _imported_modules(path: Path) -> set[str]:
    """Top-level module of every absolute import, in functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_every_third_party_import_of_the_tests_is_declared():
    imported = {
        (path.name, module) for path in TESTS.glob("*.py") for module in _imported_modules(path)
    }
    # mpmath is imported only inside test functions, so the walk must see those
    assert ("test_analysis.py", "mpmath") in imported
    declared = _declared()
    undeclared = {
        (name, module)
        for name, module in imported
        if module not in sys.stdlib_module_names
        and module not in ("pauliverify", "conftest")
        and _normalized(module) not in declared
    }
    assert not undeclared, f"undeclared in pyproject.toml: {undeclared}"

"""The package's runtime dependencies, the stdlib and numpy, who may derive seeds, which
names one module may import from another, and the oldest Python its sources must parse on."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "probeforge"
ALLOWED = sys.stdlib_module_names | {"numpy", "probeforge"}


def _imported_top_levels(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_stdlib_and_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_top_levels(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    }
    assert not foreign, sorted(foreign)


def _calls_of(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def test_only_the_seed_tree_and_the_stream_derive_seeds():
    # One derivation: ExperimentSpec in schema owns every draw's seeds and
    # ingest.stream seeds synthesis.
    callers = {
        path.name
        for path in SRC.glob("*.py")
        if _calls_of(ast.parse(path.read_text(encoding="utf-8")), "derive_seed")
    }
    assert "schema.py" in callers
    assert callers <= {"seeds.py", "schema.py", "ingest.py"}, sorted(callers)


def test_no_module_imports_another_modules_private_name():
    # A leading underscore keeps a name inside its module; what another module
    # needs is public, as core.match_ids is for ingest.
    private = {
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "probeforge")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private, sorted(private)


def test_every_module_parses_as_the_oldest_python_the_package_declares():
    # The suite may run on a newer interpreter than requires-python names.
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))

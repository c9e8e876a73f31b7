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


#: What starts a thread or an executor of threads or processes.
_CONCURRENCY = {"Thread", "Timer", "ThreadPoolExecutor", "ThreadPool", "start_new_thread",
                "ProcessPoolExecutor", "Pool", "Process"}


def _started_concurrency(tree):
    """(function, callee) for each call in ``tree`` that starts concurrency."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func.attr if isinstance(node.func, ast.Attribute) else (
                        getattr(node.func, "id", None))
                    if callee in _CONCURRENCY:
                        yield fn.name, callee


def test_only_the_lane_helper_starts_threads_and_only_run_grid_starts_workers():
    # One mechanism per kind: ingest._in_lanes starts every loader thread,
    # and run_grid's process pool is ``run --threads N``.
    found = {
        (path.name, fn, callee)
        for path in sorted(SRC.glob("*.py"))
        for fn, callee in _started_concurrency(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("ingest.py", "_in_lanes", "Thread"),
                     ("runner.py", "run_grid", "ProcessPoolExecutor")}, sorted(found)
    # nor is any of them made at module level, outside every function
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        loose = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and id(node) not in inside
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) in _CONCURRENCY]
        assert loose == [], (path.name, loose)


#: Names of the classes a handler of every error catches.
_BROAD = {"Exception", "BaseException"}


def _is_broad(node):
    """Whether an except clause's type, None for a bare one, or the class
    argument of ``isinstance`` names a broad class."""
    if node is None:
        return True
    return any(isinstance(n, ast.Name) and n.id in _BROAD
               for n in (node.elts if isinstance(node, ast.Tuple) else [node]))


def test_only_the_lane_helper_main_and_the_atomic_write_handle_every_error():
    # A broad handler passes a fault of the program off as one of its input. The
    # lanes hand what a lane raised back to the caller's thread, main maps
    # what is left to exit code 3, and write_atomic removes its temporary
    # file on any error before it re-raises.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.ExceptHandler) and _is_broad(node.type)) or (
                        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and len(node.args) == 2 and _is_broad(node.args[1])):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found == {("ingest.py", "_in_lanes"), ("cli.py", "main"),
                     ("schema.py", "write_atomic")}, sorted(found)


def _names_read(node):
    """Each name that the code under ``node`` reads, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_function_and_class_is_used_in_the_package():
    # A module-level helper goes with its last caller: each private def or
    # class is read somewhere in src outside its own definition.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                # names read inside the definition itself, as by recursion, do not count
                own = sum(1 for read in _names_read(node) if read == node.name)
                everywhere = sum(1 for t in trees.values() for read in _names_read(t)
                                 if read == node.name)
                if everywhere == own:
                    unused.append(f"{name}: {node.name}")
    assert not unused, unused

"""The package's runtime dependencies, the stdlib and numpy, who may derive seeds, which
names one module may import from another, the oldest Python its sources must parse on, and
which grid axes must refuse a name no spec key and results row can hold."""

import ast
import csv
import dataclasses
import re
import sys
from pathlib import Path

import pytest

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


#: A mode of open() that writes, and the os.open flags that do.
_WRITE_MODE = re.compile(r"[wax+]")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _writes_a_file(call):
    """Whether ``call`` may create, truncate or replace a file: open() or
    fdopen() with a mode that writes (or one not written out), os.open with a
    write flag, os.replace or os.rename, .write_text or .write_bytes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    of_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if name in ("write_text", "write_bytes") or (of_os and name in ("replace", "rename")):
        return True
    if of_os and name == "open":
        flags = call.args[1:2] or [k.value for k in call.keywords if k.arg == "flags"]
        return any(getattr(n, "attr", None) in _WRITE_FLAGS for f in flags for n in ast.walk(f))
    if name in ("open", "fdopen"):
        # Path.open takes the mode first; open() and os.fdopen take it second
        at = 0 if isinstance(func, ast.Attribute) and not of_os else 1
        mode = call.args[at:at + 1] or [k.value for k in call.keywords if k.arg == "mode"]
        if not mode:
            return False
        texts = [n.value for n in ast.walk(mode[0]) if isinstance(n, ast.Constant)]
        return not texts or any(_WRITE_MODE.search(str(t)) for t in texts)
    return False


def test_only_the_atomic_write_the_results_stream_and_its_torn_row_cut_write_files():
    # One writer: write_atomic writes each file whole and renames it into
    # place. run_grid streams rows into the results file as they finish, and
    # _drop_torn_row cuts a row torn by a crash from it, both in place.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _writes_a_file(node):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found == {("schema.py", "write_atomic"), ("runner.py", "run_grid"),
                     ("runner.py", "_drop_torn_row")}, sorted(found)


#: The clocks of the ``time`` module.
_CLOCKS = {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
           "process_time", "process_time_ns", "thread_time", "thread_time_ns",
           "clock_gettime", "clock_gettime_ns"}


def _reads_a_clock(call, clocks):
    """Whether ``call`` is ``time.<clock>()`` or a clock imported by name from ``time``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return getattr(func.value, "id", None) == "time" and func.attr in _CLOCKS
    return getattr(func, "id", None) in clocks


def test_only_the_run_unit_reads_a_clock():
    # One timing path: runner._unit_records times each run unit, and the run
    # logs that time; no result and no other code reads a clock.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        clocks = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "time"
                  for alias in node.names if alias.name in _CLOCKS}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _reads_a_clock(node, clocks):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found == {("runner.py", "_unit_records")}, sorted(found)


def _names_numpy_random(node, numpy):
    """Whether ``node`` names numpy's random module or ``default_rng``: an import
    of either, or ``<numpy>.random`` with ``numpy`` the names numpy is bound to."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or any(
            alias.name in ("random", "default_rng") for alias in node.names
            if node.module == "numpy")
    if isinstance(node, ast.Attribute):
        return node.attr == "default_rng" or (
            node.attr == "random" and getattr(node.value, "id", None) in numpy)
    return isinstance(node, ast.Name) and node.id == "default_rng"


def test_only_the_synth_stream_names_numpy_random():
    # Every draw reads sampling's own SplitMix64 stream, so a run depends on
    # numpy only through BLAS and LAPACK. synth still draws its data from
    # numpy's Generator, which ingest.stream alone builds.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        numpy = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name == "numpy"}
        for top in tree.body:
            for node in ast.walk(top):
                if _names_numpy_random(node, numpy):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found == {("ingest.py", "stream")}, sorted(found)


def test_every_free_text_key_field_refuses_the_key_separator():
    # ExperimentSpec.key joins its fields with ";" and a results row holds
    # each, so a grid axis that fills a str field of a spec must refuse a name
    # that is empty, holds a ";" (two specs could share a key), is over csv's
    # field limit or is not encodable as UTF-8. This finds those axes, a new
    # one too, from the enumeration.
    from probeforge.errors import GridError
    from probeforge.runner import _REGIME_AXES, GridSpec
    from probeforge.schema import ClassId, ExperimentSpec, SamplerKind

    free_text = {f.name for f in dataclasses.fields(ExperimentSpec)
                 if "str" in re.findall(r"\w+", f.type)}
    axes = {axis for pairs in _REGIME_AXES.values() for name, axis in pairs if name in free_text}
    assert axes >= {"fms", "target_aois", "external_aois"}, sorted(axes)
    grid = GridSpec(fms=("m",), classes=(ClassId.TREE_COVER,), samplers=(SamplerKind.RANDOM,),
                    target_aois=("t",), n_test_target=(5,), external_aois=("e",),
                    n_train_external=(5,), n_train_target=(5,), repetitions=2)
    limit = csv.field_size_limit()
    faults = {
        "x;y": "'x;y': a name may not contain ';'",
        "": "an empty name",
        "\ud800x": "'\\ud800x': a name must be encodable as UTF-8",
        "y" * (limit + 1): f"a name longer than {limit} characters",
    }
    for axis in sorted(axes):
        for name, fault in faults.items():
            with pytest.raises(GridError) as caught:
                dataclasses.replace(grid, **{axis: (*getattr(grid, axis), name)})
            assert f"axis {axis} holds {fault}" in str(caught.value)
            assert "y" * 100 not in str(caught.value)  # no name over the limit is printed
        dataclasses.replace(grid, **{axis: (*getattr(grid, axis), "y" * limit)})


#: The csv module's writers and readers.
_CSV_WRITERS = {"writer", "DictWriter"}
_CSV_READERS = {"reader", "DictReader"}


def _csv_calls(kinds):
    """(module, top-level name) of each call in src to ``csv.<kind>`` or to a
    kind imported by name from ``csv``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "csv"
                 for alias in node.names if alias.name in kinds}
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "csv"
                        and func.attr in kinds) or getattr(func, "id", None) in named:
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_one_csv_writer_and_one_results_reader():
    # One CSV writer: schema.csv_text writes the streamed rows, the canonical
    # file and every report. One reader: parse_numbered_results reads every
    # results file back, for the reports and for a resume.
    assert _csv_calls(_CSV_WRITERS) == {("schema.py", "csv_text")}
    assert _csv_calls(_CSV_READERS) == {("schema.py", "parse_numbered_results")}


def test_only_the_name_check_reads_the_csv_field_limit():
    # schema.name_fault alone decides which model ids and AOI names a spec
    # key and a results row can hold, the csv field limit among its rules.
    assert _csv_calls({"field_size_limit"}) == {("schema.py", "name_fault")}

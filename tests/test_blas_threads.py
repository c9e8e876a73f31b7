"""One BLAS thread per probeforge process, pool workers included.

Each test runs a fresh interpreter, because numpy reads the BLAS thread
variables only when it loads, and the test process loaded it long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, cwd, *args, **preset):
    """Run ``code`` with no BLAS variable set beyond ``preset``; return its
    last stdout line, parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("preset, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
], ids=["unset", "user-set"])
def test_import_pins_blas_threads_and_keeps_user_values(tmp_path, preset, expected):
    code = (
        "import json, os, probeforge\n"
        f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))\n"
    )
    assert run_python(code, tmp_path, **preset) == expected


# Wraps runner.factorize so that every call records the calling process's
# OS thread count; forked pool workers inherit the wrapper.
WORKER_SCRIPT = """
import probeforge  # first, as the console script does: before numpy loads
import json, os, sys
from probeforge import runner
from probeforge.core import ClassId
from probeforge.ingest import SynthSpec, synthesize_dataset
from probeforge.sampling import SamplerKind

log_dir = sys.argv[1]
real_factorize = runner.factorize


def factorize(x):
    out = real_factorize(x)
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    with open(os.path.join(log_dir, str(os.getpid())), "a", encoding="ascii") as fh:
        fh.write(threads + "\\n")
    return out


runner.factorize = factorize
synth = synthesize_dataset(SynthSpec(n_chips=2400, dim=64, n_aois=4, fm_ids=("alpha-s1",)))
grid = runner.GridSpec(
    fms=("alpha-s1",), classes=(ClassId.TREE_COVER,), samplers=(SamplerKind.RANDOM,),
    target_aois=("aoi-00", "aoi-01", "aoi-02", "aoi-03"), n_train_target=(500,),
    n_test_target=(50,), regimes=("target-split",), repetitions=3,
)
runner.run_grid(grid, {"alpha-s1": synth.dataset("alpha-s1")}, "results.csv", threads=2)
print(json.dumps({"pid": os.getpid()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="reads /proc/self/status; one core runs one BLAS thread anyway")
def test_pool_workers_run_one_blas_thread(tmp_path):
    log_dir = tmp_path / "threads"
    log_dir.mkdir()
    parent = run_python(WORKER_SCRIPT, tmp_path, str(log_dir))["pid"]
    seen = {int(p.name): p.read_text().split() for p in log_dir.iterdir()}
    assert seen and parent not in seen  # every fit ran in a worker
    assert sum(len(v) for v in seen.values()) == 4 * 3  # 4 draw groups x 3 repetitions
    assert {pid: set(v) for pid, v in seen.items()} == {pid: {"1"} for pid in seen}

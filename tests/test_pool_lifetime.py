"""Pool workers of ``run --threads N``: no thread is alive in ``run`` when it
forks them, and none outlives a ``run`` that is killed.

Each test drives the command in a fresh interpreter, so that the signals and
the fork hooks act on that process alone.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from probeforge.cli import SEED_ENV, main
from probeforge.ingest import load_chip_table
from probeforge.schema import CSV_COLUMNS, csv_text
from test_golden import GOLDEN, GRID, SYNTH_SPEC

SRC = str(Path(__file__).resolve().parents[1] / "src")

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="run forks its workers, and they die with it, on Linux")


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    """The golden synth directory and grid, with a warm chip column cache."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    assert main(["synth", "--spec", str(tmp_path / "synth.json"),
                 "--out-dir", str(tmp_path / "data")]) == 0
    load_chip_table(tmp_path / "data" / "chips.jsonl")
    assert (tmp_path / "data" / "chips.jsonl.cols").exists()
    return tmp_path


def run_args(root, out, *extra):
    return ["run", "--grid", str(root / "grid.json"), "--data-dir", str(root / "data"),
            "--out", str(out), *extra]


def python_env():
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


# Runs cli.main and prints, as its last stdout line, the exit code,
# threading.active_count() just before every fork, and the names of the
# threads started before the first fork. Whatever its size, the load runs on
# two lanes: the chip file is hashed beside the cache decode, and the payload
# is filled in four blocks.
FORKS = """
import json, os, sys, threading
from probeforge import cli, ingest

ingest._HASH_THREAD_BYTES = 0
ingest._usable_cpus = lambda: 2
ingest._BLOCK_BYTES = 4 * 8 * 100
counts, started = [], []
start = threading.Thread.start


def spy_start(thread):
    if not counts:
        started.append(thread.name)
    start(thread)


threading.Thread.start = spy_start
os.register_at_fork(before=lambda: counts.append(threading.active_count()))
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "threads": counts, "lanes": started}))
"""


def test_run_forks_its_workers_with_no_other_thread_alive(golden_dir):
    out = golden_dir / "results.csv"
    proc = subprocess.run(
        [sys.executable, "-c", FORKS, *run_args(golden_dir, out, "--threads", "2")],
        env=python_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"code": 0, "threads": [1, 1],  # one fork per worker
                    "lanes": ["probeforge-lane-1"] * 2}  # the digest's and the fill's
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["run/results.csv"]


# Runs cli.main with two rebindings that forked workers inherit: each worker
# writes its pid into directory argv[1] once the pool has set it up, and
# after finishing one run unit it sleeps in the next, so the run is sure to
# be cut with rows streamed and every worker busy or waiting.
HANG = """
import os, sys, time
from pathlib import Path
from probeforge import cli, runner

pids, parent = Path(sys.argv[1]), os.getpid()
real_init, real_run = runner._init_pool, runner.run_experiment
first = []


def init_pool(*args):
    real_init(*args)
    (pids / str(os.getpid())).touch()


def run_experiment(spec, dataset, share=None):
    if os.getpid() != parent:
        first[:] = first or [spec.train_key()]
        if spec.train_key() != first[0]:
            time.sleep(600)
    return real_run(spec, dataset, share)


runner._init_pool = init_pool
runner.run_experiment = run_experiment
sys.exit(cli.main(sys.argv[2:]))
"""


def alive(pid):
    """Whether process ``pid`` runs: a zombie, gone but not yet reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_pool_workers_die_with_a_killed_run_and_resume_gives_the_golden_bytes(
        golden_dir, sig):
    out, pids = golden_dir / "results.csv", golden_dir / "pids"
    pids.mkdir()
    with open(golden_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", HANG, str(pids), *run_args(golden_dir, out, "--threads", "2")],
            env=python_env(), stdout=subprocess.DEVNULL, stderr=err)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(pids)) < 2 or len(out.read_bytes().splitlines()) < 2:
            assert proc.poll() is None, (golden_dir / "stderr.txt").read_text()
            assert time.monotonic() < deadline, "no row was streamed"
            time.sleep(0.05)
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == -sig
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert_no_worker_outlives_the_run(pids)
    assert_resumes_to_the_golden_bytes(golden_dir, out)


def assert_no_worker_outlives_the_run(pids):
    """The workers whose pids are in directory ``pids`` all end within 5 s."""
    workers = [int(name) for name in os.listdir(pids)]
    deadline = time.monotonic() + 5
    while (left := [w for w in workers if alive(w)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for w in left:
        os.kill(w, signal.SIGKILL)
    assert left == [], "pool workers outlived their killed run"


def assert_resumes_to_the_golden_bytes(golden_dir, out):
    """``run --resume`` on copies of ``out`` writes the golden bytes at 1 and 2 threads."""
    kept = out.read_bytes()
    for threads in ("1", "2"):
        resumed = golden_dir / f"resumed-{threads}.csv"
        shutil.copyfile(out, resumed)
        assert main(run_args(golden_dir, resumed, "--threads", threads, "--resume")) == 0
        assert hashlib.sha256(resumed.read_bytes()).hexdigest() == GOLDEN["run/results.csv"]
    assert out.read_bytes() == kept


# Runs cli.main with two rebindings: each pool worker writes its pid into
# directory argv[1] once the pool has set it up, and runner.record_to_row,
# which only ``run`` itself calls, kills ``run`` with SIGKILL as it is about
# to stream its first row. The kill waits, 10 s at most, until argv[2]
# workers have written their pids, so each of them can be seen to end with it.
KILL_BEFORE_FIRST_ROW = """
import os, signal, sys, time
from pathlib import Path
from probeforge import cli, runner

pids, workers = Path(sys.argv[1]), int(sys.argv[2])
real_init = runner._init_pool


def init_pool(*args):
    real_init(*args)
    (pids / str(os.getpid())).touch()


def record_to_row(*args, **kwargs):
    deadline = time.monotonic() + 10
    while len(os.listdir(pids)) < workers and time.monotonic() < deadline:
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


runner._init_pool = init_pool
runner.record_to_row = record_to_row
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_killed_before_its_first_row_resumes_to_the_golden_bytes(golden_dir, threads):
    out, pids = golden_dir / "results.csv", golden_dir / "pids"
    pids.mkdir()
    workers = 0 if threads == 1 else threads  # a serial run starts no pool
    with open(golden_dir / "stderr.txt", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", KILL_BEFORE_FIRST_ROW, str(pids), str(workers),
             *run_args(golden_dir, out, "--threads", str(threads))],
            env=python_env(), stdout=subprocess.DEVNULL, stderr=err, timeout=120)
    assert proc.returncode == -signal.SIGKILL, (golden_dir / "stderr.txt").read_text()
    assert len(os.listdir(pids)) == workers
    assert_no_worker_outlives_the_run(pids)
    assert out.read_bytes() == csv_text([CSV_COLUMNS]).encode()  # the header alone
    assert_resumes_to_the_golden_bytes(golden_dir, out)

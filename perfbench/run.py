"""probeforge benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports probeforge from
``src/`` there, and works in ``.perfbench/`` beside it. Workloads are in
``workloads.py`` and metric names and units in ``BENCHMARK.json``.

1. A separate process generates the inputs from the seed: a synthetic
   dataset directory (``probeforge synth``) and a grid JSON.
2. Iterations repeat for S seconds (at least two). Each runs
   ``probeforge run`` and then ``probeforge report-select --format text``,
   each in a fresh process (``measured.py``). The environment is passed
   through unchanged apart from PYTHONPATH: no BLAS thread variable is set.
3. Every iteration's results CSV goes through ``check.py``. The first one
   of a workload and seed is kept under ``.perfbench/ref/``, keyed by a
   digest of probeforge's source and the inputs, and every later one made
   from the same source and inputs must match it byte for byte.
4. The last line of standard output is the result JSON: with ``--trace 0``
   the end-to-end metrics, medians over iterations; with ``--trace 1`` the
   per-layer metrics. A traced run alternates untraced and traced
   iterations, so ``trace.overhead_s`` compares the two, and loads the
   dataset once more under tracemalloc for ``ingest.load_peak_mb``. The line
   before it is the environment block.

``--tiny`` shrinks every workload to a few seconds for the benchmark's own
tests (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
#: Start no iteration that might end past this many seconds after start,
#: and stop any process still running at DEADLINE_HARD_S.
DEADLINE_S = 150.0
DEADLINE_HARD_S = 170.0
POLL_S = 0.05
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Watch(threading.Thread):
    """Polls /proc for the OS thread counts of a process and its children
    (the ``Threads`` line, one per entry of ``/proc/<pid>/task``) and for the
    children's peak RSS (``VmHWM``)."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.stop = threading.Event()
        self.threads: dict[int, int] = {}
        self.hwm_kb: dict[int, int] = {}

    def _status(self, pid: int) -> None:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Threads:"):
                        self.threads[pid] = max(self.threads.get(pid, 0), int(line.split()[1]))
                    elif line.startswith("VmHWM:"):
                        self.hwm_kb[pid] = int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            pass

    def children(self) -> set[int]:
        pids: set[int] = set()
        try:
            for tid in os.listdir(f"/proc/{self.pid}/task"):
                with open(f"/proc/{self.pid}/task/{tid}/children", encoding="ascii") as fh:
                    pids.update(int(p) for p in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            pass
        return pids

    def run(self) -> None:
        while not self.stop.is_set():
            for pid in {self.pid} | self.children():
                self._status(pid)
            self.stop.wait(POLL_S)

    def workers(self) -> list[int]:
        return [p for p in self.threads if p != self.pid]


def _spawn(cmd: list[str], env: dict, log: Path, timeout: float,
           stdout=None) -> tuple[int | None, bytes, Watch]:
    """Run one process (and its workers) to completion or timeout."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=stdout or err, stderr=err,
                                start_new_session=True)
        watch = Watch(proc.pid)
        watch.start()
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            code = None
        finally:
            watch.stop.set()
            watch.join()
    return code, out or b"", watch


class Bench:
    """One benchmark run's inputs, iterations and output check."""

    def __init__(self, root: Path, w: workloads.Workload, work: Path, ref: Path,
                 t_start: float) -> None:
        self.w = w
        self.t_start = t_start
        self.work = work
        self.ref = ref
        self.data = work / "data"
        self.grid = work / "grid.json"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.count = 0

    def spawn(self, cmd: list[str], log: Path, stdout=None) -> tuple[int | None, bytes, Watch]:
        left = DEADLINE_HARD_S - (time.perf_counter() - self.t_start)
        return _spawn(cmd, self.env, log, left, stdout)

    def generate(self) -> dict:
        synth = self.work / "synth.json"
        synth.write_text(json.dumps(self.w.synth))
        self.grid.write_text(json.dumps(self.w.grid))
        env_json = self.work / "env.json"
        cmd = [sys.executable, str(HERE / "gen.py"), str(synth), str(self.data), str(env_json)]
        code, _, _ = self.spawn(cmd, self.work / "gen.log")
        if code != 0:
            raise RuntimeError(f"input generation exited {code}; see {self.work / 'gen.log'}")
        self.spread = check.target_spread(self.data / "chips.jsonl")
        return json.loads(env_json.read_text())

    def measured(self, d: Path, tag: str, args: list[str], trace_dir: Path | None,
                 stdout=None) -> tuple[int | None, bytes, Watch, dict]:
        result = d / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "measured.py"), "--result", str(result)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        code, out, watch = self.spawn(cmd + ["--"] + args, d / f"{tag}.log", stdout)
        info = json.loads(result.read_text()) if code == 0 and result.exists() else {}
        return code, out, watch, info

    def iteration(self, traced: bool) -> dict:
        self.count += 1
        d = self.work / f"it{self.count}"
        d.mkdir()
        trace_dir = d / "trace" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        results = d / "results.csv"
        t0 = time.perf_counter()
        code, _, watch, run = self.measured(d, "run", [
            "run", "--grid", str(self.grid), "--data-dir", str(self.data),
            "--out", str(results), "--threads", str(self.w.threads)], trace_dir)
        report = b""
        if code == 0:
            code, report, _, rep = self.measured(
                d, "report", ["report-select", "--results", str(results),
                              "--format", "text"], trace_dir, subprocess.PIPE)
        t1 = time.perf_counter()
        it = {"traced": traced, "ok": code == 0 and bool(report.strip()),
              "time_to_answer_s": t1 - t0}
        text = results.read_text(encoding="utf-8") if results.exists() else ""
        it["attempted"], it["failed"], it["problems"] = self.check(text)
        if not it["ok"]:
            it["failed"] = it["attempted"]
            logs = [f for f in ("run.log", "report.log") if (d / f).exists()]
            tail = (d / logs[-1]).read_text(errors="replace").splitlines()[-5:]
            it["problems"].append(f"iteration {self.count} failed: " + " | ".join(tail))
            return it
        workers = watch.workers()
        it.update(
            setup_s=run["setup_s"],
            fits_per_s=run["fits"] / run["grid_s"],
            peak_rss_mb=(run["maxrss_kb"] + sum(watch.hwm_kb[p] for p in workers)) / 1024.0,
            import_s=run["import_s"] + rep["import_s"],
            main_os_threads=watch.threads.get(watch.pid, 0),
            # a serial run's only worker is the main process
            worker_os_threads=max((watch.threads[p] for p in workers),
                                  default=watch.threads.get(watch.pid, 0)),
            workers=len(workers),
        )
        if traced:
            it["spans"] = tracer.load_spans(str(trace_dir))
        return it

    def check(self, text: str) -> tuple[int, int, list[str]]:
        reference = self.ref.read_text(encoding="utf-8") if self.ref.exists() else None
        attempted, failed, problems = check.check(self.w, text, self.spread, reference)
        if reference is None and failed == 0:
            self.ref.parent.mkdir(parents=True, exist_ok=True)
            self.ref.write_text(text, encoding="utf-8")
        return attempted, failed, problems

    def memtrace(self) -> float:
        d = self.work / "memtrace"
        d.mkdir()
        result = d / "mem.json"
        cmd = [sys.executable, str(HERE / "measured.py"), "--result", str(result),
               "--memtrace", str(self.data)]
        code, _, _ = self.spawn(cmd, d / "mem.log")
        if code != 0:
            raise RuntimeError(f"tracemalloc load exited {code}; see {d}")
        return json.loads(result.read_text())["load_peak_bytes"] / 2**20


def input_digest(root: Path, w: workloads.Workload) -> str:
    """Digest of probeforge's source and the workload's inputs.

    References are kept per digest, so a results file is only ever compared
    with one made by the same code from the same inputs.
    """
    h = hashlib.blake2b(json.dumps([w.synth, w.grid, w.threads]).encode(), digest_size=8)
    for path in sorted((root / "src" / "probeforge").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _median(its: list[dict], key: str) -> float:
    return statistics.median(it[key] for it in its)


def end_to_end(its: list[dict], attempted: int, failed: int) -> dict[str, float]:
    return {
        "setup_s": _median(its, "setup_s"),
        "fits_per_s": _median(its, "fits_per_s"),
        "time_to_answer_s": _median(its, "time_to_answer_s"),
        "peak_rss_mb": _median(its, "peak_rss_mb"),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(its: list[dict], bench: Bench, attempted: int, failed: int) -> dict[str, float]:
    traced = [it for it in its if it["traced"]]
    plain = [it for it in its if not it["traced"]]
    per_it = [layers.layer_metrics(it["spans"]) for it in traced]
    m = {k: statistics.median(p[k] for p in per_it) for k in per_it[0]}
    m.update(layers.spec_latency([
        (s["t1"] - s["t0"]) * 1000.0 for it in traced for s in it["spans"]
        if s["name"] == "runner.run_experiment"]))
    m["trace.overhead_s"] = (_median(traced, "time_to_answer_s")
                             - _median(plain, "time_to_answer_s"))
    m["cli.import_s"] = _median(traced, "import_s")
    m["runner.worker_os_threads"] = max(it["worker_os_threads"] for it in its)
    m["ingest.load_peak_mb"] = bench.memtrace()
    m["check.fail_frac"] = failed / attempted
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="shrink the workload (tests)")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "probeforge" / "cli.py").is_file():
        print(f"perfbench: no probeforge source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}

    w = workloads.build(args.workload, args.seed, args.tiny)
    tag = f"{w.name}-{args.seed}"
    state = root / ".perfbench"
    work = state / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, w, work, state / "ref" / f"{tag}-{input_digest(root, w)}.csv",
                  t_start)
    try:
        env = bench.generate()
        its: list[dict] = []
        while True:
            traced = bool(args.trace) and len(its) % 2 == 1
            its.append(bench.iteration(traced))
            print(f"perfbench: {tag} iteration {len(its)}{' traced' if traced else ''}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in its[-1].items()
                              if isinstance(v, float)), file=sys.stderr)
            elapsed = time.perf_counter() - t_start
            done = (len(its) >= MIN_ITERATIONS and elapsed >= args.seconds
                    and (not args.trace or len(its) % 2 == 0))
            if done or elapsed + 2 * its[-1]["time_to_answer_s"] > DEADLINE_S:
                break
        attempted = sum(it["attempted"] for it in its)
        failed = sum(it["failed"] for it in its)
        for line in sorted({p for it in its for p in it["problems"]}):
            print(f"perfbench: check: {line}", file=sys.stderr)
        ok = [it for it in its if it["ok"]]
        if len({it["traced"] for it in ok}) < (2 if args.trace else 1):
            metrics = {}
        elif args.trace:
            metrics = per_layer(ok, bench, attempted, failed)
        else:
            metrics = end_to_end(ok, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    env.update(
        workload=w.name, seed=args.seed, tiny=args.tiny, iterations=len(its),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        threads=w.threads, blas_env={v: os.environ.get(v) for v in BLAS_VARS},
        main_os_threads=max((it.get("main_os_threads", 0) for it in its), default=0),
        worker_os_threads=max((it.get("worker_os_threads", 0) for it in its), default=0),
        workers=max((it.get("workers", 0) for it in its), default=0),
    )
    print("perfbench env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

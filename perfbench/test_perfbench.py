"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repo root.

Every workload runs at tiny size through ``run.py``, the same path as a real
run, traced and untraced.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import workloads  # noqa: E402
from probeforge import runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("probe.fits", "probe.rank_limited_fits", "runner.aux_mb_passed",
          "probe.fit_gflop_computed", "sampling.fps_gb_computed",
          *(f"sampling.draws.{k}" for k in ("random", "esawc", "fps", "srtm")))


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, env_line, last = proc.stdout.strip().splitlines()
    assert env_line.startswith("perfbench env ")
    return json.loads(env_line[len("perfbench env "):]), json.loads(last)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    env, res = result(bench(workload, 3, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert env["seed"] == 3 and env["workload"] == workload
    if trace:
        w = workloads.build(workload, 3, tiny=True)
        fits = len(check.expected_keys(w)) * w.grid["repetitions"]
        assert res["metrics"]["probe.fits"]["value"] == fits
        assert res["metrics"]["runner.specs"]["value"] == len(check.expected_keys(w))
    else:
        assert res["metrics"]["pass_frac"]["value"] == 1.0


def test_counts_repeat_exactly_and_a_second_seed_passes():
    runs = [result(bench("ingest-quickstart", seed, 1))[1] for seed in (5, 5, 6)]
    assert all(r["correct"] for r in runs)
    first, again, other = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
    assert first == again
    assert first["sampling.draws.srtm"] > 0 and first["runner.aux_mb_passed"] > 0
    assert other["probe.fits"] == first["probe.fits"]


def _tiny_results(tmp_path: Path, scale: float = 1.0) -> tuple[workloads.Workload, str, dict]:
    """A tiny fit-serial results CSV; ``scale`` multiplies every probe's weights."""
    from probeforge.ingest import SynthSpec, synthesize_dataset, write_dataset_dir
    from probeforge.runner import GridSpec, run_grid

    w = workloads.build("fit-serial", 7, tiny=True)
    res = synthesize_dataset(SynthSpec.from_dict(w.synth))
    write_dataset_dir(res, tmp_path / "data")
    out = tmp_path / "results.csv"
    fit = runner.fit

    def scaled_fit(X, y):
        probe = fit(X, y)
        return dataclasses.replace(probe, weights=probe.weights * scale)

    mp = pytest.MonkeyPatch()
    mp.setattr(runner, "fit", scaled_fit)
    try:
        run_grid(GridSpec.from_dict(w.grid), {fm: res.dataset(fm) for fm in w.synth["fm_ids"]},
                 out)
    finally:
        mp.undo()
    return w, out.read_text(), check.target_spread(tmp_path / "data" / "chips.jsonl")


def test_worker_spans_reach_the_trace(tmp_path):
    import layers
    import tracer
    from probeforge.ingest import SynthSpec, synthesize_dataset, write_dataset_dir

    w = workloads.build("fit-serial", 8, tiny=True)
    write_dataset_dir(synthesize_dataset(SynthSpec.from_dict(w.synth)), tmp_path / "data")
    (tmp_path / "grid.json").write_text(json.dumps(w.grid))
    (tmp_path / "trace").mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "measured.py"), "--result", str(tmp_path / "r.json"),
         "--trace-dir", str(tmp_path / "trace"), "--", "run", "--grid",
         str(tmp_path / "grid.json"), "--data-dir", str(tmp_path / "data"),
         "--out", str(tmp_path / "results.csv"), "--threads", "2"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = tracer.load_spans(str(tmp_path / "trace"))
    main_pid = next(s["pid"] for s in spans if s["name"] == "cli.main")
    worker_fits = [s for s in spans if s["name"] == "probe.fit" and s["pid"] != main_pid]
    specs = len(check.expected_keys(w))
    assert len(worker_fits) == specs * w.grid["repetitions"]
    m = layers.layer_metrics(spans)
    assert m["runner.specs"] == specs and 0.0 < m["runner.worker_busy_frac"] <= 1.0


def test_corrupted_rows_fail_the_check(tmp_path):
    w, text, spread = _tiny_results(tmp_path)
    attempted, failed, problems = check.check(w, text, spread, reference=text)
    assert (attempted, failed, problems) == (len(check.expected_keys(w)), 0, [])

    header, *rows = text.splitlines(keepends=True)
    signal = next(i for i, r in enumerate(rows)
                  if r.startswith(w.synth["fm_ids"][0]) and ",400," in r)
    fields = rows[signal].split(",")
    fields[9] = "0.2"  # r_mean far below the planted correlation
    bad = rows.copy()
    bad[signal] = ",".join(fields)
    assert check.check(w, header + "".join(bad), spread)[1] == 1
    assert check.check(w, header + "".join(rows[1:]), spread)[1] == 1  # a missing row
    assert check.check(w, header + "".join(rows + rows[:1]), spread)[1] == 1  # a duplicate

    fields = rows[0].split(",")
    fields[10] = str(float(fields[10]) + 1e-3)  # still plausible, but not the same bytes
    moved = [",".join(fields)] + rows[1:]
    assert check.check(w, header + "".join(moved), spread)[1] == 0
    assert check.check(w, header + "".join(moved), spread, reference=text)[1] == 1


@pytest.mark.parametrize("scale", [0.5, 1.25])
def test_miscalibrated_probe_fails_the_check(tmp_path, scale):
    # scaling the weights keeps every correlation; only the RMSE shows it
    w, text, spread = _tiny_results(tmp_path, scale)
    assert check.check(w, text, spread)[1] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fit-serial", 3, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

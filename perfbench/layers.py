"""Per-layer metrics from the spans of one traced iteration.

Times are sums of span durations in seconds; a ``*_self_s`` metric subtracts
the time covered by the span's child spans. Spans in pool workers overlap
each other, so worker-side sums are busy time across workers, not wall time.
In the measured processes themselves (the ``run`` and ``report-select``
commands) the self times of all spans add up to the traced wall time
``trace.wall_s``; ``cli.other_s`` is the part of ``cli.main`` no other span
covers.

Metrics named ``*_computed`` come from shapes, not from measurement:

* ``probe.fit_gflop_computed``: the thin SVD of an m x p centered matrix
  (m >= p) costs 6 m p^2 + 20 p^3 flops, the R-SVD count for U1, Sigma and
  V in Golub and Van Loan's Matrix Computations.
* ``sampling.fps_gb_computed``: each of the k greedy steps of furthest point
  sampling reads three float64 arrays of the pool's n x d shape (the pool,
  its difference from the new point, and the squares), 24 n d k bytes per
  draw; writes are not counted.
"""

from __future__ import annotations

import math
from collections import defaultdict

SAMPLER_KINDS = ("random", "esawc", "fps", "srtm")


def _svd_flops(n: int, d: int) -> int:
    m, p = max(n, d), min(n, d)
    return 6 * m * p * p + 20 * p ** 3


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    by_name: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    index = {}
    for s in spans:
        s["dur"] = s["t1"] - s["t0"]
        by_name[s["name"]].append(s)
        index[(s["pid"], s["id"])] = s
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["dur"]

    def self_time(s: dict) -> float:
        return s["dur"] - child_time[(s["pid"], s["id"])]

    def total(*names: str) -> float:
        return sum(s["dur"] for n in names for s in by_name[n])

    def self_total(name: str) -> float:
        return sum(self_time(s) for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    m["ingest.load_chip_table_s"] = total("ingest.load_chip_table")
    m["ingest.chips"] = attr_sum("ingest.load_chip_table", "chips")
    m["ingest.load_embeddings_s"] = total("ingest.load_embeddings")
    m["ingest.emb_mb_read"] = attr_sum("ingest.load_embeddings", "bytes") / 1e6
    m["ingest.load_dir_self_s"] = self_total("ingest.load_dataset_dir")
    m["core.assemble_dataset_s"] = total("core.assemble_dataset")
    m["core.rows_joined"] = attr_sum("core.assemble_dataset", "rows")

    draws = by_name["sampling.draw"]
    for kind in SAMPLER_KINDS:
        mine = [s for s in draws if s["attrs"].get("kind") == kind]
        m[f"sampling.draw_s.{kind}"] = sum(s["dur"] for s in mine)
        m[f"sampling.draws.{kind}"] = len(mine)
    m["sampling.split_target_self_s"] = self_total("sampling.split_target")
    m["sampling.fps_gb_computed"] = sum(
        24 * a["n"] * a["d"] * a["k"] for a in (s["attrs"] for s in draws)
        if a.get("kind") == "fps") / 1e9

    fits = by_name["probe.fit"]
    m["probe.fit_s"] = total("probe.fit")
    m["probe.fits"] = len(fits)
    m["probe.fit_gflop_computed"] = sum(
        _svd_flops(s["attrs"]["n"], s["attrs"]["d"]) for s in fits) / 1e9
    m["probe.rank_limited_fits"] = sum(
        1 for s in fits
        if s["attrs"]["rank"] < min(s["attrs"]["n"] - 1, s["attrs"]["d"]))
    m["probe.predict_s"] = total("probe.predict")

    m["metrics.score_s"] = total("metrics.pearson", "metrics.rmse", "metrics.aggregate")
    scored = by_name["metrics.pearson"]
    usable = sum(1 for s in scored if not s["attrs"].get("error"))
    m["metrics.usable_run_frac"] = usable / len(scored) if scored else 0.0

    def from_runner(s: dict) -> bool:
        parent = index.get((s["pid"], s["parent"]))
        return parent is not None and parent["name"] == "runner.run_experiment"

    experiments = by_name["runner.run_experiment"]
    m["runner.experiment_self_s"] = self_total("runner.run_experiment")
    m["runner.aux_mb_passed"] = (
        attr_sum("sampling.split_target", "aux_bytes")
        + sum(s["attrs"]["aux_bytes"] for s in draws if from_runner(s))) / 1e6
    grid_wall = total("runner.run_grid")
    threads = max((s["attrs"]["threads"] for s in by_name["runner.run_grid"]), default=1)
    workers = threads if threads > 1 and len(experiments) > 1 else 1
    m["runner.worker_busy_frac"] = (
        total("runner.run_experiment") / (workers * grid_wall) if grid_wall else 0.0)
    m["runner.enumerate_s"] = total("runner.enumerate_grid")
    m["runner.persist_s"] = total("runner.write_results_file")
    m["runner.grid_self_s"] = self_total("runner.run_grid")
    m["runner.specs"] = len(experiments)

    m["report.parse_s"] = total("report.parse_results_file")
    m["report.select_s"] = total("report.selection_table", "report.selection_text")

    mains = by_name["cli.main"]
    m["cli.other_s"] = self_total("cli.main")
    m["trace.wall_s"] = total("cli.main")
    main_pids = {s["pid"] for s in mains}
    named = sum(self_time(s) for s in spans
                if s["pid"] in main_pids and s["name"] != "cli.main")
    m["trace.accounted_frac"] = named / m["trace.wall_s"] if mains else 0.0
    return m


def spec_latency(durations_ms: list[float]) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples above it.

    Nearest-rank percentiles. With fewer than 20 samples no percentile above
    the median qualifies, and the tail is reported at the median.
    """
    xs = sorted(durations_ms)
    n = len(xs)
    if n == 0:
        return {"runner.spec_ms_p50": 0.0, "runner.spec_ms_tail": 0.0,
                "runner.spec_ms_tail_pct": 0.0, "runner.spec_samples": 0}

    def pct(p: float) -> float:
        return xs[max(0, math.ceil(p / 100.0 * n) - 1)]

    tail = max(50, math.floor(100.0 * (n - 10) / n))
    return {"runner.spec_ms_p50": pct(50), "runner.spec_ms_tail": pct(tail),
            "runner.spec_ms_tail_pct": tail, "runner.spec_samples": n}

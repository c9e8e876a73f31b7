"""Output check of one results CSV, independent of probeforge's own code.

A spec fails when its row is missing or duplicated, flagged infeasible, or
malformed; when a well-posed row of the signal model (n_train > dim) with
enough test points misses criterion 04's bound around the planted
correlation, or has an RMSE that a calibrated probe with its correlation
would not have; when a noise model's mean correlation is not near zero; or
when its row differs from the reference row of the same workload and seed
(the determinism contract). An unexpected extra row counts as one more
failure.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import defaultdict

from workloads import SIGNAL_RHO, SIGNAL_TOL, Workload

COLUMNS = (
    "fm_id", "class", "regime", "train_aoi", "target_aoi", "sampler",
    "n_train", "n_test", "repetitions", "r_mean", "r_std", "rmse_mean",
    "rmse_std", "degenerate_runs", "infeasible", "wall_ms", "base_seed",
)
KEY = COLUMNS[:8]

#: One repetition's r over n_test points has a standard error of about
#: (1 - rho^2) / sqrt(n_test). Repetitions redraw from one pool, so their
#: errors are correlated and r_mean is held to that same standard error. A
#: noise model (rho = 0) may sit five of them from zero. The signal bound
#: applies only to rows where it is at least five standard errors wide, so
#: that sampling noise cannot fail it.
NOISE_SIGMAS = 5.0
SIGNAL_SIGMAS = 5.0

#: A calibrated probe with correlation r has RMSE sd * sqrt(1 - r^2), sd the
#: spread of the target over the AOI. On correct runs the two agree to about
#: 0.012 sd; scaling the probe's weights by 0.5 or 1.25 moves the RMSE by
#: more than 0.05 sd.
RMSE_TOL = 0.03


def target_spread(chips_jsonl) -> dict[tuple[str, str], float]:
    """Population standard deviation of each class fraction within each AOI."""
    acc: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    with open(chips_jsonl, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for label, value in rec["fractions"].items():
                a = acc[(rec["aoi"], label)]
                a[0] += 1
                a[1] += value
                a[2] += value * value
    return {k: math.sqrt(max(s2 / n - (s1 / n) ** 2, 0.0)) for k, (n, s1, s2) in acc.items()}


def expected_keys(w: Workload) -> list[tuple[str, ...]]:
    """Every spec the grid enumerates, as the row's first eight fields."""
    g = w.grid
    keys = []
    for regime in g["regimes"]:
        if regime == "external":
            pairs = [(a, b) for a, b in itertools.product(
                g["external_aois"], g["target_aois"]) if a != b]
            n_train = g["n_train_external"]
        else:
            pairs = [("", b) for b in g["target_aois"]]
            n_train = g["n_train_target"]
        for fm, cls, (train, target), sampler, ntr, nte in itertools.product(
                g["fms"], g["classes"], pairs, g["samplers"], n_train,
                g["n_test_target"]):
            keys.append((fm, cls, regime, train, target, sampler, str(ntr), str(nte)))
    return keys


def _row_problem(w: Workload, row: list[str], spread: dict) -> str | None:
    rec = dict(zip(COLUMNS, row))
    if rec["infeasible"] != "false":
        return "infeasible"
    if (rec["repetitions"] != str(w.grid["repetitions"])
            or rec["base_seed"] != str(w.grid["base_seed"])
            or rec["wall_ms"] != "0" or rec["degenerate_runs"] != "0"):
        return "echoed fields"
    try:
        r_mean, r_std, e_mean, e_std = (float(rec[c]) for c in
                                        ("r_mean", "r_std", "rmse_mean", "rmse_std"))
    except ValueError:
        return "unparsable metric"
    if not all(math.isfinite(v) for v in (r_mean, r_std, e_mean, e_std)):
        return "non-finite metric"
    if not (-1.0 <= r_mean <= 1.0 and r_std >= 0.0 and e_mean >= 0.0 and e_std >= 0.0):
        return "metric out of range"
    n_test = int(rec["n_test"])
    if rec["fm_id"] == w.synth["fm_ids"][0]:
        stderr = (1.0 - SIGNAL_RHO**2) / math.sqrt(n_test)
        if int(rec["n_train"]) > w.synth["dim"] and stderr <= SIGNAL_TOL / SIGNAL_SIGMAS:
            if abs(r_mean - SIGNAL_RHO) > SIGNAL_TOL:
                return f"signal r_mean {r_mean} outside {SIGNAL_RHO}+-{SIGNAL_TOL}"
            sd = spread[(rec["target_aoi"], rec["class"])]
            calibrated = sd * math.sqrt(1.0 - r_mean**2)
            if abs(e_mean - calibrated) > RMSE_TOL * sd:
                return f"signal rmse_mean {e_mean} far from calibrated {calibrated:.6g}"
    else:
        limit = NOISE_SIGMAS / math.sqrt(n_test)
        if abs(r_mean) > limit:
            return f"noise r_mean {r_mean} beyond {limit:.3f}"
    return None


def check(w: Workload, text: str, spread: dict,
          reference: str | None = None) -> tuple[int, int, list[str]]:
    """(specs attempted, specs failed, one line per problem) for a CSV text.

    ``spread`` is :func:`target_spread` of the dataset the run read.
    """
    keys = expected_keys(w)
    rows: dict[tuple, list[list[str]]] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    extra = 0
    problems = []
    if header is None or tuple(header) != COLUMNS:
        extra += 1
        problems.append("bad header")
    for row in reader:
        if len(row) != len(COLUMNS):
            extra += 1
            problems.append(f"row with {len(row)} fields")
            continue
        rows.setdefault(tuple(row[:len(KEY)]), []).append(row)
    ref_rows = {}
    if reference is not None:
        ref_rows = {tuple(r[:len(KEY)]): r for r in csv.reader(io.StringIO(reference))}
    failed = 0
    for key in keys:
        found = rows.pop(key, [])
        if len(found) != 1:
            why = f"{len(found)} rows"
        else:
            why = _row_problem(w, found[0], spread)
            if why is None and reference is not None and found[0] != ref_rows.get(key):
                why = "differs from the reference run"
        if why is not None:
            failed += 1
            problems.append(f"{','.join(key)}: {why}")
    for key in rows:
        extra += 1
        problems.append(f"{','.join(key)}: not in the grid")
    return len(keys), failed + extra, problems

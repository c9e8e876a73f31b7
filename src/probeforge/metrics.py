"""Per-run metrics and across-repetition aggregation.

The headline metric is the Pearson correlation between probe predictions
and targets; a configuration is considered practically useful when the
correlation mean over repeated resampling exceeds 0.7 and its standard
deviation stays below 0.05 (``report.R_THRESHOLD`` and
``report.STD_THRESHOLD``, applied by ``report.SelectionCriterion``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateVarianceError

#: A vector whose standard deviation is at or below this carries no
#: correlation information; such runs are excluded (and counted) upstream.
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class RunMetrics:
    """Metrics of a single fit/predict repetition."""

    pearson_r: float
    rmse: float


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean/std over the usable repetitions of one experiment."""

    r_mean: float
    r_std: float
    rmse_mean: float
    rmse_std: float


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def pearson(a, b) -> float:
    """Sample Pearson correlation of two equal-length vectors.

    Raises :class:`DegenerateVarianceError` when either vector is (near-)
    constant; callers record such runs as failed-degenerate rather than
    coercing them to zero correlation.
    """
    va = _as_vector(a, "a")
    vb = _as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    n = va.shape[0]
    if n < 2:
        raise ValueError("pearson needs at least 2 points")
    # The sums np.mean and np.std take, so each vector is centered once and
    # the guard decides exactly as np.std(v) <= DEGENERATE_STD would.
    da = va - np.add.reduce(va) / n
    db = vb - np.add.reduce(vb) / n
    for name, d in (("a", da), ("b", db)):
        if np.sqrt(np.add.reduce(d * d) / n) <= DEGENERATE_STD:
            raise DegenerateVarianceError(f"degenerate variance: {name} is (near-)constant")
    return float((da @ db) / np.sqrt((da @ da) * (db @ db)))


def rmse(a, b) -> float:
    """Root of the mean squared difference."""
    va = _as_vector(a, "a")
    vb = _as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValueError(f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    n = va.shape[0]
    if n < 1:
        raise ValueError("rmse needs at least 1 point")
    d = va - vb
    return float(np.sqrt(np.add.reduce(d * d) / n))


def aggregate(runs: Sequence[RunMetrics]) -> AggregateMetrics:
    """Mean and sample standard deviation (n-1 denominator) over usable runs.

    ``runs`` must hold the non-degenerate repetitions only.
    """
    if len(runs) < 2:
        raise ValueError(f"need at least 2 usable runs, got {len(runs)}")
    rs = np.array([m.pearson_r for m in runs], dtype=np.float64)
    es = np.array([m.rmse for m in runs], dtype=np.float64)
    return AggregateMetrics(
        r_mean=float(rs.mean()),
        r_std=float(rs.std(ddof=1)),
        rmse_mean=float(es.mean()),
        rmse_std=float(es.std(ddof=1)),
    )

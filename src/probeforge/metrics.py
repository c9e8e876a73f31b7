"""Per-run scores and their aggregation across repetitions.

Each repetition's fit is scored by two floats, the Pearson correlation
between probe predictions and targets and their RMSE; ``aggregate`` turns
the usable repetitions' scores into a results row's four metric fields.
The correlation is the headline metric: a configuration is considered
practically useful when the correlation mean over repeated resampling
exceeds 0.7 and its standard deviation stays below 0.05
(``report.R_THRESHOLD`` and ``report.STD_THRESHOLD``, applied by
``report.SelectionCriterion``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateVarianceError

#: A vector whose standard deviation is at or below this carries no
#: correlation information; such runs are excluded (and counted) upstream.
DEGENERATE_STD = 1e-12


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


def aggregate(r: Sequence[float], rmse: Sequence[float]) -> dict[str, float]:
    """Mean and sample standard deviation (n-1 denominator) over usable runs.

    ``r`` and ``rmse`` hold the Pearson r and the RMSE of the
    non-degenerate repetitions only, one of each per repetition. Returns
    the record fields ``r_mean``, ``r_std``, ``rmse_mean`` and ``rmse_std``.
    """
    if len(r) != len(rmse):
        raise ValueError(f"{len(r)} r values but {len(rmse)} rmse values")
    if len(r) < 2:
        raise ValueError(f"need at least 2 usable runs, got {len(r)}")
    rs = np.array(r, dtype=np.float64)
    es = np.array(rmse, dtype=np.float64)
    return {
        "r_mean": float(rs.mean()),
        "r_std": float(rs.std(ddof=1)),
        "rmse_mean": float(es.mean()),
        "rmse_std": float(es.std(ddof=1)),
    }

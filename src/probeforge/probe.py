"""Linear-regression probe: map an embedding vector to a class fraction.

The probe is deliberately the plainest model available so that its score
reflects the raw information content of the embeddings. Training sets can
be far smaller than the embedding dimension (10 points against 768 dims),
where ordinary normal equations are singular; we therefore solve centered
minimum-norm least squares through an SVD pseudoinverse. In the n <= d
regime the solution interpolates the training data with the smallest
weight norm among all interpolants.

Predictions are raw affine outputs, never clipped to [0, 1]: clipping
would silently distort the correlation metric downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Singular values below rcond * sigma_max are discarded from the inverse.
DEFAULT_RCOND = 1e-10


@dataclass(frozen=True)
class Probe:
    """A fitted affine map plus SVD diagnostics of the fit."""

    weights: np.ndarray
    intercept: float
    effective_rank: int
    sigma_max: float
    sigma_min_retained: float

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class Factorization:
    """Thin SVD of a centered training matrix, shared by every target fitted on it.

    Only the singular triplets above the cut-off are kept: ``U`` (n x r),
    ``s`` (r,) and ``Vt`` (r x d), plus the column means.
    """

    x_mean: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the factorized matrix."""
        return self.U.shape[0], self.Vt.shape[1]


def factorize(X) -> Factorization:
    """Center the columns of ``X`` and keep the SVD triplets above the cut-off."""
    Xm = np.asarray(X, dtype=np.float64)
    if Xm.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {Xm.shape}")
    n, d = Xm.shape
    if n < 2:
        raise ValueError(f"need at least 2 training points, got {n}")
    if d < 1:
        raise ValueError("X must have at least one column")
    if not np.isfinite(Xm).all():
        raise ValueError("non-finite values in training data")

    x_mean = Xm.mean(axis=0)
    U, s, Vt = np.linalg.svd(Xm - x_mean, full_matrices=False)
    keep = s > DEFAULT_RCOND * s[0]
    return Factorization(x_mean=x_mean, U=U[:, keep], s=s[keep], Vt=Vt[keep])


def fit(X, y) -> Probe:
    """Fit the minimum-norm least-squares probe.

    ``X`` is a training matrix or its ``factorize(X)``; the two give
    bit-identical probes, so one factorization serves every target of a
    training set. Columns of ``X`` and ``y`` are centered first, keeping the
    intercept out of the regularized subspace; the intercept is recovered as
    ``mean(y) - mean_row(X) @ weights``.
    """
    f = X if isinstance(X, Factorization) else factorize(X)
    yv = np.asarray(y, dtype=np.float64)
    if yv.ndim != 1 or yv.shape[0] != f.shape[0]:
        raise ValueError(f"y shape {yv.shape} does not match X rows {f.shape[0]}")
    if not np.isfinite(yv).all():
        raise ValueError("non-finite values in training data")

    y_mean = float(yv.mean())
    rank = f.s.size
    if rank:
        w = f.Vt.T @ ((f.U.T @ (yv - y_mean)) / f.s)
    else:
        w = np.zeros(f.shape[1], dtype=np.float64)
    return Probe(
        weights=w,
        intercept=y_mean - float(f.x_mean @ w),
        effective_rank=rank,
        sigma_max=float(f.s[0]) if rank else 0.0,
        sigma_min_retained=float(f.s[-1]) if rank else 0.0,
    )


def predict(probe: Probe, X) -> np.ndarray:
    """Apply the probe: ``X @ weights + intercept``, unclipped."""
    Xm = np.asarray(X, dtype=np.float64)
    if Xm.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {Xm.shape}")
    if Xm.shape[1] != probe.dim:
        raise ValueError(
            f"X has {Xm.shape[1]} columns but probe expects {probe.dim}"
        )
    return Xm @ probe.weights + probe.intercept

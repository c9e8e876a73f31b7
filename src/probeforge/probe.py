"""Linear-regression probe: map an embedding vector to a class fraction.

The probe is deliberately the plainest model available so that its score
reflects the raw information content of the embeddings. Training sets can
be far smaller than the embedding dimension (10 points against 768 dims),
where ordinary normal equations are singular; we therefore solve centered
minimum-norm least squares through a pseudoinverse built from the singular
triplets of the centered training matrix Xc. In the n <= d regime the
solution interpolates the training data with the smallest weight norm among
all interpolants.

The triplets come from ``eigh`` of the smaller Gram matrix (Xc^T Xc when
n > d, Xc Xc^T otherwise), which costs 2-3x less than a thin SVD on one
BLAS thread. Forming it squares the condition number, so that path is taken
only when Xc has full rank and kappa(Xc) <= 1e3 (``GRAM_TAU``). Every other
input (rank deficiency, duplicate chips with n <= d, kappa above 1e3) runs
the thin SVD with the ``DEFAULT_RCOND`` cut-off. When the column norms
(n > d) or row norms (n <= d) of Xc already differ by more than 1e3, as
when a few dimensions dominate, the SVD runs at once; otherwise it runs
after the ``eigh`` it could not use, and costs up to about 1.35x a plain SVD.

Predictions are raw affine outputs, never clipped to [0, 1]: clipping
would silently distort the correlation metric downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Singular values below rcond * sigma_max are discarded from the inverse.
DEFAULT_RCOND = 1e-10

#: The Gram path is taken only if lambda_min >= GRAM_TAU * lambda_max, that is
#: kappa(Xc) <= 1e3; squaring kappa then costs about kappa^2 * eps ~ 1e-10.
GRAM_TAU = 1e-6


@dataclass(frozen=True)
class Probe:
    """A fitted affine map plus singular-value diagnostics of the fit."""

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
    """Singular triplets of a centered training matrix, shared by every target fitted on it.

    Only the triplets above the cut-off are kept: ``U`` (n x r), ``s`` (r,
    descending) and ``Vt`` (r x d), plus the column means. They come from the
    Gram path when it is well conditioned and from a thin SVD otherwise.
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
    """Center the columns of ``X`` and keep its singular triplets above the cut-off.

    Well-conditioned inputs take the Gram path; anything else runs the thin SVD.
    """
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
    Xc = Xm - x_mean
    gram = _gram_factors(Xc)
    if gram is not None:
        return Factorization(x_mean, *gram)
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    keep = s > DEFAULT_RCOND * s[0]
    return Factorization(x_mean=x_mean, U=U[:, keep], s=s[keep], Vt=Vt[keep])


def _gram_factors(Xc: np.ndarray):
    """``(U, s, Vt)`` of centered ``Xc`` from ``eigh`` of its smaller Gram matrix.

    Returns None unless every retained eigenvalue is positive and at least
    ``GRAM_TAU`` times the largest, i.e. unless Xc has full rank and
    kappa(Xc) <= 1e3. For n <= d the smallest eigenvalue of Xc Xc^T is the
    null direction (the ones vector) that centering creates; it is dropped.
    """
    n, d = Xc.shape
    wide = n <= d
    with np.errstate(over="ignore"):  # entries near 1e154 overflow; the SVD takes those
        G = Xc @ Xc.T if wide else Xc.T @ Xc
    if not np.isfinite(G).all():
        return None
    # The diagonal holds squared column (n > d) or row (n <= d) norms of Xc,
    # each between lambda_min and lambda_max, so min/max below GRAM_TAU fails
    # the guard below without paying for the eigh.
    g = np.diagonal(G)
    if not g.min() >= GRAM_TAU * g.max():
        return None
    lam, Q = np.linalg.eigh(G)  # ascending
    lam, Q = (lam[:0:-1], Q[:, :0:-1]) if wide else (lam[::-1], Q[:, ::-1])
    if not (lam[-1] > 0 and lam[-1] >= GRAM_TAU * lam[0]):
        return None
    s = np.sqrt(lam)
    if wide:
        return Q.copy(), s, ((Xc.T @ Q) / s).T.copy()
    return (Xc @ Q) / s, s, Q.T.copy()


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

    y_mean = float(np.add.reduce(yv) / yv.shape[0])  # the sum yv.mean() takes
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

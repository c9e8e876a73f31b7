"""Probe solver versus an independently coded least-squares oracle."""

import struct

import numpy as np
import pytest

from probeforge.probe import DEFAULT_RCOND, Probe, factorize, fit, predict


def lstsq_oracle(X, y, rcond=1e-10):
    """Centered min-norm weights through numpy's LAPACK gelsd driver."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    w, *_ = np.linalg.lstsq(Xc, yc, rcond=rcond)
    return w


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_weights_match_oracle_across_regimes(rng):
    for n in (10, 50, 100):
        for d in (8, 64, 200):
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            p = fit(X, y)
            assert rel_err(p.weights, lstsq_oracle(X, y)) <= 1e-8


def test_interpolation_regime_zero_residual(rng):
    # n <= d: the min-norm solution passes through every training point
    for n, d in ((5, 8), (20, 64), (64, 64)):
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        p = fit(X, y)
        assert np.max(np.abs(predict(p, X) - y)) <= 1e-6


def test_minimum_norm_among_interpolants(rng):
    X = rng.standard_normal((10, 40))
    y = rng.standard_normal(10)
    w = fit(X, y).weights
    w_oracle = lstsq_oracle(X, y)
    assert np.linalg.norm(w) <= np.linalg.norm(w_oracle) * (1 + 1e-9)


def test_exact_recovery_of_planted_affine(rng):
    w_true = rng.standard_normal(12)
    X = rng.standard_normal((200, 12))
    y = X @ w_true + 3.25
    p = fit(X, y)
    assert rel_err(p.weights, w_true) <= 1e-10
    assert np.isclose(p.intercept, 3.25)
    X_new = rng.standard_normal((30, 12))
    assert np.allclose(predict(p, X_new), X_new @ w_true + 3.25)


def test_intercept_tracks_target_shift(rng):
    X = rng.standard_normal((50, 6))
    y = rng.standard_normal(50)
    a = fit(X, y)
    b = fit(X, y + 10.0)
    assert np.allclose(a.weights, b.weights)
    assert np.isclose(b.intercept - a.intercept, 10.0)


def test_rank_deficient_input_matches_oracle(rng):
    base = rng.standard_normal((40, 5))
    X = np.hstack([base, base[:, :3]])  # duplicated columns
    y = rng.standard_normal(40)
    p = fit(X, y)
    assert p.effective_rank <= 5
    assert rel_err(p.weights, lstsq_oracle(X, y)) <= 1e-8


def test_constant_target_gives_flat_probe(rng):
    X = rng.standard_normal((30, 4))
    p = fit(X, np.full(30, 0.25))
    assert np.allclose(p.weights, 0.0)
    assert np.isclose(p.intercept, 0.25)
    assert np.allclose(predict(p, X), 0.25)


@pytest.mark.parametrize("n, d", [(30, 4), (4, 30)], ids=["tall", "wide"])
def test_constant_training_matrix_gives_a_rank_zero_probe(rng, n, d):
    # small integers, so the column means are exact and the centered matrix is zero
    X = np.tile(rng.integers(-5, 5, size=d).astype(np.float64), (n, 1))
    y = rng.uniform(size=n)
    p = fit(X, y)
    assert p.effective_rank == 0
    assert p.sigma_max == p.sigma_min_retained == 0.0
    assert np.array_equal(p.weights, np.zeros(d))
    assert p.intercept == y.mean()
    assert np.array_equal(predict(p, X), np.full(n, y.mean()))


def test_fit_diagnostics(rng):
    X = rng.standard_normal((100, 8))
    p = fit(X, rng.standard_normal(100))
    assert p.effective_rank == 8
    assert p.sigma_max >= p.sigma_min_retained > 0
    assert p.dim == 8
    assert not p.weights.flags.writeable


def test_fit_input_validation(rng):
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    with pytest.raises(ValueError):
        fit(X[:1], y[:1])
    with pytest.raises(ValueError):
        fit(X, y[:-1])
    with pytest.raises(ValueError):
        fit(X.ravel(), y)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit(bad, y)


def test_predict_dimension_check(rng):
    p = fit(rng.standard_normal((10, 3)), rng.standard_normal(10))
    with pytest.raises(ValueError):
        predict(p, rng.standard_normal((5, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: factorize(np.zeros((5, 0))), "X must have at least one column"),
    (lambda: predict(fit(np.eye(3), np.arange(3.0)), np.zeros(3)),
     r"X must be 2-D, got shape \(3,\)"),
], ids=["factorize-no-column", "predict-1-d"])
def test_probe_refuses_a_matrix_of_the_wrong_shape(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def assert_same_bits(a, b):
    assert a.weights.tobytes() == b.weights.tobytes()
    assert struct.pack("<d", a.intercept) == struct.pack("<d", b.intercept)
    assert a.effective_rank == b.effective_rank
    assert (a.sigma_max, a.sigma_min_retained) == (b.sigma_max, b.sigma_min_retained)


@pytest.mark.parametrize("n, d, rank", [(10, 40, 10), (60, 8, 8), (40, 12, 5)],
                         ids=["n<d", "n>d", "rank-deficient"])
def test_fit_on_a_factorization_is_bit_identical(rng, n, d, rank):
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    f = factorize(X)
    assert f.shape == (n, d)
    for y in (rng.standard_normal(n), np.full(n, 0.25), rng.standard_normal(n)):
        assert_same_bits(fit(f, y), fit(X, y))  # one factorization, many targets
    assert fit(f, y).effective_rank == min(rank, n - 1)  # centering costs one
    with pytest.raises(ValueError):
        fit(f, y[:-1])
    with pytest.raises(ValueError):
        fit(f, np.full(n, np.inf))


def _duplicate_columns(rng):
    base = rng.standard_normal((40, 5))
    return np.hstack([base, base[:, :3]])


def _duplicate_rows(rng):  # n <= d
    X = rng.standard_normal((10, 40))
    return np.vstack([X, X[:3]])


def _kappa_1e5(rng):  # the spread of the column norms already shows it
    return rng.standard_normal((200, 16)) * np.logspace(0, 5, 16)


def _kappa_1e5_rotated(rng):  # column norms within 1e3, so only the eigenvalues show it
    Q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    return _kappa_1e5(rng) @ Q


@pytest.mark.parametrize("make, eighs, svds", [
    (lambda rng: rng.standard_normal((500, 64)), 1, 0),
    (lambda rng: rng.standard_normal((100, 256)), 1, 0),
    (_duplicate_columns, 1, 1),
    (_duplicate_rows, 1, 1),
    (_kappa_1e5, 0, 1),
    (_kappa_1e5_rotated, 1, 1),
    (lambda rng: rng.standard_normal((50, 4)) * 1e160, 0, 1),  # the Gram matrix overflows
], ids=["500x64", "100x256", "duplicate-columns", "duplicate-rows-n<d", "kappa-1e5",
        "kappa-1e5-rotated", "overflowing-gram"])
def test_factorize_takes_the_svd_only_when_the_gram_path_is_ill_conditioned(
        rng, monkeypatch, make, eighs, svds):
    X = make(rng)
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    calls = []
    for name in ("eigh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k))
    f = factorize(X)
    assert (calls.count("eigh"), calls.count("svd")) == (eighs, svds)
    assert f.s.size == np.count_nonzero(s > DEFAULT_RCOND * s[0])  # the SVD's rank
    assert np.allclose(f.s, s[:f.s.size], rtol=1e-10)
    assert np.allclose(f.U * f.s @ f.Vt, Xc, atol=1e-10 * s[0])


@pytest.mark.parametrize("n, d", [(60, 8), (10, 40)], ids=["n>d", "n<=d"])
def test_factorize_leaves_its_float64_argument_unchanged(rng, n, d):
    X = rng.standard_normal((n, d)) + 3.0
    kept = X.copy()
    f = factorize(X)
    assert X.tobytes() == kept.tobytes()
    ro = kept.copy()
    ro.setflags(write=False)
    again = factorize(ro)  # a read-only argument is copied too
    for name in ("x_mean", "U", "s", "Vt"):
        assert getattr(again, name).tobytes() == getattr(f, name).tobytes()


def test_probe_is_a_plain_record():
    p = Probe(weights=np.array([1.0, 2.0]), intercept=0.5,
              effective_rank=2, sigma_max=3.0, sigma_min_retained=1.0)
    assert p.dim == 2
    assert predict(p, np.array([[1.0, 1.0]]))[0] == 3.5

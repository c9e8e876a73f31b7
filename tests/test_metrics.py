"""Pearson/RMSE against independent oracles plus aggregation rules."""

import numpy as np
import pytest

from probeforge.errors import DegenerateVarianceError
from probeforge.metrics import RunMetrics, aggregate, pearson, rmse


def run(r, e=0.1):
    return RunMetrics(pearson_r=r, rmse=e)


def test_pearson_matches_corrcoef(rng):
    for _ in range(300):
        n = int(rng.integers(3, 200))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) + 0.3 * a
        assert abs(pearson(a, b) - np.corrcoef(a, b)[0, 1]) <= 1e-12


def test_pearson_known_values():
    a = np.array([1.0, 2.0, 3.0])
    assert np.isclose(pearson(a, a * 2), 1.0)
    assert np.isclose(pearson(a, -a), -1.0)


def test_pearson_affine_invariance(rng):
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    r = pearson(a, b)
    assert abs(pearson(3.5 * a + 2.0, b) - r) <= 1e-12
    assert abs(pearson(-0.7 * a + 1.0, b) + r) <= 1e-12


def test_pearson_bounded(rng):
    for _ in range(300):
        n = int(rng.integers(3, 50))
        scale = 10.0 ** rng.integers(-6, 7)
        a = rng.standard_normal(n) * scale
        b = a + rng.standard_normal(n) * scale * 1e-3
        assert abs(pearson(a, b)) <= 1.0 + 1e-12


def test_pearson_degenerate_raises():
    a = np.full(10, 3.0)
    b = np.arange(10.0)
    with pytest.raises(DegenerateVarianceError, match="^degenerate variance: a "):
        pearson(a, b)
    with pytest.raises(DegenerateVarianceError, match="^degenerate variance: b "):
        pearson(b, a)


def test_pearson_length_mismatch():
    with pytest.raises(ValueError):
        pearson(np.zeros(3), np.zeros(4))


def test_rmse_matches_loop_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 100))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        want = (sum((x - y) ** 2 for x, y in zip(a, b)) / n) ** 0.5
        assert abs(rmse(a, b) - want) <= 1e-12


def test_rmse_known_values():
    x = np.array([1.0, 2.0])
    assert rmse(x, x) == 0.0
    assert np.isclose(rmse(np.zeros(2), np.ones(2)), 1.0)


def test_aggregate_constant_runs():
    agg = aggregate([run(0.8) for _ in range(20)])
    assert np.isclose(agg.r_mean, 0.8, rtol=0, atol=1e-12)
    assert agg.r_std < 1e-12


def test_aggregate_two_point_std():
    agg = aggregate([run(0.7), run(0.9)])
    assert np.isclose(agg.r_mean, 0.8)
    assert np.isclose(agg.r_std, 0.14142135623730953)


def test_aggregate_table_style_values():
    # mean 0.814, std 0.048, as quoted in a results table
    d = 0.048 / np.sqrt(2.0)
    agg = aggregate([run(0.814 - d), run(0.814 + d)])
    assert np.isclose(agg.r_mean, 0.814)
    assert np.isclose(agg.r_std, 0.048)


def test_aggregate_requires_two_usable_runs():
    with pytest.raises(ValueError):
        aggregate([run(0.5)])
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_permutation_invariant(rng):
    runs = [run(float(r), float(e)) for r, e in rng.random((15, 2))]
    a = aggregate(runs)
    order = rng.permutation(15)
    b = aggregate([runs[i] for i in order])
    for name in ("r_mean", "r_std", "rmse_mean", "rmse_std"):
        assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-12)

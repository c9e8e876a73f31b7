"""Pearson/RMSE against independent oracles plus aggregation rules."""

import numpy as np
import pytest

from probeforge.errors import DegenerateVarianceError
from probeforge.metrics import aggregate, pearson, rmse


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


@pytest.mark.parametrize("score, a, b, message", [
    (pearson, np.zeros((3, 2)), np.zeros(3), r"a must be 1-D, got shape \(3, 2\)"),
    (rmse, np.zeros(3), np.zeros((3, 1)), r"b must be 1-D, got shape \(3, 1\)"),
    (pearson, [1.0], [2.0], "pearson needs at least 2 points"),
    (rmse, np.zeros(3), np.zeros(4), "length mismatch: 3 vs 4"),
    (rmse, [], [], "rmse needs at least 1 point"),
], ids=["pearson-2-d", "rmse-2-d", "pearson-one-point", "rmse-lengths", "rmse-empty"])
def test_scores_refuse_inputs_they_cannot_score(score, a, b, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        score(a, b)


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
    agg = aggregate([0.8] * 20, [0.1] * 20)
    assert np.isclose(agg["r_mean"], 0.8, rtol=0, atol=1e-12)
    assert agg["r_std"] < 1e-12
    assert np.isclose(agg["rmse_mean"], 0.1, rtol=0, atol=1e-12)
    assert agg["rmse_std"] < 1e-12


def test_aggregate_two_point_std():
    agg = aggregate([0.7, 0.9], [0.1, 0.1])
    assert np.isclose(agg["r_mean"], 0.8)
    assert np.isclose(agg["r_std"], 0.14142135623730953)


def test_aggregate_table_style_values():
    # mean 0.814, std 0.048, as quoted in a results table
    d = 0.048 / np.sqrt(2.0)
    agg = aggregate([0.814 - d, 0.814 + d], [0.1, 0.1])
    assert np.isclose(agg["r_mean"], 0.814)
    assert np.isclose(agg["r_std"], 0.048)


def test_aggregate_returns_the_record_s_four_metric_fields():
    agg = aggregate([0.7, 0.9], [0.2, 0.4])
    assert list(agg) == ["r_mean", "r_std", "rmse_mean", "rmse_std"]
    assert np.isclose(agg["rmse_mean"], 0.3)
    assert np.isclose(agg["rmse_std"], 0.14142135623730953)


def test_aggregate_requires_two_usable_runs():
    with pytest.raises(ValueError, match="need at least 2 usable runs, got 1"):
        aggregate([0.5], [0.1])
    with pytest.raises(ValueError, match="need at least 2 usable runs, got 0"):
        aggregate([], [])


def test_aggregate_refuses_lists_of_unequal_length():
    with pytest.raises(ValueError, match="^3 r values but 2 rmse values$"):
        aggregate([0.5, 0.6, 0.7], [0.1, 0.2])
    with pytest.raises(ValueError, match="^1 r values but 2 rmse values$"):
        aggregate([0.5], [0.1, 0.2])


def test_aggregate_permutation_invariant(rng):
    runs = rng.random((15, 2))
    a = aggregate(list(runs[:, 0]), list(runs[:, 1]))
    order = rng.permutation(15)
    b = aggregate(list(runs[order, 0]), list(runs[order, 1]))
    for name in ("r_mean", "r_std", "rmse_mean", "rmse_std"):
        assert np.isclose(a[name], b[name], rtol=1e-12)

"""The four sampling strategies and the target train/test split."""

import numpy as np
import pytest

from probeforge import sampling
from probeforge.sampling import (
    SampleRequest,
    SamplerKind,
    draw,
    esawc_sample,
    fps_sample,
    random_sample,
    split_target,
    srtm_sample,
)


def one_hot_fractions(classes):
    """Each candidate fully covered by a single class."""
    fr = np.zeros((len(classes), 7))
    for i, c in enumerate(classes):
        fr[i, c] = 1.0
    return fr


def test_request_validates_k_and_shape():
    with pytest.raises(ValueError):
        SampleRequest(np.arange(5), 0, 1, SamplerKind.RANDOM)
    with pytest.raises(ValueError):
        SampleRequest(np.arange(5), 6, 1, SamplerKind.RANDOM)
    with pytest.raises(ValueError):
        SampleRequest(np.zeros((2, 2)), 1, 1, SamplerKind.RANDOM)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed {seed} must be in 0\.\.2\*\*64 - 1"):
            SampleRequest(np.arange(5), 1, seed, SamplerKind.RANDOM)
    assert SampleRequest(np.arange(5), 1, 2**64 - 1, SamplerKind.RANDOM).seed == 2**64 - 1


def test_missing_auxiliary_data_is_an_error():
    req = SampleRequest(np.arange(5), 2, 1, SamplerKind.FPS)
    with pytest.raises(ValueError, match="embeddings"):
        fps_sample(req)
    req = SampleRequest(np.arange(5), 2, 1, SamplerKind.ESAWC)
    with pytest.raises(ValueError, match="fractions"):
        esawc_sample(req)
    req = SampleRequest(np.arange(5), 2, 1, SamplerKind.SRTM)
    with pytest.raises(ValueError, match="elevations"):
        srtm_sample(req)


@pytest.mark.parametrize("kind, aux, message", [
    (SamplerKind.SRTM, {"elevations": np.zeros(4)},
     r"elevations rows \(4\) must match candidate count \(5\)"),
    (SamplerKind.ESAWC, {"fractions": np.zeros((5, 3))},
     r"fractions must be \(n, 7\), got \(5, 3\)"),
    (SamplerKind.FPS, {"embeddings": np.zeros(5)}, r"embeddings must be 2-D, got shape \(5,\)"),
    (SamplerKind.SRTM, {"elevations": np.zeros((5, 2))},
     r"elevations must be 1-D, got shape \(5, 2\)"),
], ids=["rows-mismatch", "esawc-three-classes", "fps-1-d", "srtm-2-d"])
def test_auxiliary_data_of_the_wrong_shape_is_an_error(kind, aux, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw(SampleRequest(np.arange(5), 2, 1, kind, **aux))


def test_random_distinct_and_deterministic():
    cand = np.arange(100, 150)
    a = random_sample(SampleRequest(cand, 10, 7, SamplerKind.RANDOM))
    b = random_sample(SampleRequest(cand, 10, 7, SamplerKind.RANDOM))
    c = random_sample(SampleRequest(cand, 10, 8, SamplerKind.RANDOM))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(set(a.tolist())) == 10
    assert set(a.tolist()) <= set(cand.tolist())


def test_random_is_uniform():
    # P(candidate 0 chosen) = k/n; check over many seeds at 4 sigma
    n, k, trials = 20, 5, 10000
    cand = np.arange(n)
    hits = 0
    for seed in range(trials):
        got = random_sample(SampleRequest(cand, k, seed, SamplerKind.RANDOM))
        hits += 0 in got
    p = k / n
    sigma = (trials * p * (1 - p)) ** 0.5
    assert abs(hits - trials * p) <= 4 * sigma


def test_the_stream_of_seed_0_is_the_published_splitmix64_sequence():
    got = sampling._stream(0, 0, 3).tolist()
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert sampling._stream(0, 1, 2).tolist() == got[1:]
    assert sampling._uniforms(0, 0, 1).tolist() == [(got[0] >> 11) * 2.0**-53]


@pytest.mark.parametrize("k", [3, 7], ids=["first-k-picks", "complement"])
def test_random_includes_every_position_k_in_n_times(k):
    # over a fixed seed set, each position's count within 4 sigma of trials*k/n
    n, trials = 10, 4000
    counts = np.zeros(n, dtype=int)
    for seed in range(trials):
        counts[random_sample(SampleRequest(np.arange(n), k, seed, SamplerKind.RANDOM))] += 1
    p = k / n
    sigma = (trials * p * (1 - p)) ** 0.5
    assert np.all(np.abs(counts - trials * p) <= 4 * sigma), counts


def test_srtm_picks_uniformly_within_each_bin():
    # 4 bins of 10 distinct elevations: each member is its bin's pick 1/10 of
    # the time, within 4 sigma over a fixed seed set
    n, k, trials = 40, 4, 4000
    elev = np.random.default_rng(3).permutation(n).astype(float)
    counts = np.zeros(n, dtype=int)
    for seed in range(trials):
        got = srtm_sample(SampleRequest(np.arange(n), k, seed, SamplerKind.SRTM, elevations=elev))
        assert sorted(elev[got] // 10) == [0, 1, 2, 3]
        counts[got] += 1
    sigma = (trials * 0.1 * 0.9) ** 0.5
    assert np.all(np.abs(counts - trials * 0.1) <= 4 * sigma), counts


def test_esawc_round_robin_order_with_one_hot_weights():
    # candidate i is the only chip with mass on class i, so the class-order
    # round robin must pick candidates exactly in class order
    cand = np.arange(10, 17)
    req = SampleRequest(cand, 7, 99, SamplerKind.ESAWC,
                        fractions=one_hot_fractions([0, 1, 2, 3, 4, 5, 6]))
    assert esawc_sample(req).tolist() == [10, 11, 12, 13, 14, 15, 16]
    req = SampleRequest(cand, 3, 5, SamplerKind.ESAWC,
                        fractions=one_hot_fractions([0, 1, 2, 3, 4, 5, 6]))
    assert esawc_sample(req).tolist() == [10, 11, 12]


def test_esawc_skips_empty_classes():
    # no candidate has any shrubland (class 1): the turn is skipped
    cand = np.arange(6)
    fr = one_hot_fractions([0, 2, 3, 4, 5, 6])
    req = SampleRequest(cand, 6, 42, SamplerKind.ESAWC, fractions=fr)
    assert esawc_sample(req).tolist() == [0, 1, 2, 3, 4, 5]


def test_esawc_draws_proportional_to_fraction():
    # two candidates carrying 0.9 / 0.1 of class 0: first pick follows the ratio
    fr = np.zeros((2, 7))
    fr[0, 0], fr[1, 0] = 0.9, 0.1
    hits = 0
    trials = 4000
    for seed in range(trials):
        req = SampleRequest(np.arange(2), 1, seed, SamplerKind.ESAWC, fractions=fr)
        hits += esawc_sample(req)[0] == 0
    sigma = (trials * 0.9 * 0.1) ** 0.5
    assert abs(hits - trials * 0.9) <= 4 * sigma


def test_esawc_all_zero_fractions_falls_back_to_uniform():
    cand = np.arange(30, 40)
    req = SampleRequest(cand, 4, 3, SamplerKind.ESAWC, fractions=np.zeros((10, 7)))
    got = esawc_sample(req)
    assert len(set(got.tolist())) == 4
    assert set(got.tolist()) <= set(cand.tolist())


def test_esawc_exhausts_weighted_then_still_returns_k():
    # only one chip has any fraction mass; the rest come from the fallback
    fr = np.zeros((5, 7))
    fr[2, 0] = 0.5
    req = SampleRequest(np.arange(5), 5, 11, SamplerKind.ESAWC, fractions=fr)
    got = esawc_sample(req)
    assert got[0] == 2
    assert sorted(got.tolist()) == [0, 1, 2, 3, 4]


def fps_oracle(X, k, start):
    """Brute force: recompute every min distance at every step."""
    chosen = [start]
    n = X.shape[0]
    while len(chosen) < k:
        best, best_d = None, -1.0
        for i in range(n):
            if i in chosen:
                continue
            dmin = min(float(((X[i] - X[c]) ** 2).sum()) for c in chosen)
            if dmin > best_d:
                best, best_d = i, dmin
        chosen.append(best)
    return chosen


def test_fps_matches_brute_force(rng):
    for trial in range(20):
        n = int(rng.integers(10, 120))
        k = int(rng.integers(2, min(n, 15)))
        d = int(rng.choice([2, 16]))
        X = rng.standard_normal((n, d))
        if trial % 4 == 0:
            X = np.round(X * 2) / 2  # force ties and duplicate points
        start = int(rng.integers(n))
        req = SampleRequest(np.arange(n), k, 0, SamplerKind.FPS, embeddings=X)
        assert fps_sample(req, start=start).tolist() == fps_oracle(X, k, start)


def test_fps_seeded_start_is_deterministic(rng):
    X = rng.standard_normal((40, 4))
    req = SampleRequest(np.arange(40), 6, 13, SamplerKind.FPS, embeddings=X)
    assert np.array_equal(fps_sample(req), fps_sample(req))
    assert len(set(fps_sample(req).tolist())) == 6


def test_fps_duplicate_points_never_repick(rng):
    X = np.zeros((8, 3))  # all points identical: any order, no repeats
    req = SampleRequest(np.arange(8), 8, 5, SamplerKind.FPS, embeddings=X)
    assert sorted(fps_sample(req).tolist()) == list(range(8))


def test_fps_spreads_over_clusters():
    # two tight clusters far apart: the first two picks straddle them
    X = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
    X += np.random.default_rng(0).normal(scale=0.01, size=X.shape)
    req = SampleRequest(np.arange(20), 2, 17, SamplerKind.FPS, embeddings=X)
    got = fps_sample(req)
    assert (got[0] < 10) != (got[1] < 10)


def test_fps_start_out_of_range(rng):
    X = rng.standard_normal((5, 2))
    req = SampleRequest(np.arange(5), 2, 0, SamplerKind.FPS, embeddings=X)
    with pytest.raises(ValueError):
        fps_sample(req, start=5)


def test_srtm_one_pick_per_quantile_bin(rng):
    # distinct elevations, k divides n: pick i lands in the i-th k-tile
    n, k = 1000, 4
    elev = rng.permutation(np.linspace(0, 4000, n))
    req = SampleRequest(np.arange(n), k, 31, SamplerKind.SRTM, elevations=elev)
    got = srtm_sample(req)
    ranks = np.searchsorted(np.sort(elev), elev[got], side="left")
    assert [int(r * k // n) for r in ranks] == [0, 1, 2, 3]


def test_srtm_ties_share_the_lower_bin():
    # two elevation values only: ranks 0 and 500 -> bins 0 and 2, so two
    # bins are empty and the shortfall comes from the uniform fallback
    elev = np.array([0.0] * 500 + [100.0] * 500)
    req = SampleRequest(np.arange(1000), 4, 23, SamplerKind.SRTM, elevations=elev)
    got = srtm_sample(req)
    assert len(set(got.tolist())) == 4
    low = [i for i in got if elev[i] == 0.0]
    high = [i for i in got if elev[i] == 100.0]
    assert low and high


def test_srtm_constant_elevation_still_returns_k():
    elev = np.full(50, 777.0)
    req = SampleRequest(np.arange(50), 10, 3, SamplerKind.SRTM, elevations=elev)
    got = srtm_sample(req)
    assert len(set(got.tolist())) == 10


def test_srtm_deterministic():
    elev = np.linspace(0, 100, 60)
    a = srtm_sample(SampleRequest(np.arange(60), 6, 4, SamplerKind.SRTM, elevations=elev))
    b = srtm_sample(SampleRequest(np.arange(60), 6, 4, SamplerKind.SRTM, elevations=elev))
    assert np.array_equal(a, b)


def test_draw_dispatches_by_kind(rng):
    cand = np.arange(30)
    X = rng.standard_normal((30, 3))
    got = draw(SampleRequest(cand, 5, 2, SamplerKind.FPS, embeddings=X))
    want = fps_sample(SampleRequest(cand, 5, 2, SamplerKind.FPS, embeddings=X))
    assert np.array_equal(got, want)


def test_split_target_disjoint_and_sized(rng):
    cand = np.arange(200, 300)
    elev = rng.uniform(0, 4000, 100)
    for seed in range(50):
        test = draw(SampleRequest(cand, 10, seed, SamplerKind.RANDOM))
        train = split_target(cand, test, 30, SamplerKind.SRTM, seed, elevations=elev)
        assert len(test) == 10 and len(train) == 30
        assert not set(test.tolist()) & set(train.tolist())
        assert set(test.tolist()) | set(train.tolist()) <= set(cand.tolist())


def test_split_target_test_side_ignores_train_kind(rng):
    # the test set is drawn before the split, so the train sampler cannot affect it
    cand = np.arange(80)
    X = rng.standard_normal((80, 4))
    fr = rng.dirichlet(np.ones(7), 80) * 0.9
    test = draw(SampleRequest(cand, 15, 5, SamplerKind.RANDOM))
    kept = test.copy()
    for kind in (SamplerKind.RANDOM, SamplerKind.FPS, SamplerKind.ESAWC):
        train = split_target(cand, test, 20, kind, 5, embeddings=X, fractions=fr)
        assert np.array_equal(test, kept)
        assert not np.intersect1d(test, train).size


def test_split_target_rejects_oversize():
    test = np.arange(5)
    with pytest.raises(ValueError, match="candidate count"):
        split_target(np.arange(10), test, 6, SamplerKind.RANDOM, 0)
    with pytest.raises(ValueError):
        split_target(np.arange(10), test, 0, SamplerKind.RANDOM, 0)

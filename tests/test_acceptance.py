"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one summary line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines for passing tests too). The configurations and
seeds here are frozen so every run reproduces the same numbers.
"""

import logging
import time

import numpy as np

from probeforge.core import ClassId
from probeforge.ingest import (
    CODE_TO_CLASS,
    ImageStack,
    LabelGrid,
    NODATA_CODE,
    PRODUCT_CODES,
    SynthSpec,
    compute_class_fractions,
    load_embeddings,
    meteorological_season,
    noise_sigma_for_correlation,
    save_embeddings,
    seasonal_median_composite,
    synthesize_dataset,
)
from probeforge.metrics import pearson, rmse
from probeforge.probe import fit, predict
from probeforge.report import (
    BEST_CORR_MEAN,
    LEAST_TOTAL_ELEMENTS,
    SelectionCriterion,
    selection_table,
)
from probeforge.runner import (
    ExperimentSpec,
    GridSpec,
    enumerate_grid,
    run_experiment,
    run_grid,
)
from probeforge.sampling import SampleRequest, SamplerKind, fps_sample

from conftest import make_record

logging.disable(logging.INFO)

ALL_CLASSES = [c.label for c in ClassId]


def test_criterion_01_probe_matches_reference_least_squares():
    """Authored SVD solver vs an explicit pseudoinverse, 108 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0
    for n in (10, 50, 100, 500):
        for d in (8, 64, 768):
            for _ in range(9):
                X = rng.standard_normal((n, d))
                y = rng.standard_normal(n)
                probe = fit(X, y)

                xm = X.mean(axis=0)
                ym = y.mean()
                w = np.linalg.pinv(X - xm, rcond=1e-10) @ (y - ym)
                b = ym - xm @ w

                scale = max(np.linalg.norm(w), 1.0)
                worst = max(worst, np.linalg.norm(probe.weights - w) / scale)
                worst = max(worst, abs(probe.intercept - b) / max(abs(b), 1.0))
                if n <= d:
                    resid = np.max(np.abs(predict(probe, X) - y))
                    assert resid <= 1e-6, f"interpolation residual {resid} at n={n} d={d}"
                checked += 1
    wall = time.perf_counter() - t0
    assert checked == 108
    assert worst <= 1e-8, f"worst relative difference {worst}"
    assert wall < 30.0, f"took {wall:.1f}s"
    print(f"criterion 01 probe-vs-reference: PASS"
          f" (108 instances, worst rel diff {worst:.2e}, {wall:.1f}s)")


def fps_oracle(X, k, start):
    """Greedy max-min FPS recomputed from scratch each step, ties to lowest index."""
    chosen = [start]
    for _ in range(1, k):
        best_i, best_d = -1, -1.0
        for i in range(X.shape[0]):
            if i in chosen:
                continue
            d = min(float(((X[i] - X[j]) ** 2).sum()) for j in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.array(chosen)


def test_criterion_02_fps_matches_brute_force_exactly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    for trial in range(50):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, min(21, n + 1)))
        d = 2 if trial % 2 else 16
        X = rng.standard_normal((n, d))
        if trial % 3 == 0:
            X = np.round(X * 2.0) / 2.0  # quantize to force distance ties
        start = int(rng.integers(n))
        req = SampleRequest(np.arange(n), k, seed=trial, kind=SamplerKind.FPS,
                            embeddings=X)
        got = fps_sample(req, start=start)
        want = fps_oracle(X, k, start)
        assert np.array_equal(got, want), f"trial {trial}: {got} != {want}"
    wall = time.perf_counter() - t0
    assert wall < 10.0, f"took {wall:.1f}s"
    print(f"criterion 02 fps-vs-oracle: PASS (50 clouds incl. ties, {wall:.1f}s)")


def test_criterion_03_metrics_match_oracles():
    rng = np.random.default_rng(3003)
    worst_r = 0.0
    worst_e = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 400))
        x = rng.standard_normal(n)
        y = 0.4 * x + rng.standard_normal(n)
        r = pearson(x, y)
        worst_r = max(worst_r, abs(r - float(np.corrcoef(x, y)[0, 1])))
        e = rmse(x, y)
        oracle_e = float(np.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)) / n))
        worst_e = max(worst_e, abs(e - oracle_e))
        # affine invariance: positive scaling preserves r, negation flips it
        worst_r = max(worst_r, abs(pearson(2.5 * x + 1.0, y) - r))
        worst_r = max(worst_r, abs(pearson(-0.5 * x + 3.0, y) + r))
    assert worst_r <= 1e-12, f"pearson max abs err {worst_r}"
    assert worst_e <= 1e-12, f"rmse max abs err {worst_e}"
    print(f"criterion 03 metrics-vs-oracles: PASS"
          f" (1000 pairs, pearson err {worst_r:.1e}, rmse err {worst_e:.1e})")


def planted_spec(n_test=500):
    return ExperimentSpec(
        fm_id="synth-s2", class_id=ClassId.BUILTUP, regime="target-split",
        target_aoi="aoi-00", sampler=SamplerKind.RANDOM, n_train=500,
        n_test=n_test, repetitions=20, base_seed=31337,
    )


def test_criterion_04_planted_signal_recovery():
    res = synthesize_dataset(SynthSpec(
        n_chips=1100, dim=64, noise_sigma=noise_sigma_for_correlation(0.9),
        weight_seed=1, data_seed=2, n_aois=1,
    ))
    rec = run_experiment(planted_spec(), res.dataset())
    assert abs(rec.r_mean - 0.9) <= 0.05, f"r_mean {rec.r_mean:.4f} outside 0.9±0.05"

    noiseless = synthesize_dataset(SynthSpec(
        n_chips=1100, dim=64, noise_sigma=0.0, link="linear",
        weight_seed=1, data_seed=2, n_aois=1,
    ))
    rec_lin = run_experiment(planted_spec(), noiseless.dataset())
    assert rec_lin.r_mean >= 1.0 - 1e-6, f"noiseless r_mean {rec_lin.r_mean}"
    assert rec_lin.r_std <= 1e-6, f"noiseless r_std {rec_lin.r_std}"
    print(f"criterion 04 planted-signal: PASS"
          f" (rho=0.9 -> r_mean {rec.r_mean:.4f}; noiseless r_mean {rec_lin.r_mean:.6f})")


def test_criterion_05_uncertainty_shrinks_with_test_size():
    sigma = noise_sigma_for_correlation(0.9)
    sizes = (10, 50, 100, 500)
    stds = {n: [] for n in sizes}
    for k in range(10):
        res = synthesize_dataset(SynthSpec(
            n_chips=700, dim=16, noise_sigma=sigma,
            weight_seed=40 + k, data_seed=90 + k, n_aois=1,
        ))
        ds = res.dataset()
        for n_test in sizes:
            spec = ExperimentSpec(
                fm_id="synth-s2", class_id=ClassId.TREE_COVER,
                regime="target-split", target_aoi="aoi-00",
                sampler=SamplerKind.RANDOM, n_train=100, n_test=n_test,
                repetitions=20, base_seed=777,
            )
            stds[n_test].append(run_experiment(spec, ds).r_std)
    avg = {n: float(np.mean(stds[n])) for n in sizes}
    assert avg[500] < avg[10], f"avg r_std did not drop end to end: {avg}"
    for small, big in zip(sizes, sizes[1:]):
        assert avg[big] <= avg[small] + 0.005, f"step {small}->{big} rose: {avg}"
    print(f"criterion 05 test-size-ablation: PASS (avg r_std "
          + " > ".join(f"{avg[n]:.4f}@{n}" for n in sizes) + ")")


def test_criterion_06_enumeration_matches_product_arithmetic():
    fms = tuple(f"m{i}-s1" for i in range(8))
    aois = tuple(f"aoi-{i:02d}" for i in range(8))
    target_grid = GridSpec(
        fms=fms,
        classes=tuple(ClassId),
        samplers=tuple(SamplerKind),
        target_aois=aois,
        n_train_target=(10, 50, 100, 500),
        n_test_target=(10, 50, 100, 500),
        regimes=("target-split",),
        repetitions=2,
    )
    specs = enumerate_grid(target_grid)
    assert len(specs) == 8 * 7 * 4 * 8 * 4 * 4 == 28672
    keys = {s.key() for s in specs}
    assert len(keys) == len(specs)
    # one seed per draw key (the key without the class), shared by its classes
    seeds = {s.seed() for s in specs}
    assert len(seeds) == len(specs) // 7 == 4096
    by_draw_key = {}
    for s in specs:
        assert by_draw_key.setdefault(s.draw_key(), s.seed()) == s.seed()

    # coinciding train/target AOI lists: exactly the self-pairs drop out
    external_grid = GridSpec(
        fms=fms[:2],
        classes=(ClassId.TREE_COVER, ClassId.CROPLAND),
        samplers=(SamplerKind.RANDOM,),
        target_aois=aois,
        external_aois=aois,
        n_train_external=(50,),
        n_test_target=(10,),
        regimes=("external",),
        repetitions=2,
    )
    ext_specs = enumerate_grid(external_grid)
    pairs = len(aois) * len(aois) - len(aois)
    assert len(ext_specs) == 2 * 2 * 1 * pairs * 1 * 1
    assert all(s.train_aoi != s.target_aoi for s in ext_specs)
    print(f"criterion 06 enumeration-arithmetic: PASS"
          f" (28672 target-split specs, keys distinct, one seed per draw key;"
          f" external grid drops exactly the {len(aois)} self-pairs)")


def _parallelism_grid():
    # 120 external (2 fms x 5 classes x 2 samplers x 6 pairs)
    # + 80 target-split (2 x 5 x 2 x 4 AOIs) = 200 specs
    return GridSpec.from_dict({
        "fms": ["alpha-s1", "beta-s2"],
        "classes": ALL_CLASSES[:5],
        "samplers": ["random", "fps"],
        "target_aois": ["aoi-00", "aoi-01", "aoi-02", "aoi-03"],
        "external_aois": ["aoi-00", "aoi-01"],
        "n_train_external": [20],
        "n_train_target": [20],
        "n_test_target": [10],
        "repetitions": 3,
        "base_seed": 13,
    })


def test_criterion_07_results_bytes_independent_of_parallelism(
        tmp_path, small_datasets):
    grid = _parallelism_grid()
    n = len(enumerate_grid(grid))
    assert n == 200
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_grid(grid, small_datasets, serial, threads=1)
    run_grid(grid, small_datasets, parallel, threads=8)
    assert serial.read_bytes() == parallel.read_bytes()

    partial = tmp_path / "partial.csv"
    lines = serial.read_text().splitlines()
    partial.write_text("\n".join(lines[: 1 + len(lines) // 2]) + "\n")
    run_grid(grid, small_datasets, partial, threads=1, resume=True)
    assert partial.read_bytes() == serial.read_bytes()
    print(f"criterion 07 determinism: PASS ({n} specs byte-identical at"
          f" 1 and 8 workers; half-file resume converged)")


def test_criterion_08_grid_throughput(tmp_path):
    fm_ids = tuple(f"fm{i:02d}-{'s1' if i % 2 else 's2'}" for i in range(18))
    res = synthesize_dataset(SynthSpec(
        n_chips=1100, dim=64, noise_sigma=0.3, weight_seed=3, data_seed=4,
        n_aois=1, fm_ids=fm_ids,
    ))
    datasets = {fm: res.dataset(fm) for fm in fm_ids}
    grid = GridSpec.from_dict({
        "fms": list(fm_ids),
        "classes": ALL_CLASSES,
        "samplers": ["random"],
        "target_aois": ["aoi-00"],
        "n_train_target": [500],
        "n_test_target": [10, 50, 100, 500],
        "regimes": ["target-split"],
        "repetitions": 20,
        "base_seed": 5,
    })
    specs = enumerate_grid(grid)
    fits = sum(s.repetitions for s in specs)
    assert len(specs) == 504 and fits == 10080
    t0 = time.perf_counter()
    records = run_grid(grid, datasets, tmp_path / "results.csv", threads=1)
    wall = time.perf_counter() - t0
    assert wall <= 60.0, f"{fits} fits took {wall:.1f}s"
    assert len(records) == 504
    assert not any(r.infeasible for r in records)
    print(f"criterion 08 throughput: PASS ({fits} fits in {wall:.1f}s <= 60s)")


def test_criterion_09_selection_semantics():
    crit = SelectionCriterion()
    inside = make_record(r_mean=0.71, r_std=0.04)
    assert crit.qualifies(inside)
    assert not crit.qualifies(make_record(r_mean=0.71, r_std=0.06))
    assert not crit.qualifies(make_record(r_mean=0.69, r_std=0.01))
    assert not crit.qualifies(make_record(r_mean=0.7, r_std=0.04))
    assert not crit.qualifies(make_record(r_mean=0.71, r_std=0.05))

    big = make_record(fm_id="big-s2", n_train=100, n_test=10,
                      r_mean=0.947, r_std=0.032)
    small = make_record(fm_id="small-s1", n_train=50, n_test=10,
                        r_mean=0.816, r_std=0.048)
    least = selection_table([big, small], SelectionCriterion(rule=LEAST_TOTAL_ELEMENTS))
    best = selection_table([big, small], SelectionCriterion(rule=BEST_CORR_MEAN))
    assert least[0].selected is small
    assert best[0].selected is big
    print("criterion 09 selection-semantics: PASS"
          " (strict thresholds; 60-element pick vs 0.947-corr pick)")


def test_criterion_10_fixture_formats(tmp_path):
    # label grids: fractions equal exact pixel counting over valid pixels
    rng = np.random.default_rng(4004)
    codes = np.array(PRODUCT_CODES + (NODATA_CODE,))
    for _ in range(100):
        grid = LabelGrid(codes=rng.choice(codes, size=(64, 64)).astype(np.int32))
        fr = compute_class_fractions(grid)
        flat = grid.codes.ravel()
        n_valid = int((flat != NODATA_CODE).sum())
        for code, cls in CODE_TO_CLASS.items():
            assert fr[cls] == int((flat == code).sum()) / n_valid

    # seasonal composites: nanmedian equals an explicit sorted-middle oracle
    checked = 0
    for trial in range(5):
        n_dates = int(rng.integers(8, 16))
        months = (1, 4, 7, 10, 2, 5, 8, 11, 3, 6, 9, 12)  # one per season first
        dates = tuple(
            f"2021-{months[i % 12]:02d}-{(i % 27) + 1:02d}" for i in range(n_dates)
        )
        v = rng.standard_normal((n_dates, 2, 3, 3)).astype(np.float32)
        v[rng.random(v.shape) < 0.3] = np.nan
        stack = ImageStack(dates=dates, values=v)
        cal = {d: meteorological_season(d) for d in dates}
        out = seasonal_median_composite(stack, cal)
        for season in ("winter", "spring", "summer", "fall"):
            idx = [i for i, d in enumerate(dates) if cal[d] == season]
            for b in range(2):
                for yy in range(3):
                    for xx in range(3):
                        vals = sorted(
                            float(t) for t in v[idx, b, yy, xx] if not np.isnan(t)
                        )
                        if not vals:
                            want = float("nan")
                        elif len(vals) % 2:
                            want = vals[len(vals) // 2]
                        else:
                            want = (vals[len(vals) // 2 - 1] + vals[len(vals) // 2]) / 2
                        got = float(out[season][b, yy, xx])
                        assert (np.isnan(want) and np.isnan(got)) or got == want
                        checked += 1

    # embedding files: save/load round trip is bit-exact
    res = synthesize_dataset(SynthSpec(n_chips=64, dim=24, weight_seed=6, data_seed=7))
    emb = res.embeddings["synth-s2"]
    save_embeddings(emb, tmp_path / "e.emb", tmp_path / "e.idx")
    again = load_embeddings(tmp_path / "e.emb", tmp_path / "e.idx", emb.fm_id)
    assert again.matrix.tobytes() == emb.matrix.tobytes()
    assert again.chip_ids == emb.chip_ids
    print(f"criterion 10 fixture-formats: PASS (100 grids exact,"
          f" {checked} composite cells vs sort oracle, round trip bit-exact)")

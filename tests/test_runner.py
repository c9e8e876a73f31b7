"""Grid enumeration, single-spec execution, and results-file determinism."""

import concurrent.futures
import dataclasses
import gc
import itertools
import os
import stat
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

import probeforge.runner as runner_mod
from probeforge.core import (
    ChipTable,
    ClassId,
    EmbeddingSet,
    assemble_dataset,
)
from probeforge.errors import DataFormatError, GridError
from probeforge.ingest import SynthSpec, synthesize_dataset
from probeforge.runner import (
    AggregateRecord,
    CSV_COLUMNS,
    ExperimentSpec,
    GridSpec,
    REGIME_EXTERNAL,
    REGIME_TARGET_SPLIT,
    enumerate_grid,
    grid_reads,
    parse_results_file,
    record_to_row,
    run_experiment,
    run_grid,
    write_results_file,
)
from probeforge.sampling import SamplerKind
from probeforge.schema import record_from_row
from probeforge.seeds import derive_seed


def make_spec(**kw):
    base = dict(
        fm_id="alpha-s1", class_id=ClassId.TREE_COVER, regime=REGIME_TARGET_SPLIT,
        target_aoi="aoi-00", sampler=SamplerKind.RANDOM, n_train=40, n_test=20,
        repetitions=4, base_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


SMALL_GRID = GridSpec(
    fms=("alpha-s1",),
    classes=(ClassId.TREE_COVER, ClassId.BUILTUP),
    samplers=(SamplerKind.RANDOM,),
    target_aois=("aoi-00", "aoi-01"),
    external_aois=("aoi-00", "aoi-01"),
    n_train_external=(20,),
    n_train_target=(20,),
    n_test_target=(15,),
    repetitions=3,
    base_seed=9,
)


# ---------------------------------------------------------------------------
# spec identity


def test_spec_validation():
    with pytest.raises(ValueError, match="train_aoi == target_aoi"):
        make_spec(regime=REGIME_EXTERNAL, train_aoi="aoi-00", target_aoi="aoi-00")
    with pytest.raises(ValueError, match="requires a train_aoi"):
        make_spec(regime=REGIME_EXTERNAL)
    with pytest.raises(ValueError, match="no train_aoi"):
        make_spec(train_aoi="aoi-01")
    with pytest.raises(ValueError, match="repetitions"):
        make_spec(repetitions=1)
    with pytest.raises(ValueError, match="regime"):
        make_spec(regime="bootstrap")


def test_spec_key_round_trips_every_axis():
    spec = make_spec(
        regime=REGIME_EXTERNAL, train_aoi="aoi-02", target_aoi="aoi-01",
        sampler=SamplerKind.FPS, n_train=64, n_test=32,
    )
    key = spec.key()
    for piece in ("regime=external", "fm=alpha-s1", "class=tree-cover",
                  "train=aoi-02", "target=aoi-01", "sampler=fps",
                  "n_train=64", "n_test=32", "reps=4"):
        assert piece in key
    assert make_spec().key().count("train=-") == 1


def test_spec_seeds_stable_under_grid_growth():
    small = enumerate_grid(SMALL_GRID)
    grown = enumerate_grid(GridSpec(
        fms=SMALL_GRID.fms,
        classes=SMALL_GRID.classes + (ClassId.CROPLAND,),
        samplers=(SamplerKind.RANDOM, SamplerKind.FPS),
        target_aois=SMALL_GRID.target_aois,
        external_aois=SMALL_GRID.external_aois,
        n_train_external=(20, 40),
        n_train_target=(20,),
        n_test_target=(15,),
        repetitions=3,
        base_seed=9,
    ))
    seeds_small = {s.key(): s.seed() for s in small}
    seeds_grown = {s.key(): s.seed() for s in grown}
    assert set(seeds_small) < set(seeds_grown)
    for key, seed in seeds_small.items():
        assert seeds_grown[key] == seed


def test_spec_seeds_distinct_within_grid():
    specs = enumerate_grid(SMALL_GRID)
    seeds = {s.seed() for s in specs}
    draw_keys = {s.draw_key() for s in specs}
    assert len(draw_keys) == len(specs) // len(SMALL_GRID.classes)
    assert len(seeds) == len(draw_keys)  # distinct across draw keys
    for s in specs:  # equal within one: the classes share their draws
        assert s.seed() == dataclasses.replace(s, class_id=ClassId.CROPLAND).seed()


@pytest.mark.parametrize("spec", [
    make_spec(regime=REGIME_EXTERNAL, train_aoi="aoi-01"),
    make_spec(sampler=SamplerKind.SRTM),
], ids=["external", "target-split"])
def test_draw_seeds_follow_the_seed_tree(spec):
    # base seed -> draw key -> rep -> test/train; a change here moves every row
    for r in range(spec.repetitions):
        rep = derive_seed(derive_seed(spec.base_seed, spec.draw_key()), "rep", r)
        assert spec.draw_seeds(r) == (derive_seed(rep, "test"), derive_seed(rep, "train"))


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_count_and_order():
    grid = GridSpec(
        fms=("a-s1", "b-s2"),
        classes=(ClassId.TREE_COVER, ClassId.CROPLAND, ClassId.BUILTUP),
        samplers=(SamplerKind.RANDOM,),
        target_aois=("p", "q"),
        external_aois=("p", "q"),
        n_train_external=(10,),
        n_test_target=(5,),
        regimes=(REGIME_EXTERNAL,),
        repetitions=2,
    )
    specs = enumerate_grid(grid)
    assert len(specs) == 12  # 2 fms x 3 classes x 2 ordered aoi pairs
    assert [s.fm_id for s in specs[:6]] == ["a-s1"] * 6
    assert specs[0].class_id is ClassId.TREE_COVER
    assert (specs[0].train_aoi, specs[0].target_aoi) == ("p", "q")
    assert (specs[1].train_aoi, specs[1].target_aoi) == ("q", "p")


def test_enumeration_self_pairs_only_yields_nothing():
    grid = GridSpec(
        fms=("a-s1",), classes=(ClassId.TREE_COVER,),
        samplers=(SamplerKind.RANDOM,), target_aois=("p",),
        external_aois=("p",), n_train_external=(10,), n_test_target=(5,),
        regimes=(REGIME_EXTERNAL,), repetitions=2,
    )
    assert enumerate_grid(grid) == []


def test_enumeration_matches_product_oracle():
    ext_aois = ("a", "b", "c")
    tgt_aois = ("b", "d")
    grid = GridSpec(
        fms=("m1-s1", "m2-s2"),
        classes=(ClassId.GRASSLAND, ClassId.PERMANENT_WATER),
        samplers=(SamplerKind.RANDOM, SamplerKind.SRTM),
        target_aois=tgt_aois,
        external_aois=ext_aois,
        n_train_external=(10, 20),
        n_train_target=(50,),
        n_test_target=(5, 15),
        repetitions=2,
    )
    specs = enumerate_grid(grid)
    pairs = [(t, g) for t, g in itertools.product(ext_aois, tgt_aois) if t != g]
    want_external = 2 * 2 * 2 * 2 * 2 * len(pairs)
    want_target = 2 * 2 * 2 * len(tgt_aois) * 1 * 2
    assert len(specs) == want_external + want_target
    assert len({s.key() for s in specs}) == len(specs)
    regimes = [s.regime for s in specs]
    assert regimes == [REGIME_EXTERNAL] * want_external + [REGIME_TARGET_SPLIT] * want_target


def test_enumeration_names_the_empty_axis():
    with pytest.raises(GridError, match="external regime: external_aois"):
        enumerate_grid(GridSpec(
            fms=("a-s1",), classes=(ClassId.TREE_COVER,),
            samplers=(SamplerKind.RANDOM,), target_aois=("p",),
            n_test_target=(5,), regimes=(REGIME_EXTERNAL,), repetitions=2,
        ))
    with pytest.raises(GridError, match="target-split regime: n_train_target"):
        enumerate_grid(GridSpec(
            fms=("a-s1",), classes=(ClassId.TREE_COVER,),
            samplers=(SamplerKind.RANDOM,), target_aois=("p",),
            n_test_target=(5,), regimes=(REGIME_TARGET_SPLIT,), repetitions=2,
        ))


def test_grid_from_dict_rejects_bad_input():
    ok = {
        "fms": ["a-s1"], "classes": ["tree-cover"], "samplers": ["random"],
        "target_aois": ["p"], "n_test_target": [5], "n_train_target": [10],
        "regimes": ["target-split"],
    }
    grid = GridSpec.from_dict(ok)
    assert grid.classes == (ClassId.TREE_COVER,)
    assert grid.samplers == (SamplerKind.RANDOM,)
    with pytest.raises(GridError, match="n_trian"):
        GridSpec.from_dict({**ok, "n_trian": [1]})
    with pytest.raises(GridError, match="swamp"):
        GridSpec.from_dict({**ok, "classes": ["swamp"]})
    with pytest.raises(GridError):
        GridSpec.from_dict({**ok, "samplers": ["stratified"]})
    with pytest.raises(GridError, match="unknown regimes"):
        GridSpec.from_dict({**ok, "regimes": ["transfer"]})
    # duplicate values would enumerate specs that share one key
    with pytest.raises(GridError, match="n_test_target"):
        GridSpec.from_dict({**ok, "n_test_target": [5, 6, 5]})
    with pytest.raises(GridError, match="classes"):
        GridSpec.from_dict({**ok, "classes": ["tree-cover", "tree-cover"]})
    with pytest.raises(GridError, match="regimes"):
        GridSpec.from_dict({**ok, "regimes": ["target-split", "target-split"]})
    # malformed documents name the key instead of failing as a TypeError
    with pytest.raises(GridError, match="JSON object"):
        GridSpec.from_dict([ok])
    with pytest.raises(GridError, match="missing grid keys.*'classes'"):
        GridSpec.from_dict({"fms": ["a"]})
    for key, value in [("repetitions", "3"), ("repetitions", True), ("base_seed", 1.5),
                       ("fms", [["a"]]), ("classes", "tree-cover"), ("samplers", None),
                       ("n_test_target", ["5"]), ("n_train_target", [10.0])]:
        with pytest.raises(GridError, match=key):
            GridSpec.from_dict({**ok, key: value})
    # a size below 2 cannot be fitted or correlated; fail before any data loads
    for key, value in [("n_test_target", [5, 1]), ("n_train_target", [1]),
                       ("n_train_external", [0]), ("n_test_target", [-3])]:
        with pytest.raises(GridError, match=f"axis {key} needs sizes of at least 2"):
            GridSpec.from_dict({**ok, key: value})
    # derive_seed masks to 64 bits, so a seed outside [0, 2**64) would alias
    # one inside it while writing a different base_seed column
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(GridError, match=r"base_seed must be in \[0, 2\*\*64\)"):
            GridSpec.from_dict({**ok, "base_seed": seed})
    assert GridSpec.from_dict({**ok, "base_seed": 2**64 - 1}).base_seed == 2**64 - 1


def test_grid_rejects_a_string_axis_built_directly():
    with pytest.raises(GridError, match="axis fms must be a list"):
        GridSpec(fms="sig-s2", classes=(ClassId.TREE_COVER,),
                 samplers=(SamplerKind.RANDOM,), target_aois=("p",), n_test_target=(5,))


# ---------------------------------------------------------------------------
# single-spec execution


def test_run_experiment_is_deterministic(small_datasets):
    ds = small_datasets["alpha-s1"]
    spec = make_spec(sampler=SamplerKind.FPS)
    a = run_experiment(spec, ds)
    b = run_experiment(spec, ds)
    assert a == b  # wall_ms is excluded from equality
    assert record_to_row(a, zero_wall=True) == record_to_row(b, zero_wall=True)
    assert np.isfinite(a.r_mean)


def test_run_experiment_noiseless_linear_is_near_perfect():
    res = synthesize_dataset(SynthSpec(
        n_chips=400, dim=16, noise_sigma=0.0, link="linear",
        weight_seed=31, data_seed=32, n_aois=2,
    ))
    spec = make_spec(n_train=120, n_test=60, repetitions=5, base_seed=3)
    rec = run_experiment(spec, res.dataset())
    assert rec.r_mean >= 1.0 - 1e-6
    assert rec.r_std <= 1e-6
    assert rec.degenerate_runs == 0


def test_run_experiment_marks_oversized_specs_infeasible(small_datasets):
    ds = small_datasets["alpha-s1"]  # 100 chips per AOI
    rec = run_experiment(make_spec(n_train=150, n_test=100), ds)
    assert rec.infeasible
    assert np.isnan(rec.r_mean)
    assert rec.wall_ms > 0.0
    row = record_to_row(rec)
    assert row[CSV_COLUMNS.index("infeasible")] == "true"

    ext = make_spec(regime=REGIME_EXTERNAL, train_aoi="aoi-01", n_train=101)
    assert run_experiment(ext, ds).infeasible
    fits = make_spec(regime=REGIME_EXTERNAL, train_aoi="aoi-01", n_train=90)
    assert not run_experiment(fits, ds).infeasible


def constant_target_dataset(n=80, dim=6):
    rng = np.random.default_rng(99)
    fractions = np.full((n, 7), 0.1)
    fractions[:, ClassId.TREE_COVER] = 0.3
    ids = tuple(f"c{i}" for i in range(n))
    table = ChipTable(
        chip_ids=ids, aois=np.full(n, "aoi-00"), lon=np.full(n, 0.1),
        lat=np.full(n, 0.2), fractions=fractions, elevations=np.full(n, 100.0),
    )
    emb = EmbeddingSet(
        fm_id="flat-s2", chip_ids=ids,
        matrix=rng.standard_normal((n, dim)).astype(np.float32),
    )
    return assemble_dataset(table, emb)


def test_run_experiment_counts_degenerate_repetitions():
    ds = constant_target_dataset()
    spec = make_spec(fm_id="flat-s2", n_train=30, n_test=20, repetitions=4)
    rec = run_experiment(spec, ds)
    assert rec.degenerate_runs == 4
    assert np.isnan(rec.r_mean) and np.isnan(rec.rmse_mean)
    assert not rec.infeasible


def test_run_experiment_splits_stay_disjoint(monkeypatch, small_datasets):
    ds = small_datasets["alpha-s1"]
    target_pos = set(ds.aoi_positions["aoi-00"].tolist())
    captured = []
    orig = runner_mod.split_target

    def spy(candidates, test, *args, **kwargs):
        train = orig(candidates, test, *args, **kwargs)
        captured.append((test.copy(), train.copy()))
        return train

    monkeypatch.setattr(runner_mod, "split_target", spy)
    spec = make_spec(repetitions=3)
    run_experiment(spec, ds)
    assert len(captured) == 3
    for test, train in captured:
        assert (test.size, train.size) == (spec.n_test, spec.n_train)
        assert not np.intersect1d(test, train).size
        assert set(test.tolist()) <= target_pos
        assert set(train.tolist()) <= target_pos


def test_class_rows_do_not_depend_on_the_other_classes(tmp_path, small_datasets):
    # what lets a resume finish a draw group that is only partly done
    grid = dataclasses.replace(SMALL_GRID, samplers=tuple(SamplerKind))
    alone = run_grid(dataclasses.replace(grid, classes=(ClassId.BUILTUP,)),
                     small_datasets, tmp_path / "alone.csv")
    together = run_grid(
        dataclasses.replace(grid, classes=(ClassId.TREE_COVER, ClassId.CROPLAND,
                                           ClassId.BUILTUP)),
        small_datasets, tmp_path / "together.csv")
    want = [record_to_row(r, zero_wall=True) for r in together
            if r.spec.class_id is ClassId.BUILTUP]
    assert [record_to_row(r, zero_wall=True) for r in alone] == want
    assert all(np.isfinite(r.r_mean) for r in alone)
    for rec in alone[::5]:  # and run_experiment alone gives the grouped record
        single = run_experiment(rec.spec, small_datasets[rec.spec.fm_id])
        assert record_to_row(single, zero_wall=True) == record_to_row(rec, zero_wall=True)


def test_one_factorization_per_draw_group_and_repetition(
        tmp_path, monkeypatch, small_datasets):
    grid = dataclasses.replace(SMALL_GRID, classes=tuple(ClassId))
    specs = enumerate_grid(grid)
    groups = {s.draw_key() for s in specs}
    assert len(specs) == 7 * len(groups)
    calls = {"factorize": 0, "fit": 0}

    def spy(name):
        real = getattr(runner_mod, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(runner_mod, name, spy(name))
    records = run_grid(grid, small_datasets, tmp_path / "r.csv")
    assert not any(r.infeasible for r in records)
    assert calls == {"factorize": len(groups) * grid.repetitions,
                     "fit": len(specs) * grid.repetitions}


# ---------------------------------------------------------------------------
# rows and files


def test_record_row_round_trip_external():
    rec = AggregateRecord(
        spec=make_spec(regime=REGIME_EXTERNAL, train_aoi="aoi-03"),
        r_mean=0.8125, r_std=0.03125, rmse_mean=0.25, rmse_std=0.0625,
        degenerate_runs=1,
    )
    assert record_from_row(record_to_row(rec)) == rec


def test_record_row_round_trip_nan_and_infeasible():
    rec = AggregateRecord(spec=make_spec(), infeasible=True, wall_ms=12.5)
    row = record_to_row(rec)
    assert row[CSV_COLUMNS.index("train_aoi")] == ""
    assert row[CSV_COLUMNS.index("r_mean")] == "nan"
    back = record_from_row(row)
    assert back.infeasible and np.isnan(back.r_mean)
    assert back.spec == rec.spec


def test_row_formatting_is_idempotent(rng):
    for _ in range(200):
        x = float(rng.standard_normal()) * 10 ** int(rng.integers(-8, 8))
        once = format(x, ".6g")
        assert format(float(once), ".6g") == once
    rec = AggregateRecord(spec=make_spec(), r_mean=1 / 3, r_std=2 / 3,
                          rmse_mean=np.pi, rmse_std=1e-7)
    row = record_to_row(rec, zero_wall=True)
    again = record_to_row(record_from_row(row), zero_wall=True)
    assert again == row


def test_record_row_rejects_bad_shapes():
    with pytest.raises(DataFormatError, match="17"):
        record_from_row(["too", "short"])
    row = record_to_row(AggregateRecord(spec=make_spec()))
    row[CSV_COLUMNS.index("infeasible")] = "maybe"
    with pytest.raises(DataFormatError, match="maybe"):
        record_from_row(row)


def test_results_file_round_trip(tmp_path, small_datasets):
    specs = enumerate_grid(SMALL_GRID)
    records = [
        run_experiment(s, small_datasets[s.fm_id]) for s in specs[:3]
    ]
    path = tmp_path / "r.csv"
    write_results_file(path, records)
    again = tmp_path / "again.csv"
    write_results_file(again, parse_results_file(path))
    assert again.read_bytes() == path.read_bytes()


def test_failed_results_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "r.csv"
    path.mkdir()  # the rename over a directory fails once the data is written
    with pytest.raises(IsADirectoryError):
        write_results_file(path, [AggregateRecord(spec=make_spec())])
    assert [p.name for p in tmp_path.rglob("*")] == ["r.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_results_file_mode_follows_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_results_file(tmp_path / "r.csv", [AggregateRecord(spec=make_spec())])
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "r.csv").stat().st_mode) == 0o666 & ~umask


def test_parse_results_file_errors(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        parse_results_file(p)
    p.write_text("a,b\n")
    with pytest.raises(DataFormatError, match="header"):
        parse_results_file(p)
    good = tmp_path / "ok.csv"
    write_results_file(good, [AggregateRecord(spec=make_spec())])
    broken = good.read_text().splitlines()
    broken[1] = broken[1].replace("random", "census")
    good.write_text("\n".join(broken) + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_results_file(good)


@pytest.mark.parametrize("column, bad", [
    ("class", "swamp"), ("regime", "transfer"), ("sampler", "census"),
    ("n_train", "1.5"), ("n_test", "two"), ("repetitions", ""),
    ("r_mean", "x"), ("r_std", "1,5"), ("rmse_mean", ""), ("rmse_std", "high"),
    ("degenerate_runs", "0.5"), ("infeasible", "yes"), ("wall_ms", "fast"),
    ("base_seed", "1e3"),
])
def test_each_typed_results_column_refuses_a_bad_value(tmp_path, column, bad):
    path = tmp_path / "r.csv"
    write_results_file(path, [AggregateRecord(spec=make_spec(n_train=n), r_mean=0.5)
                              for n in (10, 20, 30)])
    lines = path.read_text().splitlines()
    row = lines[2].split(",")  # file line 3
    row[CSV_COLUMNS.index(column)] = bad
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 3: "):
        parse_results_file(path)


# ---------------------------------------------------------------------------
# whole-grid runs


def test_grid_reads_names_each_model_and_aoi_a_spec_draws_from():
    external_only = dataclasses.replace(
        SMALL_GRID, fms=("alpha-s1", "beta-s2"), regimes=(REGIME_EXTERNAL,),
        external_aois=("aoi-03",), target_aois=("aoi-00", "aoi-03"),
    )
    assert grid_reads(enumerate_grid(external_only)) == (
        frozenset({"alpha-s1", "beta-s2"}), frozenset({"aoi-00", "aoi-03"}))
    split_only = dataclasses.replace(SMALL_GRID, regimes=(REGIME_TARGET_SPLIT,),
                                     target_aois=("aoi-02",))
    assert grid_reads(enumerate_grid(split_only)) == (
        frozenset({"alpha-s1"}), frozenset({"aoi-02"}))


def test_run_grid_rejects_unknown_models(tmp_path, small_datasets):
    grid = GridSpec(
        fms=("ghost-s2",), classes=(ClassId.TREE_COVER,),
        samplers=(SamplerKind.RANDOM,), target_aois=("aoi-00",),
        n_train_target=(10,), n_test_target=(5,),
        regimes=(REGIME_TARGET_SPLIT,), repetitions=2,
    )
    with pytest.raises(GridError, match="ghost-s2"):
        run_grid(grid, small_datasets, tmp_path / "r.csv")


def test_run_grid_rejects_aois_absent_from_every_dataset(tmp_path, small_datasets):
    grid = dataclasses.replace(SMALL_GRID, target_aois=("aoi-00", "aoi-9"),
                               external_aois=("aoi-7", "aoi-01"))
    out = tmp_path / "r.csv"
    with pytest.raises(GridError, match=r"\['aoi-7', 'aoi-9'\]"):
        run_grid(grid, small_datasets, out)
    assert not out.exists()


def test_run_grid_aoi_one_model_lacks_is_infeasible(tmp_path, small_synth, small_datasets):
    alpha = small_datasets["alpha-s1"]
    keep = alpha.aoi_positions["aoi-00"]
    emb = small_synth.embeddings["beta-s2"]
    partial = EmbeddingSet(
        fm_id="gamma-s2",
        chip_ids=tuple(emb.chip_ids[i] for i in keep), matrix=emb.matrix[keep],
    )
    datasets = {"alpha-s1": alpha,
                "gamma-s2": assemble_dataset(small_synth.table, partial)}
    grid = dataclasses.replace(SMALL_GRID, fms=("alpha-s1", "gamma-s2"),
                               regimes=(REGIME_TARGET_SPLIT,))
    records = run_grid(grid, datasets, tmp_path / "r.csv")
    infeasible = {(r.spec.fm_id, r.spec.target_aoi) for r in records if r.infeasible}
    assert infeasible == {("gamma-s2", "aoi-01")}


def test_run_grid_bytes_identical_across_workers(tmp_path, small_datasets):
    p1 = tmp_path / "serial.csv"
    p4 = tmp_path / "parallel.csv"
    run_grid(SMALL_GRID, small_datasets, p1, threads=1)
    run_grid(SMALL_GRID, small_datasets, p4, threads=4)
    assert p1.read_bytes() == p4.read_bytes()
    records = parse_results_file(p1)
    assert [r.spec.key() for r in records] == [s.key() for s in enumerate_grid(SMALL_GRID)]
    assert all(r.wall_ms == 0.0 for r in records)


def test_run_grid_streams_each_row_with_its_wall_time(tmp_path, monkeypatch, small_datasets):
    monkeypatch.setattr(runner_mod, "write_results_file", lambda path, records: None)
    path = tmp_path / "r.csv"
    records = run_grid(SMALL_GRID, small_datasets, path, threads=1)
    streamed = parse_results_file(path)  # as a crash before the rewrite leaves it
    assert sorted(r.spec.key() for r in streamed) == sorted(r.spec.key() for r in records)
    assert all(r.wall_ms > 0.0 for r in streamed)
    assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_run_grid_resume_completes_partial_file(tmp_path, small_datasets):
    full = tmp_path / "full.csv"
    run_grid(SMALL_GRID, small_datasets, full, threads=1)
    partial = tmp_path / "partial.csv"
    lines = full.read_text().splitlines()
    partial.write_text("\n".join(lines[:4]) + "\n")  # header + 3 rows
    run_grid(SMALL_GRID, small_datasets, partial, threads=1, resume=True)
    assert partial.read_bytes() == full.read_bytes()


def test_run_grid_resume_still_rejects_malformed_middle_row(tmp_path, small_datasets):
    path = tmp_path / "r.csv"
    run_grid(SMALL_GRID, small_datasets, path, threads=1)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:20] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(DataFormatError, match="line 3"):
        run_grid(SMALL_GRID, small_datasets, path, threads=1, resume=True)


def test_run_grid_resume_appends_after_torn_row_on_fresh_line(
        tmp_path, small_datasets, monkeypatch):
    full = tmp_path / "full.csv"
    run_grid(SMALL_GRID, small_datasets, full, threads=1)
    lines = full.read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    partial.write_text("".join(lines[:4]) + lines[4][:20])  # header, 3 rows, torn row
    real = runner_mod.run_experiment
    ran = []

    def crash_on_second(spec, dataset, share=None):
        if share is None:  # the resume check re-running the first kept row
            return real(spec, dataset)
        if ran:
            raise RuntimeError("simulated crash")
        ran.append(spec)
        return real(spec, dataset, share)

    monkeypatch.setattr(runner_mod, "run_experiment", crash_on_second)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_grid(SMALL_GRID, small_datasets, partial, threads=1, resume=True)
    streamed = parse_results_file(partial)  # header, 3 kept rows, 1 appended
    assert [r.spec.key() for r in streamed[3:]] == [ran[0].key()]
    assert len(streamed) == 4


def test_run_grid_resume_noop_when_complete(tmp_path, small_datasets, caplog):
    path = tmp_path / "r.csv"
    run_grid(SMALL_GRID, small_datasets, path, threads=1)
    before = path.read_bytes()
    with caplog.at_level("INFO", logger="probeforge.runner"):
        run_grid(SMALL_GRID, small_datasets, path, threads=1, resume=True)
    assert "all specs present; nothing to run" in caplog.text
    assert path.read_bytes() == before


def test_run_grid_resume_ignores_foreign_base_seed(tmp_path, small_datasets, caplog):
    path = tmp_path / "r.csv"
    run_grid(SMALL_GRID, small_datasets, path, threads=1)
    reseeded = dataclasses.replace(SMALL_GRID, base_seed=10)
    with caplog.at_level("WARNING", logger="probeforge.runner"):
        records = run_grid(reseeded, small_datasets, path, threads=1, resume=True)
    assert "foreign base_seed" in caplog.text
    assert all(r.spec.base_seed == 10 for r in records)
    assert all(r.spec.base_seed == 10 for r in parse_results_file(path))


def test_run_grid_worker_failure_cancels_queued_specs(tmp_path, monkeypatch, small_datasets):
    grid = GridSpec(
        fms=("alpha-s1",), classes=tuple(ClassId), samplers=(SamplerKind.RANDOM,),
        target_aois=("aoi-00", "aoi-01", "aoi-02"), n_train_target=(10,),
        n_test_target=(5,), regimes=(REGIME_TARGET_SPLIT,), repetitions=2,
    )
    specs = enumerate_grid(grid)
    assert len(specs) == 21
    ran = tmp_path / "ran"
    ran.mkdir()

    def fail_first(spec, dataset, share):  # forked workers inherit this patch
        if spec == specs[0]:
            raise RuntimeError("worker failure")
        time.sleep(0.2)
        (ran / spec.key()).touch()
        return runner_mod.AggregateRecord(spec=spec)

    monkeypatch.setattr(runner_mod, "run_experiment", fail_first)
    with pytest.raises(RuntimeError, match="worker failure"):
        run_grid(grid, small_datasets, tmp_path / "r.csv", threads=2)
    assert len(list(ran.iterdir())) < (len(specs) - 1) / 2


def test_run_grid_starts_no_more_workers_than_draw_groups(tmp_path, monkeypatch, small_datasets):
    started = []

    class InProcessPool:
        """Records the pool size it is given and runs each task at submit."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    # run_grid imports the executor from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(runner_mod, "_POOL_DATA", {})
    groups = len({s.draw_key() for s in enumerate_grid(SMALL_GRID)})
    assert groups == 4
    serial = tmp_path / "serial.csv"
    run_grid(SMALL_GRID, small_datasets, serial, threads=1)
    for threads in (16, 3):
        path = tmp_path / f"threads-{threads}.csv"
        run_grid(SMALL_GRID, small_datasets, path, threads=threads)
        assert path.read_bytes() == serial.read_bytes()
    assert started == [groups, 3]


def test_serial_run_grid_keeps_no_dataset_alive(tmp_path, small_synth):
    ds = small_synth.dataset("alpha-s1")
    ref = weakref.ref(ds)
    run_grid(SMALL_GRID, {"alpha-s1": ds}, tmp_path / "r.csv", threads=1)
    del ds
    gc.collect()
    assert ref() is None

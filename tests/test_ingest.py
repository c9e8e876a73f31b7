"""File formats, raster fractions, composites, and the synthetic generator."""

import json
import struct

import numpy as np
import pytest

import probeforge.ingest as ingest_mod
from probeforge.core import ClassId, validate_dataset
from probeforge.errors import AlignmentError, DataFormatError
from probeforge.ingest import (
    CODE_TO_CLASS,
    ImageStack,
    LabelGrid,
    NODATA_CODE,
    PRODUCT_CODES,
    SynthSpec,
    compute_class_fractions,
    load_chip_table,
    load_dataset_dir,
    load_embeddings,
    load_image_stack,
    load_label_grid,
    meteorological_season,
    noise_sigma_for_correlation,
    presquash_correlation,
    save_chip_table,
    save_embeddings,
    save_image_stack,
    save_label_grid,
    seasonal_median_composite,
    synthesize_dataset,
    write_dataset_dir,
)
from probeforge.metrics import pearson
from probeforge.probe import fit, predict

CHIP_LINE = json.dumps({
    "chip_id": "c1", "aoi": "colombia", "lon": -74.1, "lat": 4.6,
    "fractions": {
        "tree-cover": 0.6, "shrubland": 0.1, "grassland": 0.1, "cropland": 0.1,
        "builtup": 0.05, "bare-sparse-vegetation": 0.03, "permanent-water": 0.02,
    },
    "elevation_m": 2600.0,
})


# ---------------------------------------------------------------------------
# chip tables


def test_chip_table_two_lines(tmp_path):
    p = tmp_path / "chips.jsonl"
    second = CHIP_LINE.replace('"c1"', '"c2"')
    p.write_text(CHIP_LINE + "\n" + second + "\n")
    table = load_chip_table(p)
    assert len(table) == 2
    assert table.chip_ids == ("c1", "c2")
    assert table.aois.tolist() == ["colombia", "colombia"]
    assert table.fractions[0, ClassId.TREE_COVER] == 0.6
    assert table.lon[0] == -74.1 and table.lat[0] == 4.6
    assert table.elevations[0] == 2600.0


def test_chip_table_empty_file(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text("")
    assert len(load_chip_table(p)) == 0


def test_chip_table_duplicate_id_names_it(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n" + CHIP_LINE + "\n")
    with pytest.raises(DataFormatError, match="c1"):
        load_chip_table(p)


def test_chip_table_malformed_line_carries_number(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n{not json\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_chip_table(p)


def test_chip_table_missing_key_carries_number(tmp_path):
    rec = json.loads(CHIP_LINE)
    del rec["elevation_m"]
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_chip_table(p)


@pytest.mark.parametrize("key, value", [
    ("chip_id", None), ("chip_id", 7), ("chip_id", 1.0), ("chip_id", True),
    ("aoi", 3), ("aoi", None), ("aoi", ["colombia"]),
], ids=["id-null", "id-int", "id-float", "id-bool", "aoi-int", "aoi-null", "aoi-list"])
def test_chip_table_non_string_id_or_aoi_names_the_line(tmp_path, key, value):
    # a converted id such as "1.0" would fail, without a word, to join the
    # .idx line "1"
    rec = json.loads(CHIP_LINE)
    rec[key] = value
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace('"c1"', '"c0"') + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError,
                       match=rf"chips\.jsonl: line 2: {key} must be a JSON string"):
        load_chip_table(p)


def test_chip_table_unknown_keys_ignored(tmp_path):
    rec = json.loads(CHIP_LINE)
    rec["extra"] = {"nested": True}
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    assert len(load_chip_table(p)) == 1


def test_chip_table_unknown_class_label_rejected(tmp_path):
    rec = json.loads(CHIP_LINE)
    rec["fractions"]["snow"] = rec["fractions"].pop("builtup")
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="snow"):
        load_chip_table(p)


def test_chip_table_missing_class_named(tmp_path):
    rec = json.loads(CHIP_LINE)
    del rec["fractions"]["builtup"]
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace('"c1"', '"c0"') + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match=r"line 2: .*missing: \['builtup'\]"):
        load_chip_table(p)


def test_chip_table_round_trip(tmp_path, small_synth):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    again = load_chip_table(p)
    assert again == small_synth.table


# ---------------------------------------------------------------------------
# embeddings


def make_emb(rng, n=5, d=4, fm_id="m-s2"):
    from probeforge.core import EmbeddingSet

    m = rng.standard_normal((n, d)).astype(np.float32)
    ids = tuple(f"c{i}" for i in range(n))
    return EmbeddingSet(fm_id=fm_id, chip_ids=ids, matrix=m)


def test_embeddings_round_trip_bit_exact(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    again = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert again.fm_id == "m-s2" and again.chip_ids == emb.chip_ids
    assert again.matrix.shape == emb.matrix.shape
    assert again.matrix.tobytes() == emb.matrix.tobytes()


def test_embeddings_index_count_mismatch(tmp_path, rng):
    emb = make_emb(rng, n=3)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\n")
    with pytest.raises(DataFormatError, match="index/header mismatch"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


def test_embeddings_bad_magic(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    blob = (tmp_path / "m.emb").read_bytes()
    (tmp_path / "m.emb").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


def test_embeddings_truncated_payload(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    blob = (tmp_path / "m.emb").read_bytes()
    (tmp_path / "m.emb").write_bytes(blob[:-4])
    with pytest.raises(DataFormatError, match="bytes"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


def test_embeddings_non_finite_row_named(tmp_path, rng):
    from probeforge.core import EmbeddingSet

    m = rng.standard_normal((4, 3)).astype(np.float32)
    m[2, 1] = np.nan
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b", "c", "d"), matrix=m)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    with pytest.raises(DataFormatError, match="row 2"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")


def test_embeddings_duplicate_id_names_the_index_line(tmp_path, rng):
    emb = make_emb(rng, n=4)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\nc2\nc1\n")
    with pytest.raises(DataFormatError) as info:
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)
    assert str(info.value) == f"{tmp_path / 'm.idx'}: line 4: duplicate chip_id: 'c1'"


def test_embeddings_zero_dim_names_the_matrix_file(tmp_path):
    (tmp_path / "m.emb").write_bytes(b"EMB1" + struct.pack("<IQ", 0, 2))
    (tmp_path / "m.idx").write_text("c0\nc1\n")
    with pytest.raises(DataFormatError, match=r"m\.emb: embedding matrix has no columns"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")


def test_embeddings_keep_only_the_chips_asked_for_in_their_order(tmp_path, rng):
    emb = make_emb(rng, n=5)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    got = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2",
                          ("c3", "zz", "c0", "c4"))
    assert got.chip_ids == ("c3", "c0", "c4")
    assert got.matrix.tobytes() == emb.matrix[[3, 0, 4]].tobytes()
    assert not got.matrix.flags.writeable
    none = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2", ())
    assert none.chip_ids == () and none.matrix.shape == (0, emb.matrix.shape[1])


@pytest.mark.parametrize("block_rows", [1, 2, 3, 64])
@pytest.mark.parametrize("chips", [None, ("c0",)], ids=["all", "one"])
def test_embeddings_check_every_row_in_every_block(tmp_path, rng, monkeypatch,
                                                   block_rows, chips):
    emb = make_emb(rng, n=7, d=3)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    monkeypatch.setattr(ingest_mod, "_BLOCK_BYTES", 4 * 3 * block_rows)
    again = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert again.matrix.tobytes() == emb.matrix.tobytes()
    blob = bytearray((tmp_path / "m.emb").read_bytes())
    blob[16 + 4 * 3 * 5 + 8:16 + 4 * 3 * 5 + 12] = struct.pack("<f", float("inf"))
    (tmp_path / "m.emb").write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=r"first offending row 5 \(chip 'c5'\)"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2", chips)


def test_embeddings_repeated_id_outside_the_kept_chips_is_refused(tmp_path, rng):
    emb = make_emb(rng, n=4)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\nc2\nc1\n")
    with pytest.raises(DataFormatError, match=r"m\.idx: line 4: duplicate chip_id: 'c1'"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id, ("c0",))


# ---------------------------------------------------------------------------
# label grids


def test_label_grid_rejects_unknown_codes():
    with pytest.raises(ValueError, match="15"):
        LabelGrid(codes=np.array([[10, 15]], dtype=np.int32))


def test_fractions_single_class_grid():
    grid = LabelGrid(codes=np.full((512, 512), 10, dtype=np.int32))
    fr = compute_class_fractions(grid)
    assert fr[ClassId.TREE_COVER] == 1.0
    assert all(fr[c] == 0.0 for c in ClassId if c is not ClassId.TREE_COVER)


def test_fractions_exclude_nodata_from_denominator():
    grid = LabelGrid(codes=np.array([[40, 40], [50, NODATA_CODE]], dtype=np.int32))
    fr = compute_class_fractions(grid)
    assert np.isclose(fr[ClassId.CROPLAND], 2 / 3)
    assert np.isclose(fr[ClassId.BUILTUP], 1 / 3)


def test_fractions_all_nodata_is_an_error():
    grid = LabelGrid(codes=np.zeros((4, 4), dtype=np.int32))
    with pytest.raises(DataFormatError, match="no valid pixels"):
        compute_class_fractions(grid)


def test_fractions_match_pixel_count_oracle(rng):
    codes = np.array(PRODUCT_CODES + (NODATA_CODE,))
    for _ in range(30):
        grid = LabelGrid(codes=rng.choice(codes, size=(64, 64)).astype(np.int32))
        fr = compute_class_fractions(grid)
        valid = 0
        counts = {c: 0 for c in ClassId}
        for v in grid.codes.ravel():
            if v == NODATA_CODE:
                continue
            valid += 1
            if int(v) in CODE_TO_CLASS:
                counts[CODE_TO_CLASS[int(v)]] += 1
        for c in ClassId:
            assert fr[c] == counts[c] / valid


def test_fractions_sum_bound(rng):
    seven = np.array(sorted(CODE_TO_CLASS))
    grid = LabelGrid(codes=rng.choice(seven, size=(32, 32)).astype(np.int32))
    assert np.isclose(sum(compute_class_fractions(grid).values()), 1.0)
    grid = LabelGrid(codes=rng.choice(np.array(PRODUCT_CODES), size=(32, 32)).astype(np.int32))
    assert sum(compute_class_fractions(grid).values()) <= 1.0 + 1e-12


def test_label_grid_file_round_trip(tmp_path, rng):
    grid = LabelGrid(codes=rng.choice(np.array(PRODUCT_CODES), size=(7, 9)).astype(np.int32))
    save_label_grid(grid, tmp_path / "g.bin")
    again = load_label_grid(tmp_path / "g.bin")
    assert np.array_equal(again.codes, grid.codes)


# ---------------------------------------------------------------------------
# stacks and composites


def make_stack(rng, n_dates=8, bands=2, h=4, w=5, nan_rate=0.0):
    months = [1, 2, 4, 5, 7, 8, 10, 11, 3, 6, 9, 12]
    dates = tuple(f"2021-{months[i % 12]:02d}-{(i % 27) + 1:02d}" for i in range(n_dates))
    v = rng.standard_normal((n_dates, bands, h, w)).astype(np.float32)
    if nan_rate:
        mask = rng.random((n_dates, h, w)) < nan_rate
        v[np.broadcast_to(mask[:, None], v.shape)] = np.nan
    return ImageStack(dates=dates, values=v)


def test_season_mapping():
    assert meteorological_season("2021-01-15") == "winter"
    assert meteorological_season("2021-12-01") == "winter"
    assert meteorological_season("2021-04-10") == "spring"
    assert meteorological_season("2021-07-31") == "summer"
    assert meteorological_season("2021-10-02") == "fall"


def test_composite_one_date_per_season_is_identity(rng):
    stack = make_stack(rng, n_dates=4)
    cal = dict(zip(stack.dates, ("winter", "spring", "summer", "fall")))
    out = seasonal_median_composite(stack, cal)
    for i, season in enumerate(("winter", "spring", "summer", "fall")):
        assert np.allclose(out[season], stack.values[i].astype(np.float64))


def test_composite_odd_and_even_counts():
    dates = ("2021-01-01", "2021-01-02", "2021-01-03",
             "2021-04-01", "2021-04-02", "2021-07-01", "2021-10-01")
    v = np.zeros((7, 1, 1, 1), dtype=np.float32)
    v[:3, 0, 0, 0] = [9.0, 1.0, 5.0]
    v[3:5, 0, 0, 0] = [1.0, 3.0]
    stack = ImageStack(dates=dates, values=v)
    out = seasonal_median_composite(stack)
    assert out["winter"][0, 0, 0] == 5.0
    assert out["spring"][0, 0, 0] == 2.0  # midpoint of the two middle values


def test_composite_skips_nodata_and_marks_empty():
    dates = ("2021-01-01", "2021-01-02", "2021-04-01", "2021-07-01", "2021-10-01")
    v = np.full((5, 1, 1, 2), np.nan, dtype=np.float32)
    v[0, 0, 0, 0] = 7.0  # second winter observation stays no-data
    v[2:, 0, 0, :] = 1.0
    stack = ImageStack(dates=dates, values=v)
    out = seasonal_median_composite(stack)
    assert out["winter"][0, 0, 0] == 7.0
    assert np.isnan(out["winter"][0, 0, 1])


def test_composite_season_without_dates_is_named(rng):
    stack = make_stack(rng, n_dates=3)
    cal = {d: "winter" for d in stack.dates}
    with pytest.raises(ValueError, match="spring"):
        seasonal_median_composite(stack, cal)


def test_composite_unknown_season_rejected(rng):
    stack = make_stack(rng, n_dates=4)
    cal = {d: "monsoon" for d in stack.dates}
    with pytest.raises(ValueError, match="monsoon"):
        seasonal_median_composite(stack, cal)


def test_composite_permutation_invariant(rng):
    stack = make_stack(rng, n_dates=12, nan_rate=0.2)
    perm = rng.permutation(12)
    shuffled = ImageStack(
        dates=tuple(stack.dates[i] for i in perm), values=stack.values[perm]
    )
    a = seasonal_median_composite(stack)
    b = seasonal_median_composite(shuffled)
    for season in a:
        assert np.array_equal(a[season], b[season], equal_nan=True)


def sort_median_oracle(values):
    """Median of the non-NaN entries via explicit sort and indexing."""
    vals = sorted(float(v) for v in values if not np.isnan(v))
    if not vals:
        return float("nan")
    m = len(vals)
    if m % 2:
        return vals[m // 2]
    return (vals[m // 2 - 1] + vals[m // 2]) / 2.0


def test_composite_matches_sort_oracle(rng):
    for _ in range(10):
        stack = make_stack(rng, n_dates=int(rng.integers(8, 20)),
                           bands=2, h=3, w=3, nan_rate=0.3)
        cal = {d: meteorological_season(d) for d in stack.dates}
        out = seasonal_median_composite(stack, cal)
        by_season = {}
        for i, d in enumerate(stack.dates):
            by_season.setdefault(cal[d], []).append(i)
        for season, idx in by_season.items():
            for b in range(stack.bands):
                for y in range(stack.height):
                    for x in range(stack.width):
                        want = sort_median_oracle(stack.values[idx, b, y, x])
                        got = out[season][b, y, x]
                        assert (np.isnan(want) and np.isnan(got)) or got == want


def test_stack_file_round_trip(tmp_path, rng):
    stack = make_stack(rng, n_dates=6, nan_rate=0.25)
    save_image_stack(stack, tmp_path / "s.bin")
    again = load_image_stack(tmp_path / "s.bin")
    assert again.dates == stack.dates
    assert again.values.tobytes() == stack.values.tobytes()


# ---------------------------------------------------------------------------
# synthetic datasets


def test_synth_is_deterministic():
    spec = SynthSpec(n_chips=50, dim=8, noise_sigma=0.2, weight_seed=1, data_seed=2)
    a = synthesize_dataset(spec)
    b = synthesize_dataset(spec)
    assert a.table == b.table
    assert a.embeddings["synth-s2"].matrix.tobytes() == b.embeddings["synth-s2"].matrix.tobytes()
    assert np.array_equal(a.planted, b.planted)


def test_synth_seeds_are_independent_axes():
    base = SynthSpec(n_chips=30, dim=8, weight_seed=1, data_seed=2)
    other_weights = SynthSpec(n_chips=30, dim=8, weight_seed=3, data_seed=2)
    a, b = synthesize_dataset(base), synthesize_dataset(other_weights)
    assert np.array_equal(
        a.embeddings["synth-s2"].matrix, b.embeddings["synth-s2"].matrix
    )
    assert not np.array_equal(a.planted, b.planted)


def test_synth_passes_validation(small_synth):
    for fm in small_synth.spec.fm_ids:
        assert validate_dataset(small_synth.dataset(fm)).valid


def test_synth_structure(small_synth):
    table = small_synth.table
    assert len(table) == 400
    assert table.aois[:5].tolist() == ["aoi-00", "aoi-01", "aoi-02", "aoi-03", "aoi-00"]
    assert set(table.aois.tolist()) == {"aoi-00", "aoi-01", "aoi-02", "aoi-03"}
    assert np.all((0.0 <= table.lon) & (table.lon <= 1.0))
    assert np.all((0.0 <= table.lat) & (table.lat <= 1.0))
    assert np.all((0.0 <= table.elevations) & (table.elevations <= 4000.0))
    assert np.all(table.fractions.sum(axis=1) <= 1.0 + 1e-9)
    assert small_synth.planted.shape == (7, 16)
    assert np.allclose(np.linalg.norm(small_synth.planted, axis=1), 1.0)


def test_synth_noiseless_presquash_recovery():
    # the linear link is an affine image of the pre-squash target, so Pearson
    # r against it is r against that target: exact linear model, r = 1 held out
    spec = SynthSpec(n_chips=400, dim=16, noise_sigma=0.0, weight_seed=3, data_seed=4,
                     link="linear")
    res = synthesize_dataset(spec)
    X = res.embeddings["synth-s2"].matrix.astype(np.float64)
    y = res.table.fractions[:, 0]
    p = fit(X[:300], y[:300])
    r = pearson(predict(p, X[300:]), y[300:])
    assert r >= 1.0 - 1e-9


def test_synth_noise_hits_closed_form_correlation():
    rho = 0.9
    spec = SynthSpec(n_chips=4000, dim=16,
                     noise_sigma=noise_sigma_for_correlation(rho),
                     weight_seed=5, data_seed=6, link="linear")
    res = synthesize_dataset(spec)
    X = res.embeddings["synth-s2"].matrix.astype(np.float64)
    y = res.table.fractions[:, 2]
    p = fit(X[:3000], y[:3000])
    r = pearson(predict(p, X[3000:]), y[3000:])
    assert abs(r - rho) <= 0.05


def test_presquash_correlation_round_trip():
    for rho in (0.3, 0.7, 0.9, 1.0):
        assert np.isclose(presquash_correlation(noise_sigma_for_correlation(rho)), rho)
    assert presquash_correlation(0.0) == 1.0
    with pytest.raises(ValueError):
        noise_sigma_for_correlation(0.0)


def test_synth_linear_link_is_exactly_recoverable():
    spec = SynthSpec(n_chips=300, dim=12, noise_sigma=0.0, link="linear",
                     weight_seed=8, data_seed=9)
    res = synthesize_dataset(spec)
    assert validate_dataset(res.dataset()).valid
    ds = res.dataset()
    p = fit(ds.matrix[:200], ds.fractions[:200, 0])
    r = pearson(predict(p, ds.matrix[200:]), ds.fractions[200:, 0])
    assert r >= 1.0 - 1e-9


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_chips=0, dim=4)
    with pytest.raises(ValueError):
        SynthSpec(n_chips=4, dim=4, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(n_chips=4, dim=4, link="cubic")
    with pytest.raises(ValueError):
        SynthSpec.from_dict({"n_chips": 4, "dim": 4, "bogus": 1})
    spec = SynthSpec.from_dict({"n_chips": 4, "dim": 4, "fm_ids": ["a-s1"]})
    assert spec.fm_ids == ("a-s1",)


# ---------------------------------------------------------------------------
# dataset directories


def test_dataset_dir_round_trip(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    datasets = load_dataset_dir(tmp_path / "data")
    assert sorted(datasets) == ["alpha-s1", "beta-s2"]
    direct = small_synth.dataset("alpha-s1")
    assert np.array_equal(datasets["alpha-s1"].matrix, direct.matrix)
    assert datasets["alpha-s1"].chip_ids == direct.chip_ids
    assert (tmp_path / "data" / "planted.json").exists()


def test_dataset_dir_missing_pieces(tmp_path, small_synth):
    with pytest.raises(DataFormatError, match="chips.jsonl"):
        load_dataset_dir(tmp_path)
    write_dataset_dir(small_synth, tmp_path / "data")
    (tmp_path / "data" / "embeddings" / "alpha-s1.idx").unlink()
    with pytest.raises(DataFormatError, match="alpha-s1"):
        load_dataset_dir(tmp_path / "data")


def test_dataset_dir_keeps_only_the_models_and_aois_asked_for(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    full = load_dataset_dir(tmp_path / "data")
    part = load_dataset_dir(tmp_path / "data", {"beta-s2", "ghost-s2"}, {"aoi-01", "aoi-03"})
    assert list(part) == ["beta-s2"]
    ds, was = part["beta-s2"], full["beta-s2"]
    assert list(ds.aoi_positions) == ["aoi-01", "aoi-03"]
    assert len(ds) == was.aoi_positions["aoi-01"].size + was.aoi_positions["aoi-03"].size
    for aoi, pos in ds.aoi_positions.items():
        assert np.array_equal(ds.matrix[pos], was.matrix[was.aoi_positions[aoi]])
        assert np.array_equal(ds.fractions[pos], was.fractions[was.aoi_positions[aoi]])


def test_dataset_dir_model_without_the_grid_aois_is_empty(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    ds = load_dataset_dir(tmp_path / "data", {"alpha-s1"}, {"aoi-9"})["alpha-s1"]
    assert len(ds) == 0 and ds.aoi_positions == {}
    assert ds.matrix.shape == (0, small_synth.spec.dim)


@pytest.mark.parametrize("fms", [{"alpha-s1", "beta-s2"}, {"alpha-s1"}],
                         ids=["read", "unread"])
def test_dataset_dir_index_sharing_no_chip_is_refused(tmp_path, small_synth, fms):
    write_dataset_dir(small_synth, tmp_path / "data")
    idx = tmp_path / "data" / "embeddings" / "beta-s2.idx"
    idx.write_text("".join(f"x{line}\n" for line in idx.read_text().splitlines()))
    with pytest.raises(AlignmentError, match="no aligned chips"):
        load_dataset_dir(tmp_path / "data", fms, {"aoi-00"})

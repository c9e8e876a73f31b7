"""Domain types, dataset assembly, and value validation."""

import json
import logging

import numpy as np
import pytest

from probeforge.core import (
    CLASS_LABELS,
    ChipTable,
    ClassId,
    EmbeddingSet,
    RULE_ELEVATION,
    RULE_EMBEDDING,
    RULE_FRACTION_RANGE,
    RULE_FRACTION_SUM,
    Modality,
    assemble_dataset,
    infer_modality,
    validate_dataset,
)
from probeforge.errors import AlignmentError
from probeforge.ingest import load_chip_table


def make_table(ids, fractions=None, elevations=None, aois=None):
    n = len(ids)
    return ChipTable(
        chip_ids=tuple(ids),
        aois=np.array(aois or ["A"] * n),
        lon=np.full(n, 0.5),
        lat=np.full(n, 0.5),
        fractions=np.full((n, 7), 0.1) if fractions is None else fractions,
        elevations=np.full(n, 100.0) if elevations is None else elevations,
    )


def test_class_labels_round_trip():
    assert len(CLASS_LABELS) == 7
    for c in ClassId:
        assert ClassId.from_label(c.label) is c
    assert ClassId.TREE_COVER.value == 0
    assert ClassId.PERMANENT_WATER.value == 6
    with pytest.raises(ValueError):
        ClassId.from_label("snow")


def test_chip_requires_all_seven_classes():
    with pytest.raises(ValueError, match="fractions shape"):
        make_table(["c"], fractions=np.full((1, 6), 0.1))
    with pytest.raises(ValueError, match="elevations shape"):
        make_table(["c", "d"], elevations=np.zeros(3))


def test_chip_fraction_vector_order(tmp_path):
    fractions = {label: 0.1 for label in reversed(CLASS_LABELS)}
    fractions.update({"tree-cover": 0.7, "permanent-water": 0.2})
    rec = {"elevation_m": 5.0, "fractions": fractions, "lat": 2.0, "lon": 1.0,
           "aoi": "A", "chip_id": "c"}
    (tmp_path / "chips.jsonl").write_text(json.dumps(rec) + "\n")
    table = load_chip_table(tmp_path / "chips.jsonl")
    assert table.fractions.shape == (1, 7)
    assert table.fractions[0, 0] == 0.7 and table.fractions[0, 6] == 0.2
    assert (table.lon[0], table.lat[0], table.elevations[0]) == (1.0, 2.0, 5.0)
    assert not table.fractions.flags.writeable


def test_embedding_set_invariants():
    m = np.zeros((3, 4))
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b", "c"), matrix=m)
    assert len(emb) == 3
    assert not emb.matrix.flags.writeable
    m[0, 0] = 1.0  # the caller's writable array was copied
    assert emb.matrix[0, 0] == 0.0
    with pytest.raises(ValueError):
        EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b"), matrix=m)
    with pytest.raises(ValueError):
        EmbeddingSet(fm_id="m-s2", chip_ids=("a", "a", "c"), matrix=m)
    with pytest.raises(ValueError):
        EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b", "c"), matrix=np.zeros(3))
    with pytest.raises(ValueError, match="no columns"):
        EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b", "c"), matrix=np.zeros((3, 0)))


def test_chip_table_duplicate_id_named():
    with pytest.raises(ValueError, match="c0"):
        make_table(["c0", "c1", "c0"])


def test_chip_table_take_keeps_the_rows_in_the_order_given():
    table = make_table(["c0", "c1", "c2", "c3"], aois=["A", "B", "A", "B"],
                       elevations=np.arange(4.0),
                       fractions=np.arange(28.0).reshape(4, 7) / 100)
    rows = np.array([3, 0])
    sub = table.take(rows)
    assert sub.chip_ids == ("c3", "c0") and sub.aois.tolist() == ["B", "A"]
    assert np.array_equal(sub.fractions, table.fractions[rows])
    assert np.array_equal(sub.elevations, [3.0, 0.0])
    assert not sub.fractions.flags.writeable
    assert table.take(np.arange(4)) == table and len(table.take(rows[:0])) == 0


def test_assemble_covers_intersection_in_table_order(caplog):
    fractions = np.arange(21, dtype=float).reshape(3, 7) / 100
    table = make_table(["a", "b", "c"], fractions=fractions,
                       elevations=np.array([1.0, 2.0, 3.0]), aois=["P", "Q", "P"])
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("c", "x", "a"),
                       matrix=np.array([[3.0, 3], [9, 9], [1, 1]]))
    with caplog.at_level(logging.INFO, logger="probeforge.core"):
        ds = assemble_dataset(table, emb)
    assert ds.chip_ids == ("a", "c")
    assert np.array_equal(ds.matrix, [[1, 1], [3, 3]])
    assert np.array_equal(ds.fractions, fractions[[0, 2]])
    assert np.array_equal(ds.elevations, [1.0, 3.0])
    assert list(ds.aoi_positions) == ["P"]
    assert caplog.messages == [
        "join for fm m-s2 dropped 1 table-only and 1 embedding-only records"
    ]
    for a in (ds.matrix, ds.fractions, ds.elevations, ds.aoi_positions["P"]):
        assert not a.flags.writeable


@pytest.mark.parametrize("emb_ids, matrix_shared, table_shared", [
    (("a", "b", "c"), True, True),
    (("b", "a", "c"), False, True),
    (("a", "c"), True, False),
    (("a", "b", "c", "d"), False, True),
    (("c", "a"), False, False),
], ids=["aligned", "permuted", "missing-in-order", "extra", "missing-permuted"])
def test_assemble_copies_only_rows_that_move(emb_ids, matrix_shared, table_shared):
    """A side whose every row is kept in order is used as is; any other is copied."""
    table = make_table(["a", "b", "c"], elevations=np.array([1.0, 2.0, 3.0]))
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=emb_ids,
                       matrix=np.arange(2.0 * len(emb_ids)).reshape(-1, 2))
    ds = assemble_dataset(table, emb)
    assert np.shares_memory(ds.matrix, emb.matrix) is matrix_shared
    assert np.shares_memory(ds.fractions, table.fractions) is table_shared
    assert np.shares_memory(ds.elevations, table.elevations) is table_shared
    rows = [emb_ids.index(cid) for cid in ds.chip_ids]
    assert np.array_equal(ds.matrix, emb.matrix[rows])
    assert np.array_equal(ds.elevations, [1.0 + "abc".index(c) for c in ds.chip_ids])
    for a in (ds.matrix, ds.fractions, ds.elevations):
        assert not a.flags.writeable


def test_assemble_empty_intersection_raises():
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("z",), matrix=np.zeros((1, 2)))
    with pytest.raises(AlignmentError, match="no aligned chips"):
        assemble_dataset(make_table(["a"]), emb)
    empty = EmbeddingSet(fm_id="m-s2", chip_ids=(), matrix=np.zeros((0, 2)))
    with pytest.raises(AlignmentError, match="no aligned chips"):
        assemble_dataset(make_table(["a"]), empty)


def _tiny_dataset(ids, matrix, **columns):
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=tuple(ids), matrix=matrix)
    return assemble_dataset(make_table(ids, **columns), emb)


def test_validate_clean_dataset_passes(small_synth):
    report = validate_dataset(small_synth.dataset())
    assert report.valid
    assert report.n_chips == 400
    assert "OK" in report.summary()


def test_validate_reports_each_rule():
    ids = ["ok", "bad-range", "bad-sum", "bad-elev", "bad-emb", "bad-all"]
    fractions = np.full((6, 7), 0.1)
    fractions[1, ClassId.TREE_COVER] = -0.5
    fractions[2, [ClassId.TREE_COVER, ClassId.CROPLAND]] = 0.9
    fractions[5, [ClassId.SHRUBLAND, ClassId.BUILTUP]] = 1.5
    elevations = np.full(6, 100.0)
    elevations[[3, 5]] = np.nan
    matrix = np.ones((6, 3))
    matrix[[4, 5], 1] = np.inf
    report = validate_dataset(
        _tiny_dataset(ids, matrix, fractions=fractions, elevations=elevations)
    )
    bad_all_sum = sum([0.1, 1.5, 0.1, 0.1, 1.5, 0.1, 0.1])  # left to right, as Python sums
    assert [(v.chip_id, v.rule, v.detail) for v in report.violations] == [
        ("bad-range", RULE_FRACTION_RANGE, "tree-cover=-0.5"),
        ("bad-sum", RULE_FRACTION_SUM, "sum=2.3000000000000003"),
        ("bad-elev", RULE_ELEVATION, "elevation_m=nan"),
        ("bad-emb", RULE_EMBEDDING, ""),
        ("bad-all", RULE_FRACTION_RANGE, "shrubland=1.5"),
        ("bad-all", RULE_FRACTION_RANGE, "builtup=1.5"),
        ("bad-all", RULE_FRACTION_SUM, f"sum={bad_all_sum!r}"),
        ("bad-all", RULE_ELEVATION, "elevation_m=nan"),
        ("bad-all", RULE_EMBEDDING, ""),
    ]
    assert not report.valid
    assert "bad-range" in report.summary()


def test_validate_nan_fraction_is_range_violation():
    fractions = np.full((1, 7), 0.1)
    fractions[0, ClassId.SHRUBLAND] = np.nan
    report = validate_dataset(_tiny_dataset(["nan-frac"], np.ones((1, 2)),
                                            fractions=fractions))
    assert [v.rule for v in report.violations] == [RULE_FRACTION_RANGE]


def test_dataset_aoi_positions_ascending_and_complete(small_synth):
    ds = small_synth.dataset()
    table = small_synth.table
    assert sorted(ds.aoi_positions) == ["aoi-00", "aoi-01", "aoi-02", "aoi-03"]
    covered = np.sort(np.concatenate(list(ds.aoi_positions.values())))
    assert np.array_equal(covered, np.arange(len(ds)))
    for aoi, pos in ds.aoi_positions.items():
        assert np.all(np.diff(pos) > 0)
        assert np.all(table.aois[pos] == aoi)
        assert not pos.flags.writeable


def test_infer_modality_tokenizes():
    assert infer_modality("s1-dino") is Modality.S1
    assert infer_modality("prithvi_S2_v1") is Modality.S2
    assert infer_modality("clay") is None
    # an s2 substring inside a longer token does not count
    assert infer_modality("es2presso") is None

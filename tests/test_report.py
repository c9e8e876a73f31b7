"""Heatmap, scatter, and selection artifacts built from result records."""

import math

import pytest

from probeforge.core import ClassId
from probeforge.report import (
    BEST_CORR_MEAN,
    LEAST_TOTAL_ELEMENTS,
    NO_SELECTION,
    SelectionCriterion,
    ablation_scatter,
    heatmap_matrix,
    scatter_csv,
    selection_csv,
    selection_table,
    selection_text,
)
from probeforge.runner import REGIME_EXTERNAL, REGIME_TARGET_SPLIT
from probeforge.sampling import SamplerKind

from conftest import make_record


def ext(train, target, fm="alpha-s1", r_mean=0.5, **kw):
    return make_record(
        fm_id=fm, regime=REGIME_EXTERNAL, train_aoi=train, target_aoi=target,
        r_mean=r_mean, **kw,
    )


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_dense_two_by_two():
    records = [
        ext("p", "q", fm="alpha-s1", r_mean=0.6),
        ext("q", "p", fm="alpha-s1", r_mean=0.4),
        ext("p", "q", fm="beta-s2", r_mean=0.9),
        ext("q", "p", fm="beta-s2", r_mean=0.7),
    ]
    hm = heatmap_matrix(records, ClassId.TREE_COVER)
    assert hm.fm_ids == ("alpha-s1", "beta-s2")
    assert hm.pairs == (("p", "q"), ("q", "p"))
    assert hm.rows == ((0.6, 0.4), (0.9, 0.7))


def test_heatmap_lookup_matches_linear_scan(rng):
    aois = ["a", "b", "c"]
    fms = ["m1-s1", "m2-s2", "m3-s1"]
    records = []
    for fm in fms:
        for t in aois:
            for g in aois:
                if t == g:
                    continue
                records.append(ext(t, g, fm=fm, r_mean=float(rng.random())))
    order = rng.permutation(len(records))
    hm = heatmap_matrix([records[i] for i in order], ClassId.TREE_COVER)
    for r in records:
        i = hm.fm_ids.index(r.spec.fm_id)
        j = hm.pairs.index((r.spec.train_aoi, r.spec.target_aoi))
        assert hm.rows[i][j] == r.r_mean


def test_heatmap_orders_s1_rows_before_s2():
    records = [
        ext("p", "q", fm="zz-s1"),
        ext("p", "q", fm="aa-s2"),
        ext("p", "q", fm="mm-s1"),
    ]
    hm = heatmap_matrix(records, ClassId.TREE_COVER)
    assert hm.fm_ids == ("mm-s1", "zz-s1", "aa-s2")


def test_heatmap_puts_a_model_of_no_known_modality_last_with_an_empty_modality():
    records = [ext("p", "q", fm="aa-optical"), ext("p", "q", fm="zz-s2"),
               ext("p", "q", fm="mm-s1")]
    hm = heatmap_matrix(records, ClassId.TREE_COVER)
    assert hm.fm_ids == ("mm-s1", "zz-s2", "aa-optical")
    assert hm.to_csv().splitlines()[1:] == ["mm-s1,S1,0.5", "zz-s2,S2,0.5", "aa-optical,,0.5"]


def test_heatmap_missing_and_nan_cells_render_empty():
    records = [
        ext("p", "q", fm="alpha-s1", r_mean=0.5),
        ext("q", "r", fm="beta-s2", r_mean=float("nan")),
    ]
    hm = heatmap_matrix(records, ClassId.TREE_COVER)
    assert math.isnan(hm.rows[0][1])  # alpha-s1 never ran the (q, r) pair
    assert math.isnan(hm.rows[1][1])  # beta-s2 ran it but aggregated to NaN
    lines = hm.to_csv().splitlines()
    assert lines[0] == "fm_id,modality,p->q,q->r"
    assert lines[1] == "alpha-s1,S1,0.5,"
    assert lines[2] == "beta-s2,S2,,"


def test_heatmap_absent_class_is_an_error():
    with pytest.raises(ValueError, match="cropland"):
        heatmap_matrix([ext("p", "q")], ClassId.CROPLAND)


def test_heatmap_over_filtering_is_an_error():
    with pytest.raises(ValueError, match="survive"):
        heatmap_matrix([ext("p", "q", n_train=50)], ClassId.TREE_COVER, n_train=10)


def test_heatmap_ambiguous_cell_asks_for_filters():
    records = [ext("p", "q", n_train=10), ext("p", "q", n_train=20)]
    with pytest.raises(ValueError, match="add filters"):
        heatmap_matrix(records, ClassId.TREE_COVER)
    hm = heatmap_matrix(records, ClassId.TREE_COVER, n_train=20)
    assert hm.rows == ((0.5,),)


def test_heatmap_ignores_target_split_records():
    records = [ext("p", "q"), make_record(regime=REGIME_TARGET_SPLIT, target_aoi="q")]
    hm = heatmap_matrix(records, ClassId.TREE_COVER)
    assert hm.pairs == (("p", "q"),)


# ---------------------------------------------------------------------------
# scatter


def test_scatter_filters_compose():
    records = [
        make_record(n_test=10), make_record(n_test=50),
        make_record(n_test=100), make_record(n_test=500),
        make_record(fm_id="beta-s2", n_test=10),
        make_record(sampler=SamplerKind.FPS, n_test=10),
    ]
    got = ablation_scatter(records, fm_id="alpha-s1", sampler=SamplerKind.RANDOM)
    assert [r.spec.n_test for r in got] == [10, 50, 100, 500]
    assert ablation_scatter(records) == records
    assert ablation_scatter(records, target_aoi="nowhere") == []


def test_scatter_filter_matches_brute_force(rng):
    records = []
    for fm in ("a-s1", "b-s2"):
        for cls in (ClassId.TREE_COVER, ClassId.BUILTUP):
            for n_test in (10, 50):
                records.append(make_record(fm_id=fm, class_id=cls, n_test=n_test,
                                           r_mean=float(rng.random())))
    got = ablation_scatter(records, class_id=ClassId.BUILTUP, fm_id="b-s2")
    want = [r for r in records
            if r.spec.class_id is ClassId.BUILTUP and r.spec.fm_id == "b-s2"]
    assert got == want


def test_scatter_csv_shape():
    records = [make_record(n_test=10, r_mean=0.25, r_std=0.125)]
    text = scatter_csv(records)
    lines = text.splitlines()
    assert lines[0].startswith("fm_id,class,regime")
    assert lines[1] == "alpha-s1,tree-cover,target-split,aoi-00,random,50,10,0.25,0.125"
    assert scatter_csv([]) == lines[0] + "\n"


def _varied_records(rng):
    """One record per (model, class, AOI pair), target-split ones included,
    with sampler and sizes drawn at random."""
    aois = ("p", "q", "r")
    out = []
    for fm in ("a-s1", "b-s2", "c-s1"):
        for cls in (ClassId.TREE_COVER, ClassId.BUILTUP):
            for train in (*aois, None):
                for target in aois:
                    if train == target:
                        continue
                    out.append(make_record(
                        fm_id=fm, class_id=cls, train_aoi=train, target_aoi=target,
                        regime=REGIME_TARGET_SPLIT if train is None else REGIME_EXTERNAL,
                        sampler=(SamplerKind.RANDOM, SamplerKind.FPS)[int(rng.integers(2))],
                        n_train=int(rng.choice([50, 100])),
                        n_test=int(rng.choice([10, 20])),
                        r_mean=float(rng.random()),
                    ))
    return out


_FILTERS = [
    ("heatmap", "n_train", 100, lambda s: s.n_train == 100),
    ("heatmap", "n_test", 20, lambda s: s.n_test == 20),
    ("heatmap", "sampler", SamplerKind.FPS, lambda s: s.sampler is SamplerKind.FPS),
    ("scatter", "fm_id", "b-s2", lambda s: s.fm_id == "b-s2"),
    ("scatter", "class_id", ClassId.BUILTUP, lambda s: s.class_id is ClassId.BUILTUP),
    ("scatter", "target_aoi", "q", lambda s: s.target_aoi == "q"),
    ("scatter", "sampler", SamplerKind.FPS, lambda s: s.sampler is SamplerKind.FPS),
    ("scatter", "regime", REGIME_TARGET_SPLIT,
     lambda s: s.regime == REGIME_TARGET_SPLIT),
]


@pytest.mark.parametrize("view, field, value, keep", _FILTERS,
                         ids=[f"{view}-{field}" for view, field, *_ in _FILTERS])
def test_every_report_filter_matches_brute_force(rng, view, field, value, keep):
    records = _varied_records(rng)
    if view == "scatter":
        want = [r for r in records if keep(r.spec)]
        assert 0 < len(want) < len(records)
        assert ablation_scatter(records, **{field: value}) == want
        return
    pool = [r for r in records
            if r.spec.regime == REGIME_EXTERNAL and r.spec.class_id is ClassId.TREE_COVER]
    want = [r for r in pool if keep(r.spec)]
    assert 0 < len(want) < len(pool)
    hm = heatmap_matrix(records, ClassId.TREE_COVER, **{field: value})
    got = {(fm, pair): v
           for fm, row in zip(hm.fm_ids, hm.rows)
           for pair, v in zip(hm.pairs, row) if not math.isnan(v)}
    assert got == {(r.spec.fm_id, (r.spec.train_aoi, r.spec.target_aoi)): r.r_mean
                   for r in want}


# ---------------------------------------------------------------------------
# selection


def test_selection_thresholds_are_strict():
    inside = make_record(r_mean=0.71, r_std=0.04)
    high_std = make_record(fm_id="b-s2", r_mean=0.71, r_std=0.06)
    low_mean = make_record(fm_id="c-s2", r_mean=0.69, r_std=0.01)
    crit = SelectionCriterion()
    assert crit.qualifies(inside)
    assert not crit.qualifies(high_std)
    assert not crit.qualifies(low_mean)
    assert not crit.qualifies(make_record(r_mean=0.7, r_std=0.04))
    assert not crit.qualifies(make_record(r_mean=0.71, r_std=0.05))
    assert not crit.qualifies(make_record(r_mean=float("nan"), r_std=0.01))

    rows = selection_table([inside, high_std, low_mean], crit)
    assert len(rows) == 1
    assert rows[0].selected is inside


def test_selection_rules_differ_on_cost_quality_tradeoff():
    big = make_record(fm_id="big-s2", n_train=100, n_test=10,
                      r_mean=0.947, r_std=0.032)
    small = make_record(fm_id="small-s1", n_train=50, n_test=10,
                        r_mean=0.816, r_std=0.048)
    records = [big, small]
    least = selection_table(records, SelectionCriterion(rule=LEAST_TOTAL_ELEMENTS))
    best = selection_table(records, SelectionCriterion(rule=BEST_CORR_MEAN))
    assert least[0].selected is small  # 60 elements beat 110
    assert best[0].selected is big


def test_selection_marks_groups_without_qualifiers():
    records = [
        make_record(target_aoi="aoi-00", r_mean=0.9, r_std=0.01),
        make_record(target_aoi="aoi-01", r_mean=0.2, r_std=0.2),
    ]
    rows = selection_table(records, SelectionCriterion())
    assert rows[0].selected is not None
    assert rows[1].selected is None
    text = selection_csv(rows)
    assert "selected" in text and NO_SELECTION in text


def test_selection_groups_span_both_regimes():
    external = ext("aoi-03", "aoi-00", fm="far-s1", r_mean=0.95, r_std=0.01,
                   n_train=50, n_test=10)
    local = make_record(fm_id="near-s2", target_aoi="aoi-00",
                        r_mean=0.8, r_std=0.01, n_train=50, n_test=10)
    rows = selection_table([local, external], SelectionCriterion(rule=BEST_CORR_MEAN))
    assert len(rows) == 1
    assert rows[0].selected is external


def test_selection_is_input_order_invariant(rng):
    records = []
    for aoi in ("aoi-00", "aoi-01"):
        for cls in (ClassId.TREE_COVER, ClassId.CROPLAND):
            for fm in ("a-s1", "b-s2", "c-s2"):
                for n_train in (20, 100):
                    records.append(make_record(
                        fm_id=fm, class_id=cls, target_aoi=aoi, n_train=n_train,
                        r_mean=float(rng.uniform(0.5, 1.0)),
                        r_std=float(rng.uniform(0.0, 0.1)),
                    ))
    crit = SelectionCriterion()
    rows = selection_table(records, crit)
    order = rng.permutation(len(records))
    rows_shuffled = selection_table([records[i] for i in order], crit)
    assert rows == rows_shuffled
    assert [r.target_aoi for r in rows] == ["aoi-00", "aoi-00", "aoi-01", "aoi-01"]
    assert [r.class_id for r in rows] == [
        ClassId.TREE_COVER, ClassId.CROPLAND, ClassId.TREE_COVER, ClassId.CROPLAND,
    ]


def test_selection_matches_filter_sort_oracle(rng):
    records = []
    for fm in ("a-s1", "b-s2", "c-s1", "d-s2"):
        for n_train in (10, 50, 100):
            for n_test in (10, 50):
                records.append(make_record(
                    fm_id=fm, n_train=n_train, n_test=n_test,
                    r_mean=float(rng.uniform(0.4, 1.0)),
                    r_std=float(rng.uniform(0.0, 0.08)),
                ))
    for rule in (LEAST_TOTAL_ELEMENTS, BEST_CORR_MEAN):
        crit = SelectionCriterion(rule=rule)
        got = selection_table(records, crit)[0].selected
        pool = [r for r in records if r.r_mean > 0.7 and r.r_std < 0.05]
        want = sorted(pool, key=crit.sort_key())[0] if pool else None
        assert got == want


def test_selection_text_rendering():
    rows = selection_table(
        [make_record(n_train=100, n_test=10, r_mean=0.947, r_std=0.032),
         make_record(class_id=ClassId.BUILTUP, r_mean=0.1, r_std=0.5)],
        SelectionCriterion(),
    )
    text = selection_text(rows)
    assert "0.947 ±0.032" in text
    assert "110 (100/10)" in text
    assert NO_SELECTION in text
    header, first, second = text.splitlines()
    assert header.startswith("target_aoi")
    assert first.startswith("aoi-00")


def test_selection_criterion_validation():
    for rule in ("highest_rmse", "least_total_elements", "best_corr_mean"):
        with pytest.raises(ValueError, match="rule"):
            SelectionCriterion(rule=rule)
    with pytest.raises(ValueError, match="r_min"):
        SelectionCriterion(r_min=1.0)
    with pytest.raises(ValueError, match="r_min"):
        SelectionCriterion(r_min=float("nan"))
    with pytest.raises(ValueError, match="std_max"):
        SelectionCriterion(std_max=0.0)

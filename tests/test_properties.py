"""Property-based checks: samplers, target splits, the probe, result rows, chip tables."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from probeforge.core import ChipTable, ClassId  # noqa: E402
from probeforge.ingest import load_chip_table, save_chip_table  # noqa: E402
from probeforge.probe import DEFAULT_RCOND, fit, predict  # noqa: E402
from probeforge.runner import (  # noqa: E402
    REGIME_EXTERNAL,
    REGIME_TARGET_SPLIT,
    AggregateRecord,
    ExperimentSpec,
    parse_results_file,
    record_from_row,
    record_to_row,
    write_results_file,
)
from probeforge.sampling import SampleRequest, SamplerKind, draw, split_target  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _pool(n, data_seed):
    """Candidate positions plus tie- and zero-heavy auxiliary rows."""
    rng = np.random.default_rng(data_seed)
    candidates = np.sort(rng.choice(10 * n, size=n, replace=False))
    aux = {
        "fractions": rng.uniform(0, 1, (n, 7)) * (rng.random((n, 7)) < 0.4),
        "embeddings": rng.integers(0, 3, (n, 2)).astype(np.float64),
        "elevations": np.round(rng.uniform(0, 3, n)),
    }
    return candidates, aux


@PROPERTY
@given(n=st.integers(1, 40), data=st.data(), data_seed=seeds, seed=seeds,
       kind=st.sampled_from(list(SamplerKind)))
def test_samplers_return_k_distinct_pool_positions(n, data, data_seed, seed, kind):
    k = data.draw(st.integers(1, n), label="k")
    candidates, aux = _pool(n, data_seed)
    picked = draw(SampleRequest(candidates, k, seed, kind, **aux))
    assert picked.shape == (k,)
    assert len(set(picked.tolist())) == k
    assert set(picked.tolist()) <= set(candidates.tolist())
    again = draw(SampleRequest(candidates, k, seed, kind, **aux))
    assert np.array_equal(picked, again)


@PROPERTY
@given(n=st.integers(2, 40), data=st.data(), data_seed=seeds, seed=seeds,
       kind=st.sampled_from(list(SamplerKind)))
def test_split_target_is_disjoint(n, data, data_seed, seed, kind):
    n_test = data.draw(st.integers(1, n - 1), label="n_test")
    n_train = data.draw(st.integers(1, n - n_test), label="n_train")
    candidates, aux = _pool(n, data_seed)
    test, train = split_target(candidates, n_test, n_train, kind, seed, **aux)
    assert (test.size, train.size) == (n_test, n_train)
    assert not set(test.tolist()) & set(train.tolist())
    assert set(test.tolist()) | set(train.tolist()) <= set(candidates.tolist())


@PROPERTY
@given(n=st.integers(3, 30), d=st.integers(2, 20), data=st.data(), data_seed=seeds)
def test_fit_is_the_lstsq_minimum_norm_solution(n, d, data, data_seed):
    rank = data.draw(st.integers(1, min(n, d) - 1), label="rank")
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    y = rng.standard_normal(n)
    probe = fit(X, y)

    Xc = X - X.mean(axis=0)
    want = np.linalg.lstsq(Xc, y - y.mean(), rcond=DEFAULT_RCOND)[0]
    scale = 1.0 + np.linalg.norm(want)
    assert np.linalg.norm(probe.weights - want) <= 1e-7 * scale
    assert probe.effective_rank <= rank
    pred = predict(probe, X)
    assert np.allclose(pred, Xc @ want + y.mean(), atol=1e-7 * scale)


_names = st.text(alphabet="ab-,\" ", min_size=1, max_size=6)
_metric = st.one_of(
    st.just(math.nan),
    st.floats(-1e6, 1e6).map(lambda x: float(format(x, ".6g"))),
)


@st.composite
def records(draw):
    external = draw(st.booleans())
    target = draw(_names)
    spec = ExperimentSpec(
        fm_id=draw(_names),
        class_id=draw(st.sampled_from(list(ClassId))),
        regime=REGIME_EXTERNAL if external else REGIME_TARGET_SPLIT,
        target_aoi=target,
        train_aoi=draw(_names.filter(lambda a: a != target)) if external else None,
        sampler=draw(st.sampled_from(list(SamplerKind))),
        n_train=draw(st.integers(1, 10**6)),
        n_test=draw(st.integers(1, 10**6)),
        repetitions=draw(st.integers(2, 1000)),
        base_seed=draw(seeds),
    )
    return AggregateRecord(
        spec=spec, r_mean=draw(_metric), r_std=draw(_metric),
        rmse_mean=draw(_metric), rmse_std=draw(_metric),
        degenerate_runs=draw(st.integers(0, 1000)), infeasible=draw(st.booleans()),
    )


@PROPERTY
@given(recs=st.lists(records(), max_size=5))
def test_results_rows_round_trip(tmp_path_factory, recs):
    for rec in recs:
        row = record_to_row(rec)
        back = record_from_row(row)
        assert back.spec == rec.spec
        assert back.infeasible == rec.infeasible
        assert record_to_row(back) == row
    path = tmp_path_factory.mktemp("rows") / "r.csv"
    write_results_file(path, recs)
    assert [record_to_row(r, zero_wall=True) for r in parse_results_file(path)] == [
        record_to_row(r, zero_wall=True) for r in recs
    ]


_labels = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
                  min_size=1, max_size=8)
_values = st.floats(allow_nan=True, allow_infinity=True)


@PROPERTY
@given(n=st.integers(0, 12), data=st.data())
def test_chip_table_round_trips_through_jsonl(tmp_path_factory, n, data):
    ids = data.draw(st.lists(_labels, min_size=n, max_size=n, unique=True), label="ids")
    column = st.lists(_values, min_size=n, max_size=n)
    table = ChipTable(
        chip_ids=tuple(ids),
        aois=np.array(data.draw(st.lists(_labels, min_size=n, max_size=n)), dtype=object),
        lon=data.draw(column), lat=data.draw(column),
        fractions=np.array(data.draw(st.lists(st.lists(_values, min_size=7, max_size=7),
                                              min_size=n, max_size=n))).reshape(n, 7),
        elevations=data.draw(column),
    )
    path = tmp_path_factory.mktemp("chips") / "chips.jsonl"
    save_chip_table(table, path)
    assert load_chip_table(path) == table

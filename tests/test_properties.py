"""Property-based checks: samplers, target splits, the probe, the metrics, result rows,
spec keys, run units, streamed rows, resume from a results file cut at any byte and from
whole run histories, chip tables and their column cache, the chip-to-embedding join and
the dataset loader."""

import dataclasses
import itertools
import json
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from probeforge import ingest, runner, sampling  # noqa: E402
from probeforge.core import ChipTable, ClassId, EmbeddingSet, assemble_dataset  # noqa: E402
from probeforge.errors import (  # noqa: E402
    AlignmentError,
    DataFormatError,
    DegenerateVarianceError,
    ProbeforgeError,
)
from probeforge.ingest import load_chip_table, save_chip_table, save_embeddings  # noqa: E402
from probeforge.metrics import DEGENERATE_STD, pearson, rmse  # noqa: E402
from probeforge.probe import DEFAULT_RCOND, factorize, fit, predict  # noqa: E402
from probeforge.runner import GridSpec, enumerate_grid, run_experiment, run_grid  # noqa: E402
from probeforge.schema import (  # noqa: E402
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
from probeforge.seeds import splitmix64  # noqa: E402

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
    test = draw(SampleRequest(candidates, n_test, seed, SamplerKind.RANDOM))
    train = split_target(candidates, test, n_train, kind, seed, **aux)
    assert (test.size, train.size) == (n_test, n_train)
    assert not set(test.tolist()) & set(train.tolist())
    assert set(test.tolist()) | set(train.tolist()) <= set(candidates.tolist())
    with pytest.raises(ValueError, match="candidate count"):
        split_target(candidates, test, n - n_test + 1, kind, seed, **aux)


_GAMMA = 0x9E3779B97F4A7C15


def _u(seed, i):
    """Uniform i of the stream of ``seed``, in Python ints and floats."""
    return (splitmix64((seed + i * _GAMMA) % 2**64) >> 11) * 2.0**-53


@PROPERTY
@given(seed=seeds | st.just(2**64 - 1), start=st.integers(0, 2**63 - 64)
       | st.integers(0, 64), count=st.integers(0, 64))
@example(seed=2**64 - 1, start=0, count=3)
def test_the_array_stream_is_splitmix64_of_the_counter(seed, start, count):
    got = sampling._stream(seed, start, count)
    assert got.dtype == np.uint64
    want = [splitmix64((seed + i * _GAMMA) % 2**64) for i in range(start, start + count)]
    assert got.tolist() == want
    assert sampling._uniforms(seed, start, count).tolist() == [
        _u(seed, i) for i in range(start, start + count)]


def _subset_loop_oracle(seed, start, k, n):
    """random's k-subset of range(n), from output ``start`` on, one pick at a time."""
    m = min(k, n - k)
    drawn, i = [], start
    while len(drawn) < m:
        pick = int(_u(seed, i) * n)
        if pick not in drawn:
            drawn.append(pick)
        i += 1
    return sorted(drawn) if m == k else [p for p in range(n) if p not in drawn]


def _srtm_loop_oracle(candidates, elev, k, seed):
    """srtm as first written, one full scan of the pool per bin, on scalar uniforms."""
    n = elev.size
    sorted_elev = np.sort(elev, kind="stable")
    min_rank = np.searchsorted(sorted_elev, elev, side="left")
    bins = (min_rank * k) // n
    chosen = []
    for b in range(k):
        members = np.flatnonzero(bins == b)
        if members.size == 0:
            continue
        chosen.append(int(members[int(_u(seed, len(chosen)) * members.size)]))
    free = [p for p in range(n) if p not in chosen]
    chosen += [free[i] for i in _subset_loop_oracle(seed, len(chosen), k - len(chosen),
                                                    len(free))]
    return candidates[np.array(chosen, dtype=np.intp)]


def _esawc_loop_oracle(candidates, frac, k, seed):
    """esawc one turn at a time: a running sum in Python floats and a linear scan."""
    remaining = list(range(len(candidates)))
    chosen = []
    turn = skipped = 0
    while len(chosen) < k:
        u, running, total = _u(seed, turn), [], 0.0
        for pos in remaining:
            total += float(frac[pos, turn % 7])
            running.append(total)
        turn += 1
        if total > 0.0:
            pick = next(j for j, s in enumerate(running) if s > u * total)
        elif skipped == 6:
            pick = int(u * len(remaining))
        else:
            skipped += 1
            continue
        skipped = 0
        chosen.append(remaining.pop(pick))
    return candidates[np.array(chosen, dtype=np.intp)]


# quantized elevations tie heavily; NaN, the infinities and -0.0 probe the rank rule
elevation_values = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


@PROPERTY
@given(n=st.integers(1, 300), data=st.data(), seed=seeds)
def test_srtm_matches_a_loop_oracle(n, data, seed):
    k = data.draw(st.integers(1, n), label="k")
    elev = np.array(data.draw(st.lists(elevation_values, min_size=n, max_size=n),
                              label="elevations"))
    candidates = np.arange(n)[::-1] * 3
    got = draw(SampleRequest(candidates, k, seed, SamplerKind.SRTM, elevations=elev))
    assert np.array_equal(got, _srtm_loop_oracle(candidates, elev, k, seed))


def _sizes(max_n):
    """(n, k) with 1 <= k <= n <= max_n, k = n often."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n) | st.just(n)))


@PROPERTY
@given(nk=_sizes(300), seed=seeds)
@example(nk=(1, 1), seed=0)
@example(nk=(300, 300), seed=2**64 - 1)
def test_random_matches_a_loop_oracle(nk, seed):
    n, k = nk
    candidates = np.arange(n)[::-1] * 3
    got = draw(SampleRequest(candidates, k, seed, SamplerKind.RANDOM))
    assert np.array_equal(got, candidates[_subset_loop_oracle(seed, 0, k, n)])


@pytest.mark.parametrize("n", [2**16, 2**16 + 1], ids=["16-bit-picks", "wider-picks"])
@pytest.mark.parametrize("far", [False, True], ids=["first-k", "complement"])
def test_random_matches_a_loop_oracle_on_either_side_of_16_bit_pools(n, far):
    k = n - 5 if far else 5
    for seed in (0, 2**64 - 1):
        got = sampling._subset(seed, 0, k, n)
        assert got.tolist() == _subset_loop_oracle(seed, 0, k, n)


# ties (equal values), zeros and all-zero rows and classes
fraction_values = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0]) | st.floats(0, 1)


@PROPERTY
@given(nk=_sizes(40), data=st.data(), seed=seeds)
def test_esawc_matches_a_loop_oracle(nk, data, seed):
    n, k = nk
    rows = st.lists(fraction_values, min_size=7, max_size=7) | st.just([0.0] * 7)
    frac = np.array(data.draw(st.lists(rows, min_size=n, max_size=n), label="fractions"))
    candidates = np.arange(n)[::-1] * 3
    got = draw(SampleRequest(candidates, k, seed, SamplerKind.ESAWC, fractions=frac))
    assert np.array_equal(got, _esawc_loop_oracle(candidates, frac, k, seed))


@pytest.mark.parametrize("frac, k", [
    ([[0.0] * 7], 1),
    ([[0.5] * 7] * 6, 6),
    ([[0.0] * 7] * 5 + [[0.25, 0, 0, 0, 0, 0, 0]] * 3, 8),
], ids=["one-candidate", "ties-k-equals-n", "all-zero-rows-k-equals-n"])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_esawc_matches_a_loop_oracle_on_edge_pools(frac, k, seed):
    frac = np.array(frac)
    candidates = np.arange(len(frac))[::-1] * 3
    got = draw(SampleRequest(candidates, k, seed, SamplerKind.ESAWC, fractions=frac))
    assert np.array_equal(got, _esawc_loop_oracle(candidates, frac, k, seed))


@PROPERTY
@given(elev=st.lists(elevation_values, min_size=1, max_size=300)
       | st.lists(st.just(math.nan), min_size=1, max_size=5)
       | st.builds(lambda v: [v], elevation_values))
def test_srtm_tie_ranks_match_a_self_searchsorted(elev):
    # srtm's rank rule as first written: each value's first position among
    # the sorted values, which counts a run of NaNs as one run
    ranked = np.sort(np.array(elev))
    got = sampling._tie_ranks(ranked)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(ranked, ranked, side="left"))


@PROPERTY
@given(n=st.integers(3, 30), d=st.integers(2, 20), data=st.data(), data_seed=seeds,
       log_kappa=st.floats(0, 5))
def test_fit_is_the_lstsq_minimum_norm_solution(n, d, data, data_seed, log_kappa):
    # full-rank and rank-deficient X, with columns scaled over 1..1e5 so that
    # both the Gram path (kappa <= 1e3) and its SVD fallback are reached
    rank = data.draw(st.one_of(st.just(min(n, d)), st.integers(1, min(n, d) - 1)),
                     label="rank")
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    X *= np.logspace(0, log_kappa, d)
    y = rng.standard_normal(n)
    probe = fit(X, y)

    Xc = X - X.mean(axis=0)
    want = np.linalg.lstsq(Xc, y - y.mean(), rcond=DEFAULT_RCOND)[0]
    s = np.linalg.svd(Xc, compute_uv=False)
    kept = s[s > DEFAULT_RCOND * s[0]]
    assert probe.effective_rank == kept.size <= rank
    kappa = kept[0] / kept[-1]
    tol = min(1e-8, 1e3 * np.finfo(np.float64).eps * kappa**2)  # criterion 01's cap
    assert np.linalg.norm(probe.weights - want) <= tol * np.linalg.norm(want)
    scale = 1.0 + np.linalg.norm(want)
    pred = predict(probe, X)
    assert np.allclose(pred, Xc @ want + y.mean(), atol=1e-7 * scale)


@PROPERTY
@given(n=st.integers(2, 30), d=st.integers(1, 30), data=st.data(), data_seed=seeds)
def test_fit_on_a_factorization_is_bit_identical(n, d, data, data_seed):
    # n < d, n > d and rank-deficient X alike
    rank = data.draw(st.integers(1, min(n, d)), label="rank")
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    f = factorize(X)
    for y in (rng.standard_normal(n), rng.uniform(0, 1, n)):
        a, b = fit(f, y), fit(X, y)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert math.copysign(1, a.intercept) == math.copysign(1, b.intercept)
        assert a.intercept == b.intercept
        assert a.effective_rank == b.effective_rank
        assert (a.sigma_max, a.sigma_min_retained) == (b.sigma_max, b.sigma_min_retained)


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
    assert [record_to_row(r) for r in parse_results_file(path)] == list(map(record_to_row, recs))


#: Names that hold everything a key is built of but its ";" separator, a name
#: that looks like one of its fields among them.
_key_names = st.text(alphabet="ab=-,\" \n", min_size=1, max_size=4) | st.sampled_from(
    ["-", "train=a", "target=b", "a\ntarget=b"])


@st.composite
def _key_specs(draw):
    """Specs over a few names, sizes and classes, so that some share fields."""
    names = draw(st.lists(_key_names, min_size=2, max_size=3, unique=True))
    specs = []
    for _ in range(draw(st.integers(2, 8))):
        external = draw(st.booleans())
        target = draw(st.sampled_from(names))
        specs.append(ExperimentSpec(
            fm_id=draw(st.sampled_from(names)),
            class_id=draw(st.sampled_from(list(ClassId)[:2])),
            regime=REGIME_EXTERNAL if external else REGIME_TARGET_SPLIT,
            target_aoi=target,
            train_aoi=draw(st.sampled_from([a for a in names if a != target]))
            if external else None,
            sampler=draw(st.sampled_from(list(SamplerKind)[:2])),
            n_train=draw(st.integers(1, 2)), n_test=draw(st.integers(1, 2)),
            repetitions=draw(st.integers(2, 3)), base_seed=0,
        ))
    return specs


def _fields_of(spec, *names):
    return tuple(getattr(spec, name) for name in names)


_KEYED = ("regime", "fm_id", "class_id", "train_aoi", "target_aoi", "sampler", "n_train",
          "n_test", "repetitions")
_TRAIN_KEYED = ("fm_id", "train_aoi", "sampler", "n_train", "repetitions")
_TEST_KEYED = ("fm_id", "target_aoi", "n_test", "repetitions")


@PROPERTY
@given(specs=_key_specs())
def test_spec_keys_are_injective(specs):
    # A key names every field but the base seed, a draw key every field but
    # the class too: specs share one exactly when they share those fields.
    for spec in specs:  # and a key splits back into those fields
        assert [part.partition("=")[2] for part in spec.key().split(";")] == [
            spec.regime, spec.fm_id, spec.class_id.label, spec.train_aoi or "-",
            spec.target_aoi, spec.sampler.value, str(spec.n_train), str(spec.n_test),
            str(spec.repetitions)]
    drawn = tuple(f for f in _KEYED if f != "class_id")
    for a, b in itertools.combinations(specs, 2):
        assert (a.key() == b.key()) == (_fields_of(a, *_KEYED) == _fields_of(b, *_KEYED))
        assert (a.draw_key() == b.draw_key()) == (_fields_of(a, *drawn) == _fields_of(b, *drawn))
        if a.regime == b.regime == REGIME_EXTERNAL:
            assert (a.train_key() == b.train_key()) == (
                _fields_of(a, *_TRAIN_KEYED) == _fields_of(b, *_TRAIN_KEYED))
            assert (a.test_key() == b.test_key()) == (
                _fields_of(a, *_TEST_KEYED) == _fields_of(b, *_TEST_KEYED))


#: One train AOI and two samplers: two run units, which test on the same two
#: target AOIs at the same two test sizes.
_UNIT_GRID = GridSpec(
    fms=("alpha-s1",), classes=(ClassId.TREE_COVER, ClassId.BUILTUP),
    samplers=(SamplerKind.SRTM, SamplerKind.RANDOM), regimes=(REGIME_EXTERNAL,),
    external_aois=("aoi-00",), target_aois=("aoi-01", "aoi-02"),
    n_train_external=(20,), n_test_target=(10, 15), repetitions=3, base_seed=11,
)


@pytest.fixture(scope="module")
def unit_grid_bytes(tmp_path_factory, small_datasets):
    path = tmp_path_factory.mktemp("unit") / "full.csv"
    run_grid(_UNIT_GRID, small_datasets, path)
    return path.read_bytes()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subset=st.sets(st.integers(0, 15), min_size=1), threads=st.sampled_from([1, 2]))
def test_a_spec_row_does_not_depend_on_which_specs_of_its_run_unit_run(
        tmp_path_factory, small_datasets, in_process_pool, unit_grid_bytes, subset, threads):
    specs = enumerate_grid(_UNIT_GRID)
    assert len(specs) == 16 and len({s.train_key() for s in specs}) == 2
    header, *rows = unit_grid_bytes.splitlines(keepends=True)
    path = tmp_path_factory.mktemp("subset") / "r.csv"
    path.write_bytes(header + b"".join(row for i, row in enumerate(rows) if i not in subset))
    pools = len(in_process_pool)
    run_grid(_UNIT_GRID, small_datasets, path, threads=threads, resume=True)
    assert path.read_bytes() == unit_grid_bytes
    units = {specs[i].train_key() for i in subset}
    assert in_process_pool[pools:] == ([2] if threads == 2 and len(units) == 2 else [])
    full = parse_results_file(path)
    for i in subset:
        alone = run_experiment(specs[i], small_datasets["alpha-s1"])
        assert record_to_row(alone) == record_to_row(full[i])


def _some(values, max_size=None):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size,
                    unique=True).map(tuple)


#: Grids over the small dataset's four AOIs of 100 chips each, with sizes that
#: some AOIs cannot supply, so some units hold infeasible specs.
_unit_grids = st.builds(
    GridSpec, fms=st.just(("alpha-s1",)), classes=_some(list(ClassId), 2),
    samplers=_some(list(SamplerKind)), regimes=_some([REGIME_EXTERNAL, REGIME_TARGET_SPLIT]),
    target_aois=_some(["aoi-00", "aoi-01", "aoi-02"]),
    external_aois=_some(["aoi-00", "aoi-01", "aoi-03"], 2),
    n_train_external=_some([10, 40, 120], 2), n_train_target=_some([10, 40, 90], 2),
    n_test_target=_some([5, 15, 60], 2), repetitions=st.integers(2, 3), base_seed=seeds,
)


@settings(max_examples=40, deadline=None)
@given(grid=_unit_grids)
def test_every_grouped_row_equals_its_spec_run_alone(tmp_path_factory, small_datasets, grid):
    records = run_grid(grid, small_datasets, tmp_path_factory.mktemp("grid") / "r.csv")
    for rec in records:
        alone = run_experiment(rec.spec, small_datasets[rec.spec.fm_id])
        assert record_to_row(alone) == record_to_row(rec)


#: Eight run units of two specs each, over both regimes. A unit's two specs
#: are four apart in enumeration order, so a streamed file's unit order is
#: not the canonical order.
_STREAM_GRID = GridSpec(
    fms=("alpha-s1",), classes=(ClassId.TREE_COVER, ClassId.BUILTUP),
    samplers=(SamplerKind.RANDOM, SamplerKind.SRTM), target_aois=("aoi-00", "aoi-01"),
    external_aois=("aoi-00", "aoi-01"), n_train_external=(20,), n_train_target=(20,),
    n_test_target=(15,), repetitions=2, base_seed=9,
)


@pytest.fixture(scope="module")
def streamed_and_full(tmp_path_factory, small_datasets):
    """The file a serial run streams before it stops in its sixth run unit,
    and the bytes an uninterrupted run writes."""
    root = tmp_path_factory.mktemp("stream")
    run_grid(_STREAM_GRID, small_datasets, root / "full.csv")
    real, calls = runner.run_experiment, []

    def stop_after_five_units(spec, dataset, share=None):
        calls.append(spec)
        if len(calls) > 10:
            raise RuntimeError("stopped")
        return real(spec, dataset, share)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "run_experiment", stop_after_five_units)
        with pytest.raises(RuntimeError, match="stopped"):
            run_grid(_STREAM_GRID, small_datasets, root / "streamed.csv")
    streamed = (root / "streamed.csv").read_bytes()
    kept = parse_results_file(root / "streamed.csv")
    canonical = [s.key() for s in enumerate_grid(_STREAM_GRID)]
    order = [canonical.index(rec.spec.key()) for rec in kept]
    assert len(kept) == 10 and order != sorted(order)  # streamed, not rewritten
    return streamed, (root / "full.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(canonical=st.booleans(), data=st.data())
def test_a_results_file_cut_at_any_byte_resumes_to_the_full_bytes_or_is_named(
        tmp_path_factory, small_datasets, streamed_and_full, canonical, data):
    streamed, full = streamed_and_full
    whole = full if canonical else streamed
    ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
    cut = data.draw(st.one_of(
        st.integers(0, len(whole)),
        st.sampled_from(ends).flatmap(lambda end: st.integers(end - 1, min(end + 1, len(whole))))),
        label="cut")
    path = tmp_path_factory.mktemp("cut") / "r.csv"
    path.write_bytes(whole[:cut])
    try:
        run_grid(_STREAM_GRID, small_datasets, path, resume=True)
    except (ProbeforgeError, OSError, ValueError, KeyError) as exc:  # what main exits 2 on
        assert str(path) in str(exc)
    else:
        assert path.read_bytes() == full


def _stop_after(units):
    """A ``runner._run_unit`` that raises on its call number ``units + 1`` in a
    process: a run stopped after some units. Forked workers inherit it, and each
    counts its own calls."""
    real, calls = runner._run_unit, []

    def run_unit(specs, dataset):
        calls.append(specs)
        if len(calls) > units:
            raise RuntimeError("stopped")
        return real(specs, dataset)

    return run_unit


@settings(max_examples=25, deadline=None)
@given(stop=st.one_of(st.none(), st.integers(0, 7)), threads=st.sampled_from([1, 2]))
def test_streamed_rows_are_the_canonical_rows(
        tmp_path_factory, small_datasets, streamed_and_full, stop, threads):
    # A run stopped after some units, or one that runs through and is stopped
    # only before its rewrite: sorted into enumeration order, its streamed rows
    # are those specs' rows of the canonical file.
    _, full = streamed_and_full
    header, *canonical = full.splitlines(keepends=True)
    path = tmp_path_factory.mktemp("streamed") / "r.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "write_results_file", lambda path, records: None)
        if stop is not None:
            mp.setattr(runner, "_run_unit", _stop_after(stop))
        try:
            run_grid(_STREAM_GRID, small_datasets, path, threads=threads)
        except RuntimeError as exc:
            assert stop is not None and str(exc) == "stopped"
    streamed_header, *rows = path.read_bytes().splitlines(keepends=True)
    assert streamed_header == header
    at = {row: i for i, row in enumerate(canonical)}
    assert all(row in at for row in rows) and len(set(rows)) == len(rows)
    if threads == 1:  # units of two specs each
        assert len(rows) == 2 * (8 if stop is None else stop)
    if stop is None:
        assert header + b"".join(sorted(rows, key=at.get)) == full


#: A history's grids: a small one, a grown one (another model, class, sampler
#: and test size) and the grown one under another base seed.
_SMALL_HISTORY_GRID = GridSpec(
    fms=("alpha-s1",), classes=(ClassId.TREE_COVER,), samplers=(SamplerKind.RANDOM,),
    target_aois=("aoi-00", "aoi-01"), external_aois=("aoi-00", "aoi-01"),
    n_train_external=(20,), n_train_target=(20,), n_test_target=(15,), repetitions=2,
    base_seed=3,
)
_GROWN_HISTORY_GRID = dataclasses.replace(
    _SMALL_HISTORY_GRID, fms=("alpha-s1", "beta-s2"),
    classes=(ClassId.TREE_COVER, ClassId.BUILTUP),
    samplers=(SamplerKind.RANDOM, SamplerKind.SRTM), n_test_target=(15, 30))
_HISTORY_GRIDS = (_SMALL_HISTORY_GRID, _GROWN_HISTORY_GRID,
                  dataclasses.replace(_GROWN_HISTORY_GRID, base_seed=4))


@pytest.fixture(scope="module")
def history_fresh_bytes(tmp_path_factory, small_datasets):
    root = tmp_path_factory.mktemp("fresh")
    out = []
    for i, grid in enumerate(_HISTORY_GRIDS):
        run_grid(grid, small_datasets, root / f"{i}.csv")
        out.append((root / f"{i}.csv").read_bytes())
    return out


_attempts = st.tuples(
    st.sampled_from(range(len(_HISTORY_GRIDS))), st.sampled_from([1, 2]),
    st.one_of(st.none(), st.integers(0, 12)), st.booleans(),
).map(lambda t: dict(zip(("grid", "threads", "stop", "cut"), t)))


@settings(max_examples=30, deadline=None)
@given(attempts=st.lists(_attempts, min_size=1, max_size=4),
       last=st.sampled_from(range(len(_HISTORY_GRIDS))), threads=st.sampled_from([1, 2]),
       data=st.data())
def test_any_run_history_resumes_to_a_fresh_run_s_bytes(
        tmp_path_factory, small_datasets, history_fresh_bytes, attempts, last, threads, data):
    # The determinism contract over whole histories: runs stopped after some
    # units (inside a forked worker too), files cut at any byte, grids grown,
    # shrunk and reseeded, at one thread or two. A final resume writes a fresh
    # run's bytes of its grid. Every cut leaves the header or a torn prefix of
    # it, and every kept row is reproduced, so no attempt is refused.
    path = tmp_path_factory.mktemp("history") / "r.csv"
    for attempt in [*attempts, dict(grid=last, threads=threads, stop=None, cut=False)]:
        if attempt["cut"] and path.exists():
            whole = path.read_bytes()
            path.write_bytes(whole[:data.draw(st.integers(0, len(whole)), label="cut")])
        with pytest.MonkeyPatch.context() as mp:
            if attempt["stop"] is not None:
                mp.setattr(runner, "_run_unit", _stop_after(attempt["stop"]))
            try:
                run_grid(_HISTORY_GRIDS[attempt["grid"]], small_datasets, path,
                         threads=attempt["threads"], resume=True)
            except RuntimeError as exc:
                assert attempt["stop"] is not None and str(exc) == "stopped"
    assert path.read_bytes() == history_fresh_bytes[last]


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


# ids and labels with what a length-prefixed column must keep: the empty
# string, non-ASCII, line breaks, NUL and a lone surrogate (JSON can escape one)
_texts = st.text(st.one_of(st.characters(), st.sampled_from("\n\r\x00\u2028\ud800\u00e9")),
                 max_size=6)


@st.composite
def _chip_tables(draw):
    if draw(st.booleans()):
        spec = ingest.SynthSpec(n_chips=draw(st.integers(1, 30)), dim=2,
                                n_aois=draw(st.integers(1, 5)),
                                weight_seed=draw(st.integers(0, 2**32 - 1)),
                                data_seed=draw(st.integers(0, 2**32 - 1)))
        return ingest.synthesize_dataset(spec).table
    n = draw(st.integers(0, 12))
    column = st.lists(st.one_of(_values, st.sampled_from([0.0, -0.0, math.nan])),
                      min_size=n, max_size=n)
    # fractions in [0, 1]: a table that run would refuse gets no cache
    fraction = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 1.0])),
                        min_size=n, max_size=n)
    return ChipTable(
        chip_ids=tuple(draw(st.lists(_texts, min_size=n, max_size=n, unique=True))),
        aois=np.array(draw(st.lists(_texts, min_size=n, max_size=n)), dtype=object),
        lon=draw(column), lat=draw(column),
        fractions=np.array(draw(st.lists(fraction, min_size=7, max_size=7))).T.reshape(n, 7),
        elevations=draw(column),
    )


def _outcome_of_load(path):
    try:
        return load_chip_table(path)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def _floats(table):
    return [getattr(table, f).tobytes() for f in ("lon", "lat", "fractions", "elevations")]


@PROPERTY
@given(table=_chip_tables(), data=st.data())
def test_chip_table_served_from_its_cache_equals_the_parse(tmp_path_factory, table, data):
    lines = []
    for i, cid in enumerate(table.chip_ids):
        order = data.draw(st.permutations(range(7)), label="order")  # of the keys
        rec = {"chip_id": cid, "aoi": table.aois[i], "lon": float(table.lon[i]),
               "lat": float(table.lat[i]),
               "fractions": {ClassId(c).label: float(table.fractions[i, c]) for c in order},
               "elevation_m": float(table.elevations[i])}
        blank = data.draw(st.sampled_from(["", "", " ", "\t"]), label="blank")
        lines += [json.dumps(rec)] + ([blank] if blank else [])
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)), label="ends")
    blob = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    path = tmp_path_factory.mktemp("cols") / "chips.jsonl"
    path.write_bytes(blob)

    parsed = load_chip_table(path)
    assert parsed == table
    assert path.with_name("chips.jsonl.cols").exists()
    parse, ingest._parse_chips = ingest._parse_chips, None  # a parse now fails
    try:
        served = load_chip_table(path)
    finally:
        ingest._parse_chips = parse
    assert served == parsed and _floats(served) == _floats(parsed)
    assert served.aois.tolist() == parsed.aois.tolist()

    # any one-byte edit is parsed afresh: the same table, or the same refusal
    if blob:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
        edited = blob[:at] + bytes([byte]) + blob[at + 1:]
        path.write_bytes(edited)
        fresh = path.with_name("fresh.jsonl")
        fresh.write_bytes(edited)
        want = _outcome_of_load(fresh)
        got = _outcome_of_load(path)
        if isinstance(want, ChipTable):
            assert got == want and _floats(got) == _floats(want)
        else:
            assert got == (want[0], want[1].replace(str(fresh), str(path)))


_CHIPS = [f"c{i}" for i in range(10)]


@PROPERTY
@given(data=st.data())
def test_assemble_dataset_matches_a_loop_join(data):
    table_ids = data.draw(st.lists(st.sampled_from(_CHIPS), max_size=10, unique=True),
                          label="table_ids")
    emb_ids = data.draw(st.one_of(
        st.just(table_ids),
        st.permutations(table_ids),
        st.lists(st.sampled_from(_CHIPS), max_size=10, unique=True),
    ), label="emb_ids")
    aoi_pool = data.draw(st.lists(_labels, min_size=1, max_size=3, unique=True), label="pool")
    aois = data.draw(st.lists(st.sampled_from(aoi_pool), min_size=len(table_ids),
                              max_size=len(table_ids)), label="aois")
    n, m = len(table_ids), len(emb_ids)
    table = ChipTable(
        chip_ids=tuple(table_ids), aois=np.array(aois, dtype=object),
        lon=np.zeros(n), lat=np.zeros(n),
        fractions=np.arange(7.0 * n).reshape(n, 7), elevations=-np.arange(1.0 * n),
    )
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=tuple(emb_ids),
                       matrix=np.arange(3.0 * m, dtype=np.float32).reshape(m, 3))

    pairs = []  # (table row, embedding row) of every shared chip, in table order
    for t, cid in enumerate(table_ids):
        for e, eid in enumerate(emb_ids):
            if eid == cid:
                pairs.append((t, e))
    if not pairs:
        with pytest.raises(AlignmentError):
            assemble_dataset(table, emb)
        return
    ds = assemble_dataset(table, emb)

    t_rows = [t for t, _ in pairs]
    assert ds.chip_ids == tuple(table_ids[t] for t in t_rows)
    assert ds.matrix.dtype == emb.matrix.dtype
    assert np.array_equal(ds.matrix, np.array([emb.matrix[e] for _, e in pairs]))
    assert np.array_equal(ds.fractions, np.array([table.fractions[t] for t in t_rows]))
    assert np.array_equal(ds.elevations, np.array([table.elevations[t] for t in t_rows]))
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(t_rows):
        groups.setdefault(aois[t], []).append(i)
    assert list(ds.aoi_positions) == sorted(groups)
    for label, positions in ds.aoi_positions.items():
        assert positions.tolist() == groups[label]
        assert not positions.flags.writeable
    for a in (ds.matrix, ds.fractions, ds.elevations):
        assert not a.flags.writeable


# ---------------------------------------------------------------------------
# metrics against their np.std / np.mean forms


def _pearson_reference(a, b):
    """``metrics.pearson`` as it was written with ``np.std`` and ``mean``."""
    va, vb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if np.std(va) <= DEGENERATE_STD or np.std(vb) <= DEGENERATE_STD:
        raise DegenerateVarianceError("degenerate variance")
    da = va - va.mean()
    db = vb - vb.mean()
    return float((da @ db) / np.sqrt((da @ da) * (db @ db)))


def _rmse_reference(a, b):
    va, vb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean((va - vb) ** 2)))


def _outcome(fn, *args):
    """The result's bits (any NaN counts as one value), or the error raised."""
    try:
        x = fn(*args)
    except DegenerateVarianceError:
        return "degenerate"
    return "nan" if math.isnan(x) else struct.pack("<d", x)


@st.composite
def _vectors(draw, n):
    kind = draw(st.sampled_from(["any", "constant", "near-constant", "special"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e6, 1e6)))
    if kind == "near-constant":
        base = draw(st.floats(-1e3, 1e3))
        scale = 10.0 ** draw(st.integers(-18, -9))
        rng = np.random.default_rng(draw(seeds))
        return base + scale * rng.standard_normal(n)
    elements = st.floats(-1e6, 1e6, allow_subnormal=True)
    if kind == "special":
        elements = st.one_of(elements, st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64)


@PROPERTY
@given(n=st.integers(2, 40), data=st.data())
def test_metrics_match_their_np_std_forms(n, data):
    a = data.draw(_vectors(n), label="a")
    b = data.draw(_vectors(n), label="b")
    with np.errstate(all="ignore"):
        assert _outcome(pearson, a, b) == _outcome(_pearson_reference, a, b)
        assert _outcome(rmse, a, b) == _outcome(_rmse_reference, a, b)
        # fit's intercept rests on the same identity for the target mean
        assert _outcome(lambda v: float(np.add.reduce(v) / v.shape[0]), a) == \
            _outcome(lambda v: float(v.mean()), a)


# ---------------------------------------------------------------------------
# loading only what a grid reads


@PROPERTY
@given(data=st.data())
def test_filtered_load_matches_a_loop_join_of_the_read_aois(tmp_path_factory, data):
    table_ids = data.draw(st.lists(st.sampled_from(_CHIPS), min_size=1, max_size=10,
                                   unique=True), label="table_ids")
    emb_ids = data.draw(st.one_of(
        st.just(table_ids),
        st.permutations(table_ids),
        st.lists(st.sampled_from(_CHIPS), min_size=1, max_size=10, unique=True),
    ), label="emb_ids")
    n, m = len(table_ids), len(emb_ids)
    aois = data.draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n),
                     label="aois")
    read = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(["x", "y", "z", "w"]))),
                     label="read")
    # a second model the grid does not read, whose index may share the read one's join
    unread_ids = data.draw(st.one_of(
        st.just(emb_ids),
        st.permutations(emb_ids),
        st.just([f"u{cid}" for cid in emb_ids]),
    ), label="unread_ids")
    block_rows = data.draw(st.sampled_from([1, 2, 3, 1 << 20]), label="block_rows")
    table = ChipTable(
        chip_ids=tuple(table_ids), aois=np.array(aois, dtype=object),
        lon=np.zeros(n), lat=np.zeros(n),
        fractions=np.linspace(0.0, 0.1, 7 * n).reshape(n, 7), elevations=-np.arange(1.0 * n),
    )
    matrix = np.arange(3.0 * m, dtype=np.float32).reshape(m, 3)
    root = tmp_path_factory.mktemp("filtered")
    (root / "embeddings").mkdir()
    save_chip_table(table, root / "chips.jsonl")
    for fm_id, ids, m in (("m-s2", emb_ids, matrix), ("u-s2", unread_ids, -matrix)):
        save_embeddings(EmbeddingSet(fm_id=fm_id, chip_ids=tuple(ids), matrix=m),
                        root / "embeddings" / f"{fm_id}.emb", root / "embeddings" / f"{fm_id}.idx")
    saved = ingest._BLOCK_BYTES
    ingest._BLOCK_BYTES = 4 * 3 * block_rows
    try:
        if not set(table_ids) & set(emb_ids) or not set(table_ids) & set(unread_ids):
            with pytest.raises(AlignmentError):
                ingest.load_dataset_dir(root, {"m-s2"}, read)
            return
        ds = ingest.load_dataset_dir(root, {"m-s2"}, read)["m-s2"]
    finally:
        ingest._BLOCK_BYTES = saved

    rows = [t for t, cid in enumerate(table_ids)
            if cid in emb_ids and (read is None or aois[t] in read)]
    assert ds.chip_ids == tuple(table_ids[t] for t in rows)
    assert np.array_equal(ds.matrix.reshape(-1, 3),
                          np.array([matrix[emb_ids.index(table_ids[t])] for t in rows]
                                   ).reshape(-1, 3))
    assert np.array_equal(ds.fractions, table.fractions[rows])
    assert np.array_equal(ds.elevations, table.elevations[rows])
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(rows):
        groups.setdefault(aois[t], []).append(i)
    assert {a: p.tolist() for a, p in ds.aoi_positions.items()} == groups

"""Shared fixtures: small synthetic datasets and record builders."""

from __future__ import annotations

import probeforge  # noqa: F401  first, so its BLAS pin is set before numpy loads

import concurrent.futures
from concurrent.futures import Future

import numpy as np
import pytest

import probeforge.runner as runner_mod
from probeforge.core import ClassId
from probeforge.ingest import SynthSpec, synthesize_dataset
from probeforge.runner import AggregateRecord, ExperimentSpec
from probeforge.sampling import SamplerKind


@pytest.fixture(scope="session")
def small_synth():
    """400 chips, 16-dim, 4 AOIs, two models (second one uninformative)."""
    spec = SynthSpec(
        n_chips=400, dim=16, noise_sigma=0.4, weight_seed=21, data_seed=22,
        n_aois=4, fm_ids=("alpha-s1", "beta-s2"),
    )
    return synthesize_dataset(spec)


@pytest.fixture(scope="session")
def small_datasets(small_synth):
    return {fm: small_synth.dataset(fm) for fm in small_synth.spec.fm_ids}


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make ``run_grid``'s process pool run each task in this process, at submit.

    Returns the list of the pool sizes ``run_grid`` asks for.
    """
    started = []

    class InProcessPool:
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
    return started


def make_record(
    fm_id="alpha-s1",
    class_id=ClassId.TREE_COVER,
    regime="target-split",
    target_aoi="aoi-00",
    train_aoi=None,
    sampler=SamplerKind.RANDOM,
    n_train=50,
    n_test=10,
    repetitions=20,
    base_seed=1,
    r_mean=0.8,
    r_std=0.03,
    rmse_mean=0.1,
    rmse_std=0.01,
    degenerate_runs=0,
    infeasible=False,
):
    spec = ExperimentSpec(
        fm_id=fm_id, class_id=class_id, regime=regime, target_aoi=target_aoi,
        train_aoi=train_aoi, sampler=sampler, n_train=n_train, n_test=n_test,
        repetitions=repetitions, base_seed=base_seed,
    )
    return AggregateRecord(
        spec=spec, r_mean=r_mean, r_std=r_std, rmse_mean=rmse_mean,
        rmse_std=rmse_std, degenerate_runs=degenerate_runs, infeasible=infeasible,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

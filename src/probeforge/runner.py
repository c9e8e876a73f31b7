"""Experiment grid enumeration, execution, and deterministic persistence.

One *spec* is a fully determined experiment: model, class, training regime,
sampler, sizes, repetition count. Two regimes exist:

* ``external`` trains on one AOI and tests on a different one (self-pairs
  are never enumerated); the test set is always a uniform random draw.
* ``target-split`` carves disjoint test and train sets out of a single
  AOI, test drawn first.

Each spec derives its own seed from the grid's base seed and the spec's
canonical key, and each repetition derives from the spec seed, so results
are independent of execution order and of how many workers run. The runner
streams one CSV row per finished spec (appendable; a crash can tear at most
the final row, which a resume drops) and then rewrites the file in
canonical enumeration order with wall times zeroed, making completed result
files byte-comparable across parallelism levels.
Wall-clock measurements still reach the log and the streaming rows; they
are deliberately absent from the canonical artifact.
"""

from __future__ import annotations

import csv
import itertools
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import ClassId, Dataset
from .errors import DataFormatError, DegenerateVarianceError, GridError
from .metrics import RunMetrics, aggregate, pearson, rmse
from .probe import fit, predict
from .sampling import SampleRequest, SamplerKind, draw, split_target
from .seeds import derive_seed

logger = logging.getLogger(__name__)

REGIME_EXTERNAL = "external"
REGIME_TARGET_SPLIT = "target-split"
REGIMES = (REGIME_EXTERNAL, REGIME_TARGET_SPLIT)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully determined experiment (sans data)."""

    fm_id: str
    class_id: ClassId
    regime: str
    target_aoi: str
    sampler: SamplerKind
    n_train: int
    n_test: int
    repetitions: int
    base_seed: int
    train_aoi: str | None = None

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == REGIME_EXTERNAL:
            if self.train_aoi is None:
                raise ValueError("external regime requires a train_aoi")
            if self.train_aoi == self.target_aoi:
                raise ValueError(
                    f"external regime forbids train_aoi == target_aoi ({self.target_aoi!r})"
                )
        elif self.train_aoi is not None:
            raise ValueError("target-split regime takes no train_aoi")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be positive")
        if self.repetitions < 2:
            raise ValueError("repetitions must be at least 2")

    def key(self) -> str:
        """Canonical encoding; the resume identity and the seed tag."""
        return (
            f"regime={self.regime};fm={self.fm_id};class={self.class_id.label};"
            f"train={self.train_aoi or '-'};target={self.target_aoi};"
            f"sampler={self.sampler.value};n_train={self.n_train};"
            f"n_test={self.n_test};reps={self.repetitions}"
        )

    def seed(self) -> int:
        return derive_seed(self.base_seed, self.key())


@dataclass(frozen=True)
class GridSpec:
    """Axis lists whose product defines the experiment grid.

    ``regimes`` selects which of the two training regimes to enumerate
    (both by default); each regime only consumes its own axes, so a
    target-split-only grid may leave ``external_aois`` and
    ``n_train_external`` empty.
    """

    fms: tuple[str, ...]
    classes: tuple[ClassId, ...]
    samplers: tuple[SamplerKind, ...]
    target_aois: tuple[str, ...]
    n_test_target: tuple[int, ...]
    regimes: tuple[str, ...] = REGIMES
    external_aois: tuple[str, ...] = ()
    n_train_external: tuple[int, ...] = ()
    n_train_target: tuple[int, ...] = ()
    repetitions: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("fms", "classes", "samplers", "target_aois", "n_test_target",
                     "regimes", "external_aois", "n_train_external", "n_train_target"):
            values = tuple(getattr(self, name))
            if len(set(values)) != len(values):
                raise GridError(f"duplicate values in axis {name}: {list(values)}")
            object.__setattr__(self, name, values)
        unknown = [r for r in self.regimes if r not in REGIMES]
        if unknown:
            raise GridError(f"unknown regimes: {unknown}")
        if not self.regimes:
            raise GridError("empty axis: regimes")
        if self.repetitions < 2:
            raise GridError("repetitions must be at least 2")

    @classmethod
    def from_dict(cls, d: Mapping) -> "GridSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise GridError(f"unknown grid keys: {unknown}")
        kwargs = dict(d)
        try:
            if "classes" in kwargs:
                kwargs["classes"] = tuple(
                    ClassId.from_label(c) for c in kwargs["classes"]
                )
            if "samplers" in kwargs:
                kwargs["samplers"] = tuple(
                    SamplerKind(s) for s in kwargs["samplers"]
                )
        except ValueError as exc:
            raise GridError(str(exc)) from exc
        return cls(**kwargs)


#: Nothing in an AggregateRecord beyond these fields enters the results file.
CSV_COLUMNS = (
    "fm_id", "class", "regime", "train_aoi", "target_aoi", "sampler",
    "n_train", "n_test", "repetitions", "r_mean", "r_std", "rmse_mean",
    "rmse_std", "degenerate_runs", "infeasible", "wall_ms", "base_seed",
)


@dataclass(frozen=True)
class AggregateRecord:
    """One results row: the spec echoed plus aggregated metrics.

    ``wall_ms`` is measurement noise, not a result, so it is excluded from
    equality and zeroed in canonical files.
    """

    spec: ExperimentSpec
    r_mean: float = float("nan")
    r_std: float = float("nan")
    rmse_mean: float = float("nan")
    rmse_std: float = float("nan")
    degenerate_runs: int = 0
    infeasible: bool = False
    wall_ms: float = field(default=0.0, compare=False)

    @property
    def total_elements(self) -> int:
        return self.spec.n_train + self.spec.n_test


def fmt_float(x: float) -> str:
    return format(float(x), ".6g")


def record_to_row(rec: AggregateRecord, zero_wall: bool = False) -> list[str]:
    s = rec.spec
    return [
        s.fm_id,
        s.class_id.label,
        s.regime,
        s.train_aoi or "",
        s.target_aoi,
        s.sampler.value,
        str(s.n_train),
        str(s.n_test),
        str(s.repetitions),
        fmt_float(rec.r_mean),
        fmt_float(rec.r_std),
        fmt_float(rec.rmse_mean),
        fmt_float(rec.rmse_std),
        str(rec.degenerate_runs),
        "true" if rec.infeasible else "false",
        fmt_float(0.0 if zero_wall else rec.wall_ms),
        str(s.base_seed),
    ]


def record_from_row(row: Sequence[str]) -> AggregateRecord:
    if len(row) != len(CSV_COLUMNS):
        raise DataFormatError(
            f"results row has {len(row)} fields, expected {len(CSV_COLUMNS)}"
        )
    (fm_id, class_label, regime, train_aoi, target_aoi, sampler, n_train,
     n_test, repetitions, r_mean, r_std, rmse_mean, rmse_std,
     degenerate_runs, infeasible, wall_ms, base_seed) = row
    if infeasible not in ("true", "false"):
        raise DataFormatError(f"bad infeasible flag {infeasible!r}")
    spec = ExperimentSpec(
        fm_id=fm_id,
        class_id=ClassId.from_label(class_label),
        regime=regime,
        train_aoi=train_aoi or None,
        target_aoi=target_aoi,
        sampler=SamplerKind(sampler),
        n_train=int(n_train),
        n_test=int(n_test),
        repetitions=int(repetitions),
        base_seed=int(base_seed),
    )
    return AggregateRecord(
        spec=spec,
        r_mean=float(r_mean),
        r_std=float(r_std),
        rmse_mean=float(rmse_mean),
        rmse_std=float(rmse_std),
        degenerate_runs=int(degenerate_runs),
        infeasible=infeasible == "true",
        wall_ms=float(wall_ms),
    )


def write_results_file(path: str | Path, records: Sequence[AggregateRecord]) -> None:
    """Write the canonical results CSV (record order is the file order)."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow(record_to_row(rec, zero_wall=True))
    os.replace(tmp, path)


def parse_results_file(path: str | Path) -> list[AggregateRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty results file") from None
        if tuple(header) != CSV_COLUMNS:
            raise DataFormatError(f"{path}: unexpected results header {header}")
        out = []
        for i, row in enumerate(reader, start=2):
            try:
                out.append(record_from_row(row))
            except (DataFormatError, ValueError) as exc:
                raise DataFormatError(f"{path}: line {i}: {exc}") from exc
    return out


#: Per regime, the (ExperimentSpec field, GridSpec axis) pairs whose product
#: it enumerates, outermost first.
_REGIME_AXES = {
    REGIME_EXTERNAL: (
        ("fm_id", "fms"), ("class_id", "classes"), ("train_aoi", "external_aois"),
        ("target_aoi", "target_aois"), ("sampler", "samplers"),
        ("n_train", "n_train_external"), ("n_test", "n_test_target"),
    ),
    REGIME_TARGET_SPLIT: (
        ("fm_id", "fms"), ("class_id", "classes"), ("target_aoi", "target_aois"),
        ("sampler", "samplers"), ("n_train", "n_train_target"),
        ("n_test", "n_test_target"),
    ),
}


def enumerate_grid(grid: GridSpec) -> list[ExperimentSpec]:
    """Cartesian product over each selected regime's applicable axes.

    External regime skips self-pairs (train AOI equal to target AOI).
    Feasibility against actual AOI sizes is the runner's concern; every
    enumerated spec is executed and, at worst, recorded infeasible.
    """
    specs: list[ExperimentSpec] = []
    for regime in grid.regimes:
        names, axes = zip(*_REGIME_AXES[regime])
        for axis in axes:
            if not getattr(grid, axis):
                raise GridError(f"empty axis for {regime} regime: {axis}")
        for values in itertools.product(*(getattr(grid, axis) for axis in axes)):
            kw = dict(zip(names, values))
            if kw.get("train_aoi") == kw["target_aoi"]:
                continue
            specs.append(ExperimentSpec(
                regime=regime, repetitions=grid.repetitions,
                base_seed=grid.base_seed, **kw,
            ))
    return specs


def _aux_for(kind: SamplerKind, ds: Dataset, pos: np.ndarray) -> dict:
    if kind == SamplerKind.ESAWC:
        return {"fractions": ds.fractions[pos]}
    if kind == SamplerKind.FPS:
        return {"embeddings": ds.matrix[pos]}
    if kind == SamplerKind.SRTM:
        return {"elevations": ds.elevations[pos]}
    return {}


_NO_POSITIONS = np.zeros(0, dtype=np.intp)


def run_experiment(spec: ExperimentSpec, dataset: Dataset) -> AggregateRecord:
    """Execute one spec: repeated resample, fit, predict, aggregate.

    Sizes the AOIs cannot supply, including an AOI this dataset lacks,
    yield an infeasible record; repetitions whose test-side variance
    vanishes are counted degenerate and excluded, and when fewer than two
    usable repetitions remain the metric fields stay NaN.
    """
    t0 = time.perf_counter()
    target_pos = dataset.aoi_positions.get(spec.target_aoi, _NO_POSITIONS)

    if spec.regime == REGIME_EXTERNAL:
        train_pos_all = dataset.aoi_positions.get(spec.train_aoi, _NO_POSITIONS)
        feasible = (
            spec.n_train <= train_pos_all.size and spec.n_test <= target_pos.size
        )
    else:
        train_pos_all = target_pos  # split_target carves both sets from it
        feasible = spec.n_train + spec.n_test <= target_pos.size
    if not feasible:
        wall = (time.perf_counter() - t0) * 1000.0
        return AggregateRecord(spec=spec, infeasible=True, wall_ms=wall)

    y_all = dataset.fractions[:, spec.class_id.value]
    aux = _aux_for(spec.sampler, dataset, train_pos_all)
    spec_seed = spec.seed()
    runs: list[RunMetrics] = []
    degenerate = 0
    for r in range(spec.repetitions):
        rep_seed = derive_seed(spec_seed, "rep", r)
        if spec.regime == REGIME_EXTERNAL:
            train = draw(SampleRequest(
                train_pos_all, spec.n_train, derive_seed(rep_seed, "train"),
                spec.sampler, **aux,
            ))
            test = draw(SampleRequest(
                target_pos, spec.n_test, derive_seed(rep_seed, "test"),
                SamplerKind.RANDOM,
            ))
        else:
            test, train = split_target(
                target_pos, spec.n_test, spec.n_train, spec.sampler, rep_seed, **aux,
            )
        probe = fit(dataset.matrix[train], y_all[train])
        pred = predict(probe, dataset.matrix[test])
        truth = y_all[test]
        try:
            r_val = pearson(pred, truth)
        except DegenerateVarianceError:
            degenerate += 1
            continue
        runs.append(RunMetrics(pearson_r=r_val, rmse=rmse(pred, truth)))

    metrics = asdict(aggregate(runs)) if len(runs) >= 2 else {}
    wall = (time.perf_counter() - t0) * 1000.0
    return AggregateRecord(spec=spec, degenerate_runs=degenerate, wall_ms=wall, **metrics)


# Worker-process state, installed once per worker by the pool initializer so
# specs travel light.
_POOL_DATA: Mapping[str, Dataset] = {}


def _init_pool(datasets: Mapping[str, Dataset]) -> None:
    global _POOL_DATA
    _POOL_DATA = datasets
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(1)
    except ImportError:
        pass


def _run_one(spec: ExperimentSpec) -> AggregateRecord:
    return run_experiment(spec, _POOL_DATA[spec.fm_id])


def _drop_torn_row(path: Path) -> int:
    """Cut a final line that lacks its newline: a row cut short by a crash.

    Returns the byte length that remains.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n") or not data:
            return len(data)
        keep = data.rfind(b"\n") + 1
        logger.warning("%s: dropping torn final line %r",
                       path, data[keep:].decode("utf-8", "replace"))
        fh.truncate(keep)
        return keep


def run_grid(
    grid: GridSpec,
    datasets: Mapping[str, Dataset],
    out_path: str | Path,
    threads: int = 1,
    resume: bool = False,
) -> list[AggregateRecord]:
    """Execute every grid spec and persist the canonical results file.

    With ``resume``, rows already present in ``out_path`` (matching spec
    key and base seed) are kept and only missing specs execute; a final
    row without its newline, torn by a crash, is dropped first, and a file
    left empty starts over with a fresh header. While running, finished
    rows are appended immediately with measured wall times; on completion
    the whole file is rewritten in enumeration order with wall times
    zeroed, so the final bytes depend only on grid and data. The first
    failing spec cancels the queued ones and propagates; rows streamed
    before it stay for a later resume. Returns records in canonical order.
    """
    specs = enumerate_grid(grid)
    missing_fms = sorted({s.fm_id for s in specs} - set(datasets))
    if missing_fms:
        raise GridError(f"grid references models absent from data: {missing_fms}")
    used = {s.target_aoi for s in specs} | {s.train_aoi for s in specs if s.train_aoi}
    missing_aois = sorted(used.difference(*(ds.aoi_positions for ds in datasets.values())))
    if missing_aois:
        raise GridError(f"grid references AOIs absent from every dataset: {missing_aois}")

    out_path = Path(out_path)
    done: dict[str, AggregateRecord] = {}
    append = resume and out_path.exists() and _drop_torn_row(out_path) > 0
    if append:
        for rec in parse_results_file(out_path):
            if rec.spec.base_seed != grid.base_seed:
                logger.warning(
                    "ignoring resumed row with foreign base_seed %d: %s",
                    rec.spec.base_seed, rec.spec.key(),
                )
                continue
            done[rec.spec.key()] = rec

    todo = [s for s in specs if s.key() not in done]
    stale = len(done) - (len(specs) - len(todo))
    if stale > 0:
        logger.warning("%d resumed rows do not match any grid spec; dropping", stale)
    if resume and not todo:
        logger.info("all specs present; nothing to run")
    else:
        logger.info(
            "running %d of %d specs (%d resumed) with %d worker(s)",
            len(todo), len(specs), len(specs) - len(todo), max(1, threads),
        )

    with open(out_path, "a" if append else "w", encoding="utf-8", newline="") as stream_fh:
        writer = csv.writer(stream_fh, lineterminator="\n")
        if not append:
            writer.writerow(CSV_COLUMNS)
            stream_fh.flush()

        def _collect(rec: AggregateRecord, i: int) -> None:
            done[rec.spec.key()] = rec
            writer.writerow(record_to_row(rec))
            stream_fh.flush()
            logger.info(
                "[%d/%d] %s r_mean=%s wall=%.1fms",
                i, len(todo), rec.spec.key(), fmt_float(rec.r_mean), rec.wall_ms,
            )

        if threads <= 1 or len(todo) <= 1:
            for i, spec in enumerate(todo, start=1):
                _collect(run_experiment(spec, datasets[spec.fm_id]), i)
        else:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            with ProcessPoolExecutor(
                max_workers=threads, mp_context=ctx,
                initializer=_init_pool, initargs=(datasets,),
            ) as pool:
                futures = [pool.submit(_run_one, s) for s in todo]
                try:
                    for i, fut in enumerate(as_completed(futures), start=1):
                        _collect(fut.result(), i)
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise

    records = [done[s.key()] for s in specs]
    write_results_file(out_path, records)
    return records

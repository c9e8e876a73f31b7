"""Experiment grid enumeration, execution, and deterministic persistence.

One *spec* is a fully determined experiment: model, class, training regime,
sampler, sizes, repetition count. Two regimes exist:

* ``external`` trains on one AOI and tests on a different one (self-pairs
  are never enumerated).
* ``target-split`` carves disjoint test and train sets out of a single
  AOI, test drawn first.

In both, the test set is a uniform random draw from the target AOI. Each
spec derives its seed from the grid's base seed and the spec's *draw key*,
its canonical key without the class, and each repetition derives its test
and train seeds from that one (``ExperimentSpec.draw_seeds``), so results
are independent of execution order and of how many workers run. Specs that
differ only in class therefore draw the same train and test chips in every
repetition; the runner runs them as one draw group, which factorizes each
training matrix once and solves it per class. The
runner streams one CSV row per finished spec (appendable; a crash can tear
at most the final row, which a resume drops) and then rewrites the file in
canonical enumeration order with wall times zeroed, making completed result
files byte-comparable across parallelism levels.
Wall-clock measurements still reach the log and the streaming rows; they
are deliberately absent from the canonical artifact. The spec, its record
and the results file itself are defined in ``schema``.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, check_json_fields
from .errors import DataFormatError, DegenerateVarianceError, GridError
from .metrics import RunMetrics, aggregate, pearson, rmse
from .probe import factorize, fit, predict
from .sampling import SampleRequest, draw, split_target
from .schema import (
    CSV_COLUMNS,
    REGIME_EXTERNAL,
    REGIME_TARGET_SPLIT,
    REGIMES,
    AggregateRecord,
    ClassId,
    ExperimentSpec,
    SamplerKind,
    csv_text,
    fmt_float,
    parse_results_file,
    record_to_row,
    write_results_file,
)

logger = logging.getLogger(__name__)


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
            values = getattr(self, name)
            if isinstance(values, str):
                raise GridError(f"axis {name} must be a list, got the string {values!r}")
            values = tuple(values)
            if len(set(values)) != len(values):
                raise GridError(f"duplicate values in axis {name}: {list(values)}")
            object.__setattr__(self, name, values)
        for name in ("n_test_target", "n_train_external", "n_train_target"):
            small = [v for v in getattr(self, name) if v < 2]
            if small:
                raise GridError(f"axis {name} needs sizes of at least 2, got {small}")
        unknown = [r for r in self.regimes if r not in REGIMES]
        if unknown:
            raise GridError(f"unknown regimes: {unknown}")
        if not self.regimes:
            raise GridError("empty axis: regimes")
        if self.repetitions < 2:
            raise GridError("repetitions must be at least 2")
        if not 0 <= self.base_seed < 2**64:
            raise GridError(f"base_seed must be in [0, 2**64), got {self.base_seed}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "GridSpec":
        """Build a grid from parsed JSON, naming the key of any malformed entry."""
        check_json_fields(cls, d, "grid", GridError)
        try:
            classes = tuple(map(ClassId.from_label, d["classes"]))
            samplers = tuple(map(SamplerKind, d["samplers"]))
        except ValueError as exc:
            raise GridError(str(exc)) from exc
        return cls(**{**d, "classes": classes, "samplers": samplers})


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


def grid_reads(specs: Sequence[ExperimentSpec]) -> tuple[frozenset[str], frozenset[str]]:
    """The models and the AOIs that ``specs`` read: all the data a run loads."""
    fms = frozenset(s.fm_id for s in specs)
    aois = frozenset(a for s in specs for a in (s.target_aoi, s.train_aoi) if a)
    return fms, aois


def _aux_for(kind: SamplerKind, ds: Dataset, pos: np.ndarray) -> dict:
    if kind == SamplerKind.ESAWC:
        return {"fractions": ds.fractions[pos]}
    if kind == SamplerKind.FPS:
        return {"embeddings": ds.matrix[pos]}
    if kind == SamplerKind.SRTM:
        return {"elevations": ds.elevations[pos]}
    return {}


_NO_POSITIONS = np.zeros(0, dtype=np.intp)


@dataclass
class SpecRuns:
    """One spec's share of a draw group run: what its record aggregates."""

    runs: list[RunMetrics] = field(default_factory=list)
    degenerate: int = 0
    infeasible: bool = False
    wall_ms: float = 0.0


def _run_draw_group(specs: Sequence[ExperimentSpec], dataset: Dataset) -> list[SpecRuns]:
    """Run specs that share one draw key, repetition by repetition.

    Each repetition draws once, gathers the train and test rows once and
    factorizes the training matrix once; then every spec fits, predicts and
    scores its own class. Sizes the AOIs cannot supply, including an AOI
    this dataset lacks, make every spec infeasible; repetitions whose
    test-side variance vanishes are counted degenerate and excluded. Each
    spec's ``wall_ms`` is an equal share of the group's wall time.
    """
    t0 = time.perf_counter()
    spec = specs[0]
    target_pos = dataset.aoi_positions.get(spec.target_aoi, _NO_POSITIONS)
    if spec.regime == REGIME_EXTERNAL:
        train_pos_all = dataset.aoi_positions.get(spec.train_aoi, _NO_POSITIONS)
        feasible = (
            spec.n_train <= train_pos_all.size and spec.n_test <= target_pos.size
        )
    else:
        train_pos_all = target_pos  # split_target draws the train set from it
        feasible = spec.n_train + spec.n_test <= target_pos.size

    shares = [SpecRuns(infeasible=not feasible) for _ in specs]
    if feasible:
        targets = [dataset.fractions[:, s.class_id.value] for s in specs]
        aux = _aux_for(spec.sampler, dataset, train_pos_all)
        for r in range(spec.repetitions):
            test_seed, train_seed = spec.draw_seeds(r)
            test = draw(SampleRequest(target_pos, spec.n_test, test_seed, SamplerKind.RANDOM))
            if spec.regime == REGIME_EXTERNAL:
                train = draw(SampleRequest(
                    train_pos_all, spec.n_train, train_seed, spec.sampler, **aux,
                ))
            else:
                train = split_target(
                    target_pos, test, spec.n_train, spec.sampler, train_seed, **aux,
                )
            train_svd = factorize(dataset.matrix[train])
            test_matrix = dataset.matrix[test].astype(np.float64)
            for share, y_all in zip(shares, targets):
                pred = predict(fit(train_svd, y_all[train]), test_matrix)
                truth = y_all[test]
                try:
                    r_val = pearson(pred, truth)
                except DegenerateVarianceError:
                    share.degenerate += 1
                    continue
                share.runs.append(RunMetrics(pearson_r=r_val, rmse=rmse(pred, truth)))

    wall = (time.perf_counter() - t0) * 1000.0 / len(specs)
    for share in shares:
        share.wall_ms = wall
    return shares


def run_experiment(spec: ExperimentSpec, dataset: Dataset,
                   share: SpecRuns | None = None) -> AggregateRecord:
    """One spec's results row: repeated resample, fit, predict, aggregate.

    ``run_grid`` passes the spec's ``share`` of its draw group. Alone, the
    spec runs as a group of one, which gives the same record: its draws
    depend only on its draw key, and its fits only on its own class. When
    fewer than two usable repetitions remain the metric fields stay NaN.
    """
    if share is None:
        share = _run_draw_group([spec], dataset)[0]
    metrics = asdict(aggregate(share.runs)) if len(share.runs) >= 2 else {}
    return AggregateRecord(spec=spec, degenerate_runs=share.degenerate,
                           infeasible=share.infeasible, wall_ms=share.wall_ms, **metrics)


def _run_group(specs: Sequence[ExperimentSpec], dataset: Dataset) -> list[AggregateRecord]:
    shares = _run_draw_group(specs, dataset)
    return [run_experiment(s, dataset, share) for s, share in zip(specs, shares)]


# Worker-process state, installed once per worker by the pool initializer so
# specs travel light.
_POOL_DATA: Mapping[str, Dataset] = {}


def _init_pool(datasets: Mapping[str, Dataset]) -> None:
    global _POOL_DATA
    _POOL_DATA = datasets


def _run_one(specs: list[ExperimentSpec]) -> list[AggregateRecord]:
    return _run_group(specs, _POOL_DATA[specs[0].fm_id])


def _check_resumed_row(path: Path, line: int, kept: AggregateRecord,
                       dataset: Dataset) -> None:
    """Re-run a kept row's spec; a row these inputs do not reproduce stops the resume."""
    again = run_experiment(kept.spec, dataset)
    if record_to_row(again, zero_wall=True) != record_to_row(kept, zero_wall=True):
        raise DataFormatError(
            f"{path}: line {line}: kept row is not reproduced by re-running its spec"
            f" on this data ({kept.spec.key()}); rerun without --resume"
        )


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

    Specs still to run are grouped by draw key, and each group runs as one
    task (see ``_run_draw_group``) on one of ``threads`` worker processes,
    or fewer when there are fewer groups. With ``resume``, rows already present
    in ``out_path`` (matching spec key and base seed) are kept and only
    missing specs execute; a final row without its newline, torn by a
    crash, is dropped first, and a file left empty starts over with a fresh
    header. The first kept row in canonical order is re-run first, and a
    mismatch (other data, or another seed scheme) raises
    ``DataFormatError``. While running, finished rows are appended
    immediately with measured wall times; on completion the whole file is
    rewritten in enumeration order with wall times zeroed, so the final
    bytes depend only on grid and data. The first failing group stops the
    run, and no further group starts; rows streamed before it stay for a
    later resume. Returns records in canonical order.
    """
    specs = enumerate_grid(grid)
    fms, aois = grid_reads(specs)
    missing_fms = sorted(fms - set(datasets))
    if missing_fms:
        raise GridError(f"grid references models absent from data: {missing_fms}")
    missing_aois = sorted(aois.difference(*(ds.aoi_positions for ds in datasets.values())))
    if missing_aois:
        raise GridError(f"grid references AOIs absent from every dataset: {missing_aois}")

    out_path = Path(out_path)
    done: dict[str, AggregateRecord] = {}
    lines: dict[str, int] = {}
    append = resume and out_path.exists() and _drop_torn_row(out_path) > 0
    if append:
        for line, rec in enumerate(parse_results_file(out_path), start=2):
            if rec.spec.base_seed != grid.base_seed:
                logger.warning(
                    "ignoring resumed row with foreign base_seed %d: %s",
                    rec.spec.base_seed, rec.spec.key(),
                )
                continue
            done[rec.spec.key()] = rec
            lines[rec.spec.key()] = line
        first = next((s for s in specs if s.key() in done), None)
        if first is not None:
            _check_resumed_row(out_path, lines[first.key()], done[first.key()],
                               datasets[first.fm_id])

    todo = [s for s in specs if s.key() not in done]
    groups: dict[str, list[ExperimentSpec]] = {}
    for s in todo:
        groups.setdefault(s.draw_key(), []).append(s)
    # The pool starts every worker at once and each holds the datasets: no idle ones.
    workers = max(1, min(threads, len(groups)))
    stale = len(done) - (len(specs) - len(todo))
    if stale > 0:
        logger.warning("%d resumed rows do not match any grid spec; dropping", stale)
    if resume and not todo:
        logger.info("all specs present; nothing to run")
    else:
        logger.info(
            "running %d of %d specs (%d resumed) in %d draw groups with %d worker(s)",
            len(todo), len(specs), len(specs) - len(todo), len(groups), workers,
        )

    with open(out_path, "a" if append else "w", encoding="utf-8", newline="") as stream_fh:
        if not append:
            stream_fh.write(csv_text([CSV_COLUMNS]))
            stream_fh.flush()

        progress = itertools.count(1)

        def _collect(recs: list[AggregateRecord]) -> None:
            for rec in recs:
                done[rec.spec.key()] = rec
                stream_fh.write(csv_text([record_to_row(rec)]))
                stream_fh.flush()
                logger.info(
                    "[%d/%d] %s r_mean=%s wall=%.1fms", next(progress), len(todo),
                    rec.spec.key(), fmt_float(rec.r_mean), rec.wall_ms,
                )

        if workers == 1:
            for group in groups.values():
                _collect(_run_group(group, datasets[group[0].fm_id]))
        else:
            import multiprocessing
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx,
                initializer=_init_pool, initargs=(datasets,),
            ) as pool:
                # One group per worker in flight: the executor starts queued
                # tasks early, and a started task cannot be cancelled.
                queued = iter(groups.values())
                running = {pool.submit(_run_one, g) for g in itertools.islice(queued, workers)}
                while running:
                    finished, running = wait(running, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        _collect(fut.result())
                        running.update(pool.submit(_run_one, g)
                                       for g in itertools.islice(queued, 1))

    records = [done[s.key()] for s in specs]
    write_results_file(out_path, records)
    return records

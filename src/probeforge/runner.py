"""Experiment grid enumeration, execution, and deterministic persistence.

One *spec* is a fully determined experiment: model, class, training regime,
sampler, sizes, repetition count. Two regimes exist:

* ``external`` trains on one AOI and tests on a different one (self-pairs
  are never enumerated).
* ``target-split`` carves disjoint test and train sets out of a single
  AOI, test drawn first.

In both, the test set is a uniform random draw from the target AOI. Each
repetition's test and train seeds derive from the grid's base seed and the
spec's keys (``ExperimentSpec.draw_seeds``), so results are independent of
execution order and of how many workers run. A target-split spec keys both
draws by its *draw key*, its canonical key without the class. An external
spec keys its train draw by its *train key* (model, train AOI, sampler,
train size) and its test draw by its *test key* (model, target AOI, test
size), each of which names only what that draw reads. A grid refuses a
model id or AOI name that ``schema.name_fault`` finds at fault, such as one
holding ``;``, the separator of a key's fields, so no two of its specs share
a key and every results row can be written. Specs that share a train key
(for target-split, the draw key) therefore train on the same chips in every
repetition; the runner runs them as one *run unit*. A unit makes every
repetition's draws first, each test set and the train set once, keeping
only their chip positions (repetitions x (sum of the test sizes + train
size) x 8 bytes). Then, repetition by repetition, it factorizes the
training matrix once and solves per class. Each spec keeps its usable
repetitions' Pearson r and RMSE as two lists of floats, which
``metrics.aggregate`` turns into its record's four metric fields. The run
unit is also what the runner times, streams and logs: as each unit
finishes, its rows, already the canonical rows, are appended with one
write and one flush (a crash can tear at most the final line, which a
resume drops), and one log line gives its row count and wall time. On
completion the file is rewritten in canonical enumeration order, making
completed result files byte-comparable across parallelism levels. No wall
time enters a results row. The spec, its record and the results file
itself are defined in ``schema``.
"""

from __future__ import annotations

import itertools
import logging
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, check_json_fields
from .errors import DataFormatError, DegenerateVarianceError, GridError
from .metrics import aggregate, pearson, rmse
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
    name_fault,
    parse_numbered_results,
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
    ``n_train_external`` empty. Each name in ``fms``, ``external_aois`` and
    ``target_aois`` stands in a spec key and a results row, so one that is
    empty, holds ``;``, is longer than ``csv.field_size_limit()`` or is not
    encodable as UTF-8 is refused (``schema.name_fault``), naming the axis and,
    unless it is too long to print, the name.
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
        for name in ("fms", "external_aois", "target_aois"):
            # each name stands in a spec key and a results row: refuse the first that cannot
            for fault in filter(None, map(name_fault, getattr(self, name))):
                raise GridError(f"axis {name} holds {fault}")
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


def _feasible(spec: ExperimentSpec, dataset: Dataset) -> bool:
    """Whether the AOIs hold the sizes ``spec`` draws; an AOI this dataset lacks holds none."""
    def size(aoi: str) -> int:
        return dataset.aoi_positions.get(aoi, _NO_POSITIONS).size

    if spec.regime == REGIME_EXTERNAL:
        return spec.n_train <= size(spec.train_aoi) and spec.n_test <= size(spec.target_aoi)
    return spec.n_train + spec.n_test <= size(spec.target_aoi)


@dataclass
class SpecRuns:
    """One spec's share of a run unit: each usable repetition's Pearson r and RMSE."""

    r: list[float] = field(default_factory=list)
    rmse: list[float] = field(default_factory=list)
    degenerate: int = 0
    infeasible: bool = False


def _run_unit(specs: Sequence[ExperimentSpec], dataset: Dataset) -> list[SpecRuns]:
    """Run specs that share one train key: every draw first, then the fits.

    The draw phase makes, for every repetition, one test draw per test key
    among the specs (a target AOI and test size; a target-split unit has
    one) and one train draw, and keeps only the chip positions:
    repetitions x (sum of the test sizes + train size) x 8 bytes. The fit
    phase then, repetition by repetition, factorizes the train set once,
    gathers each test set once, and has every spec of that test key fit,
    predict and score its own class. A draw reads the repetition only
    through its seed, so a draw that fails, fails at repetition 0, before
    any fit. Specs whose sizes the AOIs cannot supply are infeasible and
    draw nothing; repetitions whose test-side variance vanishes are counted
    degenerate and excluded.
    """
    shares = [SpecRuns(infeasible=not _feasible(s, dataset)) for s in specs]
    by_test: dict[str, list[int]] = {}
    for i, s in enumerate(specs):
        if not shares[i].infeasible:
            by_test.setdefault(s.test_key(), []).append(i)

    if by_test:
        heads = [specs[members[0]] for members in by_test.values()]
        spec = heads[0]
        # split_target draws the target-split train set from the target AOI
        train_pos_all = dataset.aoi_positions[spec.train_aoi or spec.target_aoi]
        aux = _aux_for(spec.sampler, dataset, train_pos_all)
        targets = [dataset.fractions[:, s.class_id.value] for s in specs]
        # Every draw before any fit: on 500x64 fits, the draws made back to
        # back took 11 ms of a grid where, between factorizations, they took 19.
        draws = []
        for r in range(spec.repetitions):
            seeds = [h.draw_seeds(r) for h in heads]  # one train seed across the unit
            tests = [draw(SampleRequest(dataset.aoi_positions[h.target_aoi], h.n_test,
                                        test_seed, SamplerKind.RANDOM))
                     for h, (test_seed, _) in zip(heads, seeds)]
            train_seed = seeds[0][1]
            if spec.regime == REGIME_EXTERNAL:
                train = draw(SampleRequest(
                    train_pos_all, spec.n_train, train_seed, spec.sampler, **aux,
                ))
            else:
                train = split_target(
                    train_pos_all, tests[0], spec.n_train, spec.sampler, train_seed, **aux,
                )
            draws.append((tests, train))
        for tests, train in draws:
            train_svd = factorize(dataset.matrix[train])
            for members, test in zip(by_test.values(), tests):
                test_matrix = dataset.matrix[test].astype(np.float64)
                for i in members:
                    y_all = targets[i]
                    pred = predict(fit(train_svd, y_all[train]), test_matrix)
                    truth = y_all[test]
                    try:
                        r_val = pearson(pred, truth)
                    except DegenerateVarianceError:
                        shares[i].degenerate += 1
                        continue
                    shares[i].r.append(r_val)
                    shares[i].rmse.append(rmse(pred, truth))
    return shares


def run_experiment(spec: ExperimentSpec, dataset: Dataset,
                   share: SpecRuns | None = None) -> AggregateRecord:
    """One spec's results row: repeated resample, fit, predict, aggregate.

    ``run_grid`` passes the spec's ``share`` of its run unit. Alone, the
    spec runs as a unit of one, which gives the same record: its train
    draw depends only on its train key, its test draw only on its test
    key, and its fits only on its own class. When fewer than two usable
    repetitions remain the metric fields stay NaN.
    """
    if share is None:
        share = _run_unit([spec], dataset)[0]
    metrics = aggregate(share.r, share.rmse) if len(share.r) >= 2 else {}
    return AggregateRecord(spec=spec, degenerate_runs=share.degenerate,
                           infeasible=share.infeasible, **metrics)


def _unit_records(specs: Sequence[ExperimentSpec],
                  dataset: Dataset) -> tuple[float, list[AggregateRecord]]:
    """A run unit's wall time in ms and its records: the one clock the package reads."""
    t0 = time.perf_counter()
    shares = _run_unit(specs, dataset)
    records = [run_experiment(s, dataset, share) for s, share in zip(specs, shares)]
    return (time.perf_counter() - t0) * 1000.0, records


# Worker-process state, installed once per worker by the pool initializer so
# specs travel light.
_POOL_DATA: Mapping[str, Dataset] = {}


#: The ``prctl`` option that has the kernel signal a process when its parent dies.
_PR_SET_PDEATHSIG = 1


def _init_pool(datasets: Mapping[str, Dataset], parent: int) -> None:
    global _POOL_DATA
    _POOL_DATA = datasets
    if os.getpid() != parent:  # a worker process, not a pool run in ``parent`` itself
        _die_with(parent)


def _die_with(parent: int) -> None:
    """Have this worker end when ``parent``, the process that forked it, dies.

    On Linux the kernel sends SIGKILL when the thread that forked a process
    ends; the pool forks every worker from the main thread, so that is when
    the ``run`` process ends, killed or not. A parent that died before the
    request took effect shows in ``os.getppid``, and the worker exits at
    once. Elsewhere only that check is made, so the workers of a killed run
    can outlive it.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            logger.warning("worker %d does not die with its parent: prctl: %s",
                           os.getpid(), os.strerror(ctypes.get_errno()))
    if os.getppid() != parent:
        os._exit(1)


def _run_one(specs: list[ExperimentSpec]) -> tuple[float, list[AggregateRecord]]:
    return _unit_records(specs, _POOL_DATA[specs[0].fm_id])


def _check_resumed_row(path: Path, line: int, kept: AggregateRecord,
                       dataset: Dataset) -> None:
    """Re-run a kept row's spec; a row these inputs do not reproduce stops the resume."""
    again = run_experiment(kept.spec, dataset)
    if record_to_row(again) != record_to_row(kept):
        raise DataFormatError(
            f"{path}: line {line}: kept row is not reproduced by re-running its spec"
            f" on this data ({kept.spec.key()}); rerun without --resume"
        )


def _drop_torn_row(path: Path) -> int:
    """Cut a final line that lacks its newline: a row cut short by a crash.

    Only a file that starts with the results header, or is a prefix of it (a
    header torn by a crash), is cut; any other file is left for the results
    reader to refuse. Returns the byte length that remains.
    """
    header = csv_text([CSV_COLUMNS]).encode()
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n") or not data:
            return len(data)
        line, newline, _ = data.partition(b"\n")
        if line.rstrip(b"\r") + newline != header and not header.startswith(data):
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

    Specs still to run are grouped by train key into run units, and each
    unit runs as one task (see ``_run_unit``) on one of ``threads`` worker
    processes, or fewer when there are fewer units. With ``resume``, rows
    already present in ``out_path`` (matching spec key and base seed) are
    kept and only missing specs execute; a final row without its newline,
    torn by a crash, is dropped first, and a file left empty starts over
    with a fresh header. Per regime, the first kept feasible row in
    canonical order is re-run first (with any infeasible kept rows before
    it), and a mismatch (other data, or another seed scheme) raises
    ``DataFormatError``, naming the row's file line. As each unit finishes,
    its canonical rows are appended and flushed together, and one INFO line
    gives the unit's train key, row count and wall time; on completion the
    whole file is rewritten in enumeration order, so the final bytes depend
    only on grid and data. The first failing unit stops the run, and no
    further unit starts; rows streamed before it stay for a later resume.
    Returns records in canonical order.
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
        for line, rec in parse_numbered_results(out_path):
            if rec.spec.base_seed != grid.base_seed:
                logger.warning(
                    "ignoring resumed row with foreign base_seed %d: %s",
                    rec.spec.base_seed, rec.spec.key(),
                )
                continue
            done[rec.spec.key()] = rec
            lines[rec.spec.key()] = line
        # Each regime keys its draws its own way, and an infeasible row is
        # the same under any seed scheme: so per regime, kept rows are re-run
        # in canonical order up to the first feasible one.
        checked: set[str] = set()
        for s in specs:
            kept = done.get(s.key())
            if kept is not None and s.regime not in checked:
                _check_resumed_row(out_path, lines[s.key()], kept, datasets[s.fm_id])
                if not kept.infeasible:
                    checked.add(s.regime)

    todo = [s for s in specs if s.key() not in done]
    units: dict[str, list[ExperimentSpec]] = {}
    for s in todo:
        units.setdefault(s.train_key(), []).append(s)
    # The pool starts every worker at once and each holds the datasets: no idle ones.
    workers = max(1, min(threads, len(units)))
    stale = len(done) - (len(specs) - len(todo))
    if stale > 0:
        logger.warning("%d resumed rows do not match any grid spec; dropping", stale)
    if resume and not todo:
        logger.info("all specs present; nothing to run")
    else:
        logger.info(
            "running %d of %d specs (%d resumed) in %d run units with %d worker(s)",
            len(todo), len(specs), len(specs) - len(todo), len(units), workers,
        )

    with open(out_path, "a" if append else "w", encoding="utf-8", newline="") as stream_fh:
        if not append:
            stream_fh.write(csv_text([CSV_COLUMNS]))
            stream_fh.flush()

        progress = itertools.count(1)

        def _collect(unit_ms: float, recs: list[AggregateRecord]) -> None:
            done.update((rec.spec.key(), rec) for rec in recs)
            stream_fh.write(csv_text(map(record_to_row, recs)))
            stream_fh.flush()
            logger.info("unit %d/%d %s: %d rows in %.1f ms", next(progress), len(units),
                        recs[0].spec.train_key(), len(recs), unit_ms)

        if workers == 1:
            for unit in units.values():
                _collect(*_unit_records(unit, datasets[unit[0].fm_id]))
        else:
            import multiprocessing
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
            from concurrent.futures.process import BrokenProcessPool

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            try:
                with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                         initializer=_init_pool,
                                         initargs=(datasets, os.getpid())) as pool:
                    # One unit per worker in flight: the executor starts queued
                    # tasks early, and a started task cannot be cancelled.
                    queued = iter(units.values())
                    running = {pool.submit(_run_one, g) for g in itertools.islice(queued, workers)}
                    while running:
                        finished, running = wait(running, return_when=FIRST_COMPLETED)
                        for fut in finished:
                            _collect(*fut.result())
                            running.update(pool.submit(_run_one, g)
                                           for g in itertools.islice(queued, 1))
            except BrokenProcessPool as exc:
                kept = sum(s.key() in done for s in specs)
                raise BrokenProcessPool(f"a worker process died; {kept} finished rows are kept"
                                        f" in {out_path}; rerun with --resume") from exc

    records = [done[s.key()] for s in specs]
    write_results_file(out_path, records)
    return records

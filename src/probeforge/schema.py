"""The results file and the vocabulary it is written in.

Land-cover classes, model modalities, sampler kinds, training regimes, the
experiment spec and its aggregated record, and the results CSV that holds
one record per row: its columns, how a record becomes a row and back, and
the one CSV writer every file and report of the package goes through.

This module, like ``report`` and ``seeds``, imports only the standard
library and the package's other stdlib-only modules, so the report
commands start without numpy. Keep it that way: importing numpy takes
longer than everything else a report command does.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError
from .seeds import derive_seed


class ClassId(IntEnum):
    """The seven land-cover regression targets, with stable integer codes."""

    TREE_COVER = 0
    SHRUBLAND = 1
    GRASSLAND = 2
    CROPLAND = 3
    BUILTUP = 4
    BARE_SPARSE_VEGETATION = 5
    PERMANENT_WATER = 6

    @property
    def label(self) -> str:
        return _CLASS_LABELS[self.value]

    @classmethod
    def from_label(cls, label: str) -> "ClassId":
        try:
            return _LABEL_TO_CLASS[label]
        except KeyError:
            raise ValueError(f"unknown class label: {label!r}") from None


_CLASS_LABELS = (
    "tree-cover",
    "shrubland",
    "grassland",
    "cropland",
    "builtup",
    "bare-sparse-vegetation",
    "permanent-water",
)
_LABEL_TO_CLASS = {lbl: ClassId(i) for i, lbl in enumerate(_CLASS_LABELS)}

CLASS_LABELS: tuple[str, ...] = _CLASS_LABELS
N_CLASSES = len(CLASS_LABELS)


class Modality(str, Enum):
    """Input sensor family an embedding model consumes."""

    S1 = "S1"
    S2 = "S2"


def infer_modality(fm_id: str) -> Modality | None:
    """Guess the sensor family from an fm id like ``s1-foo`` or ``x-s2-bar``.

    Returns None when neither an ``s1`` nor an ``s2`` token appears.
    """
    tokens = re.findall(r"[^\W_]+", fm_id.lower())
    if "s1" in tokens:
        return Modality.S1
    if "s2" in tokens:
        return Modality.S2
    return None


class SamplerKind(str, Enum):
    RANDOM = "random"
    ESAWC = "esawc"
    FPS = "fps"
    SRTM = "srtm"


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

    def _key(self, class_field: str) -> str:
        return (
            f"regime={self.regime};fm={self.fm_id};{class_field}"
            f"train={self.train_aoi or '-'};target={self.target_aoi};"
            f"sampler={self.sampler.value};n_train={self.n_train};"
            f"n_test={self.n_test};reps={self.repetitions}"
        )

    def key(self) -> str:
        """Canonical encoding; the resume identity."""
        return self._key(f"class={self.class_id.label};")

    def draw_key(self) -> str:
        """The key without the class, and the seed tag: no draw reads the class."""
        return self._key("")

    def seed(self) -> int:
        return derive_seed(self.base_seed, self.draw_key())

    def draw_seeds(self, rep: int) -> tuple[int, int]:
        """Repetition ``rep``'s (test, train) draw seeds; no other code derives them."""
        rep_seed = derive_seed(self.seed(), "rep", rep)
        return derive_seed(rep_seed, "test"), derive_seed(rep_seed, "train")


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


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise DataFormatError(f"bad infeasible flag {text!r}")
    return text == "true"


#: The results file, column by column: (column, the ExperimentSpec or else
#: AggregateRecord field it holds, field to text, text to field). Nothing in
#: an AggregateRecord beyond these fields enters the results file.
_RESULTS_SCHEMA = (
    ("fm_id", "fm_id", str, str),
    ("class", "class_id", lambda c: c.label, ClassId.from_label),
    ("regime", "regime", str, str),
    ("train_aoi", "train_aoi", lambda a: a or "", lambda t: t or None),
    ("target_aoi", "target_aoi", str, str),
    ("sampler", "sampler", lambda s: s.value, SamplerKind),
    ("n_train", "n_train", str, int),
    ("n_test", "n_test", str, int),
    ("repetitions", "repetitions", str, int),
    ("r_mean", "r_mean", fmt_float, float),
    ("r_std", "r_std", fmt_float, float),
    ("rmse_mean", "rmse_mean", fmt_float, float),
    ("rmse_std", "rmse_std", fmt_float, float),
    ("degenerate_runs", "degenerate_runs", str, int),
    ("infeasible", "infeasible", lambda b: "true" if b else "false", _flag),
    ("wall_ms", "wall_ms", fmt_float, float),
    ("base_seed", "base_seed", str, int),
)
CSV_COLUMNS = tuple(column for column, *_ in _RESULTS_SCHEMA)
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))


def record_to_row(rec: AggregateRecord, zero_wall: bool = False) -> list[str]:
    values = {**vars(rec.spec), **vars(rec)}
    if zero_wall:
        values["wall_ms"] = 0.0
    return [write(values[name]) for _, name, write, _ in _RESULTS_SCHEMA]


def record_from_row(row: Sequence[str]) -> AggregateRecord:
    if len(row) != len(CSV_COLUMNS):
        raise DataFormatError(
            f"results row has {len(row)} fields, expected {len(CSV_COLUMNS)}"
        )
    values = {name: read(text) for (_, name, _, read), text in zip(_RESULTS_SCHEMA, row)}
    spec = ExperimentSpec(**{name: values.pop(name) for name in _SPEC_FIELDS})
    return AggregateRecord(spec=spec, **values)


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` as CSV text, each line ending in ``\\n``: every CSV the package writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_results_file(path: str | Path, records: Sequence[AggregateRecord]) -> None:
    """Write the canonical results CSV (record order is the file order)."""
    text = csv_text([CSV_COLUMNS, *(record_to_row(r, zero_wall=True) for r in records)])
    write_atomic(path, text.encode("utf-8"))


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to a uniquely named file beside ``path`` and rename it
    over ``path``: a reader sees the old file or the new one, never part of
    one, and a failed write leaves neither a change nor a temporary file. The
    mode passes through the umask, as open()'s does."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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

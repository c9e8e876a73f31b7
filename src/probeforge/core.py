"""Domain types shared by all modules, plus dataset assembly and validation,
and the JSON field check that grid and synth specs share.

A *chip* is one fixed-size image tile; each chip carries per-class cover
fractions and a mean elevation. A chip table holds them as columns, one row
per chip. An *embedding set* is a row-aligned matrix of fixed-dimension
vectors produced upstream by a frozen encoder model; we never run the
encoder here, embeddings are inputs. ``assemble_dataset`` joins the two by
chip id so downstream stages can index rows positionally.

Core types are passive records of read-only arrays: structural problems
(shape mismatches, duplicate ids) fail at construction, while value-level
problems (fractions out of range, non-finite entries) are data and are
reported by ``validate_dataset`` instead of raised.
"""

from __future__ import annotations

import logging
import re
from dataclasses import MISSING, InitVar, dataclass, field, fields
from enum import Enum, IntEnum
from itertools import compress, repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import AlignmentError

logger = logging.getLogger(__name__)

#: Tolerance on the per-chip sum of the seven class fractions. Fractions come
#: from integer pixel counts over the chip grid, so the exact sum never
#: exceeds 1; the slack only absorbs float round-trips.
FRACTION_SUM_TOL = 1e-9


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


def _readonly(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only array, copied only if the caller could still write it."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of read-only ``a``, as ``a`` itself when ``rows`` lists
    every row in order, and otherwise as a new read-only copy."""
    if np.array_equal(rows, np.arange(len(a))):
        return a
    out = a[rows]
    out.setflags(write=False)
    return out


def _set_column(obj, name: str, shape: tuple[int, ...], dtype=np.float64) -> None:
    """Store attribute ``name`` of ``obj`` as a read-only array of ``shape``."""
    a = _readonly(getattr(obj, name), dtype)
    if a.shape != shape:
        raise ValueError(f"{name} shape {a.shape} does not match {shape}")
    object.__setattr__(obj, name, a)


def first_repeat(ids: Sequence[str]) -> int | None:
    """The position of the first id equal to an earlier one; None when all differ."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for i, cid in enumerate(ids):
        if cid in seen:
            return i
        seen.add(cid)
    return None


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-aligned embedding matrix for one model over one chip collection.

    The matrix is stored read-only; row ``i`` belongs to ``chip_ids[i]``,
    and its width, which must be positive, is the model's embedding dim.
    Non-finite entries are representable (validation reports them) but the
    file loader in :mod:`probeforge.ingest` refuses to produce them.
    """

    fm_id: str
    chip_ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.chip_ids)
        m = _readonly(self.matrix)
        if m.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {m.shape}")
        if m.shape[0] != len(ids):
            raise ValueError(
                f"row count {m.shape[0]} does not match {len(ids)} chip ids"
            )
        if m.shape[1] == 0:
            raise ValueError("embedding matrix has no columns")
        if first_repeat(ids) is not None:
            raise ValueError("duplicate chip_id in embedding index")
        object.__setattr__(self, "chip_ids", ids)
        object.__setattr__(self, "matrix", m)

    def __len__(self) -> int:
        return len(self.chip_ids)


@dataclass(frozen=True)
class ChipTable:
    """Chips as columns: row ``i`` of every array describes ``chip_ids[i]``.

    ``aois`` holds one label string per chip; ``fractions`` has one column
    per :class:`ClassId` in code order. Values are accepted as-is; range
    and finiteness are checked by :func:`validate_dataset`.
    """

    chip_ids: tuple[str, ...]
    aois: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    fractions: np.ndarray
    elevations: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.chip_ids)
        dup = first_repeat(ids)
        if dup is not None:
            raise ValueError(f"duplicate chip_id: {ids[dup]!r}")
        object.__setattr__(self, "chip_ids", ids)
        n = len(ids)
        _set_column(self, "aois", (n,), dtype=object)
        for name in ("lon", "lat", "elevations"):
            _set_column(self, name, (n,))
        _set_column(self, "fractions", (n, N_CLASSES))

    def __len__(self) -> int:
        return len(self.chip_ids)

    def take(self, rows: np.ndarray) -> "ChipTable":
        """The table of the chips at positions ``rows``, in that order: the
        table itself when ``rows`` lists every chip in order."""
        if np.array_equal(rows, np.arange(len(self))):
            return self
        return ChipTable(
            chip_ids=tuple(self.chip_ids[i] for i in rows.tolist()),
            **{name: _take(getattr(self, name), rows)
               for name in ("aois", "lon", "lat", "fractions", "elevations")},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChipTable):
            return NotImplemented
        return (
            self.chip_ids == other.chip_ids
            and np.array_equal(self.aois, other.aois)
            and all(np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
                    for f in ("lon", "lat", "fractions", "elevations"))
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Chips joined to their embedding rows, with positional accessors.

    Row ``i`` of ``matrix``, ``fractions`` and ``elevations`` all describe
    ``chip_ids[i]``. ``fractions`` has one column per :class:`ClassId` in
    code order. The per-row AOI labels passed as ``aois`` are grouped once
    into ``aoi_positions``: each AOI's row positions in ascending order.
    Everything is immutable; samplers and the runner address rows by
    position.
    """

    fm_id: str
    chip_ids: tuple[str, ...]
    aois: InitVar[np.ndarray]
    matrix: np.ndarray
    fractions: np.ndarray
    elevations: np.ndarray
    aoi_positions: Mapping[str, np.ndarray] = field(init=False)

    def __post_init__(self, aois: np.ndarray) -> None:
        n = len(self.chip_ids)
        _set_column(self, "matrix", (n, np.shape(self.matrix)[-1]), dtype=None)
        _set_column(self, "fractions", (n, N_CLASSES))
        _set_column(self, "elevations", (n,))
        aois = np.asarray(aois)
        if aois.shape != (n,):
            raise ValueError(f"aois shape {aois.shape} does not match ({n},)")
        labels = aois.tolist()
        codes = {label: i for i, label in enumerate(sorted(set(labels)))}
        inverse = np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=n)
        order = np.argsort(inverse, kind="stable")
        order.setflags(write=False)
        groups = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
        object.__setattr__(self, "aoi_positions", dict(zip(codes, groups)))

    def __len__(self) -> int:
        return len(self.chip_ids)


def _match(keys: Sequence[str], ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which ``keys`` occur in ``ids`` (a mask), and at which ``ids`` position
    each does: the package's one join by chip id."""
    if keys == ids:  # as the dataset loader lines rows up: no lookups needed
        return np.ones(len(keys), dtype=bool), np.arange(len(keys))
    index = {cid: i for i, cid in enumerate(ids)}
    pos = np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
    found = pos >= 0
    return found, pos[found]


def assemble_dataset(table: ChipTable, emb: EmbeddingSet) -> Dataset:
    """Join chips to embedding rows by chip_id.

    The result covers the intersection in table order; records present on
    only one side are counted and logged, never fatal. An empty intersection
    raises :class:`AlignmentError`. Each joined array is the source array
    itself when the join keeps all of its rows in order, as it does for the
    rows ``ingest.load_dataset_dir`` reads, which come in chip-table order;
    otherwise it is a copy of the kept rows.
    """
    kept, emb_rows = _match(table.chip_ids, emb.chip_ids)
    if not kept.any():
        raise AlignmentError("no aligned chips")
    rows = np.flatnonzero(kept)

    dropped_table = len(table) - rows.size
    dropped_emb = len(emb) - rows.size
    if dropped_table or dropped_emb:
        logger.info(
            "join for fm %s dropped %d table-only and %d embedding-only records",
            emb.fm_id,
            dropped_table,
            dropped_emb,
        )

    return Dataset(
        fm_id=emb.fm_id,
        chip_ids=tuple(compress(table.chip_ids, kept.tolist())),
        aois=table.aois[rows],
        matrix=_take(emb.matrix, emb_rows),
        fractions=_take(table.fractions, rows),
        elevations=_take(table.elevations, rows),
    )


@dataclass(frozen=True)
class Violation:
    """One invariant breach, addressable by chip and rule name."""

    chip_id: str
    rule: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    n_chips: int

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"checked {self.n_chips} chips: "
                 f"{'OK' if self.valid else f'{len(self.violations)} violation(s)'}"]
        for v in self.violations:
            detail = f" ({v.detail})" if v.detail else ""
            lines.append(f"  {v.chip_id}: {v.rule}{detail}")
        return "\n".join(lines)


RULE_FRACTION_RANGE = "fraction out of range"
RULE_FRACTION_SUM = "fraction sum exceeds 1"
RULE_ELEVATION = "non-finite elevation"
RULE_EMBEDDING = "non-finite embedding"


def fraction_out_of_range(fr: np.ndarray) -> np.ndarray:
    """Elementwise test of the ``fraction out of range`` rule: the value is
    non-finite, below 0 or above 1."""
    return ~(np.isfinite(fr) & (fr >= 0.0) & (fr <= 1.0))


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Check every chip- and embedding-level value invariant.

    Violations are data, not errors: the report lists each offending chip
    with a stable rule name and the ``valid`` flag is true iff none exist.
    They come in row order, and within a chip in rule order.
    """
    fr = ds.fractions
    bad_range = fraction_out_of_range(fr)
    totals = fr.sum(axis=1)
    bad_sum = np.isfinite(totals) & (totals > 1.0 + FRACTION_SUM_TOL)
    bad_elev = ~np.isfinite(ds.elevations)
    bad_emb = ~np.isfinite(ds.matrix).all(axis=1)
    violations: list[Violation] = []
    for i in np.flatnonzero(bad_range.any(axis=1) | bad_sum | bad_elev | bad_emb).tolist():
        chip_id = ds.chip_ids[i]
        for c in np.flatnonzero(bad_range[i]).tolist():
            violations.append(Violation(
                chip_id, RULE_FRACTION_RANGE, f"{CLASS_LABELS[c]}={float(fr[i, c])!r}"
            ))
        if bad_sum[i]:
            violations.append(
                Violation(chip_id, RULE_FRACTION_SUM, f"sum={float(totals[i])!r}")
            )
        if bad_elev[i]:
            violations.append(Violation(
                chip_id, RULE_ELEVATION, f"elevation_m={float(ds.elevations[i])!r}"
            ))
        if bad_emb[i]:
            violations.append(Violation(chip_id, RULE_EMBEDDING))
    return ValidationReport(violations=tuple(violations), n_chips=len(ds))


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


#: Per field annotation: a test of the JSON values it takes (a bool is no
#: number, and an integer is a float too), and names for one and for a list.
_JSON_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
              "a number", "numbers"),
    "str": (lambda v: isinstance(v, str), "a JSON string", "strings"),
}


def check_json_fields(cls, d, what: str, error: type[Exception] = ValueError) -> None:
    """Refuse parsed JSON ``d`` that cannot build dataclass ``cls``, naming the key.

    ``d`` must be an object with no unknown key and every key without a
    default, each value of the JSON type its field's annotation names. A
    tuple field takes a JSON list; its items are integers for ``int`` and
    strings otherwise, as enum members are spelled.
    """
    if not isinstance(d, Mapping):
        raise error(f"a {what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"unknown {what} keys: {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise error(f"missing {what} keys: {missing}")
    for f in fields(cls):
        if f.name not in d:
            continue
        value = d[f.name]
        if f.type.startswith("tuple["):
            ok, _, items = _JSON_TYPES["int" if f.type == "tuple[int, ...]" else "str"]
            if not (isinstance(value, list) and all(map(ok, value))):
                raise error(f"{f.name} must be a JSON list of {items}, got {value!r}")
        else:
            ok, one, _ = _JSON_TYPES[f.type]
            if not ok(value):
                raise error(f"{f.name} must be {one}, got {value!r}")

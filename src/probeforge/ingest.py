"""File formats, label-raster processing, compositing, and synthetic data.

On-disk formats (all little-endian, documented here and nowhere else):

* Chip table: UTF-8 newline-delimited JSON, one object per line with keys
  ``chip_id``, ``aoi``, ``lon``, ``lat``, ``fractions`` (object keyed by the
  seven class labels), ``elevation_m``. Unknown keys are ignored.
* Embeddings: magic ``EMB1`` | dim u32 | count u64 | count*dim f32 values,
  row-major. A sibling text index holds one chip_id per line; line i names
  row i.
* Label grids and image stacks share a fixture header of four u32 fields
  (height, width, bands, dates). A label grid (bands = dates = 1) stores
  height*width i32 class codes. A stack stores ``dates`` u32 stamps encoded
  YYYYMMDD, then dates*bands*height*width f32 values in C order with NaN as
  the no-data marker. These fixture formats exist for tests; real rasters
  are preprocessed upstream.

The synthetic generator plants a known linear signal in random embeddings
so probe recovery is checkable against closed-form targets.
"""

from __future__ import annotations

import json
import logging
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    CLASS_LABELS,
    N_CLASSES,
    ChipTable,
    ClassId,
    Dataset,
    EmbeddingSet,
    FMDescriptor,
    assemble_dataset,
)
from .errors import DataFormatError
from .seeds import stream

logger = logging.getLogger(__name__)

_EMB_MAGIC = b"EMB1"

#: Class codes of the upstream land-cover product (eleven classes) and the
#: no-data sentinel. Only seven of the eleven are regression targets.
NODATA_CODE = 0
PRODUCT_CODES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100)
CODE_TO_CLASS: dict[int, ClassId] = {
    10: ClassId.TREE_COVER,
    20: ClassId.SHRUBLAND,
    30: ClassId.GRASSLAND,
    40: ClassId.CROPLAND,
    50: ClassId.BUILTUP,
    60: ClassId.BARE_SPARSE_VEGETATION,
    80: ClassId.PERMANENT_WATER,
}

SEASONS = ("winter", "spring", "summer", "fall")


# ---------------------------------------------------------------------------
# chip tables


def load_chip_table(path: str | Path) -> ChipTable:
    """Parse a newline-delimited JSON chip file.

    Every failure names the 1-based line number; duplicate chip ids name
    the id. Blank lines are permitted and skipped, so an empty file yields
    an empty table.
    """
    ids: list[str] = []
    aois: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                chip_id, aoi, row = _parse_chip(line)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
            if chip_id in seen:
                raise DataFormatError(
                    f"{path}: line {lineno}: duplicate chip_id: {chip_id!r}"
                )
            seen.add(chip_id)
            ids.append(chip_id)
            aois.append(aoi)
            values += row
    cols = np.array(values, dtype=np.float64).reshape(len(ids), 3 + N_CLASSES)
    cols.setflags(write=False)
    return ChipTable(
        chip_ids=tuple(ids),
        aois=np.array(aois, dtype=object),
        lon=cols[:, 0],
        lat=cols[:, 1],
        fractions=cols[:, 2:-1],
        elevations=cols[:, -1],
    )


_LABEL_SET = frozenset(CLASS_LABELS)


def _parse_chip(line: str) -> tuple[str, str, list[float]]:
    """chip_id, aoi, and [lon, lat, the seven fractions in code order, elevation]."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    raw_fr = rec["fractions"]
    if not isinstance(raw_fr, dict):
        raise ValueError("fractions must be an object keyed by class label")
    if raw_fr.keys() != _LABEL_SET:
        for label in raw_fr:
            ClassId.from_label(label)
        raise ValueError(
            f"chip {rec['chip_id']!r}: fractions must cover all seven classes"
            f" (missing: {sorted(_LABEL_SET - raw_fr.keys())})"
        )
    return str(rec["chip_id"]), str(rec["aoi"]), [
        float(rec["lon"]),
        float(rec["lat"]),
        *(float(raw_fr[label]) for label in CLASS_LABELS),
        float(rec["elevation_m"]),
    ]


def save_chip_table(table: ChipTable, path: str | Path) -> None:
    columns = (table.aois, table.lon, table.lat, table.fractions, table.elevations)
    with open(path, "w", encoding="utf-8") as fh:
        for chip_id, aoi, lon, lat, fractions, elevation in zip(
            table.chip_ids, *(c.tolist() for c in columns)
        ):
            rec = {
                "chip_id": chip_id,
                "aoi": aoi,
                "lon": lon,
                "lat": lat,
                "fractions": dict(zip(CLASS_LABELS, fractions)),
                "elevation_m": elevation,
            }
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# embeddings


def save_embeddings(emb: EmbeddingSet, data_path: str | Path, index_path: str | Path) -> None:
    """Write the binary matrix and its text index (see module docstring)."""
    m = np.ascontiguousarray(emb.matrix, dtype="<f4")
    with open(data_path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<IQ", emb.fm.dim, len(emb)))
        fh.write(m.tobytes())
    with open(index_path, "w", encoding="utf-8") as fh:
        for cid in emb.chip_ids:
            fh.write(cid + "\n")


def read_embedding_header(data_path: str | Path) -> tuple[int, int]:
    """Return (dim, count) from an embedding file without reading rows."""
    with open(data_path, "rb") as fh:
        head = fh.read(16)
    if len(head) < 16 or head[:4] != _EMB_MAGIC:
        raise DataFormatError(f"{data_path}: bad magic, not an embedding file")
    dim, count = struct.unpack("<IQ", head[4:16])
    return int(dim), int(count)


def load_embeddings(
    data_path: str | Path, index_path: str | Path, fm: FMDescriptor
) -> EmbeddingSet:
    """Read a binary embedding matrix plus its text index.

    The header dim must equal ``fm.dim``, the index line count must equal
    the header row count, and all values must be finite.
    """
    with open(data_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != _EMB_MAGIC:
        raise DataFormatError(f"{data_path}: bad magic, not an embedding file")
    dim, count = struct.unpack("<IQ", blob[4:16])
    if dim != fm.dim:
        raise DataFormatError(
            f"{data_path}: dimension mismatch: file dim {dim}, fm {fm.fm_id!r} dim {fm.dim}"
        )
    expected = 16 + 4 * dim * count
    if len(blob) != expected:
        raise DataFormatError(
            f"{data_path}: payload is {len(blob)} bytes, header implies {expected}"
        )
    matrix = np.frombuffer(blob, dtype="<f4", offset=16).reshape(count, dim)

    with open(index_path, encoding="utf-8") as fh:
        ids = fh.read().splitlines()
    if len(ids) != count:
        raise DataFormatError(
            f"{index_path}: index/header mismatch: header rows {count}, index lines {len(ids)}"
        )

    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataFormatError(
            f"{data_path}: non-finite values, first offending row {int(bad[0])}"
            f" (chip {ids[int(bad[0])]!r})"
        )
    return EmbeddingSet(fm=fm, chip_ids=tuple(ids), matrix=matrix)


# ---------------------------------------------------------------------------
# label grids and class fractions


@dataclass(frozen=True)
class LabelGrid:
    """Per-pixel class codes for one chip; 0 is the no-data sentinel."""

    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int32)
        if codes.ndim != 2:
            raise ValueError(f"label grid must be 2-D, got shape {codes.shape}")
        known = set(PRODUCT_CODES) | {NODATA_CODE}
        present = set(np.unique(codes).tolist())
        unknown = sorted(present - known)
        if unknown:
            raise ValueError(f"unknown class codes in grid: {unknown}")
        object.__setattr__(self, "codes", codes)

    @property
    def height(self) -> int:
        return int(self.codes.shape[0])

    @property
    def width(self) -> int:
        return int(self.codes.shape[1])


def compute_class_fractions(
    grid: LabelGrid, code_map: Mapping[int, ClassId] = CODE_TO_CLASS
) -> dict[ClassId, float]:
    """Per-class pixel fractions over the valid (non-no-data) pixels.

    All seven classes appear in the result, zero when absent. Codes outside
    ``code_map`` (the four unused product classes) count toward the
    denominator only, so the fractions sum to at most 1.
    """
    valid = grid.codes != NODATA_CODE
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DataFormatError("no valid pixels")
    out = {c: 0.0 for c in ClassId}
    for code, cls in code_map.items():
        out[cls] = int((grid.codes == code).sum()) / n_valid
    return out


def save_label_grid(grid: LabelGrid, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IIII", grid.height, grid.width, 1, 1))
        fh.write(np.ascontiguousarray(grid.codes, dtype="<i4").tobytes())


def load_label_grid(path: str | Path) -> LabelGrid:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise DataFormatError(f"{path}: truncated label grid header")
    h, w, bands, dates = struct.unpack("<IIII", blob[:16])
    if bands != 1 or dates != 1:
        raise DataFormatError(f"{path}: label grid must have bands=dates=1")
    if len(blob) != 16 + 4 * h * w:
        raise DataFormatError(f"{path}: payload does not match {h}x{w} header")
    codes = np.frombuffer(blob, dtype="<i4", offset=16).reshape(h, w)
    return LabelGrid(codes=codes)


# ---------------------------------------------------------------------------
# image stacks and seasonal composites


@dataclass(frozen=True)
class ImageStack:
    """A year of per-date, per-band grids for one chip footprint.

    ``values`` has shape (dates, bands, height, width); NaN marks no-data.
    ``dates`` are ISO ``YYYY-MM-DD`` stamps aligned with axis 0.
    """

    dates: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 4:
            raise ValueError(f"stack values must be 4-D, got shape {v.shape}")
        if v.shape[0] != len(dates):
            raise ValueError(
                f"{len(dates)} dates do not match {v.shape[0]} value slabs"
            )
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", v)

    @property
    def bands(self) -> int:
        return int(self.values.shape[1])

    @property
    def height(self) -> int:
        return int(self.values.shape[2])

    @property
    def width(self) -> int:
        return int(self.values.shape[3])

    def valid_mask(self) -> np.ndarray:
        """(dates, height, width) bool; a pixel-date is valid when no band is NaN."""
        return ~np.isnan(self.values).any(axis=1)


def meteorological_season(date: str) -> str:
    """Season of an ISO date: DJF winter, MAM spring, JJA summer, SON fall."""
    month = int(date[5:7])
    if month in (12, 1, 2):
        return "winter"
    if month in (3, 4, 5):
        return "spring"
    if month in (6, 7, 8):
        return "summer"
    return "fall"


def seasonal_median_composite(
    stack: ImageStack, season_calendar: Mapping[str, str] | None = None
) -> dict[str, np.ndarray]:
    """Per-season, per-band, per-pixel median over valid observations.

    ``season_calendar`` maps each date stamp to a season name; by default
    dates are binned by meteorological season. Every season must receive at
    least one date. Even observation counts take the midpoint of the two
    middle values; a pixel with zero valid observations in a season is NaN
    in the output. Output arrays have shape (bands, height, width).
    """
    if season_calendar is None:
        season_calendar = {d: meteorological_season(d) for d in stack.dates}
    members: dict[str, list[int]] = {s: [] for s in SEASONS}
    for i, d in enumerate(stack.dates):
        season = season_calendar.get(d)
        if season not in members:
            raise ValueError(f"date {d!r} maps to unknown season {season!r}")
        members[season].append(i)
    for season in SEASONS:
        if not members[season]:
            raise ValueError(f"season {season!r} has no dates")

    out: dict[str, np.ndarray] = {}
    for season in SEASONS:
        slab = stack.values[members[season]].astype(np.float64)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "All-NaN slice encountered")
            out[season] = np.nanmedian(slab, axis=0)
    return out


def _encode_date(date: str) -> int:
    y, m, d = date.split("-")
    return int(y) * 10000 + int(m) * 100 + int(d)


def _decode_date(stamp: int) -> str:
    return f"{stamp // 10000:04d}-{stamp // 100 % 100:02d}-{stamp % 100:02d}"


def save_image_stack(stack: ImageStack, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(
            struct.pack("<IIII", stack.height, stack.width, stack.bands, len(stack.dates))
        )
        stamps = np.array([_encode_date(d) for d in stack.dates], dtype="<u4")
        fh.write(stamps.tobytes())
        fh.write(np.ascontiguousarray(stack.values, dtype="<f4").tobytes())


def load_image_stack(path: str | Path) -> ImageStack:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise DataFormatError(f"{path}: truncated stack header")
    h, w, bands, n_dates = struct.unpack("<IIII", blob[:16])
    stamps_end = 16 + 4 * n_dates
    expected = stamps_end + 4 * n_dates * bands * h * w
    if len(blob) != expected:
        raise DataFormatError(f"{path}: payload is {len(blob)} bytes, header implies {expected}")
    stamps = np.frombuffer(blob, dtype="<u4", offset=16, count=n_dates)
    values = np.frombuffer(blob, dtype="<f4", offset=stamps_end).reshape(
        n_dates, bands, h, w
    )
    return ImageStack(
        dates=tuple(_decode_date(int(s)) for s in stamps), values=values
    )


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a planted-signal dataset.

    Each embedding model listed in ``fm_ids`` gets its own standard-normal
    matrix; the class fractions are derived from the *first* model's rows,
    so probes on that model can recover the signal while the others act as
    uninformative baselines. ``link`` selects how the noisy linear signal
    becomes a fraction: ``logistic`` squashes then sum-normalizes (the
    general-purpose monotone link), ``linear`` applies a small affine map
    that keeps all chip invariants while leaving the signal exactly
    recoverable by a linear probe, which is what noiseless recovery checks
    need.
    """

    n_chips: int
    dim: int
    noise_sigma: float = 0.0
    weight_seed: int = 7
    data_seed: int = 11
    n_aois: int = 4
    n_classes: int = N_CLASSES
    fm_ids: tuple[str, ...] = ("synth-s2",)
    link: str = "logistic"

    def __post_init__(self) -> None:
        if self.n_chips <= 0 or self.dim <= 0:
            raise ValueError("n_chips and dim must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.n_aois <= 0:
            raise ValueError("n_aois must be positive")
        if self.n_classes != N_CLASSES:
            raise ValueError(f"class count is fixed at {N_CLASSES}")
        if not self.fm_ids:
            raise ValueError("at least one fm_id required")
        if self.link not in ("logistic", "linear"):
            raise ValueError(f"unknown link {self.link!r}")
        object.__setattr__(self, "fm_ids", tuple(self.fm_ids))

    def to_dict(self) -> dict:
        return {
            "n_chips": self.n_chips,
            "dim": self.dim,
            "noise_sigma": self.noise_sigma,
            "weight_seed": self.weight_seed,
            "data_seed": self.data_seed,
            "n_aois": self.n_aois,
            "n_classes": self.n_classes,
            "fm_ids": list(self.fm_ids),
            "link": self.link,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SynthSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown synth spec keys: {unknown}")
        kwargs = dict(d)
        if "fm_ids" in kwargs:
            kwargs["fm_ids"] = tuple(kwargs["fm_ids"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SynthResult:
    spec: SynthSpec
    table: ChipTable
    embeddings: dict[str, EmbeddingSet] = field(default_factory=dict)
    planted: np.ndarray = field(default_factory=lambda: np.zeros((N_CLASSES, 0)))
    raw: np.ndarray = field(default_factory=lambda: np.zeros((0, N_CLASSES)))

    def dataset(self, fm_id: str | None = None) -> Dataset:
        fm_id = fm_id or self.spec.fm_ids[0]
        return assemble_dataset(self.table, self.embeddings[fm_id])


def presquash_correlation(noise_sigma: float) -> float:
    """Best achievable Pearson r against the pre-squash signal.

    The planted weights are unit norm and the embeddings standard normal,
    so the signal has unit variance and r = 1 / sqrt(1 + sigma^2).
    """
    return 1.0 / float(np.sqrt(1.0 + noise_sigma**2))


def noise_sigma_for_correlation(rho: float) -> float:
    """Inverse of :func:`presquash_correlation` for 0 < rho <= 1."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    return float(np.sqrt(1.0 / rho**2 - 1.0))


def synthesize_dataset(spec: SynthSpec) -> SynthResult:
    """Deterministically generate chips, embeddings, and planted weights.

    Embeddings are i.i.d. standard normal float32 rows. For each class c
    the raw target is X @ w_c + noise_sigma * eps with w_c unit norm, X the
    first model's matrix, and eps standard normal. Fractions follow
    ``spec.link``. Elevations are uniform in [0, 4000] m, AOI labels
    round-robin among ``n_aois``, lon/lat uniform in the unit box.
    """
    w_rng = stream(spec.weight_seed, "weights")
    weights = w_rng.standard_normal((N_CLASSES, spec.dim))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)

    embeddings: dict[str, EmbeddingSet] = {}
    chip_ids = tuple(f"chip-{i:06d}" for i in range(spec.n_chips))
    for fm_id in spec.fm_ids:
        x_rng = stream(spec.data_seed, "X", fm_id)
        m = x_rng.standard_normal((spec.n_chips, spec.dim), dtype=np.float32)
        m.setflags(write=False)
        fm = FMDescriptor(fm_id=fm_id, dim=spec.dim)
        embeddings[fm_id] = EmbeddingSet(fm=fm, chip_ids=chip_ids, matrix=m)

    signal = embeddings[spec.fm_ids[0]].matrix.astype(np.float64)
    noise_rng = stream(spec.data_seed, "noise")
    raw = signal @ weights.T
    raw += spec.noise_sigma * noise_rng.standard_normal(raw.shape)

    if spec.link == "logistic":
        fractions = 1.0 / (1.0 + np.exp(-raw))
        sums = fractions.sum(axis=1, keepdims=True)
        np.divide(fractions, sums, out=fractions, where=sums > 1.0)
    else:
        fractions = _linear_link(raw)

    geo_rng = stream(spec.data_seed, "geo")
    lon = geo_rng.uniform(0.0, 1.0, spec.n_chips)
    lat = geo_rng.uniform(0.0, 1.0, spec.n_chips)
    elev = geo_rng.uniform(0.0, 4000.0, spec.n_chips)

    aoi_labels = np.array([f"aoi-{a:02d}" for a in range(spec.n_aois)], dtype=object)
    table = ChipTable(
        chip_ids=chip_ids,
        aois=aoi_labels[np.arange(spec.n_chips) % spec.n_aois],
        lon=lon,
        lat=lat,
        fractions=fractions,
        elevations=elev,
    )
    return SynthResult(
        spec=spec,
        table=table,
        embeddings=embeddings,
        planted=weights,
        raw=raw,
    )


def _linear_link(raw: np.ndarray, base: float = 0.1, margin: float = 1e-3) -> np.ndarray:
    """Affine map raw -> base + scale * raw with invariant-safe scale.

    The scale is the largest value <= 0.02 keeping every fraction inside
    [margin, 1 - margin] and every chip's sum under 1 - margin, computed
    from the realized raw matrix so the map stays deterministic and exact.
    """
    lo = float(raw.min())
    hi = float(raw.max())
    row_sum_hi = float(raw.sum(axis=1).max())
    bounds = [0.02]
    if lo < 0:
        bounds.append((base - margin) / -lo)
    if hi > 0:
        bounds.append((1.0 - base - margin) / hi)
    if row_sum_hi > 0:
        bounds.append((1.0 - N_CLASSES * base - margin) / row_sum_hi)
    scale = min(bounds)
    if scale <= 0:
        raise ValueError("raw signal too wide for a linear link")
    return base + scale * raw


# ---------------------------------------------------------------------------
# dataset directories


def write_dataset_dir(result: SynthResult, out_dir: str | Path) -> None:
    """Lay out chips.jsonl, embeddings/<fm>.emb|.idx, and planted.json."""
    out = Path(out_dir)
    (out / "embeddings").mkdir(parents=True, exist_ok=True)
    save_chip_table(result.table, out / "chips.jsonl")
    for fm_id, emb in result.embeddings.items():
        save_embeddings(
            emb,
            out / "embeddings" / f"{fm_id}.emb",
            out / "embeddings" / f"{fm_id}.idx",
        )
    planted = {
        "spec": result.spec.to_dict(),
        "weights": result.planted.tolist(),
    }
    with open(out / "planted.json", "w", encoding="utf-8") as fh:
        json.dump(planted, fh, indent=2)
        fh.write("\n")


def load_dataset_dir(data_dir: str | Path) -> dict[str, Dataset]:
    """Load every model's aligned Dataset from a dataset directory.

    Expects ``chips.jsonl`` plus ``embeddings/<fm_id>.emb`` and matching
    ``.idx`` files; model dim comes from each file header.
    """
    root = Path(data_dir)
    chips_path = root / "chips.jsonl"
    if not chips_path.exists():
        raise DataFormatError(f"{root}: missing chips.jsonl")
    table = load_chip_table(chips_path)

    emb_dir = root / "embeddings"
    paths = sorted(emb_dir.glob("*.emb")) if emb_dir.is_dir() else []
    if not paths:
        raise DataFormatError(f"{root}: no embeddings/*.emb files")
    datasets: dict[str, Dataset] = {}
    for data_path in paths:
        fm_id = data_path.stem
        index_path = data_path.with_suffix(".idx")
        if not index_path.exists():
            raise DataFormatError(f"{data_path}: missing index file {index_path.name}")
        dim, _ = read_embedding_header(data_path)
        fm = FMDescriptor(fm_id=fm_id, dim=dim)
        datasets[fm_id] = assemble_dataset(table, load_embeddings(data_path, index_path, fm))
    return datasets

"""Analysis artifacts over result files: heatmaps, scatter data, selection.

Everything here is a pure transformation from parsed result records to
plot-ready CSV (rendering itself stays outside the package). The selection
table additionally renders as aligned plain text in the ``mean ±std``
style used when quoting correlation results.

This module imports only the standard library and ``schema`` at import
time, and no report command loads numpy; keep it that way. Only reading
``HeatmapMatrix.cells``, the heatmap as an array, imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .schema import (
    CSV_COLUMNS,
    REGIME_EXTERNAL,
    AggregateRecord,
    ClassId,
    Modality,
    SamplerKind,
    csv_text,
    fmt_float,
    infer_modality,
    record_to_row,
)

if TYPE_CHECKING:
    import numpy as np

#: Default thresholds on the correlation mean and standard deviation.
R_THRESHOLD = 0.7
STD_THRESHOLD = 0.05

#: Marker emitted for a (target_aoi, class) group where no configuration
#: clears both thresholds.
NO_SELECTION = "no satisfactory configuration"

LEAST_TOTAL_ELEMENTS = "least-total-elements"
BEST_CORR_MEAN = "best-corr-mean"
SELECTION_RULES = (LEAST_TOTAL_ELEMENTS, BEST_CORR_MEAN)


def _project(rec: AggregateRecord, columns: Sequence[str], **extra: str) -> list[str]:
    """The named results-file columns of ``rec``, formatted as in that file,
    plus any ``extra`` columns the results file does not hold."""
    row = dict(zip(CSV_COLUMNS, record_to_row(rec)), **extra)
    return [row[c] for c in columns]


def _matching(records: Iterable[AggregateRecord], **fields) -> list[AggregateRecord]:
    """Records whose spec equals every given field; a None field matches any."""
    wanted = [(k, v) for k, v in fields.items() if v is not None]
    return [r for r in records if all(getattr(r.spec, k) == v for k, v in wanted)]


def _modality_rank(fm_id: str) -> int:
    mod = infer_modality(fm_id)
    if mod is Modality.S1:
        return 0
    if mod is Modality.S2:
        return 1
    return 2


# ---------------------------------------------------------------------------
# heatmap


@dataclass(frozen=True)
class HeatmapMatrix:
    """r_mean per (model, AOI-pair) cell; NaN marks a missing combination.

    Rows hold S1 models before S2 models (unrecognized modalities last),
    alphabetical within each block; columns are (train_aoi, target_aoi)
    pairs in lexicographic order. ``rows`` holds one tuple of cells per
    model, and ``cells`` the same values as a read-only 2-D array.
    """

    fm_ids: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    rows: tuple[tuple[float, ...], ...]

    @cached_property
    def cells(self) -> np.ndarray:
        import numpy as np  # here only, so that rendering the CSV needs no numpy

        cells = np.array(self.rows, dtype=np.float64)
        cells.setflags(write=False)
        return cells

    def to_csv(self) -> str:
        header = ["fm_id", "modality"] + [f"{a}->{b}" for a, b in self.pairs]
        rows = [header]
        for fm, cells in zip(self.fm_ids, self.rows):
            mod = infer_modality(fm)
            rows.append([fm, mod.value if mod else ""]
                        + ["" if math.isnan(v) else fmt_float(v) for v in cells])
        return csv_text(rows)


def heatmap_matrix(
    records: Sequence[AggregateRecord],
    class_id: ClassId,
    n_train: int | None = None,
    n_test: int | None = None,
    sampler: SamplerKind | None = None,
) -> HeatmapMatrix:
    """Spatial-generalizability matrix over external-regime records.

    Filters narrow the grid down to one record per (model, AOI-pair) cell;
    an ambiguous cell (several records surviving the filters) is an error
    asking for tighter filters, a missing one is an empty cell.
    """
    pool = _matching(records, regime=REGIME_EXTERNAL, class_id=class_id,
                     n_train=n_train, n_test=n_test, sampler=sampler)
    if not any(r.spec.class_id == class_id for r in records):
        raise ValueError(f"class {class_id.label!r} absent from results")
    if not pool:
        raise ValueError("no external-regime records survive the filters")

    fm_ids = tuple(sorted({r.spec.fm_id for r in pool},
                          key=lambda f: (_modality_rank(f), f)))
    pairs = tuple(sorted({(r.spec.train_aoi, r.spec.target_aoi) for r in pool}))
    cells = [[math.nan] * len(pairs) for _ in fm_ids]
    fm_pos = {f: i for i, f in enumerate(fm_ids)}
    pair_pos = {p: j for j, p in enumerate(pairs)}
    filled: set[tuple[int, int]] = set()
    for r in pool:
        i = fm_pos[r.spec.fm_id]
        j = pair_pos[(r.spec.train_aoi, r.spec.target_aoi)]
        if (i, j) in filled:
            raise ValueError(
                f"ambiguous heatmap cell ({r.spec.fm_id}, "
                f"{r.spec.train_aoi}->{r.spec.target_aoi}); add filters"
            )
        filled.add((i, j))
        cells[i][j] = r.r_mean
    return HeatmapMatrix(fm_ids=fm_ids, pairs=pairs, rows=tuple(map(tuple, cells)))


# ---------------------------------------------------------------------------
# scatter


SCATTER_COLUMNS = (
    "fm_id", "class", "regime", "target_aoi", "sampler",
    "n_train", "n_test", "r_mean", "r_std",
)


def ablation_scatter(
    records: Sequence[AggregateRecord],
    fm_id: str | None = None,
    class_id: ClassId | None = None,
    target_aoi: str | None = None,
    sampler: SamplerKind | None = None,
    regime: str | None = None,
) -> list[AggregateRecord]:
    """Flat filtered view of records for size/uncertainty scatter plots."""
    return _matching(records, fm_id=fm_id, class_id=class_id,
                     target_aoi=target_aoi, sampler=sampler, regime=regime)


def scatter_csv(records: Sequence[AggregateRecord]) -> str:
    """One row per record; always emits the header."""
    return csv_text([SCATTER_COLUMNS, *(_project(r, SCATTER_COLUMNS) for r in records)])


# ---------------------------------------------------------------------------
# selection


@dataclass(frozen=True)
class SelectionCriterion:
    """Threshold filter plus the rule for ranking qualifying records."""

    rule: str = LEAST_TOTAL_ELEMENTS
    r_min: float = R_THRESHOLD
    std_max: float = STD_THRESHOLD

    def __post_init__(self) -> None:
        if self.rule not in SELECTION_RULES:
            raise ValueError(f"unknown selection rule {self.rule!r}")
        if not (math.isfinite(self.r_min) and -1.0 < self.r_min < 1.0):
            raise ValueError(f"r_min must be finite in (-1, 1), got {self.r_min}")
        if not (math.isfinite(self.std_max) and self.std_max > 0.0):
            raise ValueError(f"std_max must be finite and positive, got {self.std_max}")

    def qualifies(self, rec: AggregateRecord) -> bool:
        """Strict comparisons on both thresholds; NaN never qualifies."""
        return rec.r_mean > self.r_min and rec.r_std < self.std_max

    def sort_key(self) -> Callable[[AggregateRecord], tuple]:
        if self.rule == LEAST_TOTAL_ELEMENTS:
            return lambda r: (
                r.total_elements, -r.r_mean, r.r_std, r.spec.fm_id, r.spec.key()
            )
        return lambda r: (
            -r.r_mean, r.r_std, r.total_elements, r.spec.fm_id, r.spec.key()
        )


@dataclass(frozen=True)
class SelectionRow:
    target_aoi: str
    class_id: ClassId
    selected: AggregateRecord | None


def selection_table(
    records: Sequence[AggregateRecord], criterion: SelectionCriterion
) -> list[SelectionRow]:
    """Best qualifying configuration per (target_aoi, class) group.

    Grouping spans both regimes: an externally trained probe and a
    target-split probe compete as answers to the same "what do I run on
    this AOI" question. Groups with no qualifying record are kept and
    marked, never dropped. Output order and picks are independent of the
    input row order.
    """
    groups: dict[tuple[str, ClassId], list[AggregateRecord]] = {}
    for r in records:
        groups.setdefault((r.spec.target_aoi, r.spec.class_id), []).append(r)

    key = criterion.sort_key()
    rows: list[SelectionRow] = []
    for target_aoi, class_id in sorted(groups, key=lambda g: (g[0], g[1].value)):
        qualifying = [r for r in groups[(target_aoi, class_id)] if criterion.qualifies(r)]
        selected = min(qualifying, key=key) if qualifying else None
        rows.append(SelectionRow(target_aoi=target_aoi, class_id=class_id, selected=selected))
    return rows


SELECTION_COLUMNS = (
    "target_aoi", "class", "status", "fm_id", "regime", "train_aoi", "sampler",
    "n_train", "n_test", "total_elements", "r_mean", "r_std",
)


def selection_csv(rows: Sequence[SelectionRow]) -> str:
    out = [SELECTION_COLUMNS]
    for row in rows:
        r = row.selected
        if r is None:
            out.append([row.target_aoi, row.class_id.label, NO_SELECTION]
                       + [""] * (len(SELECTION_COLUMNS) - 3))
        else:
            out.append(_project(r, SELECTION_COLUMNS, status="selected",
                                total_elements=str(r.total_elements)))
    return csv_text(out)


def selection_text(rows: Sequence[SelectionRow]) -> str:
    """Aligned table with correlations rendered as ``0.947 ±0.032``."""
    header = ("target_aoi", "class", "elements", "sampler", "fm_id", "corr")
    body: list[tuple[str, ...]] = []
    for row in rows:
        if row.selected is None:
            body.append((row.target_aoi, row.class_id.label, "-", "-", "-", NO_SELECTION))
            continue
        r = row.selected
        body.append((
            row.target_aoi,
            row.class_id.label,
            f"{r.total_elements} ({r.spec.n_train}/{r.spec.n_test})",
            r.spec.sampler.value,
            r.spec.fm_id,
            f"{r.r_mean:.3f} ±{r.r_std:.3f}",
        ))
    widths = [max(len(header[i]), *(len(b[i]) for b in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(b)).rstrip()
        for b in body
    )
    return "\n".join(lines) + "\n"

r"""File formats, dataset directories, label-grid fractions, composites and synthetic data.

On-disk formats (all little-endian; README *File formats* describes the
same layouts for users):

* Chip table: UTF-8 newline-delimited JSON, one object per line with keys
  ``chip_id``, ``aoi``, ``lon``, ``lat``, ``fractions`` (object keyed by the
  seven class labels), ``elevation_m``. Unknown keys are ignored. ``chip_id``
  and ``aoi`` must be JSON strings; ``lon``, ``lat``, each fraction and
  ``elevation_m`` must be JSON numbers (integers and the ``NaN``/``Infinity``
  literals included), so a boolean or a string is refused, naming the key.
* Chip-table column cache: ``<chip file>.cols``, written beside the chip
  file by a load whose parse passed every check, fractions in [0, 1]
  included. Header: magic ``PFCT`` |
  version u32 | chip count u64 | sha256 of the chip file's bytes (32) |
  sha256 of the payload (32). Payload: count*10 f8 values, row-major, per
  chip lon, lat, the seven fractions in class-code order and the elevation;
  then ``[chip_ids, aois]`` as one ASCII JSON array of two string arrays,
  whose escapes keep every string exactly (NUL, line ends and lone
  surrogates included). When the cache exists, the chip file's digest is
  computed through a read-only mapping, so the chip file is never copied
  into the heap; for a chip file of 4 MiB or more, on a second lane
  while the cache decodes. The table is served from the cache only when
  magic, version and both digests match; otherwise the chip file is
  parsed and the cache rewritten. A chip file truncated in place while it
  is hashed ends the process with SIGBUS, so replace it by rename, as
  ``write_dataset_dir`` does. The cache is safe to delete, and a directory
  that cannot be written is no error.
* Embeddings: magic ``EMB1`` | dim u32 | count u64 | count*dim f32 values,
  row-major, read in blocks of 1 MiB. A sibling text index holds one chip_id
  per line; line i names row i. An index whose bytes list exactly the chip
  table's ids, each ended by ``\n``, is joined without being decoded.
* Dataset directory: ``chips.jsonl`` and ``embeddings/<fm_id>.emb`` with its
  ``.idx``, each renamed into place as the cache is. ``load_dataset_dir``
  reads the table and every index, and frees the table before it reads any
  payload. Then it loads one model after another, in sorted order, through
  ``load_embeddings``, the call a one-model load makes: it checks the
  header, fills the blocks on lanes (from 4 MiB of payload up) and finishes
  the set, so a directory load raises what loading each model in turn does.
* Text files (the chip table, each index) are UTF-8, read through
  ``schema.text_lines``, which refuses a bad byte with the file and 1-based
  line. Lines end only at ``\n``, ``\r\n`` or ``\r``, so an index id may
  hold any other character, U+2028 included; ``save_embeddings`` refuses an
  id with a line end or a lone surrogate.

Lanes: ``_in_lanes`` runs a loop's items on threads, from 4 MiB of work
up, one per CPU the process may use and item at most, and returns or raises
what the loop would. It starts every thread of the package and joins them
all before it returns, so no thread is alive when ``run --threads N`` forks
its workers.

The synthetic generator plants a known linear signal in random embeddings
so probe recovery is checkable against closed-form targets.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import struct
import threading
import warnings
from dataclasses import asdict, dataclass
from functools import partial
from itertools import compress
from pathlib import Path
from typing import Any, BinaryIO, Callable, Collection, Mapping, Sequence

import numpy as np

from .core import (
    RULE_FRACTION_RANGE,
    ChipTable,
    Dataset,
    EmbeddingSet,
    assemble_dataset,
    check_json_fields,
    chip_side,
    first_repeat,
    fraction_out_of_range,
    id_positions,
    log_join,
    match_ids,
)
from .errors import AlignmentError, DataFormatError
from .schema import CLASS_LABELS, N_CLASSES, ClassId, name_fault, text_lines, write_atomic
from .seeds import derive_seed

logger = logging.getLogger(__name__)

_EMB_MAGIC = b"EMB1"

_COLS_MAGIC = b"PFCT"
_COLS_VERSION = 2
#: magic, version, chip count, sha256 of the chip file, sha256 of the payload
_COLS_HEAD = struct.Struct("<4sIQ32s32s")
#: lon, lat, the seven fractions and the elevation of one chip
_COLS_VALUES = 3 + N_CLASSES

#: Bytes of ``.emb`` payload read per block: 1 MiB, whatever the dim.
_BLOCK_BYTES = 1 << 20
#: Bytes of work (a chip file to hash, one model's payload to read) from which
#: ``_in_lanes`` runs it on threads. Below it, the work (about 0.55 ms per MB
#: of hash) saves less than a thread costs. Besides its start and join, glibc
#: treats the process as multi-threaded for good once one thread has run, and
#: a loop of 500x64 Gram fits then ran 2-3% slower.
_HASH_THREAD_BYTES = 1 << 22

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
# lanes


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_lanes(items: Sequence, nbytes: int, run: Callable[[Any, np.ndarray], Any],
              buffer_bytes: int = 0) -> list:
    """``[run(item, buffer) for item in items]``, on lanes: what ``run``
    returns for each item, in order, or else the first exception in item order,
    raised once every lane has ended. A lane runs no further item once one of
    its calls raises. Each lane gets a ``buffer`` of ``buffer_bytes`` bytes of
    its own, made here on the calling thread.

    This is the one place the package starts a thread. From
    ``_HASH_THREAD_BYTES`` of work (``nbytes``) up, the items are split into
    contiguous runs, one per lane, on as many lanes as there are items or CPUs
    this process may use, whichever is fewer: the first run here, and the
    longer one when the items do not split evenly, each other on a thread of
    its own. Every thread is joined before this returns or raises, so none is
    alive when ``run --threads N`` forks its workers. Below the floor, or with
    one CPU, every item runs here and no thread starts. ``run`` must call
    nothing that perfbench's tracer rebinds: its span stack is one per process.
    """
    lanes = 1 if nbytes < _HASH_THREAD_BYTES else max(1, min(len(items), _usable_cpus()))
    bounds = [-(-len(items) * k // lanes) for k in range(lanes + 1)]
    buffers = [np.empty(buffer_bytes, dtype=np.uint8) for _ in range(lanes)]
    done: list = [None] * len(items)
    raised: dict[int, Exception] = {}  # item position: what its call raised

    def lane(k: int) -> None:
        for i in range(bounds[k], bounds[k + 1]):
            try:
                done[i] = run(items[i], buffers[k])
            except Exception as exc:  # raised below, once every lane has ended
                raised[i] = exc
                return

    started = []
    try:
        for k in range(1, lanes):
            thread = threading.Thread(target=lane, args=(k,), name=f"probeforge-lane-{k}")
            thread.start()
            started.append(thread)
        lane(0)
    finally:
        for thread in started:
            thread.join()
    if raised:
        raise raised[min(raised)]
    return done


# ---------------------------------------------------------------------------
# chip tables


def load_chip_table(path: str | Path) -> ChipTable:
    """Parse a newline-delimited JSON chip file, or serve it from its column cache.

    Every failure names the 1-based line number; duplicate chip ids name
    the id. Blank lines are permitted and skipped, so an empty file yields
    an empty table.

    When ``<path>.cols`` exists, the file is hashed through a read-only
    mapping; from ``_HASH_THREAD_BYTES`` up, on a second lane (``_in_lanes``)
    while this thread decodes the cache. When the cache holds the columns of
    exactly these bytes (see the module docstring), the table comes from
    there, and the file is never copied into memory nor any chip record
    parsed; otherwise the file is read whole and parsed. A parse that passes
    every check, the fraction range that ``load_dataset_dir`` refuses
    included, rewrites the cache, keyed by the digest of the bytes it parsed.
    """
    cache = Path(f"{os.fspath(path)}.cols")
    with open(path, "rb") as fh:
        if cache.exists():
            cached, digest = _in_lanes((partial(_read_columns, cache), partial(_digest, fh)),
                                       os.fstat(fh.fileno()).st_size, lambda task, buffer: task())
            if cached is not None and cached[0] == digest:
                return cached[1]
            fh.seek(0)
        blob = fh.read()
    table = _parse_chips(path, blob)
    if not fraction_out_of_range(table.fractions).any():
        _write_columns(cache, hashlib.sha256(blob).digest(), table)
    return table


def _digest(fh: BinaryIO) -> bytes:
    """The sha256 of binary file ``fh``, hashed in one call over a read-only
    mapping, which releases the GIL for the whole file. A zero-length file
    cannot be mapped, so it hashes ``b""``. A file cut short while it is
    hashed ends the process with SIGBUS.
    """
    if os.fstat(fh.fileno()).st_size == 0:
        return hashlib.sha256(b"").digest()
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
        return hashlib.sha256(view).digest()


def _parse_chips(path: str | Path, blob: bytes) -> ChipTable:
    """The chip table ``blob``, the bytes of ``path``, holds."""
    ids: list[str] = []
    aois: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text_lines(path, blob), start=1):
        if not line.strip():
            continue
        try:
            chip_id, aoi, row = _parse_chip(line)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OverflowError, RecursionError) as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if chip_id in seen:
            raise DataFormatError(
                f"{path}: line {lineno}: duplicate chip_id: {chip_id!r}"
            )
        seen.add(chip_id)
        ids.append(chip_id)
        aois.append(aoi)
        values += row
    cols = np.array(values, dtype=np.float64).reshape(len(ids), _COLS_VALUES)
    return _chip_table(ids, aois, cols)


def _chip_table(ids: Sequence[str], aois: Sequence[str], cols: np.ndarray) -> ChipTable:
    """The table of rows ``cols``: lon, lat, the seven fractions, the elevation."""
    cols.setflags(write=False)
    return ChipTable(
        chip_ids=tuple(ids),
        aois=np.array(aois, dtype=object),
        lon=cols[:, 0],
        lat=cols[:, 1],
        fractions=cols[:, 2:-1],
        elevations=cols[:, -1],
    )


def _read_columns(path: Path) -> tuple[bytes, ChipTable] | None:
    """The chip-file sha256 the column cache at ``path`` is keyed by, and the
    table it holds; None when the cache is missing or damaged.

    The values are read straight into the table's array, and only once the
    header matches and the file is long enough to hold them.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(_COLS_HEAD.size)
            if len(head) < _COLS_HEAD.size:
                return None
            magic, version, n, chips_sha, payload_sha = _COLS_HEAD.unpack(head)
            if ((magic, version) != (_COLS_MAGIC, _COLS_VERSION)
                    or 8 * _COLS_VALUES * n > os.fstat(fh.fileno()).st_size - len(head)):
                return None
            cols = np.empty((n, _COLS_VALUES), dtype="<f8")
            if fh.readinto(cols) != cols.nbytes:
                return None
            tail = fh.read()
    except OSError:
        return None
    h = hashlib.sha256(cols)
    h.update(tail)
    if h.digest() != payload_sha:
        return None
    # The payload digest matches, so only a faulty writer could make what follows fail.
    try:
        ids, aois = json.loads(str(tail, "ascii"))
        return chips_sha, _chip_table(ids, aois, cols)
    except (ValueError, TypeError):  # bad JSON, columns of other lengths
        return None


def _write_columns(path: Path, digest: bytes, table: ChipTable) -> None:
    """Write ``table``'s column cache for the chip file of sha256 ``digest``,
    through ``write_atomic``; a torn file left by a crash fails the payload
    digest. Failure to write is logged at debug level and is no error: the
    cache only saves time.
    """
    values = np.column_stack([table.lon, table.lat, table.fractions, table.elevations])
    payload = b"".join([
        np.ascontiguousarray(values, dtype="<f8").tobytes(),
        json.dumps([table.chip_ids, table.aois.tolist()]).encode("ascii"),
    ])
    head = _COLS_HEAD.pack(_COLS_MAGIC, _COLS_VERSION, len(table), digest,
                           hashlib.sha256(payload).digest())
    try:
        write_atomic(path, head, payload)
    except OSError as exc:
        logger.debug("chip column cache %s not written: %s", path, exc)


_LABEL_SET = frozenset(CLASS_LABELS)
#: What json.loads makes of a JSON number; a bool is no number here.
_NUMBER_TYPES = frozenset((int, float))
_ROW_KEYS = ("lon", "lat", *(f"fractions[{label!r}]" for label in CLASS_LABELS),
             "elevation_m")


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
    chip_id, aoi = rec["chip_id"], rec["aoi"]
    if not (isinstance(chip_id, str) and isinstance(aoi, str)):
        key = "aoi" if isinstance(chip_id, str) else "chip_id"
        raise ValueError(f"{key} must be a JSON string, got {rec[key]!r}")
    row = [rec["lon"], rec["lat"], *map(raw_fr.__getitem__, CLASS_LABELS),
           rec["elevation_m"]]
    if not _NUMBER_TYPES.issuperset(map(type, row)):
        i = next(i for i, v in enumerate(row) if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"{_ROW_KEYS[i]} must be a JSON number, got {row[i]!r}")
    return chip_id, aoi, list(map(float, row))


def save_chip_table(table: ChipTable, path: str | Path) -> None:
    columns = (table.aois, table.lon, table.lat, table.fractions, table.elevations)
    text = "".join(
        json.dumps({
            "chip_id": chip_id,
            "aoi": aoi,
            "lon": lon,
            "lat": lat,
            "fractions": dict(zip(CLASS_LABELS, fractions)),
            "elevation_m": elevation,
        }) + "\n"
        for chip_id, aoi, lon, lat, fractions, elevation in zip(
            table.chip_ids, *(c.tolist() for c in columns)))
    write_atomic(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# embeddings


def save_embeddings(emb: EmbeddingSet, data_path: str | Path, index_path: str | Path) -> None:
    """Write the binary matrix and its text index (see module docstring).

    An id the index cannot hold, one with a line end or one that is not
    encodable as UTF-8 (a lone surrogate), is refused before either file is
    written.
    """
    index = []
    for cid in emb.chip_ids:
        try:
            line = cid.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataFormatError(
                f"{index_path}: chip id {cid!r} is not encodable as UTF-8 ({exc.reason})"
            ) from None
        if b"\n" in line or b"\r" in line:
            raise DataFormatError(f"{index_path}: chip id {cid!r} holds a line end")
        index.append(line + b"\n")
    m = np.ascontiguousarray(emb.matrix, dtype="<f4")
    write_atomic(data_path, _EMB_MAGIC, struct.pack("<IQ", m.shape[1], len(emb)), m.data)
    write_atomic(index_path, b"".join(index))


@dataclass(frozen=True, eq=False)
class _IndexJoin:
    """An embedding index's bytes, joined to a list of chips: all that a load
    of any ``.emb`` file with this index needs. Models whose ``.idx`` files
    hold the same bytes share one join. It keeps the bytes, not the decoded
    ids, which are decoded again only to name a chip or a line in an error."""

    blob: bytes
    count: int
    repeated: bool
    #: the index rows whose chip the list holds, whatever ``wanted`` keeps
    matched: int
    #: the list positions of the kept chips, ascending
    rows: np.ndarray
    kept: tuple[str, ...]
    #: dest[i] is the output row of file row i, or -1 for a row not kept;
    #: None when every row is kept in file order.
    dest: np.ndarray | None

    def ids(self, index_path: str | Path) -> list[str]:
        """The index's chip ids, line by line, decoded from its bytes again."""
        return list(text_lines(index_path, self.blob))

    def keeping_none(self) -> _IndexJoin:  # for a load that only checks the payload
        return _IndexJoin(self.blob, self.count, self.repeated, self.matched,
                          self.rows[:0], (), np.full(self.count, -1, dtype=np.intp))


def _join_index(index_path: str | Path, blob: bytes, chips: Sequence[str] | None,
                wanted: np.ndarray | None = None) -> _IndexJoin:
    """Join ``blob``, the bytes of ``index_path``, to ``chips``, distinct chip
    ids, keeping the rows of those the index lists, in ``chips`` order, and
    only the chips that mask ``wanted`` marks, if given. With ``chips`` None
    the join keeps every row in file order.

    An index that lists exactly ``chips``, in order, is neither decoded nor
    hashed: ``chips`` are distinct, so its rows are theirs one for one.
    """
    if chips is not None and _lists_exactly(blob, chips):
        count, repeated = len(chips), False
        found, src = np.ones(count, dtype=bool), np.arange(count)
    else:
        ids = tuple(text_lines(index_path, blob))
        # The index is hashed once, for both the join and the repeat check.
        index = id_positions(ids)
        chips = ids if chips is None else chips
        found, src = match_ids(chips, ids, index)
        count, repeated = len(ids), len(index) < len(ids)
    matched = int(np.count_nonzero(found))
    if wanted is not None:
        src = src[wanted[found]]
        found &= wanted
    rows = np.flatnonzero(found)
    kept = tuple(chips if rows.size == len(chips) else compress(chips, found.tolist()))
    dest = None
    if not np.array_equal(src, np.arange(count)):
        dest = np.full(count, -1, dtype=np.intp)
        dest[src] = np.arange(rows.size)
    return _IndexJoin(blob, count, repeated, matched, rows, kept, dest)


def _lists_exactly(blob: bytes, chips: Sequence[str]) -> bool:
    r"""Whether index bytes ``blob`` hold ``chips`` one per line, each ended by
    ``"\n"``: no ``"\r"``, one ``"\n"`` per chip, and the chips' own UTF-8."""
    if b"\r" in blob or blob.count(b"\n") != len(chips):
        return False
    try:
        return blob == "\n".join([*chips, ""]).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no valid index holds
        return False


def load_embeddings(
    data_path: str | Path,
    index_path: str | Path,
    fm_id: str,
    join: _IndexJoin | None = None,
) -> EmbeddingSet:
    """Read a binary embedding matrix plus its text index as model ``fm_id``.

    The matrix width is the header dim, which must be positive; the payload
    must hold exactly the header's rows, the index line count must equal
    the header row count, and all values must be finite. A repeated chip id
    is reported with the index file and the 1-based line of its second
    occurrence.

    The header is checked against the file's size and the index, then the
    payload is read once, in blocks of ``_BLOCK_BYTES``, on lanes
    (``_in_lanes``) from ``_HASH_THREAD_BYTES`` of payload up; every row is
    checked whatever the set keeps. Each block raises its own error, naming
    the chip of its first non-finite row, and the load raises the earliest
    block's, as a read of one block after another would. Without ``join``
    the set holds every row in file order. ``join`` is the index already
    read and joined by the caller (``_join_index``), and the set holds the
    rows it keeps, in the order of the chips it was joined to:
    ``load_dataset_dir`` joins each distinct index once, and loads each
    model through this call.
    """
    data_path, index_path = Path(data_path), Path(index_path)
    with open(data_path, "rb", buffering=0) as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != _EMB_MAGIC:
            raise DataFormatError(f"{data_path}: bad magic, not an embedding file")
        dim, count = struct.unpack("<IQ", head[4:16])
        size = os.fstat(fh.fileno()).st_size
        expected = 16 + 4 * dim * count
        if size != expected:
            raise DataFormatError(f"{data_path}: payload is {size} bytes, header implies {expected}")
        if join is None:
            join = _join_index(index_path, index_path.read_bytes(), None)
        if join.count != count:
            raise DataFormatError(
                f"{index_path}: index/header mismatch: header rows {count},"
                f" index lines {join.count}"
            )
        matrix = np.empty((len(join.kept), dim), dtype="<f4")
        dest = join.dest
        step = max(1, _BLOCK_BYTES // max(4 * dim, 1))  # rows per block, at least one

        def fill(start: int, buffer: np.ndarray) -> None:
            """Read the block of rows from ``start``, check that it is finite,
            naming its first non-finite row, and put its kept rows in the
            matrix. Without a row map the block is read straight into the
            matrix; with one, into ``buffer``, whose kept rows are then copied."""
            n = min(step, count - start)
            rows = matrix[start:start + n] if dest is None else (
                buffer[:4 * n * dim].view("<f4").reshape(n, dim))
            if _read_at(fh, data_path, rows, 16 + 4 * dim * start) != rows.nbytes:
                raise DataFormatError(f"{data_path}: payload shrank while being read")
            # one flat test per block; the bad row is looked for only on failure
            if not np.isfinite(rows).all():
                bad = start + int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
                raise DataFormatError(
                    f"{data_path}: non-finite values, first offending row {bad}"
                    f" (chip {join.ids(index_path)[bad]!r})"
                )
            if dest is not None:
                to = dest[start:start + n]
                mine = to >= 0
                matrix[to[mine]] = rows[mine]

        nbytes = size - 16
        _in_lanes(range(0, count if nbytes else 0, step), nbytes, fill,
                  0 if dest is None else 4 * min(count, step) * dim)
    matrix.setflags(write=False)
    # A zero width is reported before a repeated id, as EmbeddingSet checks it
    # first. A repeated id is the index's fault: name its line, not the matrix file.
    if dim and join.repeated:
        ids = join.ids(index_path)
        dup = first_repeat(ids)
        raise DataFormatError(f"{index_path}: line {dup + 1}: duplicate chip_id: {ids[dup]!r}")
    try:
        return EmbeddingSet(fm_id=fm_id, chip_ids=join.kept, matrix=matrix)
    except ValueError as exc:
        raise DataFormatError(f"{data_path}: {exc}") from exc


def _read_at(fh: BinaryIO, path: Path, rows: np.ndarray, offset: int) -> int:
    """Read file ``fh``, at ``path``, from byte ``offset`` into ``rows`` until
    they are full or the file ends; the bytes read. Each lane reads at its own
    offset: through ``os.preadv`` where there is one, else through a handle of
    its own."""
    view = memoryview(rows).cast("B")
    if not hasattr(os, "preadv"):
        with open(path, "rb") as own:
            own.seek(offset)
            return own.readinto(view)
    got = 0
    while got < len(view):
        n = os.preadv(fh.fileno(), [view[got:]], offset + got)
        if not n:
            break
        got += n
    return got


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


def compute_class_fractions(grid: LabelGrid) -> dict[ClassId, float]:
    """Per-class pixel fractions over the valid (non-no-data) pixels.

    All seven classes appear in the result, zero when absent. Codes outside
    ``CODE_TO_CLASS`` (the four unused product classes) count toward the
    denominator only, so the fractions sum to at most 1.
    """
    valid = grid.codes != NODATA_CODE
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DataFormatError("no valid pixels")
    out = {c: 0.0 for c in ClassId}
    for code, cls in CODE_TO_CLASS.items():
        out[cls] = int((grid.codes == code).sum()) / n_valid
    return out


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
    need. An id is refused, naming it, when a grid's ``fms`` could not hold
    it (``schema.name_fault``: empty, holding ``;``, longer than
    ``csv.field_size_limit()`` or not encodable as UTF-8), and when it does
    not name a file of its own in ``embeddings/``: one holding a path
    separator or a NUL, listed twice, or whose ``.emb`` name is over 255 bytes.
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
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.n_aois <= 0:
            raise ValueError("n_aois must be positive")
        if self.n_classes != N_CLASSES:
            raise ValueError(f"class count is fixed at {N_CLASSES}")
        if not self.fm_ids:
            raise ValueError("at least one fm_id required")
        if self.link not in ("logistic", "linear"):
            raise ValueError(f"unknown link {self.link!r}")
        object.__setattr__(self, "fm_ids", tuple(self.fm_ids))
        # Each id is a name a grid's fms axis can hold, and names
        # embeddings/<fm_id>.emb, a file of its own in that directory whose
        # name fits in 255 bytes.
        for fault in filter(None, map(name_fault, self.fm_ids)):
            raise ValueError(f"fm_ids holds {fault}")
        for fm_id in self.fm_ids:
            if any(c in fm_id for c in ("/", "\0", os.sep, os.altsep) if c):
                raise ValueError(f"fm_ids: {fm_id!r} does not name a file in embeddings/")
            size = len(os.fsencode(f"{fm_id}.emb"))
            if size > 255:
                raise ValueError(f"fm_ids: {fm_id!r} is too long: its .emb file name"
                                 f" would be {size} bytes, over 255")
        if len(set(self.fm_ids)) < len(self.fm_ids):
            raise ValueError(f"fm_ids: {self.fm_ids[first_repeat(self.fm_ids)]!r} is repeated")

    @classmethod
    def from_dict(cls, d: Mapping) -> "SynthSpec":
        """Build a spec from parsed JSON, naming the key of any malformed entry."""
        check_json_fields(cls, d, "synth spec")
        return cls(**d)


@dataclass(frozen=True)
class SynthResult:
    spec: SynthSpec
    table: ChipTable
    embeddings: dict[str, EmbeddingSet]
    planted: np.ndarray

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


def stream(base: int, *parts: int | str) -> np.random.Generator:
    """A private PCG64 generator for the given seed derivation."""
    return np.random.default_rng(derive_seed(base, *parts))


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
        embeddings[fm_id] = EmbeddingSet(fm_id=fm_id, chip_ids=chip_ids, matrix=m)

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
    return SynthResult(spec=spec, table=table, embeddings=embeddings, planted=weights)


def _linear_link(raw: np.ndarray) -> np.ndarray:
    """Affine map raw -> base + scale * raw with invariant-safe scale.

    The scale is the largest value <= 0.02 keeping every fraction inside
    [margin, 1 - margin] and every chip's sum under 1 - margin, computed
    from the realized raw matrix so the map stays deterministic and exact.
    """
    base, margin = 0.1, 1e-3
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
    """Lay out chips.jsonl, embeddings/<fm>.emb|.idx, and planted.json. An
    ``.emb`` or ``.idx`` of another model in ``embeddings/``, which a load would
    join to these chips, is refused first, and left as it is."""
    out = Path(out_dir)
    for path in sorted(out.glob("embeddings/*")):
        if path.suffix in (".emb", ".idx") and path.stem not in result.embeddings:
            raise DataFormatError(f"{path}: a model this dataset does not write; remove it"
                                  " or write the dataset elsewhere")
    (out / "embeddings").mkdir(parents=True, exist_ok=True)
    save_chip_table(result.table, out / "chips.jsonl")
    for fm_id, emb in result.embeddings.items():
        save_embeddings(
            emb,
            out / "embeddings" / f"{fm_id}.emb",
            out / "embeddings" / f"{fm_id}.idx",
        )
    planted = {
        "spec": asdict(result.spec),
        "weights": result.planted.tolist(),
    }
    write_atomic(out / "planted.json", (json.dumps(planted, indent=2) + "\n").encode("utf-8"))


def load_dataset_dir(data_dir: str | Path, fms: Collection[str] | None = None,
                     aois: Collection[str] | None = None) -> dict[str, Dataset]:
    """Load each model in ``fms`` (all when None) and check every other one,
    in sorted order. A Dataset holds the chips in ``aois`` (all when None);
    with none, every spec is infeasible.

    The chip table and every index are read first. Each distinct ``.idx``
    content is joined once to the table's chips in ``aois``, and gets a
    Dataset's chip fields only when a model in ``fms`` uses it. The table is
    freed before any payload is read. Then each model is loaded in turn
    through the call a one-model load makes (``load_embeddings``); a model
    only checked keeps no row. So the load raises what a load of each model
    in turn raises: the error of the first model to fail, and of its
    earliest step and block.
    """
    root = Path(data_dir)
    chips_path = root / "chips.jsonl"
    if not chips_path.exists():
        raise DataFormatError(f"{root}: missing chips.jsonl")
    table = load_chip_table(chips_path)
    bad = np.argwhere(fraction_out_of_range(table.fractions))
    if bad.size:
        i, c = bad[0].tolist()
        raise DataFormatError(
            f"{chips_path}: chip {table.chip_ids[i]!r}: {RULE_FRACTION_RANGE}"
            f" ({CLASS_LABELS[c]}={float(table.fractions[i, c])!r})"
        )
    wanted = None
    if aois is not None:
        wanted = np.fromiter(map(frozenset(aois).__contains__, table.aois.tolist()),
                             dtype=bool, count=len(table))
    n_chips = len(table) if wanted is None else int(np.count_nonzero(wanted))

    emb_dir = root / "embeddings"
    paths = sorted(emb_dir.glob("*.emb")) if emb_dir.is_dir() else []
    if not paths:
        raise DataFormatError(f"{root}: no embeddings/*.emb files")
    models, joins, sides = [], {}, {}  # joins and sides: per distinct index
    for data_path in paths:
        index_path = data_path.with_suffix(".idx")
        if not index_path.exists():
            raise DataFormatError(f"{data_path}: missing index file {index_path.name}")
        blob = index_path.read_bytes()
        if blob not in joins:
            joins[blob] = _join_index(index_path, blob, table.chip_ids, wanted)
        join = joins[blob]
        read = fms is None or data_path.stem in fms
        if read and blob not in sides:
            sides[blob] = chip_side(table, join.rows, join.kept)
        models.append((data_path, index_path, join, sides[blob] if read else None))
    # Only what each model needs outlives the reads: not the table, nor what joined it.
    del table, wanted, joins, sides, blob

    datasets = {}
    for data_path, index_path, join, chips in models:
        fm_id = data_path.stem
        emb = load_embeddings(data_path, index_path, fm_id,
                              join if chips is not None else join.keeping_none())
        if not join.matched:
            raise AlignmentError(f"{index_path}: no aligned chips")
        if chips is not None:
            log_join(fm_id, n_chips - len(emb), join.count - join.matched)
            datasets[fm_id] = Dataset(fm_id=fm_id, matrix=emb.matrix, **chips)
    return datasets

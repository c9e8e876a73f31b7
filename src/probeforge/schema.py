"""The results file and the vocabulary it is written in.

Land-cover classes, model modalities, sampler kinds, training regimes, the
experiment spec and its aggregated record, and the results CSV that holds
one record per row: its columns, how a record becomes a row and back, the
one CSV writer, and ``write_atomic``, the one way a file is written whole.
It also holds ``text_lines``, the one line reader that names the line of a
bad UTF-8 byte, for every text input: the chip table, each embedding index
and, through ``parse_numbered_results``, a results file; and ``name_fault``,
the one rule for the model ids and AOI names that a spec key and a results
row hold: a name may not be empty, hold ``;``, be longer than
``csv.field_size_limit()`` or fail to encode as UTF-8. A grid checks its
axes with it, and a synth spec its ``fm_ids``.

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
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def name_fault(name: str) -> str | None:
    """Why model id or AOI name ``name`` cannot stand in a spec key and a
    results row, naming it unless it is too long to print; None if it can.

    It may not be empty (a results row reads an empty AOI as none), hold
    ``;`` (the separator of a key's fields, so two specs could share a key),
    be longer than ``csv.field_size_limit()`` (the results reader refuses
    such a field) or fail to encode as UTF-8, the results file's encoding
    (a lone surrogate, which a JSON ``\\ud800`` escape can hold).
    """
    if len(name) > csv.field_size_limit():
        return f"a name longer than {csv.field_size_limit()} characters"
    if not name:
        return "an empty name"
    if ";" in name:
        return f"{name!r}: a name may not contain ';'"
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"{name!r}: a name must be encodable as UTF-8 ({exc.reason})"
    return None


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
        """The key without the class, and the target-split seed tag: no draw reads the class."""
        return self._key("")

    def train_key(self) -> str:
        """What the train draw reads, and the tag its seed derives from.

        An external train set reads neither the target AOI nor the test
        size. A target-split train set is carved beside its test set, so it
        reads the whole draw key.
        """
        if self.regime != REGIME_EXTERNAL:
            return self.draw_key()
        return (f"regime={self.regime};fm={self.fm_id};train={self.train_aoi};"
                f"sampler={self.sampler.value};n_train={self.n_train};"
                f"reps={self.repetitions}")

    def test_key(self) -> str:
        """The tag the test draw's seed derives from.

        An external test set is a random draw from the target AOI whatever
        the train side, so it names no train AOI, sampler or train size. A
        target-split test set keeps the draw key's chain.
        """
        if self.regime != REGIME_EXTERNAL:
            return self.draw_key()
        return (f"regime={self.regime};fm={self.fm_id};target={self.target_aoi};"
                f"n_test={self.n_test};reps={self.repetitions}")

    def seed(self) -> int:
        """The draw key's seed: the root of a target-split spec's draws."""
        return derive_seed(self.base_seed, self.draw_key())

    def draw_seeds(self, rep: int) -> tuple[int, int]:
        """Repetition ``rep``'s (test, train) draw seeds; no other code derives them."""
        if self.regime == REGIME_EXTERNAL:
            return (derive_seed(self.base_seed, self.test_key(), "rep", rep),
                    derive_seed(self.base_seed, self.train_key(), "rep", rep))
        rep_seed = derive_seed(self.seed(), "rep", rep)
        return derive_seed(rep_seed, "test"), derive_seed(rep_seed, "train")


@dataclass(frozen=True)
class AggregateRecord:
    """One results row: the spec echoed plus aggregated metrics.

    It holds results only: the row's ``wall_ms`` column is always ``0``,
    and the runner logs each run unit's wall time instead.
    """

    spec: ExperimentSpec
    r_mean: float = float("nan")
    r_std: float = float("nan")
    rmse_mean: float = float("nan")
    rmse_std: float = float("nan")
    degenerate_runs: int = 0
    infeasible: bool = False

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
#: an AggregateRecord beyond these fields enters the results file. The
#: ``wall_ms`` column holds no field: it is written as ``0``, and what is read
#: from it must be a number, as rows streamed by older versions hold a time.
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
    ("wall_ms", None, lambda _: "0", float),
    ("base_seed", "base_seed", str, int),
)
CSV_COLUMNS = tuple(column for column, *_ in _RESULTS_SCHEMA)
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))


def record_to_row(rec: AggregateRecord) -> list[str]:
    values = {**vars(rec.spec), **vars(rec)}
    return [write(values.get(name)) for _, name, write, _ in _RESULTS_SCHEMA]


def record_from_row(row: Sequence[str]) -> AggregateRecord:
    if len(row) != len(CSV_COLUMNS):
        raise DataFormatError(
            f"results row has {len(row)} fields, expected {len(CSV_COLUMNS)}"
        )
    values = {name: read(text) for (_, name, _, read), text in zip(_RESULTS_SCHEMA, row)}
    del values[None]  # wall_ms
    spec = ExperimentSpec(**{name: values.pop(name) for name in _SPEC_FIELDS})
    return AggregateRecord(spec=spec, **values)


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` as CSV text, each line ending in ``\\n``: every CSV the package writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_results_file(path: str | Path, records: Sequence[AggregateRecord]) -> None:
    """Write the canonical results CSV (record order is the file order)."""
    text = csv_text([CSV_COLUMNS, *map(record_to_row, records)])
    write_atomic(path, text.encode("utf-8"))


def write_atomic(path: str | Path, *chunks: bytes | memoryview) -> None:
    """Write ``chunks`` to a uniquely named file beside ``path`` and rename it
    over ``path``: a reader sees the old file or the new one, a hard link to
    it keeps the old, a symlink there is replaced, and a failed write leaves
    neither a change nor a temporary file. The mode passes through the umask.
    The temporary name is the target's with its last 13 characters, a byte or
    more each, replaced by 13 bytes: it fits wherever the target's fits."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f"{name[:-13]}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


#: Bytes of a text file decoded at a time, up to the next line end: open()'s chunk size.
_TEXT_BLOCK = 1 << 13
_LINE_END = re.compile(rb"\r\n?|\n")


def text_lines(path: str | Path, blob: bytes) -> Iterator[str]:
    r"""The lines of ``blob``, the bytes of text file ``path``, without their ends.

    Lines end only at ``\n``, ``\r\n`` and ``\r``, not at U+2028 and the like.
    Bad UTF-8 raises ``DataFormatError`` naming ``path`` and the 1-based line,
    once every line ahead of that one has been yielded.
    """
    start = done = 0  # done: the lines yielded so far
    while start < len(blob):
        # a block ends just past a line end, so no "\r\n" spans two blocks
        found = _LINE_END.search(blob, start + _TEXT_BLOCK)
        end = found.end() if found else len(blob)
        try:
            text, reason = str(blob[start:end], "utf-8"), None
        except UnicodeDecodeError as exc:
            # keep the valid text ahead of the bad byte, which now sits at end
            end = start + exc.start
            text, reason = str(blob[start:end], "utf-8"), exc.reason
        if "\r" in text:  # a search is far cheaper than a replace that finds nothing
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if reason is not None:
            # The complete lines ahead of the bad byte come first, so that a
            # fault the caller finds on one of them is reported ahead of it;
            # the last, cut short by the bad byte, is the bad byte's line.
            yield from lines[:-1]
            raise DataFormatError(f"{path}: line {done + len(lines)}: not valid UTF-8"
                                  f" (byte 0x{blob[end]:02x}: {reason})")
        if not lines[-1]:  # the block ends with a line end, not a line
            lines.pop()
        yield from lines
        done += len(lines)
        start = end


def parse_results_file(path: str | Path) -> list[AggregateRecord]:
    """The records of results file ``path`` (see ``parse_numbered_results``)."""
    return [rec for _, rec in parse_numbered_results(path)]


def parse_numbered_results(path: str | Path) -> list[tuple[int, AggregateRecord]]:
    """Each record of results file ``path`` with the 1-based line of the file
    its row ends on (a quoted field may span lines). A refusal names the file
    and, past the header, that line: a bad row, a byte that is not UTF-8, or a
    field over csv's size limit."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty results file")
            if tuple(header) != CSV_COLUMNS:
                raise DataFormatError(f"{path}: unexpected results header {header}")
            out = []
            for row in reader:
                try:
                    out.append((reader.line_num, record_from_row(row)))
                except (DataFormatError, ValueError) as exc:
                    raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            # the text layer decodes ahead of the rows, so find the byte in the file
            for _ in text_lines(path, Path(path).read_bytes()):
                pass
            raise
    return out

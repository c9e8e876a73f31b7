"""Command-line entry point.

Six subcommands: ``validate``, ``synth``, ``run``, ``report-heatmap``,
``report-scatter``, ``report-select``. Exit codes: 0 success, 1 usage
error, 2 data or validation error, 3 unexpected runtime failure. All
diagnostics go to stderr; report data goes to ``--out`` or stdout.

The environment variable ``PROBEFORGE_SEED`` (ASCII decimal digits, 64-bit) overrides
the grid's base seed for ``run``.

Importing this module loads only the standard library and the stdlib-only
``schema`` and ``report``: the report commands never load numpy. The other
handlers import the numpy-backed modules they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .errors import AlignmentError, DataFormatError, ProbeforgeError
from .report import (
    LEAST_TOTAL_ELEMENTS,
    R_THRESHOLD,
    SELECTION_RULES,
    STD_THRESHOLD,
    SelectionCriterion,
    ablation_scatter,
    heatmap_matrix,
    scatter_csv,
    selection_csv,
    selection_table,
    selection_text,
)
from .schema import CLASS_LABELS, REGIMES, ClassId, SamplerKind, parse_results_file, write_atomic

logger = logging.getLogger(__name__)

SEED_ENV = "PROBEFORGE_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems instead of exiting."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="probeforge",
        description="Budget-constrained linear probing of chip embedding sets.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command",
                               parser_class=_Parser)

    p = sub.add_parser("validate",
                       help="check a chip table and embedding file pair")
    p.add_argument("--chips", required=True, help="chip table (.jsonl)")
    p.add_argument("--emb", required=True, help="embedding matrix (.emb)")
    p.add_argument("--index", required=True, help="embedding index (.idx)")
    p.add_argument("--fm-dim", required=True, type=int, help="expected embedding dim")
    p.add_argument("--fm-id", default=None, help="model id (default: emb file stem)")

    p = sub.add_parser("synth",
                       help="generate a planted-signal synthetic dataset")
    p.add_argument("--spec", required=True, help="synth spec JSON file")
    p.add_argument("--out-dir", required=True, help="dataset directory to create")

    p = sub.add_parser("run", help="execute an experiment grid")
    p.add_argument("--grid", required=True, help="grid spec JSON file")
    p.add_argument("--data-dir", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (one BLAS thread each)")
    p.add_argument("--resume", action="store_true",
                   help="keep completed rows in --out and run only missing specs")

    p = sub.add_parser("report-heatmap",
                       help="spatial generalizability matrix (external regime)")
    p.add_argument("--results", required=True)
    p.add_argument("--class", required=True, dest="class_name", choices=CLASS_LABELS)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--sampler", default=None, choices=[s.value for s in SamplerKind])
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser("report-scatter",
                       help="flat records for size/uncertainty scatter plots")
    p.add_argument("--results", required=True)
    p.add_argument("--fm", default=None)
    p.add_argument("--class", default=None, dest="class_name", choices=CLASS_LABELS)
    p.add_argument("--target-aoi", default=None)
    p.add_argument("--sampler", default=None, choices=[s.value for s in SamplerKind])
    p.add_argument("--regime", default=None, choices=list(REGIMES))
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser("report-select",
                       help="best qualifying configuration per target AOI and class")
    p.add_argument("--results", required=True)
    p.add_argument("--criterion", default=LEAST_TOTAL_ELEMENTS, choices=SELECTION_RULES)
    p.add_argument("--r-min", type=float, default=R_THRESHOLD)
    p.add_argument("--std-max", type=float, default=STD_THRESHOLD)
    p.add_argument("--format", default="csv", choices=["csv", "text"],
                   dest="out_format")
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    return parser


# The CLI's seams. ``_cmd_run`` calls these two through this module's
# globals, so a caller may rebind them (a benchmark times them that way).
# Reading them must not load numpy, so each imports its module when called.
def load_dataset_dir(data_dir, fms=None, aois=None):
    """``ingest.load_dataset_dir``."""
    from .ingest import load_dataset_dir

    return load_dataset_dir(data_dir, fms, aois)


def run_grid(grid, datasets, out_path, threads=1, resume=False):
    """``runner.run_grid``."""
    from .runner import run_grid

    return run_grid(grid, datasets, out_path, threads=threads, resume=resume)


def _read_json(path: str, build):
    """``build`` of the JSON document in file ``path``; a refusal of either
    names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except (ProbeforgeError, ValueError, KeyError, RecursionError) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def _refuse_an_input_as_out(out: str | None, inputs: list[Path]) -> None:
    """Refuse an existing ``out`` that is one of ``inputs``, a hard link or
    symlink to one included, before anything is read or written."""
    if out is None or not os.path.exists(out):
        return
    for path in inputs:
        if path.exists() and os.path.samefile(out, path):
            raise DataFormatError(
                f"--out {out} is {path}, an input of this run; write the output elsewhere")


def _refuse_a_dataset_file_as_out(out: str, data_dir: str) -> None:
    """Refuse an ``out`` where the dataset directory keeps files that a run
    writes or reads, whether it exists yet or not: ``chips.jsonl.cols`` in
    ``data_dir``, or a name ending in ``.emb`` or ``.idx`` in its
    ``embeddings/``, where the loader takes every ``*.emb`` for a model."""
    where, name = os.path.split(out)
    if name == "chips.jsonl.cols":
        owner, kept = data_dir, "chip column cache"
    elif name.endswith((".emb", ".idx")):
        owner, kept = os.path.join(data_dir, "embeddings"), "models"
    else:
        return
    where = where or "."
    if os.path.isdir(where) and os.path.isdir(owner) and os.path.samefile(where, owner):
        raise DataFormatError(f"--out {out} is where dataset {data_dir} keeps its {kept};"
                              " write the output elsewhere")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_atomic(out, text.encode("utf-8"))


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core import assemble_dataset, validate_dataset
    from .ingest import load_chip_table, load_embeddings

    table = load_chip_table(args.chips)
    emb = load_embeddings(args.emb, args.index, args.fm_id or Path(args.emb).stem)
    if emb.matrix.shape[1] != args.fm_dim:
        raise DataFormatError(
            f"{args.emb}: dimension mismatch: file dim {emb.matrix.shape[1]}, "
            f"--fm-dim {args.fm_dim}"
        )
    try:
        dataset = assemble_dataset(table, emb)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.index}: {exc}") from exc
    report = validate_dataset(dataset)
    print(report.summary())
    return 0 if report.valid else 2


def _cmd_synth(args: argparse.Namespace) -> int:
    from .ingest import SynthSpec, synthesize_dataset, write_dataset_dir

    spec = _read_json(args.spec, SynthSpec.from_dict)
    result = synthesize_dataset(spec)
    write_dataset_dir(result, args.out_dir)
    logger.info(
        "wrote %d chips and %d embedding set(s) to %s",
        spec.n_chips, len(result.embeddings), args.out_dir,
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    # Both seams' modules load here, before either seam runs, so that a
    # caller timing a seam times no import.
    from . import ingest  # noqa: F401
    from .runner import GridSpec, enumerate_grid, grid_reads

    # the run's inputs; a results file elsewhere in the data directory is none
    chips = Path(args.data_dir, "chips.jsonl")
    embeddings = Path(args.data_dir, "embeddings")
    inputs = [Path(args.grid), chips, Path(f"{chips}.cols")]
    if embeddings.is_dir():
        inputs += sorted(embeddings.iterdir())
    _refuse_an_input_as_out(args.out, inputs)
    _refuse_a_dataset_file_as_out(args.out, args.data_dir)
    grid = _read_json(args.grid, GridSpec.from_dict)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        # ASCII digits only: int() also takes "1_0", other scripts' digits and spaces
        if not (env_seed.isascii() and env_seed.isdigit()):
            raise UsageError(f"{SEED_ENV} must be a decimal integer, got {env_seed!r}")
        seed = int(env_seed)
        if seed >= 2**64:
            raise UsageError(f"{SEED_ENV} must fit in 64 bits, got {env_seed}")
        logger.info("%s=%d overrides grid base_seed %d", SEED_ENV, seed, grid.base_seed)
        grid = dataclasses.replace(grid, base_seed=seed)
    fms, aois = grid_reads(enumerate_grid(grid))
    datasets = load_dataset_dir(args.data_dir, fms, aois)
    records = run_grid(grid, datasets, args.out,
                       threads=args.threads, resume=args.resume)
    logger.info("results: %d rows at %s", len(records), args.out)
    return 0


def _cmd_report_heatmap(args: argparse.Namespace) -> int:
    _refuse_an_input_as_out(args.out, [Path(args.results)])
    records = parse_results_file(args.results)
    matrix = heatmap_matrix(
        records,
        ClassId.from_label(args.class_name),
        n_train=args.n_train,
        n_test=args.n_test,
        sampler=SamplerKind(args.sampler) if args.sampler else None,
    )
    _emit(matrix.to_csv(), args.out)
    return 0


def _cmd_report_scatter(args: argparse.Namespace) -> int:
    _refuse_an_input_as_out(args.out, [Path(args.results)])
    records = parse_results_file(args.results)
    picked = ablation_scatter(
        records,
        fm_id=args.fm,
        class_id=ClassId.from_label(args.class_name) if args.class_name else None,
        target_aoi=args.target_aoi,
        sampler=SamplerKind(args.sampler) if args.sampler else None,
        regime=args.regime,
    )
    _emit(scatter_csv(picked), args.out)
    return 0


def _cmd_report_select(args: argparse.Namespace) -> int:
    try:
        criterion = SelectionCriterion(
            rule=args.criterion, r_min=args.r_min, std_max=args.std_max)
    except ValueError as exc:
        raise UsageError(f"probeforge report-select: {exc}") from exc
    _refuse_an_input_as_out(args.out, [Path(args.results)])
    rows = selection_table(parse_results_file(args.results), criterion)
    render = selection_csv if args.out_format == "csv" else selection_text
    _emit(render(rows), args.out)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "synth": _cmd_synth,
    "run": _cmd_run,
    "report-heatmap": _cmd_report_heatmap,
    "report-scatter": _cmd_report_scatter,
    "report-select": _cmd_report_select,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("probeforge: a command is required", file=sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage problem
        return 0 if not exc.code else 1
    except (ProbeforgeError, OSError, ValueError, KeyError) as exc:
        print(f"probeforge: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"probeforge: unexpected failure: {exc!r}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

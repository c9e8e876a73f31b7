"""Desk-scale harness for budget-constrained linear probing of chip embeddings.

Pipeline: ingest (or synthesize) a chip table plus per-model embedding
matrices, enumerate an experiment grid over training regimes, samplers and
budget sizes, fit a linear probe per repetition, aggregate Pearson/RMSE
across repetitions, and report heatmaps, scatter data, and threshold-based
configuration selections.
"""

from .core import (
    CLASS_LABELS,
    ChipTable,
    ClassId,
    Dataset,
    EmbeddingSet,
    FMDescriptor,
    Modality,
    ValidationReport,
    assemble_dataset,
    infer_modality,
    validate_dataset,
)
from .errors import (
    AlignmentError,
    DataFormatError,
    DegenerateVarianceError,
    GridError,
    ProbeforgeError,
)
from .ingest import (
    ImageStack,
    LabelGrid,
    SynthSpec,
    compute_class_fractions,
    load_chip_table,
    load_dataset_dir,
    load_embeddings,
    save_chip_table,
    save_embeddings,
    seasonal_median_composite,
    synthesize_dataset,
    write_dataset_dir,
)
from .metrics import AggregateMetrics, RunMetrics, aggregate, pearson, rmse
from .probe import Probe, fit, predict
from .report import (
    SelectionCriterion,
    ablation_scatter,
    heatmap_matrix,
    selection_table,
)
from .runner import (
    AggregateRecord,
    ExperimentSpec,
    GridSpec,
    enumerate_grid,
    parse_results_file,
    run_experiment,
    run_grid,
)
from .sampling import SampleRequest, SamplerKind, draw, split_target
from .seeds import derive_seed, stream

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "AggregateRecord",
    "AlignmentError",
    "CLASS_LABELS",
    "ChipTable",
    "ClassId",
    "DataFormatError",
    "Dataset",
    "DegenerateVarianceError",
    "EmbeddingSet",
    "ExperimentSpec",
    "FMDescriptor",
    "GridError",
    "GridSpec",
    "ImageStack",
    "LabelGrid",
    "Modality",
    "Probe",
    "ProbeforgeError",
    "RunMetrics",
    "SampleRequest",
    "SamplerKind",
    "SelectionCriterion",
    "SynthSpec",
    "ValidationReport",
    "ablation_scatter",
    "aggregate",
    "assemble_dataset",
    "compute_class_fractions",
    "derive_seed",
    "draw",
    "enumerate_grid",
    "fit",
    "heatmap_matrix",
    "infer_modality",
    "load_chip_table",
    "load_dataset_dir",
    "load_embeddings",
    "parse_results_file",
    "pearson",
    "predict",
    "rmse",
    "run_experiment",
    "run_grid",
    "save_chip_table",
    "save_embeddings",
    "seasonal_median_composite",
    "selection_table",
    "split_target",
    "stream",
    "synthesize_dataset",
    "validate_dataset",
    "write_dataset_dir",
]

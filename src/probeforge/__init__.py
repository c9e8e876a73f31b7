"""Desk-scale harness for budget-constrained linear probing of chip embeddings.

Pipeline: ingest (or synthesize) a chip table plus per-model embedding
matrices, enumerate an experiment grid over training regimes, samplers and
budget sizes, factorize each repetition's training set once and fit a
linear probe per class on it, aggregate Pearson/RMSE across repetitions,
and report heatmaps, scatter data, and threshold-based configuration
selections.
"""

import os

# One BLAS thread per process: each probe is a small factorization (a Gram
# ``eigh``, or a thin SVD when that is ill-conditioned), where a second
# OpenBLAS thread costs more than it saves, and ``run --threads N`` supplies
# the parallelism. numpy reads these when it loads, so they are set before
# anything below imports it; a value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .core import (
    CLASS_LABELS,
    ChipTable,
    ClassId,
    Dataset,
    EmbeddingSet,
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
from .probe import Factorization, Probe, factorize, fit, predict
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

"""Desk-scale harness for budget-constrained linear probing of chip embeddings.

Pipeline: ingest (or synthesize) a chip table plus per-model embedding
matrices, enumerate an experiment grid over training regimes, samplers and
budget sizes, factorize each repetition's training set once and fit a
linear probe per class on it, aggregate Pearson/RMSE across repetitions,
and report heatmaps, scatter data, and threshold-based configuration
selections. Importing the package loads nothing else: library code
imports from the submodules, such as ``probeforge.runner``.
"""

import os

# One BLAS thread per process: each probe is a small factorization (a Gram
# ``eigh``, or a thin SVD when that is ill-conditioned), where a second
# OpenBLAS thread costs more than it saves, and ``run --threads N`` supplies
# the parallelism. numpy reads these when it loads, so they are set before
# any submodule imports it; a value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

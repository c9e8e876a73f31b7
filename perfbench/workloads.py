"""The benchmark's workloads: inputs derived from a seed, plus what the check expects.

Every workload is a closed loop with one client: one ``probeforge run``
followed by one ``probeforge report-select --format text``, the next pair
starting only when the previous one has finished. Inputs are a planted-signal
synthetic dataset (``probeforge synth``) and a grid JSON; both are pure
functions of the workload name and the seed.

The first model id of each dataset carries the planted signal; the others are
independent noise, which the output check uses as controls. The datasets use
the ``linear`` link, under which every class's fraction correlates with the
best linear prediction at exactly the planted rho (with the ``logistic``
link, sum normalisation pulls some classes below it).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

#: Planted pre-squash correlation and the tolerance acceptance criterion 04
#: pins around it; the check applies the same bound to well-posed signal rows.
SIGNAL_RHO = 0.9
SIGNAL_TOL = 0.05

ALL_CLASSES = [
    "tree-cover", "shrubland", "grassland", "cropland", "builtup",
    "bare-sparse-vegetation", "permanent-water",
]


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    grid: dict
    threads: int


def _noise_sigma(rho: float) -> float:
    # inverse of probeforge.ingest.presquash_correlation
    return math.sqrt(1.0 / rho**2 - 1.0)


def derive(seed: int, *tags: object) -> int:
    """A 32-bit sub-seed of the workload seed, one per tag path."""
    h = hashlib.blake2b(repr((seed,) + tags).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little")


def _fit_grid(fms: list[str], classes: list[str], n_train: int,
              n_test: list[int], reps: int) -> dict:
    return {
        "fms": fms, "classes": classes, "samplers": ["random"],
        "regimes": ["target-split"], "target_aois": ["aoi-00"],
        "n_train_target": [n_train], "n_test_target": n_test,
        "repetitions": reps,
    }


def _fit_serial(tiny: bool) -> Workload:
    # The criterion-08 spec shape (500 x 64 fits, all 7 classes, test sizes
    # 10/50/100/500, 20 repetitions) over one signal and one noise model;
    # criterion 08 itself runs 18 models, which would not fit a run.
    fms = ["sig-s2", "noise-s1"]
    if tiny:
        synth = {"n_chips": 600, "dim": 8, "n_aois": 1, "fm_ids": fms}
        grid = _fit_grid(fms, ALL_CLASSES[:2], 100, [50, 400], 3)
    else:
        synth = {"n_chips": 1100, "dim": 64, "n_aois": 1, "fm_ids": fms}
        grid = _fit_grid(fms, ALL_CLASSES, 500, [10, 50, 100, 500], 20)
    return Workload("fit-serial", synth, grid, 1)


def _ingest(tiny: bool) -> Workload:
    # The README quick start with a 50k-chip table and three 256-d models;
    # two repetitions keep the grid shorter than loading the directory.
    fms = ["sig-s2", "noise-s1", "noise2-s2"]
    n_chips, dim = (600, 8) if tiny else (50000, 256)
    synth = {"n_chips": n_chips, "dim": dim, "n_aois": 4, "fm_ids": fms}
    grid = {
        "fms": fms, "classes": ["tree-cover", "builtup"],
        "samplers": ["random", "srtm"],
        "regimes": ["external", "target-split"],
        "external_aois": ["aoi-00", "aoi-01"],
        "target_aois": ["aoi-00", "aoi-01", "aoi-02"],
        "n_train_external": [20 if tiny else 100],
        "n_train_target": [20 if tiny else 100],
        "n_test_target": [20 if tiny else 100], "repetitions": 2,
    }
    return Workload("ingest-quickstart", synth, grid, 1)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's synth spec and grid, seeded from ``seed``."""
    if name == "fit-serial":
        w = _fit_serial(tiny)
    elif name == "ingest-quickstart":
        w = _ingest(tiny)
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    synth = dict(w.synth, noise_sigma=_noise_sigma(SIGNAL_RHO), link="linear",
                 weight_seed=derive(seed, name, "weights"),
                 data_seed=derive(seed, name, "data"))
    grid = dict(w.grid, base_seed=derive(seed, name, "grid"))
    return Workload(w.name, synth, grid, w.threads)


NAMES = ("fit-serial", "ingest-quickstart")

"""Training-set sampling strategies and the target-AOI train/test split.

Four ways to pick k training chips from a candidate pool:

* ``random`` - spatially uniform draw without replacement.
* ``esawc``  - round-robin over the seven classes in code order; each turn
  draws one not-yet-chosen chip with probability proportional to its
  fraction of the turn's class, so rare classes are represented as
  uniformly as the pool allows.
* ``fps``    - furthest point sampling on the embedding vectors: seeded
  random start, then greedily add the candidate maximizing its minimum
  Euclidean distance to the chosen set.
* ``srtm``   - elevation stratification: equal-count quantile bins over the
  candidates' elevations (ties share the lower bin), one uniform draw per
  non-empty bin, spreading picks across the elevation range; a shortfall
  left by empty bins is drawn uniformly from the unchosen chips.

Everything is a pure function of the request, including its seed; each
request owns a private RNG stream. Ties always break toward the lowest
candidate position, keeping results platform-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import N_CLASSES, SamplerKind
from .seeds import derive_seed


@dataclass(frozen=True)
class SampleRequest:
    """One sampling task: candidates, size, seed, kind, auxiliary data.

    Auxiliary arrays are row-aligned with ``candidates`` (row i describes
    candidate i), regardless of what the candidate values themselves are.
    Only the kind's own auxiliary array is required: ``fractions`` for
    esawc, ``embeddings`` for fps, ``elevations`` for srtm.
    """

    candidates: np.ndarray
    k: int
    seed: int
    kind: SamplerKind
    fractions: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    elevations: np.ndarray | None = None

    def __post_init__(self) -> None:
        cand = np.asarray(self.candidates, dtype=np.intp)
        if cand.ndim != 1:
            raise ValueError("candidates must be a 1-D sequence of positions")
        if not 0 < self.k <= cand.shape[0]:
            raise ValueError(
                f"sample size k={self.k} must be in 1..{cand.shape[0]} (candidate count)"
            )
        object.__setattr__(self, "candidates", cand)

    @property
    def n(self) -> int:
        return int(self.candidates.shape[0])


def _require(req: SampleRequest, attr: str) -> np.ndarray:
    a = getattr(req, attr)
    if a is None:
        raise ValueError(f"{req.kind.value} sampling requires {attr}")
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != req.n:
        raise ValueError(
            f"{attr} rows ({a.shape[0]}) must match candidate count ({req.n})"
        )
    return a


def random_sample(req: SampleRequest) -> np.ndarray:
    """k distinct positions drawn uniformly without replacement."""
    rng = np.random.default_rng(req.seed)
    idx = rng.choice(req.n, size=req.k, replace=False)
    return req.candidates[idx]


def esawc_sample(req: SampleRequest) -> np.ndarray:
    """Class-balanced draw proportional to per-class fractions.

    Turn t serves class ``t mod 7``; a class whose remaining total fraction
    is zero is skipped. If a full cycle of seven classes yields no draw
    (every remaining chip has zero fraction for all seven classes) the next
    pick falls back to a uniform draw so that exactly k chips are always
    returned.
    """
    frac = _require(req, "fractions")
    if frac.ndim != 2 or frac.shape[1] != N_CLASSES:
        raise ValueError(f"fractions must be (n, {N_CLASSES}), got {frac.shape}")
    rng = np.random.default_rng(req.seed)
    remaining = list(range(req.n))
    chosen: list[int] = []
    cls = 0
    skipped_in_a_row = 0
    while len(chosen) < req.k:
        weights = frac[remaining, cls]
        total = float(weights.sum())
        if total > 0.0:
            probs = weights / total
            pick = int(rng.choice(len(remaining), p=probs))
            chosen.append(remaining.pop(pick))
            skipped_in_a_row = 0
        else:
            skipped_in_a_row += 1
            if skipped_in_a_row >= N_CLASSES:
                pick = int(rng.integers(len(remaining)))
                chosen.append(remaining.pop(pick))
                skipped_in_a_row = 0
        cls = (cls + 1) % N_CLASSES
    return req.candidates[np.array(chosen, dtype=np.intp)]


def fps_sample(req: SampleRequest, start: int | None = None) -> np.ndarray:
    """Furthest point sampling over the embedding rows.

    The start point is drawn uniformly from the candidates (seeded) unless
    ``start`` forces a candidate index. Greedy steps maximize the minimum
    squared Euclidean distance to the chosen set, O(n*k) distance updates,
    ties to the lowest candidate position.
    """
    X = _require(req, "embeddings")
    if X.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {X.shape}")
    if start is None:
        rng = np.random.default_rng(req.seed)
        start = int(rng.integers(req.n))
    elif not 0 <= start < req.n:
        raise ValueError(f"start index {start} out of range 0..{req.n - 1}")

    chosen = [start]
    # Running minimum squared distance to the chosen set; chosen entries are
    # pinned to -1 so argmax can never re-pick them even when all remaining
    # distances are zero (duplicate points).
    d2 = ((X - X[start]) ** 2).sum(axis=1)
    d2[start] = -1.0
    for _ in range(1, req.k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
        d2[nxt] = -1.0
    return req.candidates[np.array(chosen, dtype=np.intp)]


def srtm_sample(req: SampleRequest) -> np.ndarray:
    """Elevation-stratified draw over k equal-count quantile bins.

    Candidates are ranked by elevation; tied elevations all take the rank
    of their first occurrence, so a tie group lands in a single (lower)
    bin and bins can be empty under heavy ties. Rank r falls in bin
    ``r * k // n``. One chip is drawn uniformly from each non-empty bin in
    ascending bin order, a bin's members listed by ascending candidate
    position; any remaining picks are drawn uniformly from the unchosen
    chips.

    One argsort ranks the pool and one sort of ``bin * n + position`` keys
    groups it by bin, so a draw costs O(n log n) plus one RNG call per
    non-empty bin, O(n log n + k) in all.
    """
    elev = _require(req, "elevations")
    if elev.ndim != 1:
        raise ValueError(f"elevations must be 1-D, got shape {elev.shape}")
    rng = np.random.default_rng(req.seed)

    order = np.argsort(elev)
    ranked = elev[order]
    # Bin of each candidate, listed in elevation order; the rank comes from
    # the values alone, so it does not depend on how the sort broke ties.
    bins = np.searchsorted(ranked, ranked, side="left") * req.k // req.n
    members = np.sort(bins * req.n + order) % req.n
    sizes = np.bincount(bins, minlength=req.k)
    chosen = [
        int(members[end - size + rng.integers(size)])
        for size, end in zip(sizes.tolist(), np.cumsum(sizes).tolist())
        if size
    ]
    if len(chosen) < req.k:
        taken = np.zeros(req.n, dtype=bool)
        taken[chosen] = True
        free = np.flatnonzero(~taken)
        extra = rng.choice(free.size, size=req.k - len(chosen), replace=False)
        chosen.extend(int(free[i]) for i in extra)
    return req.candidates[np.array(chosen, dtype=np.intp)]


_SAMPLERS = {
    SamplerKind.RANDOM: random_sample,
    SamplerKind.ESAWC: esawc_sample,
    SamplerKind.FPS: fps_sample,
    SamplerKind.SRTM: srtm_sample,
}


def draw(req: SampleRequest) -> np.ndarray:
    """Dispatch to the sampler selected by ``req.kind``."""
    return _SAMPLERS[req.kind](req)


def split_target(
    candidates,
    n_test: int,
    n_train: int,
    train_kind: SamplerKind,
    seed: int,
    fractions: np.ndarray | None = None,
    embeddings: np.ndarray | None = None,
    elevations: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint test/train split within one target AOI.

    Test positions are always drawn first by uniform random sampling; the
    train set is then drawn by ``train_kind`` from the remaining candidates.
    Test and train use independently derived sub-seeds of ``seed``.
    """
    cand = np.asarray(candidates, dtype=np.intp)
    n = cand.shape[0]
    if n_test < 1 or n_train < 1:
        raise ValueError("n_test and n_train must be positive")
    if n_test + n_train > n:
        raise ValueError(
            f"n_test + n_train = {n_test + n_train} exceeds candidate count {n}"
        )

    test = random_sample(
        SampleRequest(cand, n_test, derive_seed(seed, "test"), SamplerKind.RANDOM)
    )
    in_test = np.isin(cand, test)
    rest = np.flatnonzero(~in_test)

    def _rows(a: np.ndarray | None) -> np.ndarray | None:
        return None if a is None else np.asarray(a)[rest]

    train = draw(
        SampleRequest(
            cand[rest],
            n_train,
            derive_seed(seed, "train"),
            train_kind,
            fractions=_rows(fractions),
            embeddings=_rows(embeddings),
            elevations=_rows(elevations),
        )
    )
    return test, train

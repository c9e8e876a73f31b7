"""Training-set sampling strategies and the train side of a target-AOI split.

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
# numpy loads its random module on first use; importing it here keeps that
# cost out of the first draw, and so out of any timed run.
from numpy.random import default_rng

from .schema import N_CLASSES, SamplerKind


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
    rng = default_rng(req.seed)
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
    rng = default_rng(req.seed)
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
        rng = default_rng(req.seed)
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

    One argsort and one linear pass rank the pool, and one sort of
    ``bin * n + position`` keys groups it by bin, so a draw costs O(n log n)
    plus one RNG call per non-empty bin, O(n log n + k) in all.
    """
    elev = _require(req, "elevations")
    if elev.ndim != 1:
        raise ValueError(f"elevations must be 1-D, got shape {elev.shape}")
    rng = default_rng(req.seed)

    order = np.argsort(elev)
    # Bin of each candidate, listed in elevation order; the rank comes from
    # the values alone, so it does not depend on how the sort broke ties.
    bins = _tie_ranks(elev[order]) * req.k // req.n
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


def _tie_ranks(ranked: np.ndarray) -> np.ndarray:
    """The rank of each value of sorted ``ranked``: the position of the first
    value equal to it, NaNs (which sort last) all equal to each other.

    This is ``np.searchsorted(ranked, ranked, side="left")`` in one linear
    pass: each run of equal values takes the position where the run starts.
    """
    nan = np.isnan(ranked)
    starts = np.ones(ranked.size, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]) & ~(nan[1:] & nan[:-1])
    return np.maximum.accumulate(np.where(starts, np.arange(ranked.size), 0))


_SAMPLERS = {
    SamplerKind.RANDOM: random_sample,
    SamplerKind.ESAWC: esawc_sample,
    SamplerKind.FPS: fps_sample,
    SamplerKind.SRTM: srtm_sample,
}


def draw(req: SampleRequest) -> np.ndarray:
    """Dispatch to the sampler selected by ``req.kind``."""
    return _SAMPLERS[req.kind](req)


def split_target(candidates, test: np.ndarray, n_train: int, train_kind: SamplerKind,
                 seed: int, **aux: np.ndarray | None) -> np.ndarray:
    """The train side of a target-AOI split, disjoint from its ``test`` set.

    ``train_kind`` draws ``n_train`` positions from the candidates not in
    ``test``. Each array in ``aux``, aligned with ``candidates``, follows them
    to the request under its ``SampleRequest`` field name; a None stays None.
    """
    cand = np.asarray(candidates, dtype=np.intp)
    rest = np.flatnonzero(~np.isin(cand, test))
    aux = {name: None if a is None else np.asarray(a)[rest] for name, a in aux.items()}
    return draw(SampleRequest(cand[rest], n_train, seed, train_kind, **aux))

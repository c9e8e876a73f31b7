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

Everything is a pure function of the request, including its seed. Each
request reads its own counter stream, ``x_i = splitmix64((seed + i*gamma)
mod 2**64)`` for i = 0, 1, ..., with ``seeds.splitmix64`` computed on uint64
arrays and gamma = 0x9E3779B97F4A7C15: the SplitMix64 generator of Steele,
Lea and Flood (OOPSLA 2014) seeded with ``seed``. Its uniform ``u_i`` is
``(x_i >> 11) * 2**-53``, and a pick from m items is ``floor(u_i * m)``,
whose distance from uniform (total variation) is at most ``m * 2**-53``.
Each kind's arithmetic on the stream is stated in its docstring. It uses
only numpy operations whose result their definition fixes (elementwise
uint64 and float64 arithmetic, accumulate, stable sorts or sorts whose ties
cannot change the result, searchsorted), so a loop over Python ints and
floats gives the same picks, a draw depends on this package and not on
numpy's release, and numpy's random module is never loaded. Ties always
break toward the lowest candidate position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import N_CLASSES, SamplerKind

# seeds.splitmix64's constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} must be in 0..2**64 - 1, the stream's seeds")
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


def _stream(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start`` to ``start + count - 1`` of the stream of ``seed``, as
    uint64: ``seeds.splitmix64`` of each counter value, computed in place on
    one array, where uint64 arithmetic wraps silently (a numpy uint64 scalar
    would warn on overflow). The uint64 constants make it about twice as fast
    as that function's Python-int arithmetic run on an array."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)  # splitmix64 adds gamma first
    z *= _GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The uniforms ``(x_i >> 11) * 2**-53`` in [0, 1) of the same outputs."""
    return (_stream(seed, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _subset(seed: int, start: int, k: int, n: int) -> np.ndarray:
    """k distinct positions of ``range(n)``, ascending, from the stream of
    ``seed`` read from output ``start`` on.

    These are the first k distinct picks ``floor(u_i * n)``, or, when 2k > n,
    the positions the first n - k distinct picks leave out, so that on
    average at most about 1.4 * min(k, n - k) outputs are read.
    """
    m = min(k, n - k)
    # a stable sort finds each pick's repeats; numpy radix-sorts 16-bit keys
    dtype = np.uint16 if n <= 1 << 16 else np.intp
    size = m + m // 2 + 16
    while True:
        picks = (_uniforms(seed, start, size) * n).astype(dtype)
        order = np.argsort(picks, kind="stable")
        ranked = picks[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if size - repeats.size >= m:
            break
        size *= 2
    fresh = np.ones(size, dtype=bool)
    fresh[repeats] = False
    drawn = np.sort(picks[np.flatnonzero(fresh)[:m]])
    if m == k:
        return drawn
    kept = np.ones(n, dtype=bool)
    kept[drawn] = False
    return np.flatnonzero(kept)


def random_sample(req: SampleRequest) -> np.ndarray:
    """k distinct positions drawn uniformly without replacement.

    They are the first k distinct picks ``floor(u_i * n)`` of the stream (the
    complement of the first n - k when k > n/2), in ascending position.
    """
    return req.candidates[_subset(req.seed, 0, req.k, req.n)]


def esawc_sample(req: SampleRequest) -> np.ndarray:
    """Class-balanced draw proportional to per-class fractions.

    Turn t serves class ``t mod 7`` with uniform ``u_t``: it picks the first
    remaining chip whose running sum of the class's fractions (over the
    remaining chips in position order) exceeds ``u_t * total``, total being
    the last running sum. A class whose total is zero is skipped. If a full
    cycle of seven classes yields no draw (every remaining chip has zero
    fraction for all seven classes) the seventh turn picks
    ``floor(u_t * len(remaining))`` instead, so that exactly k chips are
    always returned. Each pick takes at most seven turns.
    """
    frac = _require(req, "fractions")
    if frac.ndim != 2 or frac.shape[1] != N_CLASSES:
        raise ValueError(f"fractions must be (n, {N_CLASSES}), got {frac.shape}")
    u = _uniforms(req.seed, 0, N_CLASSES * req.k)
    remaining = list(range(req.n))
    chosen: list[int] = []
    turn = skipped_in_a_row = 0
    while len(chosen) < req.k:
        running = np.add.accumulate(frac[remaining, turn % N_CLASSES])
        if running[-1] > 0.0:
            pick = int(np.searchsorted(running, u[turn] * running[-1], side="right"))
            chosen.append(remaining.pop(pick))
            skipped_in_a_row = 0
        else:
            skipped_in_a_row += 1
            if skipped_in_a_row == N_CLASSES:
                chosen.append(remaining.pop(int(u[turn] * len(remaining))))
                skipped_in_a_row = 0
        turn += 1
    return req.candidates[np.array(chosen, dtype=np.intp)]


def fps_sample(req: SampleRequest, start: int | None = None) -> np.ndarray:
    """Furthest point sampling over the embedding rows.

    The start point is ``floor(u_0 * n)`` unless ``start`` forces a
    candidate index. Greedy steps maximize the minimum squared Euclidean
    distance to the chosen set, O(n*k) distance updates, ties to the lowest
    candidate position.
    """
    X = _require(req, "embeddings")
    if X.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {X.shape}")
    if start is None:
        start = int(_uniforms(req.seed, 0, 1)[0] * req.n)
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
    ``r * k // n``. The j-th non-empty bin in ascending bin order, its
    members listed by ascending candidate position, gives up member
    ``floor(u_j * size)``. A shortfall of s picks continues the stream: the
    unchosen chips, in position order, give up ``random``'s s-subset of
    them, read from the output after the last bin's.

    One argsort and one linear pass rank the pool, one sort of
    ``bin * n + position`` keys groups it by bin, and one array step picks
    every bin's chip, so a draw costs O(n log n).
    """
    elev = _require(req, "elevations")
    if elev.ndim != 1:
        raise ValueError(f"elevations must be 1-D, got shape {elev.shape}")
    order = np.argsort(elev)
    # Bin of each candidate, listed in elevation order; the rank comes from
    # the values alone, so it does not depend on how the sort broke ties.
    bins = _tie_ranks(elev[order]) * req.k // req.n
    members = np.sort(bins * req.n + order) % req.n
    sizes = np.bincount(bins, minlength=req.k)
    ends = np.cumsum(sizes)[sizes > 0]
    sizes = sizes[sizes > 0]
    chosen = members[ends - sizes + (_uniforms(req.seed, 0, sizes.size) * sizes).astype(np.intp)]
    if chosen.size < req.k:
        taken = np.zeros(req.n, dtype=bool)
        taken[chosen] = True
        free = np.flatnonzero(~taken)
        extra = free[_subset(req.seed, chosen.size, req.k - chosen.size, free.size)]
        chosen = np.concatenate([chosen, extra])
    return req.candidates[chosen]


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

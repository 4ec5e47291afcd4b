"""Data-subset selection strategies behind one common interface.

``run_strategy(name, ds, candidate_times, budget, seed)`` is the one way in:
it checks the candidates and the budget, calls the strategy registered under
``name`` in ``STRATEGIES`` and names the result after that key. A strategy
is ``pick(ds, cand, k, seed) -> (indices, metadata)``: it chooses exactly k
unique entries of the int64 candidate array ``cand``, reproducibly for a
fixed seed, and may describe its choice in a metadata dict. Ties break to
the lowest candidate index everywhere. Candidates and selections are indices
of ``ds`` itself.

The k-means-based strategies reproduce only under a fixed BLAS build and
thread count: ``kmeans`` takes its distances from a matrix product whose
rounding depends on both, and with repeated rows that rounding decides ties
between identical centroids.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .dataset import (FRACTION, INTEGER, INTEGERS, NUMBER, OBJECT, STEP_HOURS, STRING,
                      GriddedDataset, check_object, month_index, read_json)
from .features import (
    _svd_pca,
    default_pca_dims,
    flatten_samples,
    pca_transform,
    spatial_mean_matrix,
)


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionBudget:
    fraction: float

    def __post_init__(self):
        check_object({"fraction": self.fraction}, {"fraction": (FRACTION, True)},
                     "selection budget", SelectionError)

    def target_count(self, n: int) -> int:
        # round half up, deterministically
        k = int(math.floor(self.fraction * n + 0.5))
        if k < 1:
            raise SelectionError(f"budget of {self.fraction} on {n} candidates selects nothing")
        return k


@dataclass
class SubsetSelection:
    strategy: str
    indices: list[int]
    fraction: float
    seed: int
    metadata: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "seed": self.seed,
            "fraction": self.fraction,
            "indices": [int(i) for i in self.indices],
        }
        if self.metadata:
            payload["metadata"] = self.metadata
        return json.dumps(payload, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SubsetSelection":
        """Read a selection file; one that does not parse, or that lacks a
        key, has an unknown one or holds a value of the wrong type (an index
        or seed that is not an integer, a fraction that is not a number, a
        strategy that is not a string), raises SelectionError."""
        d = read_json(path, SelectionError)
        check_object(d, _FILE_KEYS, f"selection file {path}", SelectionError)
        return cls(strategy=d["strategy"], indices=d["indices"], fraction=float(d["fraction"]),
                   seed=d["seed"], metadata=d.get("metadata", {}))


_FILE_KEYS = {"strategy": (STRING, True), "seed": (INTEGER, True), "fraction": (NUMBER, True),
              "indices": (INTEGERS, True),
              "metadata": (OBJECT, False)}


# ---------------------------------------------------------------------------
# Quota allocation for stratified variants
# ---------------------------------------------------------------------------

def allocate_quotas(target: int, bin_sizes: list[int]) -> list[int]:
    """Largest-remainder allocation of equal shares across bins.

    Ideal share is target / n_bins for every bin; leftover units go to the
    earliest bins (January-first for month bins). Quotas larger than a bin are
    capped and the deficit redistributed round-robin over bins with spare
    capacity; raises when total capacity is short.
    """
    n_bins = len(bin_sizes)
    ideal = target / n_bins
    quotas = [int(math.floor(ideal))] * n_bins
    remainder = target - sum(quotas)
    # equal fractional remainders: ties resolved earliest-bin-first
    for b in range(remainder):
        quotas[b] += 1

    quotas = [min(q, s) for q, s in zip(quotas, bin_sizes)]
    deficit = target - sum(quotas)
    while deficit > 0:
        progressed = False
        for b in range(n_bins):
            if deficit == 0:
                break
            if quotas[b] < bin_sizes[b]:
                quotas[b] += 1
                deficit -= 1
                progressed = True
        if not progressed:
            raise SelectionError("bins cannot absorb the requested budget")
    return quotas


def _stratified(cand: np.ndarray, k: int, labels: np.ndarray, pick) -> list[int]:
    """The skeleton of every stratified strategy.

    Candidates fall into 12 bins by ``labels`` (0..11, e.g. ``month_index``), each
    bin gets its ``allocate_quotas`` share of ``k``, and
    ``pick(bin, members, quota)`` chooses from the bin's candidates (in
    candidate order) for every bin with a non-zero quota, bins in order.
    """
    bins = [cand[labels == b] for b in range(12)]
    quotas = allocate_quotas(k, [members.size for members in bins])
    chosen: list[int] = []
    for b, (members, quota) in enumerate(zip(bins, quotas)):
        if quota:
            chosen.extend(int(i) for i in pick(b, members, quota))
    return chosen


def _random_pick(rng: np.random.Generator):
    """Pick that draws a bin's quota without replacement from one shared rng."""

    def pick(b, members, quota):
        if quota == members.size:
            return members
        return rng.choice(members, size=quota, replace=False)

    return pick


# ---------------------------------------------------------------------------
# Shared feature-space helpers
# ---------------------------------------------------------------------------

# One-entry memo of pca_features: (weakref to ds, candidate bytes, features).
# run_experiment hands every cell the same dataset and candidates, so the
# kmeans and herding cells of every seed share one SVD. The weakref keeps no
# dataset alive; the entry holds one feature array until the next miss.
_pca_memo: tuple | None = None


def pca_features(ds: GriddedDataset, cand: np.ndarray) -> np.ndarray:
    """Flatten candidates and project to the default PCA space (read-only).

    The PCA dimension is clamped to the numerical rank of the flattened
    matrix (low-noise synthetic data is routinely rank-deficient). The result
    is computed once per dataset object and candidate set: datasets are
    immutable, so a repeated call returns the previous array, while a new
    dataset object, even with equal data, recomputes.
    """
    global _pca_memo
    key = np.asarray(cand, dtype=np.int64).tobytes()
    memo = _pca_memo
    if memo is not None and memo[0]() is ds and memo[1] == key:
        return memo[2]
    # The pool goes in as a temporary, so no flattened copy is alive during
    # the SVD; it is flattened again for the projection.
    n, d = len(cand), ds.data[0].size
    model, _ = _svd_pca(flatten_samples(ds, cand), default_pca_dims(n, d))
    if model is None:
        feats = np.zeros((n, 1))
    else:
        feats = pca_transform(model, flatten_samples(ds, cand))
    feats.flags.writeable = False
    _pca_memo = (weakref.ref(ds), key, feats)
    return feats


# ---------------------------------------------------------------------------
# k-means core (shared by the coreset strategies)
# ---------------------------------------------------------------------------

def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) in reused buffers.

    Each D² draw computes what ``rng.choice(n, p=d2 / d2.sum())`` does with
    its one ``rng.random()`` draw: the cumulative sum of p, divided by its
    last element, searched on the right. So the picks are bitwise those of
    ``choice``, without its argument checks.
    """
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    diff = np.empty(x.shape)
    d2, d_new, p, cdf = np.empty((4, n))

    def sq_dist(c, out):
        np.subtract(x, centers[c], out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=out)

    first = int(rng.integers(n))
    centers[0] = x[first]
    sq_dist(0, d2)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            np.divide(d2, total, out=p)
            np.cumsum(p, out=cdf)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[c] = x[idx]
        sq_dist(c, d_new)
        np.minimum(d2, d_new, out=d2)
    return centers


# Lloyd iterations stop after this many rounds, or once no centroid moves
# by more than the tolerance.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6


def kmeans(
    x: np.ndarray, k: int, rng: np.random.Generator, init: str = "kmeans++"
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns (centers, assignment).

    Empty clusters are reseeded from the point farthest from its assigned
    centroid (see ``_lloyd_means``).
    """
    n = x.shape[0]
    if k > n:
        raise SelectionError(f"k={k} exceeds {n} points")
    if init == "kmeans++":
        centers = _kmeanspp_init(x, k, rng)
    elif init == "random":
        centers = x[rng.choice(n, size=k, replace=False)].copy()
    else:
        raise SelectionError(f"unknown init {init!r}")

    x_sq = np.sum(x * x, axis=1)

    def _dist2(cent):
        # ||x||^2 - 2 x.c + ||c||^2, clipped against rounding, in one buffer
        d = x @ cent.T
        d *= -2.0
        d += x_sq[:, None]
        d += np.sum(cent * cent, axis=1)
        return np.maximum(d, 0.0, out=d)

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = _dist2(centers)
        assign = np.argmin(d2, axis=1)
        new_centers = _lloyd_means(x, assign, k, d2[np.arange(n), assign])
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < _KMEANS_TOL:
            break
    assign = np.argmin(_dist2(centers), axis=1)
    return centers, assign


def _lloyd_means(
    x: np.ndarray, assign: np.ndarray, k: int, point_d2: np.ndarray
) -> np.ndarray:
    """The Lloyd update: each cluster's mean, or a reseed when it is empty.

    Rows sorted stably by cluster make each cluster one slice, in row order,
    so its sum is the same reduction as ``x[assign == c].mean(axis=0)``;
    ``np.add.reduceat`` and ``np.add.at`` add in other orders and would move
    the last bits. Each empty cluster, in cluster order, takes the point
    farthest from its assigned centroid, whose ``point_d2`` then drops to 0.
    """
    counts = np.bincount(assign, minlength=k)
    xs = x[np.argsort(assign, kind="stable")]
    means = np.empty((k, x.shape[1]))
    start = 0
    for c, end in enumerate(np.cumsum(counts).tolist()):
        if end > start:
            np.sum(xs[start:end], axis=0, out=means[c])
        else:
            far = int(np.argmax(point_d2))
            means[c] = x[far]
            point_d2[far] = 0.0
        start = end
    full = counts > 0
    means[full] /= counts[full, None]
    return means


def nearest_to_centroids(
    x: np.ndarray, centers: np.ndarray, assign: np.ndarray
) -> list[int]:
    """Row index of each cluster's member closest to its centroid (ties: lowest).

    Duplicate rows can leave clusters empty. Each emptied cluster, in
    centroid order after all member picks, takes the unpicked row closest to
    its centroid (ties: lowest), so every cluster yields one distinct row.
    """
    out = []
    emptied = []
    for c in range(centers.shape[0]):
        members = np.nonzero(assign == c)[0]
        if members.size == 0:
            emptied.append(c)
            continue
        d = np.linalg.norm(x[members] - centers[c], axis=1)
        out.append(int(members[np.argmin(d)]))  # argmin takes the first = lowest index
    for c in emptied:
        d = np.linalg.norm(x - centers[c], axis=1)
        d[out] = np.inf
        out.append(int(np.argmin(d)))
    return out


# ---------------------------------------------------------------------------
# Strategies: pick(ds, cand, k, seed) -> (indices, metadata)
# ---------------------------------------------------------------------------

def _full(ds, cand, k, seed):
    # run_strategy gives the full-data baseline the budget 1.0: k is cand.size
    return cand, {}


def _random(ds, cand, k, seed):
    if k == cand.size:
        return cand, {}
    return np.random.default_rng(seed).choice(cand, size=k, replace=False), {}


def _stratified_time(ds, cand, k, seed):
    rng = np.random.default_rng(seed)
    return _stratified(cand, k, month_index(ds.timestamps[cand]), _random_pick(rng)), {}


def _kmeans_coreset(ds, cand, k, seed):
    if k == cand.size:  # as random and a whole stratified k-means bin do
        return cand, {}
    feats = pca_features(ds, cand)
    centers, assign = kmeans(feats, k, np.random.default_rng(seed), init="kmeans++")
    return cand[nearest_to_centroids(feats, centers, assign)], {}


def farthest_point_order(dist, k: int, first: int, d_first: np.ndarray) -> list[int]:
    """Farthest-point (k-center) greedy order of k rows, starting from ``first``.

    ``dist(i)`` returns the distance of every row to row i, and ``d_first``
    is ``dist(first)``. Each next row maximizes the distance to its nearest
    selected row; ties break to the lowest row index (argmax takes the first
    maximum).
    """
    selected = [first]
    min_d = d_first.copy()
    min_d[first] = -np.inf
    for _ in range(1, k):
        nxt = int(np.argmax(min_d))
        selected.append(nxt)
        min_d = np.minimum(min_d, dist(nxt))
        min_d[nxt] = -np.inf
    return selected


def greedy_max_min(
    feats: np.ndarray, k: int, first: int, dist_to_selected_init: np.ndarray
) -> list[int]:
    """Max-min greedy over rows of feats under Euclidean distance, starting
    from ``first``; ``dist_to_selected_init`` is the distance of every row to
    ``first``."""
    return farthest_point_order(
        lambda i: np.linalg.norm(feats - feats[i], axis=1), k, first, dist_to_selected_init
    )


def _greedy_diverse(ds, cand, k, seed):
    feats = spatial_mean_matrix(ds, cand)
    center = feats.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(feats - center, axis=1)))
    rows = greedy_max_min(feats, k, first, np.linalg.norm(feats - feats[first], axis=1))
    return cand[rows], {}


def herding_order(feats: np.ndarray, k: int) -> list[int]:
    """Linear-kernel herding without replacement; returns row indices in pick order."""
    mu = feats.mean(axis=0)
    w = mu.copy()
    selected: list[int] = []
    available = np.ones(feats.shape[0], dtype=bool)
    for _ in range(k):
        scores = feats @ w
        scores[~available] = -np.inf
        pick = int(np.argmax(scores))
        selected.append(pick)
        available[pick] = False
        w = w + mu - feats[pick]
    return selected


def _herding(ds, cand, k, seed):
    return cand[herding_order(pca_features(ds, cand), k)], {}


def quantile_bins(scores: np.ndarray, n_bins: int = 12) -> np.ndarray:
    """Bin index per score using quantile edges; degenerate scores share bin 0."""
    edges = np.quantile(scores, [i / n_bins for i in range(1, n_bins)])
    return np.searchsorted(edges, scores, side="right")


def _spatial_stratified(ds, cand, k, seed):
    feats = spatial_mean_matrix(ds, cand)
    model, _ = _svd_pca(feats, 1)
    scores = np.zeros(cand.size) if model is None else pca_transform(model, feats)[:, 0]
    rng = np.random.default_rng(seed)
    return _stratified(cand, k, quantile_bins(scores, 12), _random_pick(rng)), {}


def _stratified_kmeans(ds, cand, k, seed, init: str):
    def pick(m, members, quota):
        if quota == members.size:
            return members
        feats = spatial_mean_matrix(ds, members)
        centers, assign = kmeans(feats, quota, np.random.default_rng([seed, m]), init=init)
        return members[nearest_to_centroids(feats, centers, assign)]

    return _stratified(cand, k, month_index(ds.timestamps[cand]), pick), {}


def persistence_difficulty_scores(ds: GriddedDataset, cand: np.ndarray) -> np.ndarray:
    """||x_{t+step} - x_t||_2 per candidate; -inf where t+step is past the end."""
    off = ds.steps(STEP_HOURS, f"the {STEP_HOURS:g} h forecast step")
    scores = np.full(cand.size, -np.inf)
    ok = cand + off < ds.n_times
    if ok.any():
        cur = ds.data[cand[ok]].astype(np.float64)
        nxt = ds.data[cand[ok] + off].astype(np.float64)
        scores[ok] = np.sqrt(np.sum((nxt - cur) ** 2, axis=(1, 2, 3)))
    return scores


def _stratified_entropy(ds, cand, k, seed):
    def pick(m, members, quota):
        # hardest first, ties to the lowest index; a full month is ordered too
        scores = persistence_difficulty_scores(ds, members)
        return members[np.lexsort((members, -scores))[:quota]]

    return _stratified(cand, k, month_index(ds.timestamps[cand]), pick), {}


def greedy_cosine_order(feats: np.ndarray, k: int) -> list[int]:
    """Greedy max-min under cosine distance, starting from row 0."""
    norms = np.linalg.norm(feats, axis=1)
    unit = feats / norms[:, None]

    def cos_d(i):
        return 1.0 - unit @ unit[i]

    return farthest_point_order(cos_d, k, 0, cos_d(0))


def _stratified_spatial_diversity(ds, cand, k, seed):
    excluded_zero: list[int] = []

    def pick(m, members, quota):
        feats = spatial_mean_matrix(ds, members)
        zero = np.linalg.norm(feats, axis=1) == 0.0
        excluded_zero.extend(int(i) for i in members[zero])
        usable = members[~zero]
        if quota < usable.size:
            usable = usable[greedy_cosine_order(feats[~zero], quota)]
        # zero-vector exclusion may leave the month short: fill by lowest index
        return np.concatenate([usable, np.sort(members[zero])[: quota - usable.size]])

    chosen = _stratified(cand, k, month_index(ds.timestamps[cand]), pick)
    return chosen, ({"zero_vector_candidates": sorted(excluded_zero)} if excluded_zero else {})


# The name of the full-data baseline: every candidate, whatever the budget.
FULL = "full"

STRATEGIES = {
    FULL: _full,
    "random": _random,
    "stratified_time": _stratified_time,
    "kmeans": _kmeans_coreset,
    "greedy_diverse": _greedy_diverse,
    "herding": _herding,
    "spatial": _spatial_stratified,
    "stratified_kmeans": functools.partial(_stratified_kmeans, init="random"),
    "stratified_kmeanspp": functools.partial(_stratified_kmeans, init="kmeans++"),
    "stratified_entropy": _stratified_entropy,
    "stratified_spatial_diversity": _stratified_spatial_diversity,
}


def run_strategy(
    name: str, ds, candidate_times, budget: SelectionBudget, seed: int
) -> SubsetSelection:
    """Select from ``candidate_times`` with the strategy ``name``; the
    result is named ``name`` and records the budget fraction (1.0 for the
    full-data baseline)."""
    if name not in STRATEGIES:
        raise SelectionError(f"unknown strategy {name!r}")
    cand = np.asarray(candidate_times, dtype=np.int64)
    if cand.size == 0:
        raise SelectionError("no candidate times")
    if name == FULL:
        budget = SelectionBudget(1.0)
    chosen, metadata = STRATEGIES[name](ds, cand, budget.target_count(cand.size), seed)
    return SubsetSelection(name, [int(i) for i in chosen], budget.fraction, seed, metadata)

import gc
import math
import re
import weakref
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from stratacast.dataset import GriddedDataset, GridSpec, SplitSpec, valid_init_times
from stratacast.features import cosine_distance, flatten_samples, pca_fit, pca_transform
from stratacast.selection import (
    STRATEGIES,
    _kmeanspp_init,
    _lloyd_means,
    SelectionBudget,
    SelectionError,
    SubsetSelection,
    allocate_quotas,
    greedy_cosine_order,
    herding_order,
    kmeans,
    nearest_to_centroids,
    pca_features,
    run_strategy,
)


def scalar_series(values, start=datetime(2000, 1, 1), stride_hours=24):
    """1-variable, 1x1-grid dataset whose sample features are the raw values."""
    values = np.asarray(values, dtype=np.float32).reshape(-1, 1, 1, 1)
    ts = [start + timedelta(hours=stride_hours * i) for i in range(values.shape[0])]
    return GriddedDataset(
        grid=GridSpec(np.array([0.0]), np.array([0.0])),
        variables=["synthetic_0"],
        timestamps=ts,
        data=values,
    )


# ---------------------------------------------------------------------------
# Budget and quotas
# ---------------------------------------------------------------------------

class TestBudget:
    def test_target_count_rounding(self):
        assert SelectionBudget(0.2).target_count(100) == 20
        assert SelectionBudget(0.25).target_count(120) == 30
        assert SelectionBudget(0.2).target_count(103) == 21  # 20.6 rounds up

    def test_invalid_fraction(self):
        with pytest.raises(SelectionError):
            SelectionBudget(0.0)
        with pytest.raises(SelectionError):
            SelectionBudget(1.5)


def _reference_allocate_quotas(target, bin_sizes):
    """The quota rule written out long-hand, the oracle ``allocate_quotas``
    must equal: float shares, a remainder loop, and a stall check in place of
    a capacity check."""
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


class TestQuotas:
    def test_exact_division(self):
        assert allocate_quotas(24, [10] * 12) == [2] * 12

    def test_largest_remainder_ties_to_earliest(self):
        quotas = allocate_quotas(30, [10] * 12)
        assert quotas == [3] * 6 + [2] * 6

    def test_capping_redistributes(self):
        quotas = allocate_quotas(12, [1, 100] + [0] * 10)
        assert quotas[0] == 1
        assert quotas[1] == 11
        assert sum(quotas) == 12

    def test_single_occupied_bin(self):
        quotas = allocate_quotas(5, [0] * 6 + [20] + [0] * 5)
        assert quotas[6] == 5

    def test_insufficient_capacity(self):
        with pytest.raises(SelectionError):
            allocate_quotas(10, [1] * 5 + [0] * 7)

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.integers(0, 120),
        bin_sizes=st.lists(st.integers(0, 15), min_size=1, max_size=12),
    )
    def test_property_sum_caps_and_capacity(self, target, bin_sizes):
        if sum(bin_sizes) < target:
            with pytest.raises(SelectionError):
                allocate_quotas(target, bin_sizes)
            return
        quotas = allocate_quotas(target, bin_sizes)
        assert len(quotas) == len(bin_sizes)
        assert sum(quotas) == target
        assert all(0 <= q <= size for q, size in zip(quotas, bin_sizes))

    @settings(max_examples=500, deadline=None)
    @given(
        target=st.integers(0, 200),
        bin_sizes=st.lists(st.integers(0, 30), min_size=1, max_size=12),
    )
    def test_property_equals_the_reference(self, target, bin_sizes):
        try:
            want = _reference_allocate_quotas(target, bin_sizes)
        except SelectionError as e:
            with pytest.raises(SelectionError, match=re.escape(str(e)) + "$"):
                allocate_quotas(target, bin_sizes)
        else:
            assert allocate_quotas(target, bin_sizes) == want


@pytest.mark.parametrize("call, message", [
    (lambda ds: run_strategy("randum", ds, [0, 1], SelectionBudget(0.5), 0),
     "unknown strategy 'randum'"),
    (lambda ds: run_strategy("random", ds, [], SelectionBudget(0.5), 0), "no candidate times"),
    (lambda ds: kmeans(np.zeros((3, 2)), 4, np.random.default_rng(0)), "k=4 exceeds 3 points"),
    (lambda ds: kmeans(np.zeros((3, 2)), 2, np.random.default_rng(0), init="kmeans||"),
     "unknown init 'kmeans||'"),
    (lambda ds: SubsetSelection("random", [5, 3, 3], 0.2, 0),
     "index 3 is listed more than once in the random subset"),
    (lambda ds: SubsetSelection("random", [-1], 0.2, 0),
     "selection key 'indices' must be a list of integers >= 0, not [-1]"),
    (lambda ds: SubsetSelection("random", [0, 1], "0.2", 0),
     "selection key 'fraction' must be a finite number, not '0.2'"),
    (lambda ds: SubsetSelection("random", [0, 1], 0.2, -1),
     "selection key 'seed' must be an integer >= 0, not -1"),
], ids=["unknown_strategy", "no_candidates", "k_past_points", "unknown_init", "repeated_index",
        "negative_index", "string_fraction", "negative_seed"])
def test_refusals(call, message):
    with pytest.raises(SelectionError, match=re.escape(message) + "$"):
        call(scalar_series(range(4)))


# ---------------------------------------------------------------------------
# Contracts shared by all strategies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def std_toy(toy_dataset):
    from stratacast.dataset import SplitSpec, standardize

    return standardize(toy_dataset, SplitSpec((2000, 2001)))


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_count_uniqueness_range_determinism(std_toy, name):
    candidates = list(range(40, std_toy.n_times - 40))
    budget = SelectionBudget(0.2)
    sel1 = run_strategy(name, std_toy, candidates, budget, seed=9)
    sel2 = run_strategy(name, std_toy, candidates, budget, seed=9)
    expected = len(candidates) if name == "full" else budget.target_count(len(candidates))
    assert len(sel1.indices) == expected
    assert len(set(sel1.indices)) == expected
    assert set(sel1.indices) <= set(candidates)
    assert sel1.indices == sel2.indices
    assert sel1.to_json() == sel2.to_json()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_negative_seed_is_refused(std_toy, name):
    """Every strategy refuses a negative seed before it draws or selects."""
    with pytest.raises(SelectionError, match="^seed -1 is negative$"):
        run_strategy(name, std_toy, list(range(40, 140)), SelectionBudget(0.2), seed=-1)


@pytest.mark.parametrize("name", ["full", "random", "stratified_time", "herding"])
def test_a_seed_that_is_not_an_integer_is_refused_and_a_numpy_seed_taken(std_toy, name):
    """Every strategy names a float or bool seed, and a numpy int seed
    selects as the int it holds."""
    cand, budget = list(range(40, 140)), SelectionBudget(0.2)
    for seed in (2.5, 2.0, True):
        with pytest.raises(SelectionError, match=f"^seed {seed!r} is not an integer$"):
            run_strategy(name, std_toy, cand, budget, seed=seed)
    assert (run_strategy(name, std_toy, cand, budget, np.int64(3))
            == run_strategy(name, std_toy, cand, budget, 3))


@pytest.mark.parametrize("name", ["random", "kmeans"])
@pytest.mark.parametrize("cand, message", [
    ([41.5, 42.7, 43.2], "candidate time 41.5 is not an integer"),
    ([40, 41.0, 42], "candidate time 41.0 is not an integer"),
    ([40, True, 42], "candidate time True is not an integer"),
    ([40, 41, 10**6], "candidate time 1000000 is outside the dataset's {n} times"),
    ([40, 2**70], f"candidate time {2**70} is outside the 64-bit integer range"),
], ids=["floats", "integral_float", "bool", "past_the_end", "past_int64"])
def test_candidates_are_integers_inside_the_dataset(std_toy, name, cand, message):
    """A candidate is refused, naming it, rather than truncated, selected or
    read past the end of the data."""
    with pytest.raises(SelectionError, match=re.escape(message.format(n=std_toy.n_times)) + "$"):
        run_strategy(name, std_toy, cand, SelectionBudget(0.5), seed=0)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_repeated_candidates_are_refused_naming_the_first_repeat(std_toy, name):
    """A candidate list that repeats an index is the caller's fault, refused
    before the strategy could select the repeat twice."""
    with pytest.raises(SelectionError, match="^candidate time 14 is listed more than once$"):
        run_strategy(name, std_toy, [14, 14, 15, 16, 15], SelectionBudget(0.5), seed=0)


@pytest.mark.parametrize("name", sorted(set(STRATEGIES) - {"full"}))
def test_different_seed_allowed_to_differ(std_toy, name):
    # deterministic strategies may coincide; the call must at least not fail
    candidates = list(range(40, std_toy.n_times - 40))
    run_strategy(name, std_toy, candidates, SelectionBudget(0.2), seed=10)


def test_selection_json_round_trip(std_toy, tmp_path):
    sel = run_strategy("random", std_toy, list(range(100)), SelectionBudget(0.2), seed=3)
    sel.save(tmp_path / "sel.json")
    back = SubsetSelection.load(tmp_path / "sel.json")
    assert back == sel
    text = (tmp_path / "sel.json").read_text()
    assert back.to_json() == text  # load -> save keeps the file's bytes
    (tmp_path / "one.json").write_text(text.replace('"fraction": 0.2', '"fraction": 1'))
    one = SubsetSelection.load(tmp_path / "one.json")
    assert type(one.fraction) is float
    assert one.to_json() == text.replace('"fraction": 0.2', '"fraction": 1.0')


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(strategy=st.text(), indices=st.lists(st.integers(0, 2**40), unique=True),
       seed=st.integers(0), fraction=st.floats(0.0, 1.0, exclude_min=True),
       metadata=st.dictionaries(st.text(), _JSON_VALUES, max_size=4))
def test_selection_file_round_trip_property(tmp_path_factory, strategy, indices, seed, fraction,
                                            metadata):
    """Every file ``save`` writes, ``load`` accepts and reads back equal, and
    saves again byte for byte."""
    sel = SubsetSelection(strategy, indices, fraction, seed, metadata)
    path = tmp_path_factory.mktemp("sel") / "sel.json"
    sel.save(path)
    back = SubsetSelection.load(path)
    assert back == sel
    assert back.to_json() == path.read_text()


# ---------------------------------------------------------------------------
# Random
# ---------------------------------------------------------------------------

class TestRandom:
    def test_full_fraction_identity(self, std_toy):
        cand = list(range(50))
        sel = run_strategy("random", std_toy, cand, SelectionBudget(1.0), seed=1)
        assert sel.indices == cand

    def test_count_and_repeatability(self, std_toy):
        cand = list(range(100))
        sel = run_strategy("random", std_toy, cand, SelectionBudget(0.2), seed=5)
        assert len(sel.indices) == 20
        again = run_strategy("random", std_toy, cand, SelectionBudget(0.2), seed=5)
        assert sel.indices == again.indices

    def test_inclusion_frequency_chi_square(self, std_toy):
        cand = list(range(100))
        budget = SelectionBudget(0.2)
        counts = np.zeros(100)
        n_seeds = 10_000
        for seed in range(n_seeds):
            for i in run_strategy("random", std_toy, cand, budget, seed=seed).indices:
                counts[i] += 1
        expected = n_seeds * 0.2
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # df = 99 (total draws fixed); alpha = 0.001
        assert chi2 < sstats.chi2.ppf(0.999, 99)


# ---------------------------------------------------------------------------
# Stratified time
# ---------------------------------------------------------------------------

def daily_year(n_per_month=None):
    """One year of daily data; optionally restrict candidates per month."""
    ds = scalar_series(np.random.default_rng(0).normal(size=365))
    months = ds.months()
    if n_per_month is None:
        return ds, list(range(365))
    cand = []
    for m in range(1, 13):
        cand.extend(list(np.nonzero(months == m)[0][:n_per_month]))
    return ds, sorted(cand)


class TestStratifiedTime:
    def test_exact_division(self):
        ds, cand = daily_year(10)
        sel = run_strategy("stratified_time", ds, cand, SelectionBudget(0.2), seed=0)
        months = ds.months()[sel.indices]
        assert all((months == m).sum() == 2 for m in range(1, 13))

    def test_full_fraction_identity(self):
        ds, cand = daily_year(10)
        sel = run_strategy("stratified_time", ds, cand, SelectionBudget(1.0), seed=0)
        assert sorted(sel.indices) == cand

    def test_largest_remainder_rule(self):
        ds, cand = daily_year(10)
        sel = run_strategy("stratified_time", ds, cand, SelectionBudget(0.25), seed=0)
        months = ds.months()[sel.indices]
        counts = [(months == m).sum() for m in range(1, 13)]
        assert counts == [3] * 6 + [2] * 6

    def test_month_balance_within_one(self):
        ds, cand = daily_year()
        sel = run_strategy("stratified_time", ds, cand, SelectionBudget(0.2), seed=4)
        months = ds.months()[sel.indices]
        counts = [(months == m).sum() for m in range(1, 13)]
        assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# Shared PCA features
# ---------------------------------------------------------------------------

def field_series(fields):
    """Daily 1-variable dataset from an array of [N, lat, lon] fields."""
    fields = np.asarray(fields, dtype=np.float32)
    n, n_lat, n_lon = fields.shape
    return GriddedDataset(
        grid=GridSpec(np.linspace(-45.0, 45.0, n_lat), np.linspace(0.0, 300.0, n_lon)),
        variables=["synthetic_0"],
        timestamps=[datetime(2000, 1, 1) + timedelta(days=i) for i in range(n)],
        data=fields[:, None],
    )


def reference_pca_features(ds, cand, rank):
    x = flatten_samples(ds, cand)
    return pca_transform(pca_fit(x, min(64, rank)), x)


class TestPcaFeatures:
    N = 90

    def full_rank(self):
        # 90 x 80 features: centered rank 80, so PCA keeps the 64-axis default
        return field_series(np.random.default_rng(21).normal(size=(self.N, 8, 10))), 80

    def rank_three(self):
        # every grid cell copies one of three series: centered rank 3
        f = np.random.default_rng(22).normal(size=(self.N, 3))
        return field_series(f[:, np.arange(40) % 3].reshape(self.N, 5, 8)), 3

    @pytest.mark.parametrize("case", ["full_rank", "rank_three"])
    def test_bitwise_equal_to_pca_fit_transform(self, case):
        ds, rank = getattr(self, case)()
        cand = np.arange(2, self.N - 1)
        feats = pca_features(ds, cand)
        ref = reference_pca_features(ds, cand, rank)
        assert feats.shape == (cand.size, min(64, rank))
        assert feats.tobytes() == ref.tobytes()

    def test_rank_zero_gives_one_zero_column(self):
        ds = field_series(np.full((12, 2, 3), 1.5))
        feats = pca_features(ds, np.arange(12))
        assert feats.shape == (12, 1)
        assert not feats.any()

    def test_one_svd_then_reuse(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        ds, _ = self.full_rank()
        cand = np.arange(self.N)
        first = pca_features(ds, cand)
        assert len(calls) == 1
        again = pca_features(ds, list(range(self.N)))
        assert len(calls) == 1 and again is first
        pca_features(ds, cand[1:])
        assert len(calls) == 2

        equal_copy, _ = self.full_rank()
        fresh = pca_features(equal_copy, cand)
        assert len(calls) == 3
        assert fresh is not first and fresh.tobytes() == first.tobytes()

    def test_read_only(self):
        ds, _ = self.rank_three()
        feats = pca_features(ds, np.arange(self.N))
        assert not feats.flags.writeable
        with pytest.raises(ValueError):
            feats[0, 0] = 1.0

    def test_memo_keeps_no_dataset_alive(self):
        ds, _ = self.rank_three()
        pca_features(ds, np.arange(self.N))
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None

    def test_kmeans_and_herding_use_reference_features(self):
        ds, rank = self.full_rank()
        cand = np.arange(5, self.N)
        budget = SelectionBudget(0.2)
        k = budget.target_count(cand.size)
        ref = reference_pca_features(ds, cand, rank)
        seed = 4
        centers, assign = kmeans(ref, k, np.random.default_rng(seed))
        want_kmeans = [int(cand[r]) for r in nearest_to_centroids(ref, centers, assign)]
        assert run_strategy("kmeans", ds, cand, budget, seed).indices == want_kmeans
        want_herding = [int(cand[r]) for r in herding_order(ref, k)]
        assert run_strategy("herding", ds, cand, budget, seed).indices == want_herding


# ---------------------------------------------------------------------------
# K-means coreset
# ---------------------------------------------------------------------------

class TestKmeansCoreset:
    def test_planted_two_clusters(self):
        ds = scalar_series([0.0, 0.1, 10.0, 10.1])
        sel = run_strategy("kmeans", ds, [0, 1, 2, 3], SelectionBudget(0.5), seed=0)
        assert sorted(sel.indices) == [0, 2]

    def test_k_equals_n_identity(self):
        ds = scalar_series(np.random.default_rng(1).normal(size=8))
        sel = run_strategy("kmeans", ds, list(range(8)), SelectionBudget(1.0), seed=0)
        assert sorted(sel.indices) == list(range(8))

    def test_selected_are_members(self, std_toy):
        cand = list(range(30, 120))
        sel = run_strategy("kmeans", std_toy, cand, SelectionBudget(0.2), seed=2)
        assert set(sel.indices) <= set(cand)

    def test_nearest_to_centroid_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            x = rng.normal(size=(rng.integers(10, 50), rng.integers(1, 5)))
            k = int(rng.integers(2, min(8, x.shape[0])))
            centers, assign = kmeans(x, k, np.random.default_rng(trial))
            picks = nearest_to_centroids(x, centers, assign)
            oracle = []
            for c in range(k):
                best, best_d = None, np.inf
                for i in range(x.shape[0]):
                    if assign[i] != c:
                        continue
                    d = float(np.linalg.norm(x[i] - centers[c]))
                    if best is None or d < best_d:
                        best, best_d = i, d
                if best is not None:
                    oracle.append(best)
            assert picks == oracle


def _reference_kmeanspp_init(x, k, rng):
    """k-means++ seeding with ``rng.choice`` and fresh arrays, kept as the oracle."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _reference_kmeans(x, k, rng, init="kmeans++", max_iter=100, tol=1e-6):
    """Lloyd's algorithm with one masked mean per cluster, kept as the oracle."""
    n = x.shape[0]
    if init == "kmeans++":
        centers = _reference_kmeanspp_init(x, k, rng)
    else:
        centers = x[rng.choice(n, size=k, replace=False)].copy()
    x_sq = np.sum(x * x, axis=1)

    def dist2(cent):
        d = x_sq[:, None] - 2.0 * (x @ cent.T) + np.sum(cent * cent, axis=1)[None, :]
        return np.maximum(d, 0.0)

    for _ in range(max_iter):
        d2 = dist2(centers)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        point_d2 = d2[np.arange(n), assign]
        for c in range(k):
            mask = assign == c
            if mask.any():
                new_centers[c] = x[mask].mean(axis=0)
            else:
                far = int(np.argmax(point_d2))
                new_centers[c] = x[far]
                point_d2[far] = 0.0
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    return centers, np.argmin(dist2(centers), axis=1)


@st.composite
def kmeans_problems(draw):
    """(x, k, seed): Gaussian rows, or integer rows full of duplicates that
    empty clusters; k anywhere from 1 to N."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1e-3, 1.0, 250.0]))
    if draw(st.booleans()):
        x = rng.integers(-1, 2, size=(n, d)) * scale
    else:
        x = rng.standard_normal((n, d)) * scale
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return x, k, draw(st.integers(0, 2**16))


class TestKmeansOracle:
    """The buffered k-means++ draw and the sorted Lloyd update equal the
    ``rng.choice`` and per-cluster-mean code bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(problem=kmeans_problems())
    def test_kmeanspp_init_equals_rng_choice(self, problem):
        x, k, seed = problem
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(x, k, rng)
        assert got.tobytes() == _reference_kmeanspp_init(x, k, ref_rng).tobytes()
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    @settings(max_examples=150, deadline=None)
    @given(problem=kmeans_problems(), init=st.sampled_from(["kmeans++", "random"]))
    def test_kmeans_equals_per_cluster_mean_loop(self, problem, init):
        x, k, seed = problem
        centers, assign = kmeans(x, k, np.random.default_rng(seed), init=init)
        want_centers, want_assign = _reference_kmeans(x, k, np.random.default_rng(seed), init)
        assert centers.tobytes() == want_centers.tobytes()
        assert assign.tobytes() == want_assign.tobytes()

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_duplicate_rows_empty_clusters(self, k):
        # 12 rows on 3 distinct points: any k > 3 empties clusters every round
        x = np.repeat(np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]]), 4, axis=0)
        for seed in range(5):
            got = kmeans(x, k, np.random.default_rng(seed))
            want = _reference_kmeans(x, k, np.random.default_rng(seed))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_lloyd_means_reseed_in_cluster_order(self):
        x = np.array([[0.0], [1.0], [5.0], [9.0]])
        point_d2 = np.array([0.5, 4.0, 3.0, 4.0])
        means = _lloyd_means(x, np.array([0, 0, 3, 3]), 4, point_d2)
        # clusters 1 and 2 are empty: 1 takes row 1 (first of the two at
        # distance 4), then 2 takes row 3
        assert means.ravel().tolist() == [0.5, 1.0, 9.0, 7.0]
        assert point_d2.tolist() == [0.5, 0.0, 3.0, 0.0]


# ---------------------------------------------------------------------------
# Greedy diverse
# ---------------------------------------------------------------------------

class TestGreedyDiverse:
    def test_hand_trace(self):
        ds = scalar_series([0.0, 1.0, 2.0, 10.0])
        sel = run_strategy("greedy_diverse", ds, [0, 1, 2, 3], SelectionBudget(0.5), seed=0)
        assert sel.indices == [3, 0]

    def test_budget_one(self):
        ds = scalar_series([0.0, 1.0, 2.0, 10.0])
        sel = run_strategy("greedy_diverse", ds, [0, 1, 2, 3], SelectionBudget(0.25), seed=0)
        assert sel.indices == [3]

    def test_per_step_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(8, 50))
            values = rng.normal(size=n)
            ds = scalar_series(values)
            k = int(rng.integers(2, max(3, n // 2)))
            sel = run_strategy("greedy_diverse", ds, range(n), SelectionBudget(k / n), seed=0)
            feats = ds.data.reshape(n, 1).astype(np.float64)
            # oracle trace
            mean = feats.mean(axis=0)
            d0 = np.linalg.norm(feats - mean, axis=1)
            first = int(np.flatnonzero(d0 == d0.max())[0])
            oracle = [first]
            target = len(sel.indices)
            while len(oracle) < target:
                best, best_score = None, -np.inf
                for i in range(n):
                    if i in oracle:
                        continue
                    score = min(np.linalg.norm(feats[i] - feats[j]) for j in oracle)
                    if score > best_score:
                        best, best_score = i, score
                oracle.append(best)
            assert sel.indices == oracle

    def test_min_pairwise_beats_random(self, std_toy):
        cand = list(range(60, 200))
        budget = SelectionBudget(0.1)
        sel = run_strategy("greedy_diverse", std_toy, cand, budget, seed=0)
        from stratacast.features import spatial_mean_matrix

        def min_pairwise(idx):
            f = spatial_mean_matrix(std_toy, idx)
            d = np.inf
            for i in range(len(idx)):
                for j in range(i):
                    d = min(d, np.linalg.norm(f[i] - f[j]))
            return d

        greedy_d = min_pairwise(sel.indices)
        rng = np.random.default_rng(99)
        rand_ds = [
            min_pairwise(list(rng.choice(cand, size=len(sel.indices), replace=False)))
            for _ in range(100)
        ]
        assert greedy_d >= np.mean(rand_ds)


# ---------------------------------------------------------------------------
# Herding
# ---------------------------------------------------------------------------

class TestHerding:
    def test_hand_trace(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        order = herding_order(feats, 2)
        assert order == [2, 0]
        assert feats[order].mean() == pytest.approx(1.0)  # matches mu

    def test_budget_one_argmax(self):
        feats = np.array([[0.5], [3.0], [-1.0]])
        assert herding_order(feats, 1) == [1]

    def test_per_step_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            d = int(rng.integers(1, 4))
            feats = rng.normal(size=(n, d))
            k = int(rng.integers(1, n + 1))
            order = herding_order(feats, k)
            mu = feats.mean(axis=0)
            w = mu.copy()
            oracle = []
            for _ in range(k):
                best, best_s = None, -np.inf
                for i in range(n):
                    if i in oracle:
                        continue
                    s = float(feats[i] @ w)
                    if s > best_s:
                        best, best_s = i, s
                oracle.append(best)
                w = w + mu - feats[best]
            assert order == oracle


# ---------------------------------------------------------------------------
# Spatial stratification
# ---------------------------------------------------------------------------

class TestSpatialStratified:
    def test_full_fraction_identity(self):
        ds = scalar_series(np.random.default_rng(2).uniform(size=60))
        sel = run_strategy("spatial", ds, list(range(60)), SelectionBudget(1.0), seed=0)
        assert sorted(sel.indices) == list(range(60))

    def test_degenerate_identical_features(self):
        ds = scalar_series(np.full(24, 1.5))
        sel = run_strategy("spatial", ds, list(range(24)), SelectionBudget(0.5), seed=0)
        assert len(sel.indices) == 12

    def test_bin_occupancy_matches_quota(self):
        ds = scalar_series(np.random.default_rng(3).normal(size=120))
        sel = run_strategy("spatial", ds, list(range(120)), SelectionBudget(0.2), seed=1)
        from stratacast.selection import quantile_bins

        scores = ds.data.reshape(120).astype(np.float64)
        # first principal component of 1-D features is the centered value (sign-fixed)
        bins = quantile_bins(scores - scores.mean(), 12)
        occupancy = [(bins[sel.indices] == b).sum() for b in range(12)]
        assert all(abs(o - 2) <= 1 for o in occupancy)
        assert sum(occupancy) == 24


# ---------------------------------------------------------------------------
# Stratified hybrids
# ---------------------------------------------------------------------------

def two_cluster_months():
    """Daily year where each month holds two well-separated value clusters."""
    rng = np.random.default_rng(8)
    values = np.empty(365)
    ds0 = scalar_series(np.zeros(365))
    months = ds0.months()
    for m in range(1, 13):
        idx = np.nonzero(months == m)[0]
        half = idx.size // 2
        values[idx[:half]] = rng.normal(0.0, 0.05, size=half)
        values[idx[half:]] = rng.normal(10.0, 0.05, size=idx.size - half)
    return scalar_series(values), values


class TestStratifiedKmeans:
    @pytest.mark.parametrize("name", ["stratified_kmeans", "stratified_kmeanspp"],
                             ids=["select_stratified_kmeans", "select_stratified_kmeanspp"])
    def test_quota_per_month(self, name):
        ds, _ = two_cluster_months()
        sel = run_strategy(name, ds, list(range(365)), SelectionBudget(0.2), seed=0)
        months = ds.months()[sel.indices]
        counts = [(months == m).sum() for m in range(1, 13)]
        ref = run_strategy("stratified_time", ds, range(365), SelectionBudget(0.2), seed=0)
        ref_counts = [(ds.months()[ref.indices] == m).sum() for m in range(1, 13)]
        assert counts == ref_counts

    @pytest.mark.parametrize("name", ["stratified_kmeans", "stratified_kmeanspp"],
                             ids=["select_stratified_kmeans", "select_stratified_kmeanspp"])
    def test_one_per_cluster(self, name):
        ds, values = two_cluster_months()
        # quota 2 per month: 24 of 365 ~ fraction 24/365
        sel = run_strategy(name, ds, list(range(365)), SelectionBudget(24 / 365), seed=3)
        months = ds.months()[sel.indices]
        for m in range(1, 13):
            vals = values[np.asarray(sel.indices)[months == m]]
            if vals.size == 2:
                assert (vals < 5).sum() == 1 and (vals > 5).sum() == 1

    def test_one_sample_per_month_identity(self):
        ds0 = scalar_series(np.zeros(365))
        months = ds0.months()
        cand = [int(np.nonzero(months == m)[0][0]) for m in range(1, 13)]
        ds = scalar_series(np.random.default_rng(9).normal(size=365))
        sel = run_strategy("stratified_kmeans", ds, cand, SelectionBudget(1.0), seed=0)
        assert sorted(sel.indices) == sorted(cand)


class TestStratifiedEntropy:
    def test_static_dataset_lowest_index_ties(self):
        ds = scalar_series(np.full(365, 2.0))
        cand = list(range(365))
        sel = run_strategy("stratified_entropy", ds, cand, SelectionBudget(0.2), seed=0)
        months = ds.months()
        quota_sel = run_strategy("stratified_time", ds, cand, SelectionBudget(0.2), seed=0)
        for m in range(1, 13):
            got = sorted(i for i in sel.indices if months[i] == m)
            n_m = len([i for i in quota_sel.indices if months[i] == m])
            # scores all equal (0 or -inf for the last candidates); with the
            # 24h successor present everywhere except the final day, ties go
            # to the lowest indices of the month
            month_idx = [i for i in cand if months[i] == m and i + 1 < 365]
            assert got == month_idx[: len(got)]

    def test_planted_jumps_selected_first(self):
        values = np.zeros(365)
        ds0 = scalar_series(values)
        months = ds0.months()
        jump_idx = []
        for m in range(1, 13):
            i = int(np.nonzero(months == m)[0][3])
            values[i + 1] = 50.0 if months[i + 1] == m or True else 0.0
            jump_idx.append(i)
        # rebuild with jumps; note each jump perturbs two scores (i and i+1)
        ds = scalar_series(values)
        sel = run_strategy("stratified_entropy", ds, range(364), SelectionBudget(12 / 364), seed=0)
        assert set(jump_idx) <= set(sel.indices) | {i + 1 for i in jump_idx}

    def test_scores_match_brute_force(self, std_toy):
        from stratacast.selection import persistence_difficulty_scores

        cand = np.arange(50, 80)
        scores = persistence_difficulty_scores(std_toy, cand)
        off = int(round(24.0 / std_toy.stride_hours))
        for i, c in enumerate(cand):
            expected = np.sqrt(
                np.sum(
                    (
                        std_toy.data[c + off].astype(np.float64)
                        - std_toy.data[c].astype(np.float64)
                    )
                    ** 2
                )
            )
            assert scores[i] == pytest.approx(expected, rel=1e-9)


class TestStratifiedSpatialDiversity:
    def test_hand_trace_orthogonal_pick(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        order = greedy_cosine_order(feats, 2)
        assert order == [0, 1]

    def test_quota_equals_bin_identity(self):
        ds = scalar_series(np.random.default_rng(5).uniform(1, 2, size=60))
        sel = run_strategy("stratified_spatial_diversity", ds, range(60), SelectionBudget(1.0),
                           seed=0)
        assert sorted(sel.indices) == list(range(60))

    def test_per_step_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(4, 50))
            feats = rng.normal(size=(n, 3)) + 0.1
            k = int(rng.integers(2, n + 1))
            order = greedy_cosine_order(feats, k)
            oracle = [0]
            while len(oracle) < k:
                best, best_s = None, -np.inf
                for i in range(n):
                    if i in oracle:
                        continue
                    s = min(cosine_distance(feats[i], feats[j]) for j in oracle)
                    if s > best_s - 1e-12 and (best is None or s > best_s):
                        best, best_s = i, s
                oracle.append(best)
            assert order == oracle

    def test_zero_vector_noted_in_metadata(self):
        values = np.random.default_rng(6).uniform(1, 2, size=365)
        values[5] = 0.0  # zero spatial mean on a 1-cell grid
        ds = scalar_series(values)
        sel = run_strategy("stratified_spatial_diversity", 
            ds, list(range(365)), SelectionBudget(0.3), seed=0
        )
        assert 5 in sel.metadata.get("zero_vector_candidates", [])


class TestFull:
    def test_identity_in_order(self, std_toy):
        cand = [5, 9, 11, 40]
        sel = run_strategy("full", std_toy, cand, SelectionBudget(1.0), 0)
        assert sel.indices == cand
        assert sel.fraction == 1.0

    def test_idempotent(self, std_toy):
        cand = list(range(10))
        a = run_strategy("full", std_toy, cand, SelectionBudget(1.0), 0)
        b = run_strategy("full", std_toy, a.indices, SelectionBudget(1.0), 0)
        assert a.indices == b.indices


# ---------------------------------------------------------------------------
# The contract of every strategy, on tiny archives with repeated rows
# ---------------------------------------------------------------------------

@st.composite
def tiny_archives(draw):
    """A 1-3 year daily archive on a 2x3 grid, some rows exact copies of one
    row and some all zero, with its training candidates (maybe permuted)."""
    n_years = draw(st.integers(1, 3))
    n_vars = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    start = datetime(2000, 1, 1)
    n = (datetime(2000 + n_years, 1, 1) - start).days
    data = rng.normal(size=(n, n_vars, 2, 3)).astype(np.float32)
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    data[dup] = data[int(rng.integers(n))]
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    data[zero] = 0.0
    ds = GriddedDataset(
        grid=GridSpec(np.array([-30.0, 30.0]), np.array([0.0, 120.0, 240.0])),
        variables=[f"synthetic_{v}" for v in range(n_vars)],
        timestamps=[start + timedelta(days=i) for i in range(n)],
        data=data,
    )
    split = SplitSpec((2000, 1999 + n_years))
    cand = valid_init_times(ds, split, which="train", max_lead_hours=24.0)
    if draw(st.booleans()):
        cand = [int(i) for i in rng.permutation(cand)]
    return ds, cand


class TestEveryStrategyContract:
    @settings(max_examples=25, deadline=None)
    @given(
        archive=tiny_archives(),
        fraction=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_exact_unique_members_reproducible(self, archive, fraction):
        ds, cand = archive
        budget = SelectionBudget(fraction)
        for name in sorted(STRATEGIES):
            sel = run_strategy(name, ds, cand, budget, seed=7)
            k = len(cand) if name == "full" else budget.target_count(len(cand))
            assert len(sel.indices) == k, name
            assert len(set(sel.indices)) == k, name
            assert set(sel.indices) <= set(cand), name
            again = run_strategy(name, ds, cand, budget, seed=7)
            assert again.to_json() == sel.to_json(), name

import json
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from test_golden_selection import GOLDEN, blas_signature

from stratacast.dataset import GriddedDataset, GridSpec
from stratacast.features import (
    FeatureError,
    _fix_signs,
    _svd_pca,
    cosine_distance,
    flatten_samples,
    pca_fit,
    pca_transform,
    spatial_mean_matrix,
)
from stratacast.selection import pca_features


def brute_force_pca(x, m):
    """Independent oracle: eigendecomposition of the explicit covariance."""
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean(axis=0)
    cov = np.zeros((x.shape[1], x.shape[1]))
    for row in xc:
        cov += np.outer(row, row)
    cov /= x.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return vals[order][:m], vecs[:, order][:, :m].T


class TestFlatten:
    def test_layout_single_variable(self, toy_dataset):
        x = flatten_samples(toy_dataset, [3])
        assert x.shape == (1, 2 * 4 * 8)
        np.testing.assert_array_equal(x[0, :32], toy_dataset.data[3, 0].ravel())

    def test_variable_major_order(self, toy_dataset):
        x = flatten_samples(toy_dataset, [0, 5])
        np.testing.assert_array_equal(x[1, 32:], toy_dataset.data[5, 1].ravel())

    def test_random_index_oracle(self, toy_dataset):
        rng = np.random.default_rng(0)
        times = rng.choice(toy_dataset.n_times, size=6, replace=False)
        x = flatten_samples(toy_dataset, times)
        for _ in range(50):
            i = rng.integers(6)
            v = rng.integers(2)
            la = rng.integers(4)
            lo = rng.integers(8)
            col = v * 32 + la * 8 + lo
            assert x[i, col] == toy_dataset.data[times[i], v, la, lo]

    def test_empty_times(self, toy_dataset):
        with pytest.raises(FeatureError):
            flatten_samples(toy_dataset, [])


class TestPca:
    def test_degenerate_line(self):
        t = np.linspace(-1, 1, 10)
        x = np.stack([t, t], axis=1)
        model = pca_fit(x, 1)
        np.testing.assert_allclose(np.abs(model.axes[0]), [1 / np.sqrt(2)] * 2, atol=1e-9)
        with pytest.raises(FeatureError, match="rank"):
            pca_fit(x, 2)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 6))
        model = pca_fit(x, 6)
        z = pca_transform(model, x)
        back = z @ model.axes + model.center
        np.testing.assert_allclose(back, x, rtol=1e-5, atol=1e-8)

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 7))
        model = pca_fit(x, 7)
        vals, vecs = brute_force_pca(x, 7)
        np.testing.assert_allclose(model.explained_variance, vals, atol=1e-6)
        for i in range(7):
            dot = abs(np.dot(model.axes[i], vecs[i]))
            assert dot == pytest.approx(1.0, abs=1e-6)

    def test_orthonormality(self):
        rng = np.random.default_rng(3)
        model = pca_fit(rng.normal(size=(30, 10)), 8)
        gram = model.axes @ model.axes.T
        assert np.abs(gram - np.eye(8)).max() < 1e-6

    def test_total_variance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 5))
        model = pca_fit(x, 5)
        xc = x - x.mean(axis=0)
        total = np.sum(xc**2) / x.shape[0]
        assert model.explained_variance.sum() == pytest.approx(total, rel=1e-5)

    def test_explained_variance_descending(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(size=(40, 9)), 9)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_m_out_of_range(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 4))
        with pytest.raises(FeatureError):
            pca_fit(x, 0)
        with pytest.raises(FeatureError):
            pca_fit(x, 5)


def loop_fix_signs(axes, tol=1e-12):
    """Reference: negate each row whose first entry above ``tol`` in size is negative."""
    out = axes.copy()
    for i, row in enumerate(out):
        nz = np.nonzero(np.abs(row) > tol)[0]
        if nz.size and row[nz[0]] < 0:
            out[i] = -row
    return out


def test_fix_signs_equals_the_row_loop():
    """Random axes, axes at or below the tolerance in size (zeros of both
    signs included) and rows that lead with such entries give the loop's bytes."""
    rng = np.random.default_rng(11)
    tiny = [1e-12, -1e-12, 5e-13, -5e-13, 0.0, -0.0, 2e-12, -2e-12]
    for case in range(600):
        m, d = rng.integers(1, 6), rng.integers(1, 8)
        axes = rng.normal(size=(m, d))
        if case % 3 == 1:
            axes *= rng.choice(tiny, size=(m, d))
        elif case % 3 == 2:
            axes[:, : rng.integers(0, d + 1)] = rng.choice(tiny, size=(m, 1))
        assert _fix_signs(axes).tobytes() == loop_fix_signs(axes).tobytes()


class TestPcaTransform:
    def test_center_maps_to_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 5))
        model = pca_fit(x, 3)
        z = pca_transform(model, model.center[None, :])
        np.testing.assert_allclose(z, 0.0, atol=1e-9)

    def test_isometry_full_basis(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 6))
        model = pca_fit(x, 6)
        z = pca_transform(model, x)
        for i in range(10):
            for j in range(i):
                d_orig = np.linalg.norm(x[i] - x[j])
                d_proj = np.linalg.norm(z[i] - z[j])
                assert d_proj == pytest.approx(d_orig, abs=1e-6)

    def test_matches_direct_multiply(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(14, 6))
        model = pca_fit(x, 4)
        y = rng.normal(size=(5, 6))
        expected = (y - model.center) @ model.axes.T
        np.testing.assert_allclose(pca_transform(model, y), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        model = pca_fit(rng.normal(size=(10, 6)), 2)
        with pytest.raises(FeatureError):
            pca_transform(model, rng.normal(size=(3, 5)))


class TestQrFirstPca:
    """A tall pool is reduced to R of its QR before the SVD, at dgesdd's own
    crossover N >= floor(11 D / 6), so nothing changes but memory."""

    D = 64

    @staticmethod
    def direct(x, max_m):
        """Reference: rank, variances and axes from a direct thin SVD."""
        _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        rank = int(np.sum(s > s[0] * max(x.shape) * np.finfo(np.float64).eps * 10))
        m = min(max_m, rank)
        return rank, s[:m] ** 2 / x.shape[0], _fix_signs(vt[:m])

    @classmethod
    def pool(cls, rows, rank_deficient=False):
        rng = np.random.default_rng(rows)
        if not rank_deficient:
            return rng.normal(size=(rows, cls.D))
        x = rng.normal(size=(rows, 12)) @ rng.normal(size=(12, cls.D))
        x[::9] = 0.0
        x[1::5] = x[4]
        return x

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kw):
            shapes.append(a.shape)
            return svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    @pytest.mark.parametrize(
        "rows,rank_deficient",
        [(11 * D // 6, False), (2 * D, False), (3 * D, True)],
        ids=["crossover", "double", "duplicate_and_zero_rows"],
    )
    def test_bitwise_equal_to_direct_svd(self, rows, rank_deficient):
        listed = json.loads(GOLDEN.read_text())["blas"]
        if blas_signature() not in listed:
            pytest.skip(f"checked under {listed}, this machine has {blas_signature()}")
        x = self.pool(rows, rank_deficient)
        model, rank = _svd_pca(x, 20)
        want_rank, want_explained, want_axes = self.direct(x, 20)
        assert rank == want_rank
        assert rank < self.D if rank_deficient else rank == self.D
        assert np.array_equal(model.explained_variance, want_explained)
        assert np.array_equal(model.axes, want_axes)
        assert np.array_equal(model.center, x.mean(axis=0))

    def test_svd_sees_the_pool_below_crossover_and_r_above(self, svd_shapes):
        below = 11 * self.D // 6 - 1
        _svd_pca(self.pool(below), 8)
        _svd_pca(self.pool(below + 1), 8)
        assert svd_shapes == [(below, self.D), (self.D, self.D)]

    def test_pca_features_peak_under_three_pools(self, svd_shapes):
        # desk-shaped (N ~ 2.1 D): a flattened pool, its centered copy and an
        # N x D left factor alive together reach about 3.5 pools
        n, shape = 540, (2, 8, 16)
        rng = np.random.default_rng(0)
        ds = GriddedDataset(
            grid=GridSpec(np.linspace(-70.0, 70.0, shape[1]), np.linspace(0.0, 337.5, shape[2])),
            variables=["synthetic_0", "synthetic_1"],
            timestamps=[datetime(2000, 1, 1) + timedelta(days=i) for i in range(n)],
            data=rng.normal(size=(n, *shape)).astype(np.float32),
        )
        d = int(np.prod(shape))
        tracemalloc.start()
        try:
            pca_features(ds, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * d * 8
        assert svd_shapes == [(d, d)]


class TestSpatialMean:
    def test_constant_field(self, toy_dataset):
        ds = toy_dataset
        data = ds.data.copy()
        data[0] = 3.5
        ds2 = type(ds)(
            grid=ds.grid, variables=list(ds.variables),
            timestamps=list(ds.timestamps), data=data,
        )
        np.testing.assert_allclose(spatial_mean_matrix(ds2, [0])[0], [3.5, 3.5], atol=1e-6)

    def test_two_cell_uniform(self, toy_dataset):
        v = spatial_mean_matrix(toy_dataset, [7])[0]
        np.testing.assert_allclose(v, toy_dataset.data[7].mean(axis=(1, 2)), atol=1e-7)

    def test_matrix_matches_vector(self, toy_dataset):
        times = [0, 3, 9]
        mat = spatial_mean_matrix(toy_dataset, times)
        for row, t in zip(mat, times):
            np.testing.assert_allclose(row, spatial_mean_matrix(toy_dataset, [t])[0], atol=1e-12)


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(FeatureError):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_scale_invariance_and_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            d = cosine_distance(a, b)
            assert cosine_distance(b, a) == pytest.approx(d, abs=1e-12)
            assert cosine_distance(3.7 * a, 0.2 * b) == pytest.approx(d, abs=1e-9)

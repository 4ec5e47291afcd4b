"""Shared feature space for selection strategies.

Feature matrices are plain (N, D) float64 arrays. PCA is computed by SVD of
the centered matrix; axes carry a deterministic sign convention (first
nonzero component positive) so downstream selections are reproducible.

A tall pool (N >= floor(11 D / 6)) is first reduced to the D x D triangular
factor R of its QR decomposition, and the SVD runs on R. LAPACK's ``dgesdd``
takes exactly this path itself above that crossover (the R-SVD of Chan, ACM
TOMS 8:72, 1982), so the singular values and right singular vectors are the
same bits as a direct thin SVD, while the N x D left factor is never built
and the centered pool is freed before the SVD starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GriddedDataset


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class PcaModel:
    """Centering vector plus orthonormal principal axes (rows, m x D)."""

    center: np.ndarray
    axes: np.ndarray
    explained_variance: np.ndarray


def flatten_samples(ds: GriddedDataset, times) -> np.ndarray:
    """Row per time index: variable-major concatenation of grid values."""
    times = ds.check_indices(times, "time index", FeatureError)
    if times.size == 0:
        raise FeatureError("empty time index list")
    return ds.data[times].reshape(times.size, -1).astype(np.float64)


def _fix_signs(axes: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """``axes`` with each row negated whose first entry above ``tol`` in size
    is negative. A row with no such entry leads with an entry no larger than
    ``tol`` in size, which is never below ``-tol``, so it is kept."""
    lead = axes[np.arange(axes.shape[0]), (np.abs(axes) > tol).argmax(axis=1)]
    return np.where((lead < -tol)[:, None], -axes, axes)


def _svd_pca(x: np.ndarray, max_m: int) -> tuple[PcaModel | None, int]:
    """Top min(max_m, rank) principal axes from one SVD of the centered x.

    Returns the model (None when the rank is 0) and the numerical rank, which
    counts singular values above an SVD-scale tolerance.

    When N >= floor(11 D / 6), the SVD runs on the D x D factor R of
    ``qr(x - center)``: ``dgesdd``'s own crossover to an internal QR, so
    ``s`` and ``vt`` are a direct thin SVD's bits. Below it they differ in
    the last bits, so the direct call stays. x is dropped once centered and
    the centered copy once QR returns: a pool passed as a temporary leaves
    no N x D array alive during the SVD.
    """
    n, d = x.shape
    center = x.mean(axis=0)
    a = x - center
    del x
    if n >= 11 * d // 6:
        a = np.linalg.qr(a, mode="r")
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(n, d) * np.finfo(np.float64).eps * 10)) if s.size else 0
    if rank == 0:
        return None, 0
    m = min(max_m, rank)
    explained = (s[:m] ** 2) / n
    return PcaModel(center=center, axes=_fix_signs(vt[:m]), explained_variance=explained), rank


def pca_fit(x: np.ndarray, m: int) -> PcaModel:
    """Top-m principal axes of x via SVD of the centered matrix.

    Errors when m exceeds the numerical rank rather than padding with
    arbitrary axes.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if not 1 <= m <= min(n, d):
        raise FeatureError(f"m={m} out of range for shape {(n, d)}")
    model, rank = _svd_pca(x, m)
    if m > rank:
        raise FeatureError(f"requested m={m} exceeds numerical rank {rank}")
    return model


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.center.size:
        raise FeatureError(
            f"feature dim {x.shape[1]} does not match model dim {model.center.size}"
        )
    return (x - model.center) @ model.axes.T


def spatial_mean_matrix(ds: GriddedDataset, times) -> np.ndarray:
    """Per-variable spatial mean (unweighted), one row per time index."""
    times = ds.check_indices(times, "time index", FeatureError)
    return ds.data[times].astype(np.float64).mean(axis=(2, 3))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise FeatureError("cosine distance undefined for zero vectors")
    return float(1.0 - (a @ b) / (na * nb))

"""Comparison estimators sharing the Dataset/fit-directory contracts.

GDM clusters the raw observations with plain Euclidean K-means and extends
rays from the data center through the centroids; it is accurate only for
near-equilateral simplices or tiny concentration. SPA greedily picks the
row of largest residual, which requires near-separable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._matrix_io import read_matrix_csv, write_json, write_matrix_csv
from .model import Dataset
from .numerics import kmeans, row_blocks
from .vlad import _extended, _lexsorted_columns, _warn_if_coincident


@dataclass(frozen=True)
class BaselineFit:
    vertices: np.ndarray  # (D, K)
    method_tag: str
    meta: dict


def gdm(
    data: Dataset,
    K: int,
    gamma: float,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
    method_tag: str = "gdm",
) -> BaselineFit:
    """Raw-space K-means centroids extended from the data center.

    The rays extend as in the reduced-space estimator, but the vertices are
    the raw extension, never put back on the probability simplex, even for
    multinomial data. K-means runs on the observations; its centroids and
    the center are divided by ``Dataset.divisor``. ``method_tag`` only names
    the fit: the harness methods ``gdm`` and ``gdm_mc`` both run this
    function with the same gamma(K, alpha).
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if data.n <= K:
        raise ValueError(f"need n > K observations, got n = {data.n}")
    X = data.observations
    km = kmeans(X, K, restarts=restarts, rng=rng)  # raises on points that are not finite
    c0 = X.mean(axis=0) / data.divisor
    centroids = km.centroids.T / data.divisor
    _warn_if_coincident(centroids, stacklevel=3)
    return BaselineFit(
        vertices=_extended(c0, centroids, gamma, onto_simplex=False)[0],
        method_tag=method_tag,
        meta={"gamma": float(gamma), "kmeans_cost": km.cost},
    )


def spa(data: Dataset, K: int) -> BaselineFit:
    """Successive projection: each step picks the row of largest residual
    orthogonal to the rows picked so far.

    With U the orthonormal residual directions of the picks and P = X U^T, a
    squared residual norm is ||x_i||^2 - ||P_i||^2 (Gillis & Vavasis 2014):
    a step costs one product X u and copies no data. Below 1e-4 times the
    largest ||x_i||^2 that difference cancels, and the norms are
    formed one block of rows at a time. The picked residual, orthogonalised
    twice, must exceed 1e-12 times the largest row norm, else the data are
    rank deficient. The picks do not depend on the data's scale; the
    vertices are the picked rows divided by ``Dataset.divisor``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if data.n < K:
        raise ValueError(f"need n >= K observations, got n = {data.n}")
    X = data.observations
    residual = np.einsum("ij,ij->i", X, X)  # squared residual norms, ||x_i||^2 - ||P_i||^2
    scale = float(np.sqrt(residual.max()))
    if scale == 0.0:
        raise ValueError("all-zero data has no extreme rows")
    U = np.empty((K, X.shape[1]))
    chosen: list[int] = []
    for k in range(K):
        if residual.max() <= 1e-4 * scale * scale:
            for rows in row_blocks(X.shape[0], X.shape[1] * X.itemsize):
                block = X[rows] - (X[rows] @ U[:k].T) @ U[:k]
                residual[rows] = np.einsum("ij,ij->i", block, block)
        idx = int(np.argmax(residual))
        r = X[idx] - (U[:k] @ X[idx]) @ U[:k]
        r -= (U[:k] @ r) @ U[:k]
        norm = float(np.linalg.norm(r))
        if norm <= 1e-12 * scale:
            raise ValueError(
                f"rank deficiency: only {len(chosen)} independent directions found, needed {K}"
            )
        chosen.append(idx)
        U[k] = r / norm
        p = X @ U[k]
        residual -= p * p
    vertices = X[chosen].T / data.divisor
    order = _lexsorted_columns(vertices)
    return BaselineFit(
        vertices=vertices[:, order],
        method_tag="spa",
        meta={"rows": [chosen[i] for i in order]},
    )


def save_baseline(fit: BaselineFit, directory: str | Path, seed: int | None = None, **meta) -> Path:
    """Write vertices.csv + meta.json (plus the ``meta`` entries) in the shared fit-directory layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / "vertices.csv", fit.vertices)
    scalars = {k: v for k, v in fit.meta.items() if isinstance(v, (bool, int, float, str, list))}
    write_json(directory / "meta.json",
               {"method": fit.method_tag, "K": fit.vertices.shape[1], "seed": seed, **scalars, **meta})
    return directory


def load_vertices(path: str | Path) -> np.ndarray:
    """Read a vertices.csv (either a fit directory or the file itself);
    a non-finite entry is a ValueError naming the file."""
    path = Path(path)
    if path.is_dir():
        path = path / "vertices.csv"
    vertices = read_matrix_csv(path)
    if not np.isfinite(vertices).all():
        raise ValueError(f"vertices in {path} must be finite")
    return vertices

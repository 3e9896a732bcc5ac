"""Comparison estimators sharing the Dataset/fit-directory contracts.

GDM clusters the raw observations with plain Euclidean K-means and extends
rays from the data center through the centroids; it is accurate only for
near-equilateral simplices or tiny concentration. SPA greedily picks
maximal-norm rows and deflates, which requires near-separable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._matrix_io import read_matrix_csv, write_json, write_matrix_csv
from .model import Dataset
from .numerics import kmeans
from .vlad import _extended, _lexsorted_columns


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
    normalize: bool = True,
    method_tag: str = "gdm",
) -> BaselineFit:
    """Raw-space K-means centroids extended from the data center.

    The rays extend as in the reduced-space estimator, but the vertices are
    the raw extension, never put back on the probability simplex, even for
    multinomial data. ``method_tag`` only names the fit: the harness methods
    ``gdm`` and ``gdm_mc`` both run this function with the same gamma(K, alpha).
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if data.n <= K:
        raise ValueError(f"need n > K observations, got n = {data.n}")
    X = data.fitting_matrix(normalize)
    if not np.all(np.isfinite(X)):
        raise ValueError("observations must be finite")
    km = kmeans(X, K, restarts=restarts, rng=rng)
    c0 = X.mean(axis=0)
    return BaselineFit(
        vertices=_extended(c0, km.centroids.T, gamma, onto_simplex=False)[0],
        method_tag=method_tag,
        meta={"gamma": float(gamma), "kmeans_cost": km.cost},
    )


def spa(data: Dataset, K: int, normalize: bool = True) -> BaselineFit:
    """Successive projection: greedy maximal-norm row selection.

    Repeatedly picks the row of largest Euclidean norm, records it as a
    vertex, and projects all rows onto the orthogonal complement of the
    picked row. Deterministic; raises when the data cannot supply K
    independent directions.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if data.n < K:
        raise ValueError(f"need n >= K observations, got n = {data.n}")
    X = data.fitting_matrix(normalize)
    R = np.array(X, dtype=float)
    scale = float(np.linalg.norm(R, axis=1).max())
    if scale == 0.0:
        raise ValueError("all-zero data has no extreme rows")
    chosen: list[int] = []
    for _ in range(K):
        norms = np.linalg.norm(R, axis=1)
        idx = int(np.argmax(norms))
        if norms[idx] <= 1e-12 * scale:
            raise ValueError(
                f"rank deficiency: only {len(chosen)} independent directions found, needed {K}"
            )
        chosen.append(idx)
        u = R[idx] / norms[idx]
        R = R - np.outer(R @ u, u)
    vertices = X[chosen].T
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
    """Read a vertices.csv (either a fit directory or the file itself)."""
    path = Path(path)
    if path.is_dir():
        path = path / "vertices.csv"
    return read_matrix_csv(path)

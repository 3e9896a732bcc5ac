"""Latent simplex estimation by centering, rank reduction, clustering and
ray extension, plus weight recovery by projection onto the fitted simplex.

The estimator runs six steps on the data matrix: find the data center,
center the rows, take the top K-1 singular factors, K-means the rows of the
left factor, map the centroids back to the ambient space, and extend the
rays from the center through the centroids by the extension factor gamma.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import alpha_est
from ._matrix_io import read_matrix_csv, write_matrix_csv
from .extension import GammaTable, default_alpha_grid
from .model import Dataset, affine_rank_deficient
from .numerics import SvdFactors, center, kmeans, truncated_svd

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 10_000


@dataclass(frozen=True)
class VladFit:
    """Fitted simplex: vertices, the CVT centroids they extend, and factors.

    vertices[:, k] == center + gamma * (cvt_centroids[:, k] - center) holds
    exactly unless the probability-simplex post-step rewrote the vertices
    (multinomial data, ``renormalize=True``).
    """

    vertices: np.ndarray        # (D, K)
    cvt_centroids: np.ndarray   # (D, K)
    center: np.ndarray          # (D,)
    factors: SvdFactors | None
    gamma: float
    alpha: float | None
    kmeans_cost: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[1]


def extend_rays(center_point: np.ndarray, centroids: np.ndarray, gamma: float) -> np.ndarray:
    """Move each centroid column along its ray from the center by factor gamma."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be finite and > 0")
    c0 = np.asarray(center_point, dtype=float)[:, None]
    return c0 + float(gamma) * (np.asarray(centroids, dtype=float) - c0)


def _lexsorted_columns(V: np.ndarray) -> np.ndarray:
    """Column order sorting vertices lexicographically by coordinates."""
    return np.lexsort(V[::-1])


def _renormalized(
    vertices: np.ndarray, data: Dataset, normalize: bool | None, renormalize: bool | None
) -> np.ndarray:
    """Clip vertices to >= 0 and rescale columns onto the probability simplex.

    ``renormalize=None`` means: only for normalized multinomial data.
    """
    if renormalize is None:
        renormalize = data.kernel.name == "multinomial" and (normalize is None or normalize)
    if not renormalize:
        return vertices
    vertices = np.clip(vertices, 0.0, None)
    sums = vertices.sum(axis=0)
    if np.any(sums <= 0):
        raise ValueError("cannot renormalize a fitted vertex with no positive mass")
    return vertices / sums


def fit(
    data: Dataset,
    K: int,
    gamma: float,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
    normalize: bool | None = None,
    renormalize: bool | None = None,
) -> VladFit:
    """Estimate the K simplex vertices with a known extension factor.

    Parameters
    ----------
    data : Dataset
        Observations; multinomial counts are normalized by the trial count
        unless ``normalize=False``.
    K : int
        Number of vertices to recover.
    gamma : float
        Extension factor applied to the center-to-centroid rays.
    restarts : int
        Independent ++-initialized K-means restarts.
    rng : numpy.random.Generator
        Source for the K-means restarts.
    renormalize : bool, optional
        Clip fitted vertices to >= 0 and rescale columns onto the
        probability simplex. Defaults to True for normalized multinomial
        data and False otherwise; extended rays can leave the simplex, so
        this keeps multinomial vertices interpretable as distributions.

    Vertex columns are ordered lexicographically by coordinates so that
    repeated runs serialize identically.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if data.n <= K:
        raise ValueError(f"need n > K observations, got n = {data.n}")
    X = data.fitting_matrix(normalize)
    if not np.all(np.isfinite(X)):
        raise ValueError("observations must be finite")

    Xbar, c0 = center(X)
    factors = truncated_svd(Xbar, K - 1)
    km = kmeans(factors.left, K, restarts=restarts, rng=rng)
    scaled = factors.right * factors.singular          # (D, K-1) columns W_j * s_j
    centroids = c0[:, None] + scaled @ km.centroids.T  # (D, K)

    gaps = centroids.T[:, None, :] - centroids.T[None, :, :]
    pair = np.sqrt((gaps**2).sum(axis=2))
    np.fill_diagonal(pair, np.inf)
    scale = max(1.0, float(np.abs(centroids).max()))
    if pair.min() <= 1e-12 * scale:
        warnings.warn("two fitted vertices coincide (degenerate K-means winner)", stacklevel=2)

    vertices = _renormalized(extend_rays(c0, centroids, gamma), data, normalize, renormalize)

    order = _lexsorted_columns(vertices)
    return VladFit(
        vertices=vertices[:, order],
        cvt_centroids=centroids[:, order],
        center=c0,
        factors=factors,
        gamma=float(gamma),
        alpha=None,
        kmeans_cost=km.cost,
    )


def fit_auto(
    data: Dataset,
    K: int,
    table: GammaTable | None = None,
    alpha_search: tuple[float, float] = (0.02, 10.0),
    restarts: int = 8,
    rng: np.random.Generator | None = None,
    normalize: bool | None = None,
    renormalize: bool | None = None,
) -> VladFit:
    """Estimate vertices and the concentration parameter jointly.

    Runs the estimator once with a reference extension, recovers alpha by
    moment matching against the noise-corrected covariance, then re-extends
    the same centroids with gamma(alpha_hat); clustering is never repeated.
    Without ``table``, gamma is tabulated by quadrature over ``alpha_search``.
    """
    if table is None:
        table = GammaTable.from_quadrature(K, default_alpha_grid(lo=alpha_search[0], hi=alpha_search[1]))
    if table.K != K:
        raise ValueError(f"gamma table was built for K = {table.K}, not {K}")
    base = fit(data, K, gamma=1.0, restarts=restarts, rng=rng, normalize=normalize, renormalize=False)
    target = alpha_est.corrected_covariance(data, K, normalize=normalize)
    alpha_hat = alpha_est.estimate_alpha(base, target, table, search=alpha_search)
    gamma_hat = float(table.lookup(alpha_hat))

    vertices = _renormalized(
        extend_rays(base.center, base.cvt_centroids, gamma_hat), data, normalize, renormalize)
    order = _lexsorted_columns(vertices)
    return replace(
        base,
        vertices=vertices[:, order],
        cvt_centroids=base.cvt_centroids[:, order],
        gamma=gamma_hat,
        alpha=float(alpha_hat),
    )


def project_rows_onto_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Standard O(K log K) sort-and-threshold rule.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, K = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    idx = np.arange(1, K + 1)
    cond = U - css / idx > 0
    rho = np.count_nonzero(cond, axis=1)
    tau = css[np.arange(n), rho - 1] / rho
    return np.maximum(V - tau[:, None], 0.0)


def simplex_least_squares(
    B: np.ndarray,
    X: np.ndarray,
    tol: float = PROJECTION_TOL,
    max_iter: int = PROJECTION_MAX_ITER,
) -> np.ndarray:
    """Rowwise argmin over the simplex of ||B theta - x||^2.

    FISTA (Beck & Teboulle 2009) with step 1/L, L = ||B||_2^2, and the
    sorting projection, run on all rows at once with one projection call
    per iteration. Each row stops on its own: the first iteration whose
    gradient-mapping norm L * ||y - z|| is <= tol writes that iterate z to
    the output and drops the row from the working set. Each row also keeps
    its own momentum, restarted (O'Donoghue & Candes 2015, gradient scheme)
    whenever <y - z, z - theta_prev> > 0, i.e. the step moved uphill.

    Rows still short of tol after ``max_iter`` iterations return their last
    iterate, and one RuntimeWarning gives their count and largest gap.
    """
    B = np.asarray(B, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = B.shape[1]
    G = B.T @ B
    L = float(np.linalg.eigvalsh(G)[-1])
    if L <= 0:
        raise ValueError("degenerate vertex matrix")
    n = X.shape[0]
    out = np.empty((n, K))
    rows = np.arange(n)               # output row of each working row
    XB = X @ B
    theta = np.full((n, K), 1.0 / K)
    Y = theta.copy()
    t = np.ones(n)
    gap = np.full(n, np.inf)
    for _ in range(max_iter):
        if rows.size == 0:
            break
        grad = Y @ G - XB
        Z = project_rows_onto_simplex(Y - grad / L)
        step = Y - Z
        gap = L * np.linalg.norm(step, axis=1)
        done = gap <= tol
        if done.any():
            out[rows[done]] = Z[done]
            keep = ~done
            rows, XB, Z, step, theta, t, gap = (
                a[keep] for a in (rows, XB, Z, step, theta, t, gap))
        t[np.einsum("ij,ij->i", step, Z - theta) > 0] = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Y = Z + ((t - 1.0) / t_next)[:, None] * (Z - theta)
        theta = Z
        t = t_next
    if rows.size:
        out[rows] = theta
        warnings.warn(
            f"simplex_least_squares: {rows.size} of {n} rows did not reach "
            f"tol = {tol:g} in {max_iter} iterations (largest gap {gap.max():.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def recover_weights(fit_result: VladFit, data: Dataset, normalize: bool | None = None) -> np.ndarray:
    """Barycentric weights of each observation's projection onto the fit.

    Rows of the result lie on the probability simplex; points outside the
    fitted simplex project onto its boundary.
    """
    B = fit_result.vertices
    if affine_rank_deficient(B):
        raise ValueError("fitted simplex is degenerate; weights are not identifiable")
    X = data.fitting_matrix(normalize)
    return simplex_least_squares(B, X)


def save_fit(fit_result: VladFit, directory: str | Path, seed: int | None = None) -> Path:
    """Write vertices.csv, centroids.csv, center.csv and meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / "vertices.csv", fit_result.vertices)
    write_matrix_csv(directory / "centroids.csv", fit_result.cvt_centroids)
    write_matrix_csv(directory / "center.csv", fit_result.center[None, :])
    meta = {
        "gamma": fit_result.gamma,
        "alpha": fit_result.alpha,
        "K": fit_result.n_vertices,
        "kmeans_cost": fit_result.kmeans_cost,
        "seed": seed,
    }
    with open(directory / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return directory


def load_fit(directory: str | Path) -> VladFit:
    """Read a fit directory written by :func:`save_fit` (factors omitted)."""
    directory = Path(directory)
    with open(directory / "meta.json") as fh:
        meta = json.load(fh)
    return VladFit(
        vertices=read_matrix_csv(directory / "vertices.csv"),
        cvt_centroids=read_matrix_csv(directory / "centroids.csv"),
        center=read_matrix_csv(directory / "center.csv")[0],
        factors=None,
        gamma=float(meta["gamma"]),
        alpha=None if meta.get("alpha") is None else float(meta["alpha"]),
        kmeans_cost=float(meta["kmeans_cost"]),
    )

"""Latent simplex estimation by centering, rank reduction, clustering and
ray extension, plus weight recovery by projection onto the fitted simplex.

The estimator runs six steps on the data matrix: find the data center,
center the rows, take the top K-1 singular factors, K-means the rows of the
left factor, map the centroids back to the ambient space, and extend the
rays from the center through the centroids by the extension factor gamma.
``fit`` takes gamma as a number; ``fit_auto`` estimates alpha and takes gamma
as a function gamma(K, alpha), by default the exact ``quadrature_gamma``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import alpha_est
from ._matrix_io import read_matrix_csv, write_json, write_matrix_csv
from .extension import quadrature_gamma
from .model import Dataset, affine_rank_deficient
from .numerics import SvdFactors, _CentredOperator, factors_by_gram, kmeans, truncated_svd

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 10_000
SIMPLEX_ATOL = 1e-9  # a projected row sums to 1 within this, as Dataset checks weights


@dataclass(frozen=True)
class VladFit:
    """Fitted simplex: vertices, the CVT centroids they extend, and factors.

    vertices == extend_rays(center, cvt_centroids, gamma) holds exactly
    unless the fit is multinomial, whose vertices are put back on the
    probability simplex. ``sigma2_hat`` is the Gaussian noise-floor
    estimate, else None.
    """

    vertices: np.ndarray        # (D, K)
    cvt_centroids: np.ndarray   # (D, K)
    center: np.ndarray          # (D,)
    factors: SvdFactors | None
    gamma: float
    alpha: float | None
    kmeans_cost: float
    sigma2_hat: float | None = None

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
    """Column order sorting vertices lexicographically by coordinates, ties kept in order.

    ``np.lexsort(V[::-1])`` gives the same order, but holds about 2.8 kB per
    coordinate, 5.5 MB at D = 2000, more than a fit on wide counts needs.
    """
    return np.array(sorted(range(V.shape[1]), key=lambda j: V[:, j].tolist()), dtype=np.intp)


def _extended(center_point: np.ndarray, centroids: np.ndarray, gamma: float,
              onto_simplex: bool) -> tuple[np.ndarray, np.ndarray]:
    """Extend the rays to the centroids by gamma, with ``onto_simplex`` clip
    the vertices to >= 0 and rescale their columns onto the probability
    simplex, and return vertices and centroids with columns in
    lexicographic vertex order."""
    vertices = extend_rays(center_point, centroids, gamma)
    if onto_simplex:
        vertices = np.clip(vertices, 0.0, None)
        sums = vertices.sum(axis=0)
        if np.any(sums <= 0):
            raise ValueError("cannot renormalize a fitted vertex with no positive mass")
        vertices = vertices / sums
    order = _lexsorted_columns(vertices)
    return vertices[:, order], centroids[:, order]


def _fit(data: Dataset, K: int, gamma: float, restarts: int, rng: np.random.Generator | None,
         onto_simplex: bool) -> VladFit:
    """:func:`fit`, with the probability-simplex step chosen by the caller."""
    if K < 2:
        raise ValueError("K must be >= 2")
    if data.n <= K:
        raise ValueError(f"need n > K observations, got n = {data.n}")
    n, D = data.observations.shape
    gram = factors_by_gram(n, D, K - 1)
    # the Gram branch centres a copy; Lanczos reads the observations through products
    X = data.fitting_matrix() if gram else data.observations
    # a NaN or +-inf makes its column mean non-finite, so only then is X scanned
    with np.errstate(invalid="ignore"):  # inf and -inf in a column sum to NaN; reported below
        c0 = X.mean(axis=0)
    if not np.isfinite(c0).all() and not np.isfinite(X).all():
        raise ValueError("observations must be finite")
    if gram:
        # centre in place a copy made for this fit (normalized counts), never the observations
        Xbar = X - c0 if np.may_share_memory(X, data.observations) else np.subtract(X, c0, out=X)
    else:
        c0 /= data.divisor
        Xbar = _CentredOperator(X, c0, data.divisor)
    factors = truncated_svd(Xbar, K - 1)
    sigma2 = None  # the mean of the trailing eigenvalues of Xbar^T Xbar / n, as a trace identity
    if data.kernel.name == "gaussian" and D > K - 1:
        s = factors.singular
        squared = float(np.vdot(Xbar, Xbar)) if gram else Xbar.squared_norm()
        sigma2 = (squared - float(s @ s)) / (n * (D - K + 1))
    km = kmeans(factors.left, K, restarts=restarts, rng=rng)
    scaled = factors.right * factors.singular          # (D, K-1) columns W_j * s_j
    centroids = c0[:, None] + scaled @ km.centroids.T  # (D, K)

    gaps = centroids.T[:, None, :] - centroids.T[None, :, :]
    pair = np.sqrt((gaps**2).sum(axis=2))
    np.fill_diagonal(pair, np.inf)
    scale = max(1.0, float(np.abs(centroids).max()))
    if pair.min() <= 1e-12 * scale:
        warnings.warn("two fitted vertices coincide (degenerate K-means winner)", stacklevel=3)

    vertices, centroids = _extended(c0, centroids, gamma, onto_simplex)
    return VladFit(
        vertices=vertices,
        cvt_centroids=centroids,
        center=c0,
        factors=factors,
        gamma=float(gamma),
        alpha=None,
        kmeans_cost=km.cost,
        sigma2_hat=sigma2,
    )


def fit(
    data: Dataset,
    K: int,
    gamma: float,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
) -> VladFit:
    """Estimate the K simplex vertices with a known extension factor.

    Parameters
    ----------
    data : Dataset
        Observations; multinomial counts are fitted divided by the trial
        count, and their vertices are clipped to >= 0 and rescaled onto the
        probability simplex, which extended rays can leave. Other data keep
        the raw extension.
    K : int
        Number of vertices to recover.
    gamma : float
        Extension factor applied to the center-to-centroid rays.
    restarts : int
        Independent ++-initialized K-means restarts.
    rng : numpy.random.Generator
        Source for the K-means restarts.

    Gaussian fits carry sigma2_hat = (||Xbar||_F^2 - sum_j s_j^2) /
    (n (D - K + 1)) from the centred data they factor: the centred copy
    of the Gram branch, or, above ``numerics.GRAM_MAX_SIDE``, the
    observations centred one block of rows at a time. Vertex columns are
    ordered lexicographically by coordinates so that repeated runs
    serialize identically. The count-scale vertices of a multinomial fit
    are N * extend_rays(center, cvt_centroids, gamma).
    """
    return _fit(data, K, gamma, restarts, rng, data.kernel.name == "multinomial")


def fit_auto(
    data: Dataset,
    K: int,
    gamma: Callable = quadrature_gamma,
    alpha_search: tuple[float, float] = (0.02, 10.0),
    restarts: int = 8,
    rng: np.random.Generator | None = None,
) -> VladFit:
    """Estimate vertices and the concentration parameter jointly.

    Runs the estimator once with the reference extension gamma = 1 and no
    probability-simplex step, recovers alpha by moment matching against the
    noise-corrected covariance, then re-extends the same centroids with
    gamma(K, alpha_hat), as :func:`fit` would; clustering is never
    repeated. The moments come from the fit's own rank-(K-1) factors and
    sigma2_hat, so no D x D matrix or second copy of the data is formed.
    ``gamma`` is the exact quadrature unless another function gamma(K, alpha)
    is passed, such as the Monte-Carlo ``GammaTable`` the tests and the
    benchmark's paper workloads use, which raises if it was built for another
    K or does not cover ``alpha_search``.
    """
    alpha_est._check_correction(data.kernel, data.dim, K)
    base = _fit(data, K, 1.0, restarts, rng, onto_simplex=False)
    aa, at = alpha_est._reduced_moments(base, data.kernel)
    alpha_hat = alpha_est._solve_alpha(K, aa, at, gamma, alpha_search)
    gamma_hat = float(gamma(K, alpha_hat))

    vertices, centroids = _extended(base.center, base.cvt_centroids, gamma_hat,
                                    data.kernel.name == "multinomial")
    return replace(
        base,
        vertices=vertices,
        cvt_centroids=centroids,
        gamma=gamma_hat,
        alpha=float(alpha_hat),
    )


def project_rows_onto_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Standard O(K log K) sort-and-threshold rule. Its rounding grows with
    the size of a row's entries: from about 1e6 a row can miss sum 1 by
    more than ``SIMPLEX_ATOL``, and from about 1/eps the rule can find no
    active coordinate at all (rho = 0). The projection is unchanged by
    adding a multiple of 1 to a row, so those rows alone are projected
    again after subtracting their maximum, which keeps the top coordinate
    active and the threshold arithmetic near 0; every other row is
    projected as it is.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    P, rho = _threshold_projection(V)
    lost = (rho == 0) | ~(np.abs(P.sum(axis=1) - 1.0) <= SIMPLEX_ATOL)
    if lost.any():
        W = V[lost]
        P[lost] = _threshold_projection(W - W.max(axis=1, keepdims=True))[0]
    return P


def _threshold_projection(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sort-and-threshold projection of each row, and its count rho of
    active coordinates; a row with rho = 0 is not on the simplex."""
    n, K = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    idx = np.arange(1, K + 1)
    cond = U - css / idx > 0
    rho = np.count_nonzero(cond, axis=1)
    tau = css[np.arange(n), rho - 1] / np.maximum(rho, 1)
    return np.maximum(V - tau[:, None], 0.0), rho


def simplex_least_squares(
    B: np.ndarray,
    X: np.ndarray,
    tol: float = PROJECTION_TOL,
    max_iter: int = PROJECTION_MAX_ITER,
) -> np.ndarray:
    """Rowwise argmin over the simplex of ||B theta - x||^2.

    FISTA (Beck & Teboulle 2009) with step 1/L_t and the sorting projection,
    run on all rows at once with one projection call per iteration. With c
    the vertex mean and Bc = B - c 1^T, on the simplex
    ||B theta - x|| = ||Bc theta - (x - c)||, and the two gradients differ by
    a multiple of 1, which the projection ignores. So the solver runs on the
    centred problem, whose Lipschitz constant L_t = ||Bc||_2^2 is B's
    curvature along the simplex alone. For count-scale vertices the shared
    mean direction dominates ||B||_2^2, and L_t is several times smaller:
    the step is that much longer, and the gradient's rounding floor lower.

    Each row stops on its own: the first iteration whose gradient-mapping
    norm L_t * ||y - z|| is <= tol writes that iterate z to the output and
    drops the row from the working set. Each row also keeps its own
    momentum, restarted (O'Donoghue & Candes 2015, gradient scheme)
    whenever <y - z, z - theta_prev> > 0, i.e. the step moved uphill.

    When every vertex is the same point, up to rounding, every theta is
    optimal and the rows are uniform; B = 0 is an error. Rows still short of tol after
    ``max_iter`` iterations return their last iterate, and one
    RuntimeWarning gives their count and largest gap.
    """
    B = np.asarray(B, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = B.shape[1]
    if not B.any():
        raise ValueError("degenerate vertex matrix")
    c = B.mean(axis=1)
    Bc = B - c[:, None]
    # vertices that differ by no more than the rounding of their mean are one
    # point; a step 1/L_t from such a Bc would swamp the projection in rounding
    if np.abs(Bc).max() <= 4 * K * np.finfo(float).eps * np.abs(B).max():
        return np.full((X.shape[0], K), 1.0 / K)
    G = Bc.T @ Bc
    L = float(np.linalg.eigvalsh(G)[-1])
    n = X.shape[0]
    out = np.empty((n, K))
    rows = np.arange(n)               # output row of each working row
    XB = X @ Bc - c @ Bc
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


def recover_weights(fit_result: VladFit, data: Dataset) -> np.ndarray:
    """Barycentric weights of each observation's projection onto the fit.

    Rows of the result lie on the probability simplex; points outside the
    fitted simplex project onto its boundary. Multinomial counts are
    projected onto N times the vertices (``Dataset.divisor``), which gives
    the weights of the normalized counts without forming them.
    """
    B = fit_result.vertices
    if affine_rank_deficient(B):
        raise ValueError("fitted simplex is degenerate; weights are not identifiable")
    # on the simplex ||B theta - x / N|| = ||N B theta - x|| / N: the same minimizer from the
    # observations, with no (n, D) copy, and tol N^2 there is tol on the fitted scale
    N = data.divisor
    return simplex_least_squares(N * B, data.observations, tol=PROJECTION_TOL * N * N)


def save_fit(fit_result: VladFit, directory: str | Path, seed: int | None = None, **meta) -> Path:
    """Write vertices.csv, centroids.csv, center.csv and meta.json (plus the ``meta`` entries)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / "vertices.csv", fit_result.vertices)
    write_matrix_csv(directory / "centroids.csv", fit_result.cvt_centroids)
    write_matrix_csv(directory / "center.csv", fit_result.center[None, :])
    write_json(directory / "meta.json", {
        "gamma": fit_result.gamma,
        "alpha": fit_result.alpha,
        "K": fit_result.n_vertices,
        "kmeans_cost": fit_result.kmeans_cost,
        "seed": seed,
        **meta,
    })
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

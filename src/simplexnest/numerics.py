"""Dense numerics shared by the estimators.

Column centering, sample covariance, truncated SVD with a fixed sign
convention, and Lloyd K-means with ++ initialization and restarts. All
randomness flows through an explicit generator; per-restart streams are
spawned from it so restarts could run in any order (or in parallel)
without changing the result.

The truncated SVD computes only the top r singular triplets, by implicitly
restarted Lanczos (ARPACK, through ``scipy.sparse.linalg.svds``) from a
start vector drawn from a fixed seed, so it is deterministic and draws
nothing from the caller's generator. LAPACK's full SVD remains for the two
inputs ARPACK cannot take: r equal to the smaller dimension, and the
all-zero matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

LLOYD_MAX_ITER = 300
ARPACK_V0_SEED = 0


@dataclass(frozen=True)
class SvdFactors:
    """Top-r singular factors of a centered data matrix: X ~ U diag(s) W^T."""

    left: np.ndarray       # (n, r)
    singular: np.ndarray   # (r,) descending, >= 0
    right: np.ndarray      # (D, r), orthonormal columns

    @property
    def rank(self) -> int:
        return self.singular.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular) @ self.right.T


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray    # (K, d)
    assignments: np.ndarray  # (n,) int
    cost: float              # sum of squared distances to assigned centroid
    iterations: int          # Lloyd assignment passes run, at most max_iter


def center(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the column mean; returns (centered matrix, column mean)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need a non-empty (n, D) matrix")
    c0 = X.mean(axis=0)
    return X - c0, c0


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """(1/n) Xbar^T Xbar of the column-centered data; symmetric PSD."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    Xbar, _ = center(X)
    S = (Xbar.T @ Xbar) / X.shape[0]
    return (S + S.T) / 2.0


def truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Best rank-r factors of Xbar in Frobenius norm.

    For r < min(n, D) the top r triplets come from ARPACK's implicitly
    restarted Lanczos (``svds``) with the start vector
    ``default_rng(ARPACK_V0_SEED).standard_normal(min(n, D))``. A fixed
    vector keeps the factors bit-identical from call to call without
    drawing from the caller's generator; it is random because the all-ones
    vector is orthogonal to the rows of centered normalized counts. ARPACK
    failing to converge raises ``ArpackNoConvergence``. For r == min(n, D),
    which ARPACK cannot compute, and for the all-zero matrix, whose zero
    start residual ARPACK rejects, the factors come from LAPACK's full SVD.

    Singular values are descending. Deterministic up to sign; the sign of
    each right-singular vector is fixed so that its largest-magnitude
    entry is positive.
    """
    Xbar = np.asarray(Xbar, dtype=float)
    n, D = Xbar.shape
    if not (1 <= r <= min(n, D)):
        raise ValueError(f"r must be in [1, {min(n, D)}], got {r}")
    if r < min(n, D) and Xbar.any():
        v0 = np.random.default_rng(ARPACK_V0_SEED).standard_normal(min(n, D))
        U, s, Vh = svds(Xbar, k=r, v0=v0, solver="arpack")
        order = np.argsort(s)[::-1]
        U, s, W = U[:, order], s[order], Vh[order].T
    else:
        U, s, Vh = np.linalg.svd(Xbar, full_matrices=False)
        U, s, W = U[:, :r], s[:r], Vh[:r].T
    for j in range(r):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
            U[:, j] = -U[:, j]
    return SvdFactors(left=U, singular=s, right=W)


def _plusplus_init(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Canonical K-means++ seeding: squared-distance-proportional sampling.

    The squared point norms are computed once; each draw then costs one
    product with the new centroid.
    """
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))
    p2 = np.einsum("ij,ij->i", points, points)

    def sqdist_to(k: int) -> np.ndarray:
        """Squared distances to centroid k, (n,); tiny negatives clipped to 0."""
        c = centroids[k : k + 1]
        d2 = p2 - 2.0 * (points @ c.T).ravel() + np.einsum("ij,ij->i", c, c)
        np.maximum(d2, 0.0, out=d2)
        return d2

    centroids[0] = points[int(rng.integers(n))]
    d2 = sqdist_to(0)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass sits on already-chosen points
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[k] = points[idx]
        np.minimum(d2, sqdist_to(k), out=d2)
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int) -> KMeansResult:
    """Lloyd iterations until the assignment fixpoint or the iteration cap.

    Each empty cluster is reseeded at a distinct point: the one farthest
    from its assigned centroid among points whose cluster has at least two
    members, so a reseed never empties another cluster. On duplicated
    points every distance is zero, and without that rule the first point
    would be moved into every empty cluster. The assignment step maximizes
    x.c - c^2/2 (squared distance with the constant per-point term dropped)
    as one GEMM into a reused buffer, which keeps large-n runs memory-bound
    rather than allocation-bound. At the fixpoint the pass's own assignments,
    reseeds included, are returned with their cost.
    """
    n, d = points.shape
    K = centroids.shape[0]
    centroids = centroids.copy()
    p2 = np.einsum("ij,ij->i", points, points)
    aug = np.empty((n, d + 1))
    aug[:, :d] = points
    aug[:, d] = 1.0
    caug = np.empty((K, d + 1))
    scores = np.empty((n, K))
    assign = np.empty(n, dtype=np.intp)
    prev = np.empty(n, dtype=np.intp)
    have_prev = False
    iterations = 0

    def compute_assign() -> None:
        caug[:, :d] = centroids
        caug[:, d] = -0.5 * np.einsum("ij,ij->i", centroids, centroids)
        np.dot(aug, caug.T, out=scores)
        np.argmax(scores, axis=1, out=assign)

    for _ in range(max_iter):
        compute_assign()
        counts = np.bincount(assign, minlength=K)
        if np.any(counts == 0):
            best = np.take_along_axis(scores, assign[:, None], axis=1).ravel()
            nearest = np.maximum(p2 - 2.0 * best, 0.0)
            for k in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[assign] >= 2, nearest, -np.inf)))
                counts[assign[far]] -= 1
                counts[k] = 1
                assign[far] = k
        iterations += 1
        if have_prev and np.array_equal(assign, prev):
            break
        prev[:] = assign
        have_prev = True
        sums = np.empty((K, d))
        for j in range(d):
            sums[:, j] = np.bincount(assign, weights=points[:, j], minlength=K)
        centroids = sums / counts[:, None]
    else:
        compute_assign()  # the cap was hit: score against the last centroid update
    best = np.take_along_axis(scores, assign[:, None], axis=1).ravel()
    cost = float(np.maximum(p2 - 2.0 * best, 0.0).sum())
    return KMeansResult(centroids=centroids, assignments=assign.copy(), cost=cost,
                        iterations=iterations)


def kmeans(
    points: np.ndarray,
    K: int,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
    extra_inits: tuple[np.ndarray, ...] = (),
    max_iter: int = LLOYD_MAX_ITER,
) -> KMeansResult:
    """Best-of-restarts Lloyd K-means with ++ initialization.

    ``extra_inits`` are deterministic centroid matrices run in addition to
    the seeded restarts (the first-listed run wins cost ties). Each restart
    draws from its own child stream spawned off ``rng``, so the result does
    not depend on execution order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if K < 1:
        raise ValueError("K must be >= 1")
    if n < K:
        raise ValueError(f"need n >= K points, got n = {n} < K = {K}")
    if restarts < 1 and not extra_inits:
        raise ValueError("need at least one restart or explicit initialization")
    if restarts > 0 and rng is None:
        raise ValueError("rng is required when restarts > 0")

    best: KMeansResult | None = None
    runs: list[np.ndarray] = [np.asarray(c, dtype=float) for c in extra_inits]
    if restarts > 0:
        children = rng.spawn(restarts)
        runs.extend(_plusplus_init(points, K, child) for child in children)
    for init in runs:
        if init.shape != (K, points.shape[1]):
            raise ValueError(f"initial centroids must have shape ({K}, {points.shape[1]})")
        result = _lloyd(points, init, max_iter)
        if best is None or result.cost < best.cost:
            best = result
    return best

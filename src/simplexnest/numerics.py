"""Dense numerics shared by the estimators.

Column centering, sample covariance, truncated SVD with a fixed sign
convention, Lloyd K-means with ++ initialization and restarts, and the
textbook Hungarian method for a K x K assignment, so that fits and scores
run on numpy alone.
All randomness flows through an explicit generator; per-restart streams are
spawned from it so restarts could run in any order (or in parallel)
without changing the result.

Lloyd updates the per-cluster sums from the points that changed cluster,
O(moved * d) per pass instead of O(n * d), and recomputes them exactly on
the first pass, after an empty-cluster reseed, at the iteration cap and
when a pass reproduces the previous assignment. A fixpoint is accepted
only after a pass scored against exact means, so, as in plain Lloyd, the
returned centroids are exact means and the cost is scored against them.

The restarts of one ``kmeans`` call run in lockstep: each pass scores all
restarts still running in one (A K, d + 1) x (d + 1, n) product into a
score buffer allocated once per call, and finds each point's cluster by
one max and one first-max pass over it, with ``np.argmax``'s tie rule. A
restart leaves the batch when it converges or reaches the cap, and the
result of every restart equals that of running it alone wherever the
BLAS rounds the batched product as it rounds a one-restart product.

The truncated SVD computes only the top r singular triplets and runs on
numpy's BLAS and LAPACK alone. Lanczos finds the top r eigenvectors of the
(D, D) Gram Xbar^T Xbar of the (n, D) data, multiplying by the data twice,
one column at a time, whatever the shape, and never forms the Gram. It
accepts them by ARPACK's convergence test, with the absolute floor taken
relative to the largest Gram product of the run; the SVD of the data times
them gives the factors. Nothing runs on the OpenBLAS bundled with scipy's
wheel, a second thread pool whose threads kept spinning on the cores the
K-means that follows needs. Lanczos draws its start vector, and any fresh
direction, from a generator of its own seeded with ``LANCZOS_SEED``, never
from the caller's, so the factors are deterministic.

The data reach the SVD as ``_CentredOperator``, which stands for
Xbar = X / N - 1 c^T of raw observations X, a divisor N (the multinomial
trial count, else 1) and their column mean c, and never forms it. Lanczos
runs on its products Xbar q = (X q) / N - (c . q) 1 and
Xbar^T u = (X^T u) / N - c (1 . u), and the finish takes the data times
the eigenvectors by the same arithmetic over blocks of about
``ROW_BLOCK_BYTES`` of rows. Every pass reads the data by rows, and a fit
holds no (n, D) float copy of its observations. ||Xbar||_F^2 is summed
over blocks centred as X_b / N - c by the exact mean, which keeps the
precision of a centred copy: formed as ||X||_F^2 / N^2 - n |c|^2 it would
lose to cancellation twice the digits by which the mean outweighs the
spread (Chan, Golub & LeVeque 1983), where the one subtraction of a
product loses them once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

LLOYD_MAX_ITER = 300
LANCZOS_SEED = 0  # seeds the start vector and every fresh direction of Lanczos
LANCZOS_BASIS = 48  # Lanczos basis vectors held, at least; see truncated_svd
LANCZOS_PROBE = 4  # products run from a fresh direction before the top r are accepted
LANCZOS_MAX_PRODUCTS = 10_000  # Gram products before LanczosNoConvergence
ROW_BLOCK_BYTES = 1 << 21  # bytes of (n, D) rows a pass over the data handles at once; see row_blocks


@dataclass(frozen=True)
class SvdFactors:
    """Top-r singular factors of a centered data matrix: X ~ U diag(s) W^T."""

    left: np.ndarray       # (n, r)
    singular: np.ndarray   # (r,) descending, >= 0
    right: np.ndarray      # (D, r), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular) @ self.right.T


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray    # (K, d)
    assignments: np.ndarray  # (n,) int
    cost: float              # sum of squared distances to assigned centroid
    iterations: int          # Lloyd assignment passes run, at most max_iter; includes the
                             # pass that re-scores a fixpoint against exact means
    converged: bool          # reached a fixpoint; False when stopped at max_iter


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


def row_blocks(n: int, row_nbytes: int) -> list[slice]:
    """Slices cutting n rows of ``row_nbytes`` each into blocks of about ``ROW_BLOCK_BYTES``."""
    step = max(1, ROW_BLOCK_BYTES // max(1, row_nbytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class _CentredOperator:
    """Xbar = X / N - 1 c^T of (n, D) observations X, divisor N and mean c, without forming it.

    ``A @ Q`` gives (X Q) / N - 1 (c^T Q) and ``A.rmatmul(U)`` gives
    (X^T U) / N - c (1^T U), the products Lanczos needs.
    ``blocked_product`` takes ``A @ Q`` over blocks of rows, and ``blocks``
    yields those rows centred as X_b / N - c. See the module docstring for
    their precision.
    """

    def __init__(self, X: np.ndarray, mean: np.ndarray, divisor: float = 1.0):
        self.X, self.mean, self.divisor = X, mean, float(divisor)

    @property
    def shape(self) -> tuple[int, int]:
        return self.X.shape

    def __matmul__(self, Q: np.ndarray) -> np.ndarray:
        return (self.X @ Q) / self.divisor - self.mean @ Q

    def rmatmul(self, U: np.ndarray) -> np.ndarray:
        """Xbar^T U, (D, k) for an (n, k) U."""
        return (self.X.T @ U) / self.divisor - np.outer(self.mean, U.sum(axis=0))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Xbar itself, an (n, D) copy: for oracles, never on a fit's path."""
        return np.asarray(self.X / self.divisor - self.mean, dtype=dtype)

    def blocked_product(self, Q: np.ndarray) -> np.ndarray:
        """A Q as ``A @ Q`` computes it, one block of about ``ROW_BLOCK_BYTES`` of
        rows at a time: one product with all of them runs the BLAS on thread
        buffers the size of the data."""
        X, shift = self.X, self.mean @ Q
        AQ = np.empty((X.shape[0], Q.shape[1]))
        for rows in row_blocks(X.shape[0], X.shape[1] * X.itemsize):
            AQ[rows] = (X[rows] @ Q) / self.divisor - shift
        return AQ

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(rows, block) pairs covering the rows, each block centred by the exact
        mean, X_b / N - c, and about ``ROW_BLOCK_BYTES`` (``row_blocks``). Every
        block is written into one buffer, so it is valid until the next."""
        X = self.X
        spans = row_blocks(X.shape[0], X.shape[1] * X.itemsize)
        buffer = np.empty((spans[0].stop, X.shape[1]))
        for rows in spans:
            block = np.divide(X[rows], self.divisor, out=buffer[: rows.stop - rows.start])
            block -= self.mean
            yield rows, block

    def squared_norm(self) -> float:
        """||Xbar||_F^2, summed over the centred blocks."""
        return sum(float(np.vdot(block, block)) for _, block in self.blocks())

    def finite(self) -> bool:
        return bool(np.isfinite(self.X).all() and np.isfinite(self.mean).all())


def _not_finite(A: _CentredOperator) -> ValueError:
    """The error for a Gram product of ``A`` that is not finite: it names
    a NaN or an infinity in ``A``, else the overflow of a finite ``A``."""
    if A.finite():
        return ValueError("Xbar is finite, but its Gram overflows float64; scale it down")
    return ValueError("Xbar must be finite")


class LanczosNoConvergence(RuntimeError):
    """``truncated_svd`` took ``LANCZOS_MAX_PRODUCTS`` Gram products unconverged."""


def _unit_orthogonal(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``x`` made orthogonal to the orthonormal rows of ``basis`` (two passes), then normalized."""
    for _ in range(2):
        x = x - (basis @ x) @ basis
    return x / np.linalg.norm(x)


def _lanczos(gram: Callable[[np.ndarray], np.ndarray], m: int, r: int) -> np.ndarray:
    """Top r eigenvectors, (m, r) orthonormal, of an (m, m) Gram G given as
    its product ``gram``, which maps an (m, 1) column v to G v.

    The rows of V are an orthonormal basis and M[i, j] = v_i . G v_j.
    Vectors take their product in the order they joined the basis: the
    first d are done and the others pending. The product of v_j fills
    column j of M against every vector then held, and its remainder after
    two Gram-Schmidt passes joins the basis, so G v_j lies in the span of
    the basis. With H the done block of M and B the pending rows of the
    done columns, both read from the lower triangle,

        G V_d^T = V_d^T H + V_p^T B,

    so a Ritz pair (theta, s) of H has the residual norm |B s|. With one
    pending vector, H is Lanczos's tridiagonal matrix and |B s| is
    ARPACK's Ritz estimate |beta s_d|. A fresh direction joins with zero
    coupling, as the identity requires: after a breakdown, the remainder
    it replaces is dropped; in a probe, it is orthogonal to every G v_j.
    A product that is not finite raises ``FloatingPointError``.
    """
    eps = np.finfo(float).eps / 2  # LAPACK's dlamch('E'), ARPACK's tol = 0
    floor = eps ** (2.0 / 3.0)  # of the convergence test, times scale (see truncated_svd)
    ncv = min(m, max(LANCZOS_BASIS, 3 * r))
    rng = np.random.default_rng(LANCZOS_SEED)
    V = np.empty((ncv, m))
    M = np.zeros((ncv, ncv))
    V[0] = _unit_orthogonal(rng.standard_normal(m), V[:0])
    d, k = 0, 1          # vectors done, vectors held
    scale = 0.0          # largest |G v| seen, for the breakdown and convergence tests
    settled = None       # top r values when the running probe was started
    probe_end = 0
    for products in range(1, LANCZOS_MAX_PRODUCTS + 1):
        if k == ncv < m:
            d, k = _thick_restart(V, M, d, k, r)
        w = gram(V[d][:, None])[:, 0]
        norm = float(np.linalg.norm(w))
        if not np.isfinite(norm):
            raise FloatingPointError("a Gram product is not finite")
        scale = max(scale, norm)
        h = V[:k] @ w
        w -= h @ V[:k]
        h2 = V[:k] @ w
        w -= h2 @ V[:k]
        M[:k, d] = h + h2
        beta = float(np.linalg.norm(w))
        d += 1
        if k < m:
            if beta > eps * scale:
                M[k, d - 1] = beta
                V[k] = w / beta
            else:  # G V_d is inside the basis: go on from a fresh direction
                V[k] = _unit_orthogonal(rng.standard_normal(m), V[:k])
            k += 1
        if d < k and (d < r or products < probe_end):
            continue
        theta, S = np.linalg.eigh(M[:d, :d])
        theta, S = theta[: -r - 1 : -1], S[:, : -r - 1 : -1]
        bounds = np.linalg.norm(M[d:k, :d] @ S, axis=0)
        if not np.all(bounds <= eps * np.maximum(floor * scale, np.abs(theta))):
            settled = None
            continue
        if k == m or (settled is not None
                      and np.all(np.abs(theta - settled) <= d * eps * theta[0])):
            break
        # A single vector's Krylov space holds one direction of each repeated
        # eigenvalue: probe for missing ones from a fresh direction.
        if k == ncv:
            d, k = _thick_restart(V, M, d, k, r)
        V[k] = _unit_orthogonal(rng.standard_normal(m), V[:k])
        k += 1
        settled, probe_end = theta, products + LANCZOS_PROBE
    else:
        raise LanczosNoConvergence(
            f"top {r} singular values unconverged after {LANCZOS_MAX_PRODUCTS} Gram products")
    Q = S.T @ V[:d]
    Q, _ = np.linalg.qr(Q.T)
    return Q


def _thick_restart(V: np.ndarray, M: np.ndarray, d: int, k: int, r: int) -> tuple[int, int]:
    """Replace the d done vectors by their (d + r) // 2 leading Ritz vectors.

    The pending vectors move up behind them with their couplings B S, so
    the identity of ``_lanczos`` still holds; returns the new (d, k).
    """
    p = k - d
    keep = (d + r) // 2
    if not r <= keep < d:
        raise LanczosNoConvergence("no room left in the Lanczos basis")
    theta, S = np.linalg.eigh(M[:d, :d])
    S = S[:, : -keep - 1 : -1]
    B = M[d:k, :d] @ S
    V[:keep], V[keep : keep + p] = S.T @ V[:d], V[d:k].copy()
    M[:] = 0.0
    M[np.arange(keep), np.arange(keep)] = theta[: -keep - 1 : -1]
    M[keep : keep + p, :keep] = B
    return keep, keep + p


def truncated_svd(Xbar: np.ndarray | _CentredOperator, r: int) -> SvdFactors:
    """Best rank-r factors of the (n, D) Xbar in Frobenius norm.

    Xbar is an array or a ``_CentredOperator``, the centred observations
    given as products and blocks (see the module docstring); an array is
    the operator of itself, with mean 0 and divisor 1. Lanczos
    (``_lanczos``) finds the top r eigenvectors Q of the (D, D) Gram
    Xbar^T Xbar through the products Xbar^T (Xbar q), and the SVD
    P diag(s) Ph of Xbar Q, taken over blocks of rows
    (``blocked_product``), gives the factors U = P and W = Q Ph^T:

    - each step is one product on a single column, orthogonalized
      against the whole basis by two passes of classical Gram-Schmidt;
    - the start vector is ``default_rng(LANCZOS_SEED).standard_normal(D)``.
      It is random because the all-ones vector is orthogonal to the rows
      of centered normalized counts, and fixed so that repeated calls give
      bit-identical factors without drawing from the caller's generator;
    - the top r pairs are accepted by ARPACK's test with ``tol = 0``
      (``dsconv``): each Ritz estimate is at most eps max(eps^(2/3) g,
      |theta|), with eps = 2^-53, LAPACK's ``dlamch('E')``, and g the
      largest |Xbar^T Xbar q| of the run. ARPACK's floor is eps^(2/3)
      alone; taken times g, the test does not depend on the scale of the
      data;
    - a residual at rounding level means the basis holds an invariant
      subspace, as when r exceeds the rank, r = min(n, D), D > n or
      Xbar = 0; a fresh direction from the same stream, orthogonalized
      against the basis, takes its place;
    - one vector's Krylov space holds a single direction of a repeated
      eigenvalue. So once the top r pass the test, a fresh direction joins
      the basis, and they are accepted only when ``LANCZOS_PROBE`` more
      products leave their values unchanged and the test still holds;
    - a thick restart (Wu & Simon 2000) keeps the basis at max(
      ``LANCZOS_BASIS``, 3 r) vectors of length D, or D of them, by
      keeping the leading Ritz vectors; ``LanczosNoConvergence`` is raised
      after ``LANCZOS_MAX_PRODUCTS`` products without acceptance, and
      ``ValueError`` on a product that is not finite. The message tells a
      NaN or an infinity in Xbar from the overflow of a finite Xbar.

    Each product costs O(n D). Singular values are descending.
    Deterministic up to sign; the sign of each right-singular vector is
    fixed so that its largest-magnitude entry is positive.
    """
    if not isinstance(Xbar, _CentredOperator):
        Xbar = np.asarray(Xbar, dtype=float)
        Xbar = _CentredOperator(Xbar, np.zeros(Xbar.shape[-1]))
    n, D = Xbar.shape
    if not (1 <= r <= min(n, D)):
        raise ValueError(f"r must be in [1, {min(n, D)}], got {r}")
    try:
        # a product that is not finite becomes the ValueError below, not a RuntimeWarning
        with np.errstate(invalid="ignore", over="ignore"):
            Q = _lanczos(lambda v: Xbar.rmatmul(Xbar @ v), D, r)
    except FloatingPointError:
        raise _not_finite(Xbar) from None
    U, s, Ph = np.linalg.svd(Xbar.blocked_product(Q), full_matrices=False)
    W = Q @ Ph.T
    for j in range(r):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
            U[:, j] = -U[:, j]
    return SvdFactors(left=U, singular=s, right=W)


def _plusplus_init(
    points: np.ndarray, K: int, rng: np.random.Generator, sqnorms: np.ndarray | None = None
) -> np.ndarray:
    """Canonical K-means++ seeding: squared-distance-proportional sampling.

    The squared point norms are computed once (or passed in as ``sqnorms``);
    each draw then costs one product with the new centroid.
    """
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))
    p2 = np.einsum("ij,ij->i", points, points) if sqnorms is None else sqnorms

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


def _cluster_sums(columns: np.ndarray, assign: np.ndarray, K: int) -> np.ndarray:
    """Exact per-cluster coordinate sums, (K, d): one bincount per coordinate."""
    sums = np.empty((K, columns.shape[0]))
    for j, col in enumerate(columns):
        sums[:, j] = np.bincount(assign, weights=col, minlength=K)
    return sums


@dataclass
class _Restart:
    """Lloyd state of one restart between passes."""

    centroids: np.ndarray           # (K, d): the next pass scores against these
    assign: np.ndarray              # (n,): this pass's assignment
    prev: np.ndarray                # (n,): the previous pass's assignment
    sums: np.ndarray | None = None  # per-cluster sums of prev; exact when `exact`
    exact: bool = False
    iterations: int = 0
    capped: bool = False            # the next pass is the final scoring at the cap


def _lloyd(points: np.ndarray, sqnorms: np.ndarray, inits: list[np.ndarray],
           max_iter: int) -> list[KMeansResult]:
    """Lloyd iterations of every restart until its assignment fixpoint or the cap.

    The restarts advance in lockstep. Each pass scores every live restart
    in one product, the (A K, d + 1) centroid rows [c, -c^2/2] of the A
    live restarts against the (d + 1, n) points with a trailing row of
    ones, into a score buffer allocated once; a point's cluster maximizes
    x.c - c^2/2 (squared distance with the constant per-point term
    dropped). The max over each restart's K rows is a contiguous
    reduction. The first row attaining it (``np.argmax``'s tie rule) is K
    minus the largest key over the rows equal to the max, with row k keyed
    K - k in the smallest unsigned type that holds K. The max is the
    chosen score, so it gives the reseed distances and the cost. A restart
    leaves the batch when it converges or reaches the cap.

    Each empty cluster is reseeded at a distinct point: the one farthest
    from its assigned centroid among points whose cluster has at least two
    members, so a reseed never empties another cluster. On duplicated
    points every distance is zero, and without that rule the first point
    would be moved into every empty cluster.

    The per-cluster sums are updated from the points that changed cluster:
    each is subtracted from its old cluster and added to its new one, one
    (K, moved) x (moved, d) product, O(moved * d) instead of O(n * d). The
    sums are recomputed exactly (``_cluster_sums``) on the first pass, after
    an empty-cluster reseed, at the iteration cap, so that the final scoring
    runs against exact means, and when a pass reproduces the previous
    assignment; in that last case one more pass runs against the exact
    means, and the fixpoint is accepted only when the centroids it was
    scored against are exact means. As in plain Lloyd, the returned
    centroids are the exact means the final pass was scored against, and
    the cost is that pass's exact cost; the incremental sums can steer the
    path elsewhere only where a point lies within rounding of a cell
    boundary. At the fixpoint the pass's own assignments, reseeds included,
    are returned with their cost.
    """
    n, d = points.shape
    R, K = len(inits), inits[0].shape[0]
    aug = np.empty((d + 1, n))  # the points transposed, with a trailing row of ones
    aug[:d] = points.T
    aug[d] = 1.0
    columns = aug[:d]           # each coordinate contiguous, for the exact sums
    caug = np.empty((R * K, d + 1))
    scores = np.empty((R * K, n))
    top = np.empty((R, n))
    keys = np.arange(K, 0, -1, dtype=np.min_scalar_type(K))[:, None]
    keyed = np.empty((R, K, n), dtype=keys.dtype)
    first = np.empty((R, n), dtype=keys.dtype)
    states = [_Restart(c.copy(), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp),
                       capped=max_iter < 1) for c in inits]
    results: list[KMeansResult | None] = [None] * R
    live = list(range(R))
    while live:
        A = len(live)
        for slot, r in enumerate(live):
            c = states[r].centroids
            caug[slot * K : (slot + 1) * K, :d] = c
            caug[slot * K : (slot + 1) * K, d] = -0.5 * np.einsum("ij,ij->i", c, c)
        np.matmul(caug[: A * K], aug, out=scores[: A * K])
        blocks = scores[: A * K].reshape(A, K, n)
        np.max(blocks, axis=1, out=top[:A])
        np.equal(blocks, top[:A, None], out=keyed[:A])
        np.multiply(keyed[:A], keys, out=keyed[:A])
        np.max(keyed[:A], axis=1, out=first[:A])
        running = []
        for slot, r in enumerate(live):
            st, best = states[r], top[slot]
            assign = st.assign
            np.subtract(K, first[slot], out=assign)
            done = st.capped
            if not done:
                counts = np.bincount(assign, minlength=K)
                reseeded = bool(np.any(counts == 0))
                if reseeded:
                    nearest = np.maximum(sqnorms - 2.0 * best, 0.0)
                    for k in np.flatnonzero(counts == 0):
                        far = int(np.argmax(np.where(counts[assign] >= 2, nearest, -np.inf)))
                        counts[assign[far]] -= 1
                        counts[k] = 1
                        assign[far] = k
                        best[far] = scores[slot * K + k, far]
                st.iterations += 1
                moved = None if st.sums is None else np.flatnonzero(assign != st.prev)
                # scored against the exact means of this very assignment
                done = st.exact and moved.size == 0
            if done:
                cost = float(np.maximum(sqnorms - 2.0 * best, 0.0).sum())
                results[r] = KMeansResult(centroids=st.centroids, assignments=assign, cost=cost,
                                          iterations=st.iterations, converged=not st.capped)
                continue
            st.capped = st.iterations == max_iter
            if moved is None or moved.size == 0 or reseeded or st.capped:
                st.sums = _cluster_sums(columns, assign, K)
                st.exact = True
            else:
                cols = np.arange(moved.size)
                signs = np.zeros((K, moved.size))
                signs[st.prev[moved], cols] = -1.0
                signs[assign[moved], cols] = 1.0
                st.sums += signs @ points[moved]
                st.exact = False
            st.prev[:] = assign
            st.centroids = st.sums / counts[:, None]
            running.append(r)
        live = running
    return results


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
    not depend on execution order. All restarts run together in one
    lockstep Lloyd loop. Points or initial centroids that are not finite
    raise ``ValueError`` before any pass. When restarts stop at ``max_iter``
    without reaching a fixpoint, one ``RuntimeWarning`` says how many did and
    whether the returned one is among them.
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

    runs: list[np.ndarray] = [np.asarray(c, dtype=float) for c in extra_inits]
    for init in runs:
        if init.shape != (K, points.shape[1]):
            raise ValueError(f"initial centroids must have shape ({K}, {points.shape[1]})")
        if not np.all(np.isfinite(init)):
            raise ValueError("initial centroids must be finite")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    sqnorms = np.einsum("ij,ij->i", points, points)
    if restarts > 0:
        children = rng.spawn(restarts)
        runs.extend(_plusplus_init(points, K, child, sqnorms) for child in children)
    results = _lloyd(points, sqnorms, runs, max_iter)
    best = min(results, key=lambda result: result.cost)  # min keeps the first of equal costs
    if capped := sum(not result.converged for result in results):
        warnings.warn(f"kmeans: {capped} of {len(results)} restarts stopped at the iteration cap max_iter = "
                      f"{max_iter}; the returned one {'converged' if best.converged else 'did too'}",
                      RuntimeWarning, stacklevel=2)
    return best


def min_cost_assignment(cost) -> list[int]:
    """The column assigned to each row by a least-cost perfect matching of a K x K cost.

    The textbook O(K^3) Hungarian method (Kuhn 1955; Munkres 1957) by
    successive shortest augmenting paths, on Python lists, which at the K of
    a fit beat numpy arrays: each row in turn extends the matching along a
    shortest path of reduced costs from a virtual column K, and the row and
    column potentials keep the reduced costs non-negative. Where the least
    cost is attained once, this is the assignment of
    ``scipy.optimize.linear_sum_assignment``; among tied optima it returns
    one of the same cost, not necessarily scipy's. ``ValueError`` on a NaN
    or -inf entry, or when +inf entries leave no perfect matching of finite
    cost.
    """
    rows = np.asarray(cost, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ValueError(f"need a square cost matrix, got shape {rows.shape}")
    if np.isnan(rows).any() or np.isneginf(rows).any():
        raise ValueError("matrix contains invalid numeric entries")
    C = rows.tolist()
    K = len(C)
    u, v = [0.0] * K, [0.0] * (K + 1)
    row4col = [-1] * (K + 1)
    for cur in range(K):
        row4col[K], j = cur, K  # the path starts at the virtual column K, held by row cur
        short, way, used = [math.inf] * K, [K] * K, [False] * (K + 1)
        while row4col[j] != -1:
            used[j] = True
            i = row4col[j]
            Ci, ui = C[i], u[i]
            delta, nxt = math.inf, -1
            for k in range(K):
                if not used[k]:
                    r = Ci[k] - ui - v[k]
                    if r < short[k]:
                        short[k], way[k] = r, j
                    if short[k] < delta:
                        delta, nxt = short[k], k
            if delta == math.inf:
                raise ValueError("cost matrix is infeasible")
            for k in range(K + 1):
                if used[k]:
                    u[row4col[k]] += delta
                    v[k] -= delta
                else:
                    short[k] -= delta
            j = nxt
        while j != K:  # augment: shift each row on the path to the column it was reached through
            row4col[j] = row4col[way[j]]
            j = way[j]
    col4row = [0] * K
    for j in range(K):
        col4row[row4col[j]] = j
    return col4row

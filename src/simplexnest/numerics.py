"""Dense numerics shared by the estimators.

Column centering, sample covariance, truncated SVD with a fixed sign
convention, and Lloyd K-means with ++ initialization and restarts. All
randomness flows through an explicit generator; per-restart streams are
spawned from it so restarts could run in any order (or in parallel)
without changing the result.

Lloyd updates the per-cluster sums from the points that changed cluster,
O(moved * d) per pass instead of O(n * d), and recomputes them exactly on
the first pass, after an empty-cluster reseed and when a pass reproduces
the previous assignment. A fixpoint is accepted only after a pass scored
against exact means, so, as in plain Lloyd, the returned centroids are
exact means and the cost is scored against them.

The restarts of one ``kmeans`` call run in lockstep: each pass scores all
restarts still running in one (A K, d + 1) x (d + 1, n) product into a
score buffer allocated once per call, and finds each point's cluster by
one max and one first-max pass over it, with ``np.argmax``'s tie rule. A
restart leaves the batch when it converges or reaches the cap, and the
result of every restart equals that of running it alone wherever the
BLAS rounds the batched product as it rounds a one-restart product.

The truncated SVD computes only the top r singular triplets and picks its
branch from the short side m = min(n, D) of the matrix. Up to
``GRAM_MAX_SIDE`` it takes the top r eigenvectors of the (m, m)
short-side Gram (``np.linalg.eigh``) and finishes with the SVD of the
data times them, all on numpy's BLAS and LAPACK. Above it, it runs
implicitly restarted Lanczos (ARPACK, through ``scipy.sparse.linalg.eigsh``
on the short-side Gram operator, as ``svds`` runs it) and finishes the
same way in numpy's LAPACK. The rule exists because ARPACK's BLAS calls
run on the OpenBLAS bundled with scipy's wheel, a second thread pool
beside numpy's, and waking it slows the K-means that follows on the same
cores; on narrow data the Gram's O(n m^2) products are also cheaper, and
ARPACK wins only once m is large (the crossover table is in
``truncated_svd``). Neither branch draws from the caller's generator: the
Gram branch draws nothing, and ARPACK starts from a vector drawn from the
fixed seed ``ARPACK_V0_SEED``, so both are deterministic. The Gram branch
also takes the two inputs ARPACK cannot, r equal to the smaller dimension
and the all-zero matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

LLOYD_MAX_ITER = 300
ARPACK_V0_SEED = 0
GRAM_MAX_SIDE = 750  # largest short side factored from its Gram; see truncated_svd


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


def _arpack_svd(Xbar: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ARPACK branch of ``svds(Xbar, k=r, v0=...)``: (U, s, Vh), s ascending.

    The operator matvecs are one-column matrix products, as in ``svds``; a
    1-D ``Xbar @ x`` would run another BLAS kernel, with other rounding.
    """
    A = aslinearoperator(Xbar)
    tall = A.shape[0] >= A.shape[1]
    X_dot, X_mat = (A.matvec, A.matmat) if tall else (A.rmatvec, A.rmatmat)
    XH_dot, XH_mat = (A.rmatvec, A.rmatmat) if tall else (A.matvec, A.matmat)
    m = min(A.shape)
    gram = LinearOperator(shape=(m, m), dtype=A.dtype, matvec=lambda x: XH_dot(X_dot(x)),
                          matmat=lambda x: XH_mat(X_mat(x)))
    v0 = np.random.default_rng(ARPACK_V0_SEED).standard_normal(m)
    _, Q = eigsh(gram, k=r, tol=0.0, v0=v0)
    Q, _ = np.linalg.qr(Q)  # ARPACK's eigenvectors are not exactly orthonormal
    P, s, Ph = np.linalg.svd(X_mat(Q), full_matrices=False)
    P, Ph = np.asfortranarray(P), np.asfortranarray(Ph)  # scipy.linalg.svd's layout
    P, s, Ph = P[:, ::-1], s[::-1], Ph[::-1]
    if tall:
        return P, s, Ph @ Q.T
    return Q @ Ph.T, s, P.T


def _gram_svd(Xbar: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top r factors from the short-side Gram on numpy's BLAS: (U, s, W), s descending.

    With A the tall one of Xbar and Xbar^T, the top r eigenvectors Q of
    the (m, m) Gram A^T A span the leading right-singular space of A; the
    SVD of A Q (Rayleigh-Ritz, as in the ARPACK branch) gives the factors.
    """
    tall = Xbar.shape[0] >= Xbar.shape[1]
    A = Xbar if tall else Xbar.T
    _, V = np.linalg.eigh(A.T @ A)  # eigenvalues ascending
    Q = V[:, : -r - 1 : -1]
    P, s, Ph = np.linalg.svd(A @ Q, full_matrices=False)
    if tall:
        return P, s, Q @ Ph.T
    return Q @ Ph.T, s, P


def truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Best rank-r factors of Xbar in Frobenius norm.

    The branch follows the short side m = min(n, D). For m <=
    ``GRAM_MAX_SIDE`` the top r eigenvectors of the (m, m) short-side Gram
    (``np.linalg.eigh``) are finished by the SVD of Xbar times them, all on
    numpy's BLAS and LAPACK; no draw is made. Above it the top r triplets
    come from the ARPACK branch of ``svds``, run here: implicitly restarted
    Lanczos (``eigsh``, ``tol=0``, default ``ncv`` and ``which``) on the
    short-side Gram operator of ``aslinearoperator(Xbar)`` with the start
    vector ``default_rng(ARPACK_V0_SEED).standard_normal(m)``, a QR of the
    eigenvectors, then the SVD of Xbar times them. A fixed start vector
    keeps the factors bit-identical from call to call without drawing from
    the caller's generator; it is random because the all-ones vector is
    orthogonal to the rows of centered normalized counts. ARPACK failing to
    converge raises ``ArpackNoConvergence``. The Gram branch also takes the
    two inputs ARPACK cannot, whatever m: r == m and the all-zero matrix,
    whose zero start residual ARPACK rejects.

    The rule keeps narrow data off scipy's second OpenBLAS pool. ARPACK's
    own BLAS calls inside ``eigsh`` run on the OpenBLAS bundled in scipy's
    wheel, a thread pool beside numpy's, and waking it slows the K-means
    that follows the factorization on the same cores. The Gram costs
    O(n m^2) against ARPACK's O(n m r) per restart cycle, so ARPACK wins
    once m is large. Measured on 2 cores (numpy 2.4.6, scipy 1.17.1,
    OpenBLAS 0.3.31), normalized-multinomial data, n = 10^4, r = 9, then
    K-means (K = 10, 8 restarts) on the left factors; median ms over 2-5
    processes of 7-9 calls each, each branch in its own process:

    =====  ======================  ======================
    m      Gram: SVD / +K-means    ARPACK: SVD / +K-means
    =====  ======================  ======================
    300     32 / 112               49 / 124
    500     70 / 143               89 / 220
    625     90 / 150              128 / 230
    750    154 / 211              142 / 248
    875    235 / 322              181 / 296
    1000   265 / 340              206 / 326
    1500   632 / 695              360 / 466
    2000   1456 / 1543            558 / 656
    =====  ======================  ======================

    In the ARPACK branch the last small SVD runs in numpy's LAPACK, where
    ``svds`` calls ``scipy.linalg.svd`` on scipy's pool. The values are the
    same; put in scipy's Fortran order, they make every later product round
    as in ``svds``, so the factors are bit-identical to those of ``svds``.

    Singular values are descending. Deterministic up to sign; the sign of
    each right-singular vector is fixed so that its largest-magnitude
    entry is positive.
    """
    Xbar = np.asarray(Xbar, dtype=float)
    n, D = Xbar.shape
    m = min(n, D)
    if not (1 <= r <= m):
        raise ValueError(f"r must be in [1, {m}], got {r}")
    if m <= GRAM_MAX_SIDE or r == m or not Xbar.any():
        U, s, W = _gram_svd(Xbar, r)
    else:
        U, s, Vh = _arpack_svd(Xbar, r)
        order = np.argsort(s)[::-1]
        U, s, W = U[:, order], s[order], Vh[order].T
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
    an empty-cluster reseed, and when a pass reproduces the previous
    assignment; in that last case one more pass runs against the exact
    means, and the fixpoint is accepted only when the centroids it was
    scored against are exact means. At the iteration cap the centroids are
    likewise made exact means of the last assignment before the final
    scoring. As in plain Lloyd, the returned centroids are the exact means
    the final pass was scored against, and the cost is that pass's exact
    cost; the incremental sums can steer the path elsewhere only where a
    point lies within rounding of a cell boundary. At the fixpoint the
    pass's own assignments, reseeds included, are returned with their cost.
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
                                          iterations=st.iterations)
                continue
            if moved is None or moved.size == 0 or reseeded:
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
            if st.iterations == max_iter:
                if not st.exact:
                    # the cap was hit after an incremental update: score against exact means
                    st.centroids = _cluster_sums(columns, st.prev, K) / counts[:, None]
                st.capped = True
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
    raise ``ValueError`` before any pass.
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
    # min keeps the first of equal costs
    return min(_lloyd(points, sqnorms, runs, max_iter), key=lambda result: result.cost)

import functools
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, svds

from simplexnest import Kernel, SimplexNest, dirichlet_covariance, generate, sample_vertices, sample_weights
from simplexnest import numerics, vlad
from simplexnest.numerics import (
    LLOYD_MAX_ITER,
    KMeansResult,
    SvdFactors,
    _plusplus_init,
    center,
    kmeans,
    sample_covariance,
    truncated_svd,
)


def _lapack_truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Reference: full LAPACK SVD cut to r factors, with the package's sign convention."""
    U, s, Vh = np.linalg.svd(np.asarray(Xbar, dtype=float), full_matrices=False)
    U, s, W = U[:, :r], s[:r], Vh[:r].T
    for j in range(r):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
            U[:, j] = -U[:, j]
    return SvdFactors(left=U, singular=s, right=W)


def _assert_sign_convention(W: np.ndarray) -> None:
    for j in range(W.shape[1]):
        assert W[np.argmax(np.abs(W[:, j])), j] > 0


def _sqdist_reference(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = p2[:, None] - 2.0 * (points @ centroids.T) + c2[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plusplus_init_reference(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Reference K-means++ seeding that recomputes the point norms on every draw."""
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = points[idx]
    d2 = _sqdist_reference(points, centroids[:1]).ravel()
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[k] = points[idx]
        np.minimum(d2, _sqdist_reference(points, centroids[k : k + 1]).ravel(), out=d2)
    return centroids


class TestCenter:
    def test_repeated_row(self):
        r = np.array([2.0, -1.0, 0.5])
        X = np.tile(r, (7, 1))
        Xbar, c0 = center(X)
        np.testing.assert_array_equal(c0, r)
        np.testing.assert_array_equal(Xbar, np.zeros_like(X))

    def test_two_points(self):
        Xbar, c0 = center(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(c0, [1.0, 0.0])
        np.testing.assert_array_equal(Xbar, [[-1.0, 0.0], [1.0, 0.0]])

    def test_column_means_vanish(self):
        X = np.random.default_rng(0).normal(5.0, 2.0, size=(400, 9))
        Xbar, _ = center(X)
        np.testing.assert_allclose(Xbar.mean(axis=0), 0.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            center(np.empty((0, 3)))


class TestTruncatedSvd:
    def test_exact_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 8))
        fac = truncated_svd(X, 3)
        err = np.linalg.norm(X - fac.reconstruct()) / np.linalg.norm(X)
        assert err < 1e-8

    def test_hand_singular_values(self):
        fac = truncated_svd(np.array([[3.0, 0.0], [0.0, 2.0]]), 2)
        np.testing.assert_allclose(fac.singular, [3.0, 2.0], atol=1e-12)

    def test_orthonormal_right_factor(self):
        X = np.random.default_rng(2).normal(size=(30, 6))
        fac = truncated_svd(X, 4)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(4), atol=1e-8)
        assert np.all(np.diff(fac.singular) <= 1e-12)
        assert np.all(fac.singular >= 0)

    def test_sign_convention(self):
        X = np.random.default_rng(3).normal(size=(25, 5))
        fac = truncated_svd(X, 5)
        for j in range(5):
            col = fac.right[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_duplicated_row_preserves_right_span(self):
        # oracle: full SVD of both matrices spans the same row space
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2)) @ rng.normal(size=(2, 6))
        X2 = np.vstack([X, X[0]])
        f1 = truncated_svd(X, 2)
        f2 = truncated_svd(X2, 2)
        assert f1.left.shape == (20, 2) and f2.left.shape == (21, 2)
        P1 = f1.right @ f1.right.T
        P2 = f2.right @ f2.right.T
        np.testing.assert_allclose(P1, P2, atol=1e-9)
        # and the span agrees with a brute-force full decomposition
        _, _, Vh = np.linalg.svd(X2)
        P_full = Vh[:2].T @ Vh[:2]
        np.testing.assert_allclose(P2, P_full, atol=1e-9)

    def test_residual_equals_discarded_tail(self):
        X = np.random.default_rng(5).normal(size=(40, 10))
        s_full = np.linalg.svd(X, compute_uv=False)
        prev_err = np.inf
        for r in (2, 4, 6, 8):
            fac = truncated_svd(X, r)
            err = np.linalg.norm(X - fac.reconstruct())
            np.testing.assert_allclose(err, np.sqrt((s_full[r:] ** 2).sum()), rtol=1e-10)
            assert err <= prev_err + 1e-12
            prev_err = err

    def test_rank_bounds(self):
        X = np.zeros((5, 3))
        for bad in (0, 4):
            with pytest.raises(ValueError):
                truncated_svd(X, bad)

    def test_zero_matrix(self):
        # ARPACK rejects the zero start residual of an all-zero matrix
        fac = truncated_svd(np.zeros((20, 6)), 2)
        np.testing.assert_array_equal(fac.singular, [0.0, 0.0])
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(2), atol=1e-12)
        _assert_sign_convention(fac.right)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "svds", functools.partial(svds, maxiter=1))
        X = np.random.default_rng(6).normal(size=(200, 40))
        with pytest.raises(ArpackNoConvergence):
            truncated_svd(X, 5)


def _low_rank(n, D, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, D))


class TestArpackAgainstLapack:
    """The Lanczos path against the full LAPACK SVD as oracle."""

    @pytest.mark.parametrize(
        "X, r, rank",
        [
            (np.random.default_rng(40).normal(size=(300, 25)), 6, 25),     # tall
            (np.random.default_rng(41).normal(size=(15, 70)), 4, 15),      # wide, n < D
            (np.random.default_rng(42).normal(size=(60, 12)), 11, 12),     # r = min(n, D) - 1
            (_low_rank(80, 14, 3, 43), 6, 3),                              # r above the rank
        ],
        ids=["tall", "wide", "min-1", "rank-deficient"],
    )
    def test_matches_lapack(self, X, r, rank):
        fac = truncated_svd(X, r)
        ref = _lapack_truncated_svd(X, r)
        assert fac.left.shape == ref.left.shape and fac.right.shape == ref.right.shape
        np.testing.assert_allclose(fac.singular, ref.singular, rtol=1e-10, atol=1e-12 * ref.singular[0])
        # singular vectors of zero singular values are not unique; compare the nonzero part
        q = min(r, rank)
        np.testing.assert_allclose(fac.right[:, :q] @ fac.right[:, :q].T,
                                   ref.right[:, :q] @ ref.right[:, :q].T, atol=1e-9)
        np.testing.assert_allclose(fac.left[:, :q] @ fac.left[:, :q].T,
                                   ref.left[:, :q] @ ref.left[:, :q].T, atol=1e-9)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(fac.reconstruct(), ref.reconstruct(), atol=1e-9 * ref.singular[0])
        _assert_sign_convention(fac.right)
        again = truncated_svd(X, r)
        np.testing.assert_array_equal(again.left, fac.left)
        np.testing.assert_array_equal(again.singular, fac.singular)
        np.testing.assert_array_equal(again.right, fac.right)

    def test_multinomial_fit_partition_unchanged(self, monkeypatch):
        kern = Kernel.multinomial(200)
        V = sample_vertices(150, 4, kern, np.random.default_rng(44))
        data = generate(SimplexNest(V, 0.5, kern), 2000, np.random.default_rng(45))
        runs = []

        def recording_kmeans(*args, **kwargs):
            result = kmeans(*args, **kwargs)
            runs.append(result)
            return result

        monkeypatch.setattr(vlad, "kmeans", recording_kmeans)
        lanczos = vlad.fit(data, 4, gamma=2.0, rng=np.random.default_rng(46))
        monkeypatch.setattr(vlad, "truncated_svd", _lapack_truncated_svd)
        lapack = vlad.fit(data, 4, gamma=2.0, rng=np.random.default_rng(46))
        np.testing.assert_array_equal(runs[0].assignments, runs[1].assignments)
        np.testing.assert_allclose(lanczos.vertices, lapack.vertices, rtol=0, atol=1e-12)


class TestKMeans:
    def test_n_equals_k_zero_cost(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        res = kmeans(pts, 3, restarts=4, rng=np.random.default_rng(6))
        assert res.cost == 0.0
        assert sorted(map(tuple, res.centroids)) == sorted(map(tuple, pts))

    def test_two_clear_clusters_1d(self):
        rng = np.random.default_rng(7)
        eps = 0.01
        pts = np.concatenate([rng.uniform(-eps, eps, 60), 10 + rng.uniform(-eps, eps, 60)])
        res = kmeans(pts, 2, restarts=4, rng=np.random.default_rng(8))
        cents = np.sort(res.centroids.ravel())
        assert abs(cents[0] - 0.0) < eps and abs(cents[1] - 10.0) < eps

    def test_best_of_restarts_beats_single(self):
        # spawn keys are sequential, so the first child stream coincides
        pts = np.random.default_rng(9).normal(size=(300, 4))
        multi = kmeans(pts, 5, restarts=8, rng=np.random.default_rng(10))
        single = kmeans(pts, 5, restarts=1, rng=np.random.default_rng(10))
        assert multi.cost <= single.cost + 1e-12

    def test_assignments_are_nearest_and_centroids_are_means(self):
        pts = np.random.default_rng(11).normal(size=(200, 3))
        res = kmeans(pts, 4, restarts=4, rng=np.random.default_rng(12))
        d2 = ((pts[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignments, np.argmin(d2, axis=1))
        for k in range(4):
            np.testing.assert_allclose(res.centroids[k], pts[res.assignments == k].mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(res.cost, d2[np.arange(200), res.assignments].sum(), rtol=1e-12)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(13).normal(size=(150, 2))
        a = kmeans(pts, 3, restarts=6, rng=np.random.default_rng(14))
        b = kmeans(pts, 3, restarts=6, rng=np.random.default_rng(14))
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.cost == b.cost

    def test_empty_cluster_repair(self):
        # the far point ties to the near centroid, leaving the second empty;
        # repair reseeds it at the farthest point
        pts = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        res = kmeans(pts, 2, restarts=0, extra_inits=(np.array([[0.0], [20.0]]),))
        assert sorted(res.centroids.ravel()) == [0.0, 10.0]
        assert res.cost == 0.0

    def test_two_empty_clusters_take_the_two_farthest_points(self):
        pts = np.array([[0.0], [0.1], [0.2], [5.0], [9.0]])
        init = np.array([[0.1], [100.0], [200.0]])
        res = kmeans(pts, 3, restarts=0, extra_inits=(init,))
        np.testing.assert_array_equal(res.assignments, [0, 0, 0, 2, 1])
        np.testing.assert_allclose(res.centroids.ravel(), [0.1, 9.0, 5.0], rtol=1e-15)

    def test_reseed_never_empties_a_singleton_cluster(self):
        # 12 is the farthest point but the only member of its cluster;
        # moving it would leave that cluster empty and its centroid 0/0
        pts = np.array([[0.0], [0.0], [0.0], [12.0]])
        init = np.array([[0.0], [20.0], [1000.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kmeans(pts, 3, restarts=0, extra_inits=(init,))
        np.testing.assert_array_equal(res.centroids.ravel(), [0.0, 12.0, 0.0])
        assert res.cost == 0.0

    def test_duplicated_points_reseed_distinct_points(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kmeans(np.ones((10, 2)), 3, restarts=2, rng=np.random.default_rng(0))
        assert np.all(np.isfinite(res.centroids))
        assert res.cost == 0.0
        assert res.iterations < LLOYD_MAX_ITER

    def test_reseeded_assignments_survive_the_fixpoint(self):
        pts = np.ones((10, 2))
        res = kmeans(pts, 3, restarts=2, rng=np.random.default_rng(0))
        assert np.all(np.bincount(res.assignments, minlength=3) > 0)
        assert res.cost == ((pts - res.centroids[res.assignments]) ** 2).sum()
        pts = np.vstack([np.zeros((6, 2)), np.ones((6, 2))])
        res = kmeans(pts, 4, restarts=3, rng=np.random.default_rng(1))
        assert np.all(np.bincount(res.assignments, minlength=4) > 0)
        assert res.cost == pytest.approx(((pts - res.centroids[res.assignments]) ** 2).sum(), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_plusplus_init_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(500, 7))
        pts[::5] = pts[0]  # repeated rows
        for K in (2, 5, 12):
            new = _plusplus_init(pts, K, np.random.default_rng(seed))
            ref = _plusplus_init_reference(pts, K, np.random.default_rng(seed))
            np.testing.assert_array_equal(new, ref)
        # all points identical: every draw after the first takes the zero-mass branch
        same = np.tile(pts[:1], (10, 1))
        np.testing.assert_array_equal(_plusplus_init(same, 4, np.random.default_rng(seed)),
                                      _plusplus_init_reference(same, 4, np.random.default_rng(seed)))

    def test_explicit_init_runs_first_and_errors(self):
        pts = np.random.default_rng(15).normal(size=(50, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 60, restarts=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(pts, 3, restarts=2)  # rng required
        with pytest.raises(ValueError):
            kmeans(pts, 3, restarts=0)  # nothing to run
        with pytest.raises(ValueError):
            kmeans(pts, 3, restarts=0, extra_inits=(np.zeros((2, 2)),))  # bad shape


class TestSampleCovariance:
    def test_constant_rows_zero(self):
        X = np.tile([1.0, 2.0], (10, 1))
        np.testing.assert_array_equal(sample_covariance(X), np.zeros((2, 2)))

    def test_two_point_variance(self):
        np.testing.assert_allclose(sample_covariance(np.array([[-1.0], [1.0]])), [[1.0]])

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 3)))

    def test_noiseless_dsn_covariance_matches_model(self):
        # Monte Carlo oracle: sample covariance -> B S(alpha) B^T
        kern = Kernel.noiseless()
        V = sample_vertices(20, 4, kern, np.random.default_rng(16))
        model = SimplexNest(V, 1.5, kern)
        data = generate(model, 100_000, np.random.default_rng(17))
        S = dirichlet_covariance(4, 1.5)
        BSB = model.vertices @ S @ model.vertices.T
        est = sample_covariance(data.observations)
        rel = np.linalg.norm(est - BSB) / np.linalg.norm(BSB)
        assert rel < 1e-2


class TestCvtOnSegments:
    def test_lloyd_centroids_lie_on_center_vertex_segments(self):
        # CVT of Dir_3(1) on the simplex: centroids sit on [center, e_k]
        K = 3
        theta = sample_weights(K, 1.0, 200_000, np.random.default_rng(18))
        res = kmeans(theta, K, restarts=2, rng=np.random.default_rng(19), extra_inits=(np.eye(K),))
        u0 = np.full(K, 1.0 / K)
        for v in res.centroids:
            direction = v - u0
            direction /= np.linalg.norm(direction)
            k = int(np.argmax(direction))
            vertex_dir = np.eye(K)[k] - u0
            vertex_dir /= np.linalg.norm(vertex_dir)
            cos = float(direction @ vertex_dir)
            assert cos > 0.9995, f"centroid direction misses its vertex ray: cos={cos}"

import math
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh, svds

from simplexnest import (Dataset, Kernel, SimplexNest, dirichlet_covariance, generate, sample_vertices,
                         sample_weights)
from simplexnest import numerics, vlad
from simplexnest.numerics import (
    LANCZOS_SEED as ARPACK_V0_SEED,
    LLOYD_MAX_ITER,
    KMeansResult,
    LanczosNoConvergence,
    SvdFactors,
    _cluster_sums,
    _plusplus_init,
    center,
    kmeans,
    min_cost_assignment,
    sample_covariance,
    truncated_svd,
)


def _with_sign_rule(U: np.ndarray, s: np.ndarray, W: np.ndarray) -> SvdFactors:
    """The package's sign convention: each right vector's largest-magnitude entry is positive."""
    for j in range(W.shape[1]):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
            U[:, j] = -U[:, j]
    return SvdFactors(left=U, singular=s, right=W)


def _dense(Xbar) -> np.ndarray:
    """An array as float, or a ``_CentredOperator`` as the (n, D) copy it stands for, X / N - 1 c^T."""
    if isinstance(Xbar, numerics._CentredOperator):
        return Xbar.X / Xbar.divisor - Xbar.mean
    return np.asarray(Xbar, dtype=float)


def _lapack_truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Reference: full LAPACK SVD cut to r factors, with the package's sign convention."""
    U, s, Vh = np.linalg.svd(_dense(Xbar), full_matrices=False)
    return _with_sign_rule(U[:, :r], s[:r], Vh[:r].T)


def _svds_truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Reference: ``truncated_svd`` through ``scipy.sparse.linalg.svds``, whose last SVD runs in scipy."""
    Xbar = _dense(Xbar)
    n, D = Xbar.shape
    if not (1 <= r <= min(n, D)):
        raise ValueError(f"r must be in [1, {min(n, D)}], got {r}")
    if r < min(n, D) and Xbar.any():
        v0 = np.random.default_rng(ARPACK_V0_SEED).standard_normal(min(n, D))
        U, s, Vh = svds(Xbar, k=r, v0=v0, solver="arpack")
        order = np.argsort(s)[::-1]
        return _with_sign_rule(U[:, order], s[order], Vh[order].T)
    U, s, Vh = np.linalg.svd(Xbar, full_matrices=False)
    return _with_sign_rule(U[:, :r], s[:r], Vh[:r].T)


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


def _arpack_truncated_svd(Xbar: np.ndarray, r: int) -> SvdFactors:
    """Reference: the package's ARPACK branch, which the Lanczos branch replaced.

    ``_arpack_svd`` is that branch verbatim, kept as the oracle; its
    factors equal those of ``_svds_truncated_svd`` bit for bit.
    """
    U, s, Vh = _arpack_svd(_dense(Xbar), r)
    order = np.argsort(s)[::-1]
    return _with_sign_rule(U[:, order], s[order], Vh[order].T)


def _reconstruct(fac: SvdFactors) -> np.ndarray:
    """U diag(s) W^T, the rank-r matrix the factors stand for."""
    return (fac.left * fac.singular) @ fac.right.T


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
        err = np.linalg.norm(X - _reconstruct(fac)) / np.linalg.norm(X)
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
            err = np.linalg.norm(X - _reconstruct(fac))
            np.testing.assert_allclose(err, np.sqrt((s_full[r:] ** 2).sum()), rtol=1e-10)
            assert err <= prev_err + 1e-12
            prev_err = err

    def test_rank_bounds(self):
        X = np.zeros((5, 3))
        for bad in (0, 4):
            with pytest.raises(ValueError):
                truncated_svd(X, bad)

    def test_zero_matrix(self):
        fac = truncated_svd(np.zeros((20, 6)), 2)
        np.testing.assert_array_equal(fac.singular, [0.0, 0.0])
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(2), atol=1e-12)
        _assert_sign_convention(fac.right)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_by_lanczos(self, bad):
        # the error truncated_svd turns into its ValueError
        with pytest.raises(FloatingPointError, match="not finite"):
            numerics._lanczos(lambda v: v * bad, 30, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_non_finite_rejected_by_gram(self, bad, shape):
        X = np.random.default_rng(6).normal(size=shape)
        X[3, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                truncated_svd(X, 3)

    # "gram" and "lanczos" name the two paths a plain array once took; both
    # run the one path now, "lanczos" on the array in Fortran order
    @pytest.mark.parametrize("branch", ["gram", "lanczos", "operator"])
    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_overflow_is_named_as_such(self, branch, shape):
        # finite entries whose Gram passes the largest float64
        X = np.random.default_rng(6).normal(size=shape) * 1e160
        A = {"gram": X, "lanczos": np.asfortranarray(X),
             "operator": numerics._CentredOperator(X, X.mean(axis=0))}[branch]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own overflow warning
            with pytest.raises(ValueError, match="finite, but its Gram overflows"):
                truncated_svd(A, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_through_the_operator(self, bad):
        X = np.random.default_rng(6).normal(size=(30, 20))
        X[3, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="Xbar must be finite"):
                truncated_svd(numerics._CentredOperator(X, X.mean(axis=0)), 3)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "LANCZOS_MAX_PRODUCTS", 5)
        X = np.random.default_rng(6).normal(size=(200, 40))
        with pytest.raises(LanczosNoConvergence, match="after 5 Gram products"):
            truncated_svd(X, 5)


def _low_rank(n, D, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, D))


_ARPACK_CASES = pytest.mark.parametrize(
    "X, r, rank",
    [
        (np.random.default_rng(40).normal(size=(300, 25)), 6, 25),     # tall
        (np.random.default_rng(41).normal(size=(15, 70)), 4, 15),      # wide, n < D
        (np.random.default_rng(42).normal(size=(60, 12)), 11, 12),     # r = min(n, D) - 1
        (_low_rank(80, 14, 3, 43), 6, 3),                              # r above the rank
    ],
    ids=["tall", "wide", "min-1", "rank-deficient"],
)


def _centred_divided_counts(kern: Kernel, D: int, K: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = generate(SimplexNest(sample_vertices(D, K, kern, rng), 0.5, kern), n, rng)
    X = data.observations / data.divisor
    return X - X.mean(axis=0)


def _assert_matches_oracle(fac: SvdFactors, ref: SvdFactors, r: int, rank: int) -> None:
    """``fac`` against an oracle's factors: same values, spans and product, sign rule kept."""
    assert fac.left.shape == ref.left.shape and fac.right.shape == ref.right.shape
    np.testing.assert_allclose(fac.singular, ref.singular, rtol=1e-10, atol=1e-12 * ref.singular[0])
    # singular vectors of zero singular values are not unique; compare the nonzero part
    q = min(r, rank)
    np.testing.assert_allclose(fac.right[:, :q] @ fac.right[:, :q].T,
                               ref.right[:, :q] @ ref.right[:, :q].T, atol=1e-9)
    np.testing.assert_allclose(fac.left[:, :q] @ fac.left[:, :q].T,
                               ref.left[:, :q] @ ref.left[:, :q].T, atol=1e-9)
    np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(r), atol=1e-12)
    np.testing.assert_allclose(_reconstruct(fac), _reconstruct(ref), atol=1e-9 * ref.singular[0])
    _assert_sign_convention(fac.right)


def _assert_repeatable(X: np.ndarray, r: int, fac: SvdFactors) -> None:
    again = truncated_svd(X, r)
    for got, want in [(again.left, fac.left), (again.singular, fac.singular), (again.right, fac.right)]:
        np.testing.assert_array_equal(got, want)


class TestArpackAgainstSvds:
    """Lanczos against the ARPACK branch it replaced, kept here as the oracle.

    Each case also checks that the oracle still equals ``svds`` bit for bit.
    """

    @staticmethod
    def _assert_matches_arpack(X: np.ndarray, r: int, rank: int | None = None) -> None:
        ref = _arpack_truncated_svd(X, r)
        svds_ref = _svds_truncated_svd(X, r)
        for got, want in [(ref.left, svds_ref.left), (ref.singular, svds_ref.singular),
                          (ref.right, svds_ref.right)]:
            np.testing.assert_array_equal(got, want)
        _assert_matches_oracle(truncated_svd(X, r), ref, r, r if rank is None else rank)

    @_ARPACK_CASES
    def test_matches_svds(self, X, r, rank):
        self._assert_matches_arpack(X, r, rank)

    @pytest.mark.parametrize("n, D, r", [(1000, 300, 30), (60, 600, 20)], ids=["tall", "wide"])
    def test_products_after_the_small_svd(self, n, D, r):
        X = np.random.default_rng(49).normal(size=(n, D))
        self._assert_matches_arpack(X - X.mean(axis=0), r)

    @pytest.mark.parametrize("n, D", [(600, 150), (120, 300)], ids=["tall", "wide"])
    def test_normalized_multinomial(self, n, D):
        self._assert_matches_arpack(_centred_divided_counts(Kernel.multinomial(200), D, 5, n, 47), 4)

    @pytest.mark.parametrize("n, D", [(600, 150), (120, 300)], ids=["tall", "wide"])
    def test_poisson_counts(self, n, D):
        self._assert_matches_arpack(_centred_divided_counts(Kernel.poisson(), D, 5, n, 48), 4)


def _recorded_fit_partitions(monkeypatch, data, K: int, svd) -> tuple[list, list]:
    """Fit twice, through ``truncated_svd`` and through ``svd``: (K-means results, fits)."""
    runs = []

    def recording_kmeans(*args, **kwargs):
        result = kmeans(*args, **kwargs)
        runs.append(result)
        return result

    monkeypatch.setattr(vlad, "kmeans", recording_kmeans)
    fits = [vlad.fit(data, K, gamma=2.0, rng=np.random.default_rng(46))]
    monkeypatch.setattr(vlad, "truncated_svd", svd)
    fits.append(vlad.fit(data, K, gamma=2.0, rng=np.random.default_rng(46)))
    return runs, fits


def _repeated_top(n: int, D: int, singular, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, len(singular))))
    W, _ = np.linalg.qr(rng.normal(size=(D, len(singular))))
    return (U * np.asarray(singular)) @ W.T


def _assert_repeated_top_matches(n: int, D: int, r: int, oracle) -> None:
    """Top values of multiplicity 2, 3 and 4 against LAPACK and ``oracle``.

    Where r splits the repeated value, any r of its singular directions
    are right: those cases check that the factors lie in its subspace.
    """
    for mult in (2, 3, 4):
        singular = [5.0] * mult + [3.0, 2.0, 1.0, 0.5]
        X = _repeated_top(n, D, singular, 51)
        fac = truncated_svd(X, r)
        np.testing.assert_allclose(fac.singular, singular[:r], rtol=1e-12)
        if r >= mult:
            _assert_matches_oracle(fac, _lapack_truncated_svd(X, r), r, len(singular))
            _assert_matches_oracle(fac, oracle(X, r), r, len(singular))
        else:
            top = _lapack_truncated_svd(X, mult)
            for got, basis in [(fac.right, top.right), (fac.left, top.left)]:
                np.testing.assert_allclose(basis @ (basis.T @ got), got, atol=1e-9)
                np.testing.assert_allclose(got.T @ got, np.eye(r), atol=1e-12)
            _assert_sign_convention(fac.right)
        _assert_repeatable(X, r, fac)


class TestArpackAgainstLapack:
    """The Lanczos path against the full LAPACK SVD as oracle."""

    @_ARPACK_CASES
    def test_matches_lapack(self, X, r, rank):
        fac = truncated_svd(X, r)
        _assert_matches_oracle(fac, _lapack_truncated_svd(X, r), r, rank)
        _assert_repeatable(X, r, fac)

    def test_multinomial_fit_partition_unchanged(self, monkeypatch):
        kern = Kernel.multinomial(200)
        V = sample_vertices(150, 4, kern, np.random.default_rng(44))
        data = generate(SimplexNest(V, 0.5, kern), 2000, np.random.default_rng(45))
        for oracle in (_lapack_truncated_svd, _arpack_truncated_svd):
            with monkeypatch.context() as patch:
                runs, (lanczos, ref) = _recorded_fit_partitions(patch, data, 4, oracle)
            np.testing.assert_array_equal(runs[0].assignments, runs[1].assignments)
            np.testing.assert_allclose(lanczos.vertices, ref.vertices, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("n, D", [(400, 120), (120, 400)], ids=["tall", "wide"])
    def test_repeated_top_singular_value(self, n, D, r):
        _assert_repeated_top_matches(n, D, r, _arpack_truncated_svd)

    @pytest.mark.parametrize("r", [2, 4])
    def test_repeated_top_through_restarts(self, monkeypatch, r):
        # a basis of 3 r vectors restarts while a probe's fresh direction is pending
        monkeypatch.setattr(numerics, "LANCZOS_BASIS", 1)
        pending = []
        thick_restart = numerics._thick_restart

        def spy(V, M, d, k, r):
            pending.append(k - d)
            return thick_restart(V, M, d, k, r)

        monkeypatch.setattr(numerics, "_thick_restart", spy)
        _assert_repeated_top_matches(400, 120, r, _arpack_truncated_svd)
        assert max(pending) >= 2

    @pytest.mark.parametrize("shape", [(400, 300), (300, 900)], ids=["tall", "wide"])
    def test_rank_below_r(self, shape):
        # the Krylov space of the start vector is invariant after rank + 1 products
        X = _low_rank(*shape, 3, 56)
        fac = truncated_svd(X, 6)
        _assert_matches_oracle(fac, _lapack_truncated_svd(X, 6), 6, 3)
        _assert_matches_oracle(fac, _arpack_truncated_svd(X, 6), 6, 3)
        _assert_repeatable(X, 6, fac)

    def test_pure_noise(self):
        # no spectral gap: the thick restart bounds the basis at LANCZOS_BASIS vectors
        X = np.random.default_rng(57).normal(size=(1500, 900))
        X -= X.mean(axis=0)
        fac = truncated_svd(X, 9)
        _assert_matches_oracle(fac, _lapack_truncated_svd(X, 9), 9, 9)
        _assert_matches_oracle(fac, _arpack_truncated_svd(X, 9), 9, 9)


def _subspace_sine(W: np.ndarray, ref: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal column spans."""
    return float(np.linalg.norm(W - ref @ (ref.T @ W), 2))


def _operator_case(case: str) -> tuple[np.ndarray, int, int]:
    """(raw observations X, divisor N, rank r) of one operator-oracle case."""
    if case == "gaussian-offset":  # a mean 10^4 times the spread: the subtraction costs digits
        kern = Kernel.gaussian(1.0)
        rng = np.random.default_rng(60)
        data = generate(SimplexNest(sample_vertices(60, 5, kern, rng), 0.5, kern), 800, rng)
        return data.observations + 1e4, 1, 4
    kern = Kernel.multinomial(200)
    n, D = (1500, 120) if case == "tall-counts" else (100, 400)
    rng = np.random.default_rng(61)
    data = generate(SimplexNest(sample_vertices(D, 5, kern, rng), 0.5, kern), n, rng)
    return data.observations, 200, 4


class TestCentredOperator:
    """Lanczos on the centring operator against Lanczos on the centred copy it replaces."""

    @pytest.mark.parametrize("case", ["tall-counts", "wide-counts", "gaussian-offset"])
    def test_factors_match_the_dense_centred_path(self, case):
        X, N, r = _operator_case(case)
        Xn = X / N
        dense = Xn - Xn.mean(axis=0)
        fac = truncated_svd(numerics._CentredOperator(X, X.mean(axis=0) / N, N), r)
        ref = truncated_svd(dense, r)
        np.testing.assert_allclose(fac.singular, ref.singular, rtol=1e-12, atol=0)
        assert _subspace_sine(fac.right, ref.right) <= 1e-12
        # The left factor is the product A Q itself, whose entries carry an error of about
        # eps * offset * |1^T q|, as the copy's own column mean carries eps * offset: at an
        # offset 10^4 times the spread the two sit 5e-13 to 1.6e-12 apart (six seeds).
        assert _subspace_sine(fac.left, ref.left) <= (1e-11 if case == "gaussian-offset" else 1e-12)
        _assert_sign_convention(fac.right)
        _assert_repeatable(numerics._CentredOperator(X, X.mean(axis=0) / N, N), r, fac)

    @pytest.mark.parametrize("case", ["tall-counts", "wide-counts", "gaussian-offset"])
    def test_products_and_norm_match_the_dense_matrix(self, monkeypatch, case):
        X, N, _ = _operator_case(case)
        n, D = X.shape
        op = numerics._CentredOperator(X, X.mean(axis=0) / N, N)
        dense = _dense(op)
        assert op.shape == dense.shape == (n, D)
        rng = np.random.default_rng(62)
        Q, U = rng.normal(size=(D, 3)), rng.normal(size=(n, 3))
        scale = np.abs(X).max() / N * max(n, D)
        np.testing.assert_allclose(op @ Q, dense @ Q, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(op.rmatmul(U), dense.T @ U, rtol=0, atol=1e-13 * scale)
        # several blocks, the last one short
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 7 * D * X.itemsize)
        assert n % 7
        assert op.squared_norm() == pytest.approx(float(np.vdot(dense, dense)), rel=1e-12)
        np.testing.assert_allclose(op.blocked_product(Q), dense @ Q, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("case", ["tall-counts", "wide-counts", "gaussian-offset"])
    def test_fit_partition_and_vertices_match_the_dense_centred_path(self, monkeypatch, case):
        X, N, r = _operator_case(case)
        data = Dataset(X, Kernel.multinomial(N) if N > 1 else Kernel.gaussian(1.0))

        def dense_path(Xbar, rank):
            assert isinstance(Xbar, numerics._CentredOperator)
            return truncated_svd(center(data.observations / data.divisor)[0], rank)

        runs, (lanczos, ref) = _recorded_fit_partitions(monkeypatch, data, r + 1, dense_path)
        np.testing.assert_array_equal(runs[0].assignments, runs[1].assignments)
        scale = np.abs(ref.vertices).max()
        np.testing.assert_allclose(lanczos.vertices, ref.vertices, rtol=0, atol=1e-12 * scale)
        assert lanczos.kmeans_cost == pytest.approx(ref.kmeans_cost, rel=1e-12, abs=0)


class TestGramAgainstOracles:
    """Lanczos on the D-side Gram's products against LAPACK's full SVD and ``svds``."""

    @staticmethod
    def _assert_matches_oracles(X: np.ndarray, r: int, rank: int) -> None:
        fac = truncated_svd(X, r)
        _assert_matches_oracle(fac, _lapack_truncated_svd(X, r), r, rank)
        _assert_matches_oracle(fac, _svds_truncated_svd(X, r), r, rank)
        _assert_repeatable(X, r, fac)

    @_ARPACK_CASES
    def test_matches_oracles(self, monkeypatch, X, r, rank):
        # the finish Xbar Q over blocks of 9 rows, the last one short
        assert X.shape[0] % 9
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 9 * X.shape[1] * 8)
        self._assert_matches_oracles(X, r, rank)

    @pytest.mark.parametrize("n, D", [(600, 150), (120, 300)], ids=["tall", "wide"])
    def test_normalized_multinomial(self, n, D):
        self._assert_matches_oracles(_centred_divided_counts(Kernel.multinomial(200), D, 5, n, 47), 4, 4)

    @pytest.mark.parametrize("n, D", [(600, 150), (120, 300)], ids=["tall", "wide"])
    def test_poisson_counts(self, n, D):
        self._assert_matches_oracles(_centred_divided_counts(Kernel.poisson(), D, 5, n, 48), 4, 4)

    @pytest.mark.parametrize("n, D", [(40, 12), (9, 30)], ids=["tall", "wide"])
    def test_full_rank_request(self, n, D):
        X = np.random.default_rng(50).normal(size=(n, D))
        self._assert_matches_oracles(X, min(n, D), min(n, D))

    @pytest.mark.parametrize("shape", [(20, 6), (6, 20)], ids=["tall", "wide"])
    def test_zero_matrix(self, shape):
        self._assert_matches_oracles(np.zeros(shape), 2, 0)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("n, D", [(200, 30), (30, 200)], ids=["tall", "wide"])
    def test_repeated_top_singular_value(self, n, D, r):
        _assert_repeated_top_matches(n, D, r, _svds_truncated_svd)

    def test_poisson_fit_partition_unchanged(self, monkeypatch):
        kern = Kernel.poisson()
        V = sample_vertices(150, 4, kern, np.random.default_rng(52))
        data = generate(SimplexNest(V, 0.5, kern), 2000, np.random.default_rng(53))
        runs, (gram, arpack) = _recorded_fit_partitions(monkeypatch, data, 4, _svds_truncated_svd)
        np.testing.assert_array_equal(runs[0].assignments, runs[1].assignments)
        np.testing.assert_allclose(gram.vertices, arpack.vertices, rtol=0, atol=1e-12)


def _gram_svd(Xbar: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top r factors from the short-side Gram on numpy's BLAS: (U, s, W), s descending.

    With A the tall one of Xbar and Xbar^T, the top r eigenvectors Q of
    the (m, m) Gram A^T A span the leading right-singular space of A; the
    SVD of A Q (Rayleigh-Ritz, as in the ARPACK branch) gives the factors.
    A NaN or an infinity in Xbar makes its diagonal entry of the Gram
    non-finite, so the (m, m) Gram is checked rather than Xbar, and Xbar
    only when the Gram is not finite, to tell that from an overflow.
    """
    tall = Xbar.shape[0] >= Xbar.shape[1]
    A = Xbar if tall else Xbar.T
    G = A.T @ A
    if not np.isfinite(G).all():
        raise ValueError("Xbar must be finite")
    _, V = np.linalg.eigh(G)  # eigenvalues ascending
    Q = V[:, : -r - 1 : -1]
    P, s, Ph = np.linalg.svd(A @ Q, full_matrices=False)
    if tall:
        return P, s, Q @ Ph.T
    return Q @ Ph.T, s, P


def _centred_copy_svd(data: Dataset, r: int) -> SvdFactors:
    """Reference: the Gram branch as it ran on a centred copy of the
    observations divided by ``Dataset.divisor`` with ``np.linalg.eigh``,
    before the Gram was summed from centred blocks and its eigenvectors
    taken by Lanczos. ``_gram_svd`` is that branch verbatim (its non-finite
    error message shortened)."""
    X = data.observations / data.divisor
    Xbar = np.subtract(X, X.mean(axis=0), out=X)
    return _with_sign_rule(*_gram_svd(Xbar, r))


def _gram_case(case: str) -> tuple[Dataset, int]:
    """(dataset, rank r) of one centred-copy oracle case; the short side is at most 400."""
    if case == "gaussian-offset":
        X, _, r = _operator_case(case)
        return Dataset(X, Kernel.gaussian(1.0)), r
    name, shape = case.split("-")
    if name == "small":  # word frequencies scaled by 1e-10: singular values near 1e-10
        data, r = _gram_case(f"multinomial-{shape}")
        return Dataset((data.observations / data.divisor) * 1e-10, Kernel.noiseless()), r
    kern = {"gaussian": Kernel.gaussian(1.0), "poisson": Kernel.poisson(),
            "multinomial": Kernel.multinomial(200)}[name]
    n, D = (1500, 120) if shape == "tall" else (100, 400)
    rng = np.random.default_rng(63)
    return generate(SimplexNest(sample_vertices(D, 5, kern, rng), 0.5, kern), n, rng).without_truth(), 4


_GRAM_CASES = pytest.mark.parametrize("case", [
    "gaussian-tall", "gaussian-wide", "poisson-tall", "poisson-wide", "multinomial-tall",
    "multinomial-wide", "gaussian-offset", "small-tall", "small-wide"])
_BLOCKS = pytest.mark.parametrize("blocks", ["default", "uneven"])


def _set_blocks(monkeypatch, blocks: str, shape: tuple[int, int]) -> None:
    """With ``uneven``, blocks of 7 rows, the last one short."""
    if blocks == "uneven":
        assert shape[0] % 7
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 7 * shape[1] * 8)


def _assert_within(fac: SvdFactors, ref: SvdFactors, tol: float = 1e-12) -> None:
    """Equal factors to ``tol``: singular values relative to the top one, vectors entrywise."""
    np.testing.assert_allclose(fac.singular, ref.singular, rtol=0, atol=tol * ref.singular[0])
    np.testing.assert_allclose(fac.right, ref.right, rtol=0, atol=tol)
    np.testing.assert_allclose(fac.left, ref.left, rtol=0, atol=tol)


class TestGramAgainstTheCentredCopy:
    """Lanczos on the operator's products against the Gram of a centred copy with ``eigh``."""

    @_BLOCKS
    @_GRAM_CASES
    def test_factors(self, monkeypatch, case, blocks):
        data, r = _gram_case(case)
        _set_blocks(monkeypatch, blocks, data.observations.shape)
        N = data.divisor
        op = numerics._CentredOperator(data.observations, data.observations.mean(axis=0) / N, N)
        fac = truncated_svd(op, r)
        _assert_within(fac, _centred_copy_svd(data, r))
        dense = _dense(op)
        assert op.squared_norm() == pytest.approx(float(np.vdot(dense, dense)), rel=1e-13)

    @_BLOCKS
    @_GRAM_CASES
    def test_fit_partition_and_vertices(self, monkeypatch, case, blocks):
        data, r = _gram_case(case)
        _set_blocks(monkeypatch, blocks, data.observations.shape)

        def centred_copy(Xbar, rank):
            assert isinstance(Xbar, numerics._CentredOperator)
            return _centred_copy_svd(data, rank)

        runs, (gram, ref) = _recorded_fit_partitions(monkeypatch, data, r + 1, centred_copy)
        np.testing.assert_array_equal(runs[0].assignments, runs[1].assignments)
        scale = np.abs(ref.vertices).max()
        np.testing.assert_allclose(gram.vertices, ref.vertices, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("n, D", [(200, 30), (30, 200)], ids=["tall", "wide"])
    def test_repeated_top_singular_value(self, n, D, r):
        # where r splits a repeated value, any r of its directions are right: the
        # factors lie in the span of the oracle's leading max(r, mult) vectors
        for mult in (2, 3, 4):
            singular = [5.0] * mult + [3.0, 2.0, 1.0, 0.5]
            X = _repeated_top(n, D, singular, 51)
            fac = truncated_svd(X, r)
            ref = _with_sign_rule(*_gram_svd(X, max(r, mult)))
            np.testing.assert_allclose(fac.singular, ref.singular[:r], rtol=0, atol=1e-12 * 5.0)
            for got, span in [(fac.right, ref.right), (fac.left, ref.left)]:
                assert _subspace_sine(got, span) <= 1e-12
                np.testing.assert_allclose(got.T @ got, np.eye(r), rtol=0, atol=1e-12)
            _assert_sign_convention(fac.right)

    @pytest.mark.parametrize("n, D", [(40, 12), (9, 30)], ids=["tall", "wide"])
    def test_full_rank_request(self, n, D):
        X = np.random.default_rng(50).normal(size=(n, D))
        m = min(n, D)
        _assert_within(truncated_svd(X, m), _with_sign_rule(*_gram_svd(X, m)))

    @pytest.mark.parametrize("shape", [(20, 6), (6, 20)], ids=["tall", "wide"])
    def test_zero_matrix(self, shape):
        fac = truncated_svd(np.zeros(shape), 2)
        ref = _with_sign_rule(*_gram_svd(np.zeros(shape), 2))
        np.testing.assert_array_equal(fac.singular, ref.singular)
        for got in (fac.left, fac.right):
            np.testing.assert_allclose(got.T @ got, np.eye(2), rtol=0, atol=1e-12)
        _assert_sign_convention(fac.right)


@pytest.fixture(scope="class", params=[(1000, 800), (800, 1000)], ids=["tall", "wide"])
def frequencies(request) -> tuple[np.ndarray, SvdFactors]:
    """Centred multinomial word frequencies with short side 800, and LAPACK's top 4 factors."""
    n, D = request.param
    F = _centred_divided_counts(Kernel.multinomial(200), D, 5, n, 70)
    return F, _lapack_truncated_svd(F, 4)


class TestLanczosOnProducts:
    """Every shape runs Lanczos on the operator's one-column products, and A Q
    over blocks of the operator's rows."""

    def test_factors_do_not_depend_on_the_scale(self, frequencies):
        # ARPACK's absolute convergence floor stopped 1e-20 times these at a sine of 3e-9
        F, ref = frequencies
        for c in (1e-20, 1e-10, 1.0, 1e20):
            fac = truncated_svd(F * c, 4)
            assert _subspace_sine(fac.right, ref.right) <= 1e-13
            np.testing.assert_allclose(fac.singular, c * ref.singular, rtol=0, atol=1e-12 * c * ref.singular[0])

    def test_finish_multiplies_by_row_blocks(self, monkeypatch, frequencies):
        # one product with all r columns would run the BLAS on thread buffers the size of the data
        F, ref = frequencies
        _set_blocks(monkeypatch, "uneven", F.shape)
        columns = []
        matmul = numerics._CentredOperator.__matmul__

        def spy(op, Q):
            columns.append(Q.shape[1])
            return matmul(op, Q)

        monkeypatch.setattr(numerics._CentredOperator, "__matmul__", spy)
        fac = truncated_svd(F, 4)
        assert columns and set(columns) == {1}
        _assert_matches_oracle(fac, ref, 4, 4)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 150), D=st.integers(2, 150), r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       narrow=st.booleans())
def test_transpose_swaps_the_factors(n, D, r, seed, narrow):
    # Lanczos runs in R^D for X and in R^n for X^T: the same factors, swapped.
    # ``narrow`` draws n < 48 < D, a short side below the basis and a long side above it.
    if narrow:
        n, D = 2 + n % 46, 49 + D
    m, r = min(n, D), min(r, n, D)
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, m)))
    W, _ = np.linalg.qr(rng.normal(size=(D, m)))
    X = (U * np.linspace(2.0 * m, m, m)) @ W.T  # relative gaps of at least 1 / (2 m)
    fac, ref = truncated_svd(X, r), truncated_svd(X.T, r)
    np.testing.assert_allclose(fac.singular, ref.singular, rtol=1e-12, atol=0)
    assert _subspace_sine(fac.right, ref.left) <= 1e-10
    assert _subspace_sine(fac.left, ref.right) <= 1e-10


class TestBranchRule:
    """No rule is left: the short side once chose a formed Gram up to 750 and
    Lanczos above it. Now every shape, at that old constant and above it,
    runs Lanczos on one-column products of the operator."""

    @pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at", "above"])
    def test_lanczos_called_only_above_the_constant(self, monkeypatch, tall, extra):
        products, finishes = [], []
        matmul, blocked = numerics._CentredOperator.__matmul__, numerics._CentredOperator.blocked_product

        def spy(op, Q):
            products.append(Q.shape[1])
            return matmul(op, Q)

        def spy_finish(op, Q):
            finishes.append(Q.shape[1])
            return blocked(op, Q)

        monkeypatch.setattr(numerics._CentredOperator, "__matmul__", spy)
        monkeypatch.setattr(numerics._CentredOperator, "blocked_product", spy_finish)
        m = 750 + extra
        X = np.random.default_rng(54).normal(size=(m + 5, m) if tall else (m, m + 5))
        fac = truncated_svd(X, 2)
        assert products and set(products) == {1}
        assert finishes == [2]
        assert fac.right.shape == (X.shape[1], 2)

    @pytest.mark.parametrize("X, r", [(np.zeros((20, 6)), 2), (np.random.default_rng(55).normal(size=(40, 12)), 12)],
                             ids=["zero", "r=min"])
    def test_gram_takes_what_arpack_cannot(self, X, r):
        # r = min(n, D) and Xbar = 0, which ARPACK refuses, through the operator
        # of 4 X with divisor 4
        op = numerics._CentredOperator(4.0 * X, np.zeros(X.shape[1]), 4.0)
        _assert_matches_oracle(truncated_svd(op, r), _lapack_truncated_svd(X, r), r, np.linalg.matrix_rank(X))

    def test_wide_fit_calls_nothing_in_scipy_sparse_linalg(self):
        kern = Kernel.multinomial(500)
        rng = np.random.default_rng(58)
        data = generate(SimplexNest(sample_vertices(800, 4, kern, rng), 0.5, kern), 1000, rng).without_truth()
        called = set()

        def record(frame, event, arg):
            if event == "call":
                called.add((frame.f_globals.get("__name__", ""), frame.f_code.co_name))

        sys.setprofile(record)
        try:
            fit = vlad.fit_auto(data, 4, rng=np.random.default_rng(59))
            vlad.recover_weights(fit, data)
        finally:
            sys.setprofile(None)
        assert ("simplexnest.numerics", "_lanczos") in called
        assert not sorted(name for name, _ in called if name.startswith("scipy.sparse.linalg"))


def _lloyd_reference(points: np.ndarray, centroids: np.ndarray, max_iter: int) -> KMeansResult:
    """Reference Lloyd that recomputes every centroid update in full, one bincount per column."""
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
    converged = True

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
        converged = False
    best = np.take_along_axis(scores, assign[:, None], axis=1).ravel()
    cost = float(np.maximum(p2 - 2.0 * best, 0.0).sum())
    return KMeansResult(centroids=centroids, assignments=assign.copy(), cost=cost,
                        iterations=iterations, converged=converged)


@dataclass(frozen=True)
class _LloydInput:
    """Layouts of the points that every restart of one ``kmeans`` call shares."""

    points: np.ndarray   # (n, d)
    aug: np.ndarray      # (n, d + 1): the points with a trailing column of ones
    columns: np.ndarray  # (d, n): the points transposed, each coordinate contiguous
    sqnorms: np.ndarray  # (n,): squared point norms

    @classmethod
    def of(cls, points: np.ndarray) -> "_LloydInput":
        n, d = points.shape
        aug = np.empty((n, d + 1))
        aug[:, :d] = points
        aug[:, d] = 1.0
        return cls(points=points, aug=aug, columns=np.ascontiguousarray(points.T),
                   sqnorms=np.einsum("ij,ij->i", points, points))


def _lloyd_one_restart(inp: _LloydInput, centroids: np.ndarray, max_iter: int) -> KMeansResult:
    """Reference incremental Lloyd of one restart, scored by its own (n, K) product and argmax.

    This is the package's Lloyd loop before the restarts ran in lockstep,
    kept verbatim as the oracle of the lockstep loop.
    """
    n, d = inp.points.shape
    K = centroids.shape[0]
    centroids = centroids.copy()
    caug = np.empty((K, d + 1))
    scores = np.empty((n, K))
    assign = np.empty(n, dtype=np.intp)
    prev = np.empty(n, dtype=np.intp)
    sums: np.ndarray | None = None  # per-cluster sums of prev; exact when `exact`
    exact = False
    iterations = 0
    converged = True

    def compute_assign() -> None:
        # (n, K) scores: a (K, n) GEMM is faster, but OpenBLAS rounds it
        # differently for K = 1 and for small n at large d
        caug[:, :d] = centroids
        caug[:, d] = -0.5 * np.einsum("ij,ij->i", centroids, centroids)
        np.dot(inp.aug, caug.T, out=scores)
        np.argmax(scores, axis=1, out=assign)

    for _ in range(max_iter):
        compute_assign()
        counts = np.bincount(assign, minlength=K)
        reseeded = bool(np.any(counts == 0))
        if reseeded:
            best = np.take_along_axis(scores, assign[:, None], axis=1).ravel()
            nearest = np.maximum(inp.sqnorms - 2.0 * best, 0.0)
            for k in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[assign] >= 2, nearest, -np.inf)))
                counts[assign[far]] -= 1
                counts[k] = 1
                assign[far] = k
        iterations += 1
        moved = None if sums is None else np.flatnonzero(assign != prev)
        if exact and moved.size == 0:
            break  # scored against the exact means of this very assignment
        if moved is None or moved.size == 0 or reseeded:
            sums = _cluster_sums(inp.columns, assign, K)
            exact = True
        else:
            cols = np.arange(moved.size)
            signs = np.zeros((K, moved.size))
            signs[prev[moved], cols] = -1.0
            signs[assign[moved], cols] = 1.0
            sums += signs @ inp.points[moved]
            exact = False
        prev[:] = assign
        centroids = sums / counts[:, None]
    else:
        if sums is not None and not exact:
            # the cap was hit after an incremental update: score against exact means
            centroids = _cluster_sums(inp.columns, prev, K) / counts[:, None]
        compute_assign()
        converged = False
    best = np.take_along_axis(scores, assign[:, None], axis=1).ravel()
    cost = float(np.maximum(inp.sqnorms - 2.0 * best, 0.0).sum())
    return KMeansResult(centroids=centroids, assignments=assign.copy(), cost=cost,
                        iterations=iterations, converged=converged)


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

    def test_iteration_cap_warns_and_flags(self):
        pts = _blobs(40, 1000, 9, 6, spread=1.5)  # overlapping blobs: many Lloyd passes
        with pytest.warns(RuntimeWarning, match="4 of 4 restarts stopped at the iteration cap "
                                                "max_iter = 1; the returned one did too") as rec:
            res = kmeans(pts, 8, restarts=4, rng=np.random.default_rng(0), max_iter=1)
        assert len(rec) == 1 and rec[0].filename == __file__
        assert not res.converged and res.iterations == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kmeans(pts, 8, restarts=4, rng=np.random.default_rng(0)).converged
        # the first init reaches its fixpoint in two passes; the second needs a reseed and a third
        quick, slow = np.array([[0.05], [10.05]]), np.array([[0.05], [1000.0]])
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        with pytest.warns(RuntimeWarning, match="1 of 2 restarts .* the returned one converged"):
            res = kmeans(pts, 2, restarts=0, extra_inits=(quick, slow), max_iter=2)
        assert res.converged and res.iterations == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_any_pass(self, bad, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a Lloyd pass ran")

        monkeypatch.setattr(numerics, "_lloyd", no_pass)
        pts = np.random.default_rng(16).normal(size=(40, 3))
        init = pts[:3].copy()
        bad_pts = pts.copy()
        bad_pts[7, 1] = bad
        bad_init = init.copy()
        bad_init[2, 0] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(bad_pts, 3, restarts=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(bad_pts, 3, restarts=0, extra_inits=(init,))
        with pytest.raises(ValueError, match="initial centroids must be finite"):
            kmeans(pts, 3, restarts=2, rng=np.random.default_rng(0), extra_inits=(init, bad_init))


class TestMemory:
    def test_kmeans_scores_in_blocks(self):
        # (R K, n) scores and first-max keys for all restarts at once took 72 MB
        # here, 10 x the points; a block of b = 26214 points takes 18.9 MB
        points = np.random.default_rng(63).dirichlet(np.ones(9), size=100_000)
        tracemalloc.start()
        try:
            kmeans(points, 10, restarts=8, rng=np.random.default_rng(64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * points.nbytes


def _blobs(seed: int, n: int, d: int, K: int, spread: float) -> np.ndarray:
    """n points around K normal centers; overlapping blobs take many Lloyd passes."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(K, d))
    return centers[rng.integers(K, size=n)] + spread * rng.normal(size=(n, d))


def _plusplus_inits(points: np.ndarray, K: int, seeds) -> list[np.ndarray]:
    return [_plusplus_init(points, K, np.random.default_rng(seed)) for seed in seeds]


def _lockstep(points: np.ndarray, inits, max_iter: int) -> list[KMeansResult]:
    return numerics._lloyd(points, np.einsum("ij,ij->i", points, points), list(inits), max_iter)


def _assert_lloyd_matches_oracles(points: np.ndarray, inits, max_iter: int) -> list[KMeansResult]:
    """Run the inits in lockstep; each restart must equal both one-restart oracles.

    Where one of the products is a matrix-vector product (K = 1 or n = 1),
    which OpenBLAS rounds differently, the cost may differ in the last bits
    and is compared to within rounding of the squared norms.
    """
    inp = _LloydInput.of(points)
    matvec = inits[0].shape[0] == 1 or points.shape[0] == 1
    tol = 1e-12 * float(inp.sqnorms.sum()) if matvec else 0.0
    results = _lockstep(points, inits, max_iter)
    assert len(results) == len(inits)
    for init, new in zip(inits, results):
        one = _lloyd_one_restart(inp, init, max_iter)
        np.testing.assert_array_equal(new.assignments, one.assignments)
        np.testing.assert_array_equal(new.centroids, one.centroids)
        assert new.cost == pytest.approx(one.cost, rel=1e-12, abs=tol)
        assert new.iterations == one.iterations <= max_iter
        assert new.converged == one.converged
        ref = _lloyd_reference(points, init, max_iter)
        np.testing.assert_array_equal(new.assignments, ref.assignments)
        np.testing.assert_array_equal(new.centroids, ref.centroids)
        assert new.cost == pytest.approx(ref.cost, rel=1e-12, abs=tol)
    return results


class TestLloydAgainstReference:
    @pytest.mark.parametrize("d", [1, 9, 100])
    def test_overlapping_blobs(self, d):
        pts = _blobs(20 + d, 800, d, 6, spread=1.5)
        results = _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, 8, range(4)), LLOYD_MAX_ITER)
        assert len({r.iterations for r in results}) > 1  # restarts leave the batch at different passes

    def test_duplicated_rows(self):
        pts = _blobs(30, 600, 9, 5, spread=1.0)
        pts[::3] = pts[0]
        _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, 7, range(4)), LLOYD_MAX_ITER)
        _assert_lloyd_matches_oracles(np.ones((10, 2)), [np.ones((3, 2))] * 2, LLOYD_MAX_ITER)
        # one point repeated: the fixpoint pass itself reseeds, and its cost is
        # scored at the reseeded clusters, whose scores differ from the max
        # in the last bits
        same = np.tile([-514.5548024940535, 203.82337535076695, 355.2213413015053], (19, 1))
        [res] = _assert_lloyd_matches_oracles(same, [same[:5]], LLOYD_MAX_ITER)
        assert res.cost > 0.0

    @pytest.mark.parametrize("d", [3, 100])
    @pytest.mark.parametrize("n", [60, 1000, 1250])
    def test_block_edges(self, n, d, monkeypatch):
        # 4 restarts of K = 6 score in blocks of 100 points: n = 60 is below one
        # block, 1000 a multiple of it, and 1250 leaves a last block of 50
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 100 * 4 * 6)
        pts = _blobs(61 + d, n, d, 6, spread=1.5)
        _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, 6, range(4)), LLOYD_MAX_ITER)

    def test_blocks_of_the_default_width(self):
        # 8 restarts of K = 10 on n = 30000 points: a block of 26214 and one of 3786
        pts = _blobs(62, 30_000, 9, 10, spread=1.0)
        assert [s.stop - s.start for s in numerics.row_blocks(30_000, 8 * 10)] == [26214, 3786]
        _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, 10, range(8)), LLOYD_MAX_ITER)

    def test_reseeds_beyond_the_first_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 100 * 2 * 4)  # 2 restarts of K = 4: 100 points
        # duplicated rows and two equal initial centroids: the second cluster is
        # empty, and its reseed is the farthest point, here in the tenth block
        pts = _blobs(30, 1000, 9, 5, spread=1.0)
        pts[::3] = pts[0]
        inits = _plusplus_inits(pts, 4, range(2))
        inits[0][1] = inits[0][0]
        _assert_lloyd_matches_oracles(pts, inits, LLOYD_MAX_ITER)
        # two points, each repeated: the fixpoint pass itself reseeds the two spare
        # clusters, at points of the second block of 200, and its cost reads their
        # rescored scores
        a = [-86.21631234259989, 472.322483653376, -129.83575415477904]
        b = [-220.64498770268253, 74.93561146760005, 309.4359254608417]
        pts = np.array([a] * 300 + [b] * 700)
        _assert_lloyd_matches_oracles(pts, [np.array([a, b, a, b])], LLOYD_MAX_ITER)

    @pytest.mark.parametrize("points, init", [
        # the two reseed cases of TestKMeans: empty clusters on the first pass
        ([[0.0], [0.0], [0.0], [0.0], [10.0]], [[0.0], [20.0]]),
        ([[0.0], [0.1], [0.2], [5.0], [9.0]], [[0.1], [100.0], [200.0]]),
        # the first pass fills all three clusters; its means 10, 15.5, 21 empty the middle one
        ([[10.0], [11.0], [20.0], [21.0]], [[0.0], [20.5], [21.0]]),
        # the first pass fills all four clusters; one empties on the third pass
        ([[-2.0], [6.0], [4.0], [-6.0], [-9.0], [-4.0], [4.0], [-1.0], [5.0]],
         [[0.0], [-5.0], [11.0], [-10.0]]),
    ])
    def test_reseeds(self, points, init):
        _assert_lloyd_matches_oracles(np.array(points), [np.array(init)], LLOYD_MAX_ITER)

    def test_reseed_in_one_restart_only(self):
        # The last restart empties a cluster on its third pass, when the first
        # (a fixpoint after 2 passes) has left the batch and it scores in the
        # second block of rows; the other two never reseed.
        pts = np.array([[-2.0], [6.0], [4.0], [-6.0], [-9.0], [-4.0], [4.0], [-1.0], [5.0]])
        fast = np.array([[-9.0], [-5.0], [0.0], [5.0]])
        slow = np.array([[0.0], [8.0], [-7.0], [-10.0]])
        reseeds = np.array([[0.0], [-5.0], [11.0], [-10.0]])
        results = _assert_lloyd_matches_oracles(pts, [fast, slow, reseeds], LLOYD_MAX_ITER)
        assert results[0].iterations == 2 < results[1].iterations
        assert results[2].iterations > 3

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_iteration_cap(self, max_iter):
        pts = _blobs(40, 1000, 9, 6, spread=1.5)
        results = _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, 8, range(4)), max_iter)
        assert all(res.iterations == max_iter for res in results)

    def test_cap_reached_by_some_restarts(self):
        pts = _blobs(40, 1000, 9, 6, spread=1.5)
        inits = _plusplus_inits(pts, 8, range(6))
        free = sorted(r.iterations for r in _lockstep(pts, inits, LLOYD_MAX_ITER))
        max_iter = free[len(free) // 2]
        assert free[0] < max_iter < free[-1]
        results = _assert_lloyd_matches_oracles(pts, inits, max_iter)
        assert any(r.iterations == max_iter for r in results)
        assert any(r.iterations < max_iter for r in results)

    def test_cap_at_the_verification_pass(self):
        # A cap at the reference's own pass count leaves no room for the pass
        # that verifies the fixpoint against exact means; the result still matches.
        pts = _blobs(41, 1000, 9, 6, spread=1.5)
        init = _plusplus_init(pts, 8, np.random.default_rng(0))
        ref_iterations = _lloyd_reference(pts, init, LLOYD_MAX_ITER).iterations
        assert ref_iterations > 5
        for max_iter in range(1, ref_iterations + 2):
            [res] = _assert_lloyd_matches_oracles(pts, [init], max_iter)
            assert res.iterations == min(max_iter, ref_iterations + 1)

    def test_single_cluster(self):
        pts = _blobs(42, 500, 9, 3, spread=1.0)
        results = _assert_lloyd_matches_oracles(pts, [pts[:1], pts[1:2], np.zeros((1, 9))], LLOYD_MAX_ITER)
        assert all(np.all(r.assignments == 0) for r in results)

    @pytest.mark.parametrize("K", [128, 200, 256])
    def test_many_clusters(self, K):
        # first-index keys past the int8 range, and at K = 256 past the uint8 range
        pts = _blobs(43, 900, 3, 40, spread=1.0)
        _assert_lloyd_matches_oracles(pts, _plusplus_inits(pts, K, range(2)), LLOYD_MAX_ITER)

    def test_extra_inits_cost_tie_first_listed_wins(self):
        # both inits reach the same partition under permuted labels, at the same cost
        pts = np.array([[-2.0], [6.0], [4.0], [-6.0], [-9.0], [-4.0], [4.0], [-1.0], [5.0]])
        a = np.array([[-9.0], [-5.0], [0.0], [5.0]])
        b = np.array([[6.0], [-9.0], [-4.0], [-1.0]])
        ra, rb = _assert_lloyd_matches_oracles(pts, [a, b], LLOYD_MAX_ITER)
        assert ra.cost == rb.cost
        assert not np.array_equal(ra.assignments, rb.assignments)
        for first, second, expected in ((a, b, ra), (b, a, rb)):
            res = kmeans(pts, 4, restarts=0, extra_inits=(first, second))
            np.testing.assert_array_equal(res.assignments, expected.assignments)
            np.testing.assert_array_equal(res.centroids, expected.centroids)

    def test_full_recompute_at_most_twice_per_converged_restart(self, monkeypatch):
        calls = []
        exact_sums = numerics._cluster_sums

        def spy(*args):
            calls.append(args)
            return exact_sums(*args)

        monkeypatch.setattr(numerics, "_cluster_sums", spy)
        pts = _blobs(50, 2000, 100, 6, spread=2.5)
        results = _lockstep(pts, _plusplus_inits(pts, 8, range(6)), LLOYD_MAX_ITER)
        assert all(2 < res.iterations < LLOYD_MAX_ITER for res in results)
        # a converged restart recomputes from its own assignment array only:
        # on the first pass and at the fixpoint check
        per_restart = Counter(id(args[1]) for args in calls)
        assert len(per_restart) == len(results)
        assert max(per_restart.values()) <= 2

    def test_fixpoint_where_the_products_round_differently(self):
        # At n = 50 and d = 20 this OpenBLAS rounds the batched (A K, n)
        # product differently from the per-restart (n, K) one, so a near tie
        # may go the other way than in the oracle; the result is still a
        # Lloyd fixpoint with exact means.
        pts = _blobs(44, 50, 20, 4, spread=2.0)
        for restarts in (1, 4):
            res = kmeans(pts, 4, restarts=restarts, rng=np.random.default_rng(45))
            assert res.iterations < LLOYD_MAX_ITER
            d2 = ((pts[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
            chosen = d2[np.arange(50), res.assignments]
            assert np.all(chosen <= d2.min(axis=1) + 1e-9 * d2.max())
            for k in range(4):
                np.testing.assert_allclose(res.centroids[k], pts[res.assignments == k].mean(axis=0),
                                           rtol=0, atol=1e-12)
            assert res.cost == pytest.approx(chosen.sum(), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), d=st.sampled_from([1, 2, 3, 9]),
           centers=st.integers(1, 6), K=st.integers(1, 8), spread=st.floats(0.05, 3.0),
           duplicate=st.booleans(), max_iter=st.sampled_from([1, 2, 5, LLOYD_MAX_ITER]),
           restarts=st.integers(1, 4))
    def test_blobs_property(self, seed, n, d, centers, K, spread, duplicate, max_iter, restarts):
        assume(K <= n)
        pts = _blobs(seed, n, d, centers, spread)
        if duplicate:
            pts[::2] = pts[-1]
        inits = _plusplus_inits(pts, K, range(seed, seed + restarts))
        _assert_lloyd_matches_oracles(pts, inits, max_iter)


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


class TestAssignmentAgainstScipy:
    def test_untied_costs_give_scipy_permutation(self):
        rng = np.random.default_rng(70)
        for K in range(1, 21):
            for _ in range(20):
                C = rng.normal(size=(K, K)) * rng.choice([1e-6, 1.0, 1e6])
                rows, cols = linear_sum_assignment(C)
                assert min_cost_assignment(C) == cols.tolist()

    def test_tied_and_integer_costs_give_scipy_cost(self):
        # Integer, binary and constant costs are exact in binary, so tied optima sum equal.
        # Costs rounded to 0.1 are not: two optima of equal decimal cost can sum a few
        # rounding errors apart, each entry's at most eps/2 of it, so their exact sums
        # (``math.fsum``) must agree within one ulp, while distinct decimal costs are 0.1 apart.
        for seed in (71, 9):
            rng = np.random.default_rng(seed)
            for K in range(1, 21):
                for C, exact in ((rng.integers(0, 3, size=(K, K)), True), (np.round(rng.random((K, K)), 1), False),
                                 (np.ones((K, K)), True), ((rng.random((K, K)) > 0.5), True)):
                    C = C.astype(float)
                    rows, cols = linear_sum_assignment(C)
                    got = min_cost_assignment(C)
                    assert sorted(got) == list(range(K))
                    if exact:
                        assert C[rows, got].sum() == C[rows, cols].sum()
                    else:
                        ours, theirs = math.fsum(C[rows, got]), math.fsum(C[rows, cols])
                        assert abs(ours - theirs) <= math.ulp(max(ours, theirs)), (seed, K, ours, theirs)

    def test_non_finite_costs_as_in_scipy(self):
        C = np.random.default_rng(72).random((4, 4))
        for i, j, bad in [(1, 2, np.nan), (0, 0, -np.inf)]:
            D = C.copy()
            D[i, j] = bad
            with pytest.raises(ValueError):
                linear_sum_assignment(D)
            with pytest.raises(ValueError, match="invalid numeric entries"):
                min_cost_assignment(D)
        D = C.copy()
        D[2] = np.inf  # a row with no finite entry: no perfect matching
        with pytest.raises(ValueError):
            linear_sum_assignment(D)
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment(D)
        D = C.copy()
        D[2, :3] = np.inf  # one finite entry left in the row: feasible
        assert min_cost_assignment(D) == linear_sum_assignment(D)[1].tolist()

    def test_not_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            min_cost_assignment(np.zeros((2, 3)))

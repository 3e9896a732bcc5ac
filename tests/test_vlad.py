import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexnest import (
    Dataset,
    Kernel,
    SimplexNest,
    estimate_gamma,
    generate,
    min_matching,
    sample_vertices,
    skew_simplex,
)
from simplexnest import baselines, metrics, numerics, vlad
from simplexnest.extension import build_gamma_table, quadrature_gamma
from simplexnest.numerics import center, truncated_svd
from simplexnest.vlad import (
    VladFit,
    extend_rays,
    fit,
    fit_auto,
    load_fit,
    project_rows_onto_simplex,
    recover_weights,
    save_fit,
    simplex_least_squares,
)


def _noiseless_data(D=10, K=4, alpha=2.0, n=8000, seed=0, c_min=None):
    kern = Kernel.noiseless()
    rng = np.random.default_rng(seed)
    V = sample_vertices(D, K, kern, rng)
    if c_min is not None:
        V = skew_simplex(V, c_min, rng)
    model = SimplexNest(V, alpha, kern)
    return model, generate(model, n, rng)


@pytest.fixture(scope="module")
def table_k4():
    return build_gamma_table(4, np.geomspace(0.5, 5.0, 8), m=8000, seed=3, workers=2)


class TestFit:
    def test_gamma_one_returns_centroids(self):
        _, data = _noiseless_data(seed=1)
        f = fit(data, 4, gamma=1.0, rng=np.random.default_rng(2))
        np.testing.assert_allclose(f.vertices, f.cvt_centroids, rtol=0, atol=1e-12)

    def test_extension_identity_exact(self):
        _, data = _noiseless_data(seed=3)
        f = fit(data, 4, gamma=2.7, rng=np.random.default_rng(4))
        expected = f.center[:, None] + 2.7 * (f.cvt_centroids - f.center[:, None])
        np.testing.assert_array_equal(f.vertices, expected)

    def test_centroids_live_in_reduced_span(self):
        _, data = _noiseless_data(seed=5)
        f = fit(data, 4, gamma=2.0, rng=np.random.default_rng(6))
        W = f.factors.right
        rays = f.cvt_centroids - f.center[:, None]
        residual = rays - W @ (W.T @ rays)
        scale = np.abs(rays).max()
        assert np.abs(residual).max() < 1e-8 * max(scale, 1.0)

    def test_centroid_mean_near_data_center(self):
        _, data = _noiseless_data(seed=7)
        f = fit(data, 4, gamma=2.0, rng=np.random.default_rng(8))
        scale = np.linalg.norm(data.observations - f.center, axis=1).mean()
        gap = np.linalg.norm(f.cvt_centroids.mean(axis=1) - f.center)
        assert gap < 0.05 * scale

    def test_vertex_columns_canonically_sorted(self):
        _, data = _noiseless_data(seed=9)
        f = fit(data, 4, gamma=2.0, rng=np.random.default_rng(10))
        order = np.lexsort(f.vertices[::-1])
        np.testing.assert_array_equal(order, np.arange(4))

    def test_noiseless_recovery_with_estimated_gamma(self):
        model, data = _noiseless_data(D=10, K=4, alpha=2.0, n=8000, seed=11, c_min=0.6)
        g = estimate_gamma(4, 2.0, 50_000, np.random.default_rng(12))
        f = fit(data, 4, gamma=g, rng=np.random.default_rng(13))
        mm = min_matching(f.vertices, model.vertices)
        assert mm.distance <= 0.05 * model.diameter()

    def test_same_table_serves_different_shapes(self):
        # the extension factor depends only on (K, alpha), not the geometry
        kern = Kernel.noiseless()
        g = estimate_gamma(3, 1.5, 50_000, np.random.default_rng(14))
        equilateral = SimplexNest(np.eye(3) * 4.0, 1.5, kern)
        skewed = SimplexNest(
            skew_simplex(sample_vertices(6, 3, kern, np.random.default_rng(15)), 0.5,
                         np.random.default_rng(16)),
            1.5, kern)
        for model in (equilateral, skewed):
            data = generate(model, 20_000, np.random.default_rng(17))
            f = fit(data, 3, gamma=g, rng=np.random.default_rng(18))
            mm = min_matching(f.vertices, model.vertices)
            assert mm.distance <= 0.05 * model.diameter()

    def test_affine_equivariance_at_partition_level(self):
        # crisp clusters so both runs find the same partition; group means
        # (hence centroids and vertices) then transform exactly
        model, data = _noiseless_data(D=4, K=3, alpha=0.3, n=400, seed=19)
        rng = np.random.default_rng(20)
        A = rng.normal(size=(4, 4))
        u, s, vt = np.linalg.svd(A)
        A = u @ np.diag(np.linspace(0.5, 2.0, 4)) @ vt
        b = rng.normal(size=4)
        data2 = Dataset(data.observations @ A.T + b, Kernel.noiseless())
        f1 = fit(data, 3, gamma=2.0, rng=np.random.default_rng(21))
        f2 = fit(data2, 3, gamma=2.0, rng=np.random.default_rng(21))
        mapped = A @ f1.cvt_centroids + b[:, None]
        same_partition = min_matching(mapped, f2.cvt_centroids).distance < 1e-6
        assert same_partition
        mapped_vertices = A @ f1.vertices + b[:, None]
        assert min_matching(mapped_vertices, f2.vertices).distance < 1e-6

    def test_permutation_stability(self):
        model, data = _noiseless_data(D=5, K=3, alpha=0.3, n=500, seed=22)
        perm = np.random.default_rng(23).permutation(data.n)
        shuffled = Dataset(data.observations[perm], data.kernel)
        f1 = fit(data, 3, gamma=2.0, rng=np.random.default_rng(24))
        f2 = fit(shuffled, 3, gamma=2.0, rng=np.random.default_rng(24))
        np.testing.assert_allclose(f1.vertices, f2.vertices, atol=1e-9)

    def test_multinomial_vertices_renormalized_by_default(self):
        kern = Kernel.multinomial(60)
        V = sample_vertices(30, 3, kern, np.random.default_rng(25))
        model = SimplexNest(V, 1.0, kern)
        data = generate(model, 3000, np.random.default_rng(26))
        f = fit(data, 3, gamma=2.5, rng=np.random.default_rng(27))
        assert np.all(f.vertices >= 0)
        np.testing.assert_allclose(f.vertices.sum(axis=0), 1.0, atol=1e-12)
        raw = extend_rays(f.center, f.cvt_centroids, f.gamma)
        assert raw.min() < 0  # the extension left the simplex, so the step did something
        clipped = np.clip(raw, 0.0, None)
        np.testing.assert_allclose(f.vertices, clipped / clipped.sum(axis=0), rtol=0, atol=1e-15)

    def test_coincident_vertex_warning(self):
        X = np.vstack([np.tile([0.0, 0.0, 0.0], (30, 1)), np.tile([1.0, 1.0, 0.0], (30, 1))])
        data = Dataset(X, Kernel.noiseless())
        with pytest.warns(UserWarning, match="coincide"), pytest.warns(UserWarning, match="rank 1 < K - 1"):
            fit(data, 3, gamma=1.0, rng=np.random.default_rng(28))

    def test_identical_rows_warn_and_stay_finite(self):
        # every centered row is zero, so the factors come from the all-zero matrix
        data = Dataset(np.tile([0.5, -1.0, 2.0, 0.0], (30, 1)), Kernel.noiseless())
        with pytest.warns(UserWarning, match="coincide"), pytest.warns(UserWarning, match="rank 0 < K - 1"):
            f = fit(data, 3, gamma=1.5, rng=np.random.default_rng(28))
        assert np.all(np.isfinite(f.vertices))
        np.testing.assert_array_equal(f.factors.singular, [0.0, 0.0])

    def test_rank_deficient_data_warn(self):
        # noiseless data on a triangle, fitted with K = 4: the third singular value is rounding
        rng = np.random.default_rng(30)
        B = rng.random((20, 3))
        data = Dataset(rng.dirichlet(np.ones(3), 500) @ B.T, Kernel.noiseless())
        with pytest.warns(UserWarning, match=r"rank 2 < K - 1 = 3, so K = 4 vertices"):
            f = fit(data, 4, gamma=1.0, rng=np.random.default_rng(31))
        assert f.factors.singular[2] <= 1e-13 * f.factors.singular[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(data, 3, gamma=1.0, rng=np.random.default_rng(31))  # full rank at K = 3

    def test_input_validation(self):
        _, data = _noiseless_data(n=10, seed=29)
        with pytest.raises(ValueError):
            fit(data, 1, gamma=1.0, rng=np.random.default_rng(0))
        small = Dataset(data.observations[:4], Kernel.noiseless())
        with pytest.raises(ValueError):
            fit(small, 4, gamma=1.0, rng=np.random.default_rng(0))
        bad = Dataset(np.array([[np.nan, 1.0], [0.0, 1.0], [2.0, 3.0]]), Kernel.noiseless())
        with pytest.raises(ValueError):
            fit(bad, 2, gamma=1.0, rng=np.random.default_rng(0))
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                extend_rays(np.zeros(3), np.ones((3, 2)), gamma)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_nonfinite_observations_raise_without_a_warning(self, bad):
        # +inf and -inf in one column make its mean NaN by inf - inf
        X = np.random.default_rng(30).normal(size=(12, 3))
        X[: len(bad), 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="observations must be finite"):
                fit(Dataset(X, Kernel.noiseless()), 2, gamma=1.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kernel,row_block_bytes", [
        (Kernel.noiseless(), None), (Kernel.gaussian(0.5), None), (Kernel.poisson(), None),
        (Kernel.multinomial(50), None), (Kernel.multinomial(50), 0),
    ])
    def test_observations_unchanged_and_factors_as_from_center(self, monkeypatch, kernel, row_block_bytes):
        rng = np.random.default_rng(31)
        data = generate(SimplexNest(sample_vertices(12, 3, kernel, rng), 1.0, kernel), 400, rng)
        if row_block_bytes is not None:  # blocks of one row
            monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", row_block_bytes)
        before = data.observations.copy()
        f = fit(data, 3, gamma=2.0, rng=np.random.default_rng(32))
        np.testing.assert_array_equal(data.observations, before)
        N = data.divisor
        c0 = data.observations.mean(axis=0) / N
        np.testing.assert_array_equal(f.center, c0)
        expected = truncated_svd(numerics._CentredOperator(data.observations, c0, N), 2)
        np.testing.assert_array_equal(f.factors.singular, expected.singular)
        np.testing.assert_array_equal(f.factors.left, expected.left)
        copy = truncated_svd(center(data.observations / N)[0], 2)
        np.testing.assert_allclose(f.factors.singular, copy.singular, rtol=0, atol=1e-12 * copy.singular[0])
        np.testing.assert_allclose(f.factors.left, copy.left, rtol=0, atol=1e-12)


class TestMemory:
    """A fit, then its weights, holds no (n, D) float copy of the observations."""

    def test_fit_auto_and_weights_copy_no_observations(self):
        kern = Kernel.multinomial(500)
        rng = np.random.default_rng(47)
        data = generate(SimplexNest(sample_vertices(1500, 10, kern, rng), 0.5, kern), 2000, rng)
        data = data.without_truth()
        tracemalloc.start()
        try:
            f = fit_auto(data, 10, alpha_search=(0.1, 5.0), rng=np.random.default_rng(48))
            recover_weights(f, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * data.observations.nbytes

    @pytest.mark.parametrize("kernel, D, n, bound", [
        (Kernel.poisson(), 500, 10_000, 0.35),       # the paper's Poisson protocol
        (Kernel.multinomial(500), 2000, 500, 1.0),  # short side n = 500, wide
    ], ids=["tall", "wide"])
    def test_short_side_500_fit_and_weights_copy_no_observations(self, kernel, D, n, bound):
        rng = np.random.default_rng(50)
        data = generate(SimplexNest(sample_vertices(D, 10, kernel, rng), 0.5, kernel), n, rng).without_truth()
        tracemalloc.start()
        try:
            f = fit(data, 10, gamma=2.0, rng=np.random.default_rng(51))
            recover_weights(f, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * data.observations.nbytes

    @pytest.mark.parametrize("onto_simplex", [False, True])
    def test_extended_holds_few_copies_of_the_vertices(self, onto_simplex):
        # the extended rays, their columns in vertex order and the centroids reordered: 3 x V,
        # where a key of Python floats per column held 5 x V
        C = np.random.default_rng(56).dirichlet(np.ones(20_000), size=10).T.copy()  # (D, K)
        c0 = C.mean(axis=1)
        tracemalloc.start()
        try:
            vlad._extended(c0, C, 2.0, onto_simplex)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * C.nbytes

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
    def test_weights_hold_no_blas_buffers_the_size_of_the_data(self):
        """The weights' data product leaves the resident set near where it was.

        ``tracemalloc`` sees only what numpy allocates through Python's
        allocator, not the buffers OpenBLAS keeps for its threads, and one
        product with all n rows on 2 threads held about 0.2 x the
        observations there (+14.5 MB at n = 4000, D = 2000, against 2.9 MB
        over blocks of rows). So a process of its own reads its VmRSS
        before and after ``recover_weights``.
        """
        script = textwrap.dedent("""
            import numpy as np
            from simplexnest import Kernel, SimplexNest, generate, sample_vertices
            from simplexnest.vlad import fit, recover_weights

            def rss():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))

            kern = Kernel.multinomial(500)
            rng = np.random.default_rng(54)
            data = generate(SimplexNest(sample_vertices(2000, 10, kern, rng), 0.5, kern), 4000, rng)
            data = data.without_truth()
            f = fit(data, 10, gamma=2.0, rng=np.random.default_rng(55))
            before = rss()
            recover_weights(f, data)
            print(rss() - before, data.observations.nbytes)
        """)
        src = str(Path(vlad.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=600, check=True)
        growth, observations = map(int, run.stdout.split())
        assert growth < 0.1 * observations

    def test_wide_fit_holds_a_basis_of_d_side_vectors(self):
        # Lanczos holds 48 basis vectors of length D = 2000, 0.096 x the observations;
        # the fit measured a peak of 0.122 x
        kern = Kernel.multinomial(500)
        rng = np.random.default_rng(50)
        data = generate(SimplexNest(sample_vertices(2000, 4, kern, rng), 0.5, kern), 500, rng).without_truth()
        tracemalloc.start()
        try:
            fit(data, 4, gamma=2.0, rng=np.random.default_rng(51))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.15 * data.observations.nbytes


@pytest.fixture(scope="class")
def wide_counts() -> tuple[np.ndarray, Dataset]:
    """Multinomial vertices and n = 2000 rows of D = 1500 counts, 24 MB."""
    kern = Kernel.multinomial(500)
    rng = np.random.default_rng(52)
    V = sample_vertices(1500, 10, kern, rng)
    return V, generate(SimplexNest(V, 0.5, kern), 2000, rng).without_truth()


class TestBaselineAndScoreMemory:
    """The baselines and the held-out scores divide no copy of the counts by N."""

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_spa(self, wide_counts):
        _, data = wide_counts
        assert self._peak(lambda: baselines.spa(data, 10)) < 0.5 * data.observations.nbytes

    def test_gdm(self, wide_counts):
        # K-means holds a transposed copy of its points, about 1 x the observations
        _, data = wide_counts
        peak = self._peak(lambda: baselines.gdm(data, 10, gamma=2.0, rng=np.random.default_rng(53)))
        assert peak < 1.75 * data.observations.nbytes

    def test_evaluate_fit_heldout_and_likelihood(self, wide_counts):
        V, data = wide_counts
        peak = self._peak(lambda: metrics.evaluate_fit(V, heldout=data, metrics=("heldout", "likelihood")))
        assert peak < 0.5 * data.observations.nbytes

    def test_heldout_likelihood(self, wide_counts):
        V, data = wide_counts
        assert self._peak(lambda: metrics.heldout_likelihood(V, data)) < 0.5 * data.observations.nbytes


def test_lexsorted_columns_match_numpy_lexsort():
    # integer entries in {-2, ..., 2} tie often; -0.0 ties with 0.0 in both
    rng = np.random.default_rng(49)
    for trial in range(300):
        V = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), int(rng.integers(1, 8)))).astype(float)
        if trial % 2:
            V[V == 0] = -0.0
        np.testing.assert_array_equal(vlad._lexsorted_columns(V), np.lexsort(V[::-1]))
    V = rng.normal(size=(1500, 10))
    np.testing.assert_array_equal(vlad._lexsorted_columns(V), np.lexsort(V[::-1]))
    # columns sharing a long prefix differ first near the end; equal columns keep their order
    for trial in range(50):
        D, K = int(rng.integers(2, 40)), int(rng.integers(2, 9))
        V = np.tile(rng.normal(size=(D, 1)), (1, K))
        V[int(rng.integers(0, D)):] = rng.integers(-1, 2, size=(1, K))
        V[:, K - 1] = V[:, 0]
        np.testing.assert_array_equal(vlad._lexsorted_columns(V), np.lexsort(V[::-1]))


class TestFitAuto:
    def test_alpha_recovered_in_band(self, table_k4):
        _, data = _noiseless_data(D=60, K=4, alpha=2.0, n=10_000, seed=30)
        f = fit_auto(data, 4, table_k4, alpha_search=(0.5, 5.0), rng=np.random.default_rng(31))
        assert 1.6 <= f.alpha <= 2.4
        assert f.gamma == float(table_k4.lookup(f.alpha))

    def test_reextension_matches_direct_fit(self, table_k4):
        _, data = _noiseless_data(D=20, K=4, alpha=1.0, n=4000, seed=32)
        fa = fit_auto(data, 4, table_k4, alpha_search=(0.5, 5.0), rng=np.random.default_rng(33))
        direct = fit(data, 4, gamma=fa.gamma, rng=np.random.default_rng(33))
        np.testing.assert_array_equal(fa.vertices, direct.vertices)

    def test_alpha_estimate_independent_of_reference_gamma(self, table_k4):
        from simplexnest.alpha_est import corrected_covariance, estimate_alpha

        _, data = _noiseless_data(D=20, K=4, alpha=1.0, n=4000, seed=34)
        f_lo = fit(data, 4, gamma=1.0, rng=np.random.default_rng(35))
        f_hi = fit(data, 4, gamma=4.0, rng=np.random.default_rng(35))
        target = corrected_covariance(data, 4)
        a_lo = estimate_alpha(f_lo, target, table_k4, search=(0.5, 5.0))
        a_hi = estimate_alpha(f_hi, target, table_k4, search=(0.5, 5.0))
        assert a_lo == a_hi

    def test_without_a_table_uses_quadrature(self):
        _, data = _noiseless_data(D=20, K=4, alpha=1.0, n=4000, seed=32)
        f = fit_auto(data, 4, alpha_search=(0.5, 5.0), rng=np.random.default_rng(33))
        assert 0.5 < f.alpha < 5.0
        assert f.gamma == quadrature_gamma(4, f.alpha)

    def test_table_k_mismatch(self, table_k4):
        _, data = _noiseless_data(D=10, K=3, alpha=1.0, n=500, seed=36)
        with pytest.raises(ValueError):
            fit_auto(data, 3, table_k4, rng=np.random.default_rng(0))


def _assert_scaled(actual, reference, c):
    expected = c * reference
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


class TestScaleEquivariance:
    """Every estimator scales with its input: fitting c X gives c times the
    vertices, the same alpha and K-means partition, and the same SPA rows.
    So multinomial counts are fitted once, divided by N; raw counts would
    only give N times the raw extension."""

    @pytest.fixture(scope="class")
    def gaussian(self):
        kern = Kernel.gaussian(0.5)
        rng = np.random.default_rng(40)
        return generate(SimplexNest(sample_vertices(12, 4, kern, rng), 1.5, kern), 1500, rng).without_truth()

    # "gram" and "lanczos" name the two SVD paths these fits once took; both
    # run the one path now, "lanczos" over blocks of 7 rows, the last one short
    @pytest.mark.parametrize("branch", ["gram", "lanczos"])
    @pytest.mark.parametrize("c", [2.0**-8, 3.0, 500.0, 2.0**8])
    def test_fits_scale_with_the_data(self, gaussian, monkeypatch, branch, c):
        if branch == "lanczos":
            n, D = gaussian.observations.shape
            assert n % 7
            monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 7 * D * 8)

        def fits(data):
            return (fit(data, 4, gamma=2.0, rng=np.random.default_rng(41)),
                    fit_auto(data, 4, rng=np.random.default_rng(42)),
                    baselines.gdm(data, 4, gamma=2.0, rng=np.random.default_rng(43)),
                    baselines.spa(data, 4))

        f, fa, g, s = fits(gaussian)
        f_c, fa_c, g_c, s_c = fits(Dataset(c * gaussian.observations, gaussian.kernel))
        _assert_scaled(f_c.vertices, f.vertices, c)
        _assert_scaled(fa_c.vertices, fa.vertices, c)
        assert fa_c.alpha == pytest.approx(fa.alpha, rel=1e-12, abs=0)
        assert fa_c.kmeans_cost == pytest.approx(fa.kmeans_cost, rel=1e-12, abs=0)
        assert f_c.kmeans_cost == pytest.approx(f.kmeans_cost, rel=1e-12, abs=0)
        _assert_scaled(g_c.vertices, g.vertices, c)
        assert s_c.meta["rows"] == s.meta["rows"]
        _assert_scaled(s_c.vertices, s.vertices, c)


class TestSimplexProjection:
    def test_rows_projected_onto_simplex(self):
        V = np.random.default_rng(37).normal(size=(40, 6))
        P = project_rows_onto_simplex(V)
        assert np.all(P >= 0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        inside = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_array_equal(project_rows_onto_simplex(inside), inside)

    def test_kkt_optimality_on_random_instances(self):
        # support coordinates share one multiplier; zero coordinates have
        # gradient at least that multiplier
        rng = np.random.default_rng(38)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            D = K + int(rng.integers(0, 3))
            B = rng.normal(size=(D, K))
            x = rng.normal(size=(1, D)) * 2.0
            theta = simplex_least_squares(B, x)[0]
            g = B.T @ (B @ theta - x[0])
            support = theta > 1e-9
            nu = g[support].mean()
            assert np.abs(g[support] - nu).max() < 1e-6
            assert np.all(g[~support] >= nu - 1e-6)


def _reference_simplex_least_squares(B, X, tol=1e-10, max_iter=10_000):
    """The earlier solver: one scalar momentum, stops when every row is done."""
    K = B.shape[1]
    G = B.T @ B
    L = float(np.linalg.eigvalsh(G)[-1])
    XB = X @ B
    theta = np.full((X.shape[0], K), 1.0 / K)
    Y = theta.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = Y @ G - XB
        Z = project_rows_onto_simplex(Y - grad / L)
        gap = L * np.linalg.norm(Y - Z, axis=1)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Y = Z + ((t - 1.0) / t_next) * (Z - theta)
        theta = Z
        t = t_next
        if gap.max() <= tol:
            break
    return theta


def _full_norm_simplex_least_squares(B, X, tol=1e-10, max_iter=10_000):
    """The solver with step 1/L, L = ||B||_2^2: per-row stop and momentum restart."""
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


def _row_objective(B, X, theta):
    return ((theta @ B.T - X) ** 2).sum(axis=1)


def _counted_projection(monkeypatch):
    calls = [0]
    original = vlad.project_rows_onto_simplex

    def counted(V):
        calls[0] += 1
        return original(V)

    monkeypatch.setattr(vlad, "project_rows_onto_simplex", counted)
    return calls


class TestSimplexLeastSquaresOracle:
    def _check_against_reference(self, B, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = simplex_least_squares(B, X)
        obj = _row_objective(B, X, theta)
        for oracle in (_reference_simplex_least_squares, _full_norm_simplex_least_squares):
            expected = oracle(B, X)
            np.testing.assert_allclose(obj, _row_objective(B, X, expected), rtol=1e-12, atol=0)
            np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-6)
        assert np.all(theta >= 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        K = int(rng.integers(2, 8))
        D = K + int(rng.integers(1, 6))
        B = rng.normal(size=(D, K)) * rng.uniform(0.2, 5.0)
        X = rng.normal(size=(int(rng.integers(1, 60)), D)) * 2.0
        self._check_against_reference(B, X)

    def test_poisson_scale_instance_matches_reference_in_few_iterations(self, monkeypatch):
        # the paper's Poisson scale: ||B||_2^2 ~ 5.6e5 puts the rounding
        # floor of the gap, about L * eps, just above tol, so a stop that
        # needs every row done in the same iteration runs to max_iter; the
        # vertices' shared mean direction makes ||B||_2^2 about 8x the
        # curvature along the simplex, so the step 1/||B||_2^2 needs 123
        # projections where the tangent-space step needs 29
        rng = np.random.default_rng(210)
        kern = Kernel.poisson()
        V = sample_vertices(500, 10, kern, rng)
        X = generate(SimplexNest(V, 0.5, kern), 300, rng).observations
        assert np.linalg.norm(V, 2) ** 2 >= 1e5
        assert np.linalg.norm(V, 2) ** 2 >= 5 * np.linalg.norm(V - V.mean(axis=1, keepdims=True), 2) ** 2
        self._check_against_reference(V, X)
        calls = _counted_projection(monkeypatch)
        simplex_least_squares(V, X)
        assert calls[0] <= 40

    @pytest.mark.parametrize("seed", range(3))
    def test_normalized_multinomial_instance_matches_reference(self, seed):
        rng = np.random.default_rng(212 + seed)
        kern = Kernel.multinomial(500)
        V = sample_vertices(200, 10, kern, rng)
        data = generate(SimplexNest(V, 0.5, kern), 300, rng)
        X = data.observations / data.divisor
        self._check_against_reference(V, X)

    @pytest.mark.parametrize("B", [
        np.full((4, 3), 0.1),
        np.array([[0.1, np.nextafter(0.1, 1.0), 0.1]] * 4),
        np.tile([[2.0], [-1.0], [0.3]], (1, 5)),
        np.ones((2, 1)),
    ])
    def test_coincident_vertices_give_uniform_rows(self, B):
        # every theta is optimal; the column mean of 0.1 x 3 is not exactly 0.1, and a
        # step 1/L_t from vertices one unit in the last place apart would give NaN rows
        X = np.random.default_rng(215).normal(size=(6, B.shape[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = simplex_least_squares(B, X)
        np.testing.assert_array_equal(theta, np.full((6, B.shape[1]), 1.0 / B.shape[1]))

    def test_zero_vertex_matrix_raises(self):
        with pytest.raises(ValueError, match="degenerate vertex matrix"):
            simplex_least_squares(np.zeros((3, 4)), np.ones((2, 3)))

    def test_empty_input(self):
        assert simplex_least_squares(np.eye(3), np.empty((0, 3))).shape == (0, 3)

    def test_non_convergence_warns_once_and_returns_last_iterate(self, monkeypatch):
        rng = np.random.default_rng(211)
        B = rng.normal(size=(6, 4))
        X = rng.normal(size=(5, 6))
        calls = _counted_projection(monkeypatch)
        with pytest.warns(RuntimeWarning, match=r"5 of 5 rows did not reach tol = -1 in 7 iterations") as rec:
            theta = simplex_least_squares(B, X, tol=-1.0, max_iter=7)
        assert len(rec) == 1
        assert "largest gap" in str(rec[0].message)
        assert calls[0] == 7
        assert np.all(theta >= 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)), elements=_finite))
def test_projection_satisfies_kkt(V):
    # p = max(v - tau, 0) with one threshold tau per row: v - p equals tau on
    # the support and v <= tau off it, which with sum(p) = 1 is optimality
    P = project_rows_onto_simplex(V)
    tol = 1e-12 * (1.0 + np.abs(V).max()) * V.shape[1]
    assert np.all(P >= 0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=tol)
    for v, p in zip(V, P):
        support = p > 0
        assert support.any()
        tau = (v - p)[support]
        assert tau.max() - tau.min() <= tol
        assert np.all(v[~support] <= tau.max() + tol)


def _sort_threshold_reference(V: np.ndarray) -> np.ndarray:
    """Reference: the plain sort-and-threshold rule, with no re-projection of any row."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, K = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    idx = np.arange(1, K + 1)
    cond = U - css / idx > 0
    rho = np.count_nonzero(cond, axis=1)
    tau = css[np.arange(n), rho - 1] / rho
    return np.maximum(V - tau[:, None], 0.0)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)), elements=_finite))
def test_projection_of_ordinary_rows_is_the_plain_rule(V):
    np.testing.assert_array_equal(project_rows_onto_simplex(V), _sort_threshold_reference(V))


@pytest.mark.parametrize(
    "V, expected",
    [
        ([[1e17, 1e17 + 64, 3.0]], [[0.0, 1.0, 0.0]]),  # the plain rule returns [0, 0, 0]
        ([[-1e17] * 3], [[1 / 3] * 3]),                   # the plain rule returns inf
    ],
    ids=["large-gap", "large-negative"],
)
def test_projection_of_rows_beyond_one_over_eps(V, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(project_rows_onto_simplex(V), expected)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)), elements=_finite),
       st.lists(st.floats(1e6, 1e200) | st.floats(-1e200, -1e6), min_size=4, max_size=4))
def test_projection_stays_on_the_simplex_under_huge_offsets(V, offsets):
    # projection ignores a multiple of 1 added to a row; the plain rule's
    # rounding would leave such rows off the simplex, or with no active coordinate
    P = project_rows_onto_simplex(V + np.array(offsets[: V.shape[0]])[:, None])
    assert np.all(P >= 0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), arrays(np.float64, 8, elements=_finite))
def test_simplex_least_squares_invariant_to_a_common_shift(seed, shift):
    # on the simplex B theta - x = (B + s 1^T) theta - (x + s), so shifting
    # every vertex and every point by s leaves the argmin where it was
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    D = K + int(rng.integers(0, 4))
    B = rng.normal(size=(D, K)) * rng.uniform(0.5, 5.0)
    X = rng.normal(size=(int(rng.integers(1, 20)), D)) * 3.0
    s = shift[:D]
    theta = simplex_least_squares(B, X)
    shifted = simplex_least_squares(B + s[:, None], X + s)
    np.testing.assert_allclose(shifted, theta, rtol=0, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=_finite),
       arrays(np.float64, 6, elements=_finite),
       st.floats(0.05, 20.0))
def test_extend_rays_by_gamma_then_its_inverse_is_identity(C, c0, gamma):
    c0 = c0[: C.shape[0]]
    back = extend_rays(c0, extend_rays(c0, C, gamma), 1.0 / gamma)
    scale = (1.0 + np.abs(C).max() + np.abs(c0).max()) * (gamma + 1.0 / gamma)
    np.testing.assert_allclose(back, C, rtol=0, atol=1e-13 * scale)


class TestRecoverWeights:
    def test_interior_points_get_exact_barycentric_coordinates(self):
        _, data = _noiseless_data(D=8, K=3, alpha=1.0, n=2000, seed=39)
        f = fit(data, 3, gamma=2.0, rng=np.random.default_rng(40))
        rng = np.random.default_rng(41)
        theta_true = rng.dirichlet(np.ones(3), size=50)
        inside = Dataset(theta_true @ f.vertices.T, Kernel.noiseless())
        theta = recover_weights(f, inside)
        np.testing.assert_allclose(theta, theta_true, atol=1e-7)
        residual = inside.observations - theta @ f.vertices.T
        assert np.abs(residual).max() < 1e-7

    def test_vertex_maps_to_unit_weight(self):
        _, data = _noiseless_data(D=8, K=3, alpha=1.0, n=2000, seed=42)
        f = fit(data, 3, gamma=2.0, rng=np.random.default_rng(43))
        at_vertices = Dataset(f.vertices.T.copy(), Kernel.noiseless())
        theta = recover_weights(f, at_vertices)
        np.testing.assert_allclose(theta, np.eye(3), atol=1e-8)

    def test_segment_clamp(self):
        f = VladFit(
            vertices=np.array([[0.0, 1.0]]),
            cvt_centroids=np.array([[0.25, 0.75]]),
            center=np.array([0.5]),
            factors=None, gamma=2.0, alpha=None, kmeans_cost=0.0,
        )
        theta = recover_weights(f, Dataset(np.array([[1.5], [-0.5]]), Kernel.noiseless()))
        np.testing.assert_allclose(theta, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_counts_give_the_weights_of_the_normalized_counts(self, monkeypatch):
        # the counts against N times the vertices, with the tolerance scaled by N^2
        kern = Kernel.multinomial(300)
        rng = np.random.default_rng(44)
        data = generate(SimplexNest(sample_vertices(40, 4, kern, rng), 0.5, kern), 1500, rng)
        f = fit(data, 4, gamma=2.0, rng=np.random.default_rng(45))
        calls = _counted_projection(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = recover_weights(f, data)
        on_counts, calls[0] = calls[0], 0
        X = data.observations / data.divisor
        expected = simplex_least_squares(f.vertices, X)
        assert on_counts == calls[0]  # the stopping rule means the same on both scales (18 each)
        np.testing.assert_allclose(_row_objective(f.vertices, X, theta),
                                   _row_objective(f.vertices, X, expected), rtol=1e-12, atol=0)
        np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-6)
        assert np.all(theta >= 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_simplex_rejected(self):
        f = VladFit(
            vertices=np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]),
            cvt_centroids=np.zeros((2, 3)),
            center=np.zeros(2),
            factors=None, gamma=1.0, alpha=None, kmeans_cost=0.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            recover_weights(f, Dataset(np.zeros((2, 2)), Kernel.noiseless()))


class TestFitSerialization:
    def test_roundtrip(self, tmp_path):
        _, data = _noiseless_data(D=6, K=3, alpha=1.0, n=500, seed=44)
        f = fit(data, 3, gamma=1.8, rng=np.random.default_rng(45))
        save_fit(f, tmp_path / "fit", seed=45)
        back = load_fit(tmp_path / "fit")
        np.testing.assert_array_equal(back.vertices, f.vertices)
        np.testing.assert_array_equal(back.cvt_centroids, f.cvt_centroids)
        np.testing.assert_array_equal(back.center, f.center)
        assert back.gamma == f.gamma
        assert back.kmeans_cost == f.kmeans_cost
        assert (tmp_path / "fit" / "meta.json").exists()

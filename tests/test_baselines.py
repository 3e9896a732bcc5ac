import numpy as np
import pytest

from simplexnest import Dataset, Kernel, SimplexNest, generate, min_matching, sample_vertices
from simplexnest.baselines import BaselineFit, gdm, load_vertices, save_baseline, spa
from simplexnest.numerics import kmeans
from simplexnest.vlad import extend_rays, fit


def _noiseless(D, K, alpha, n, seed):
    rng = np.random.default_rng(seed)
    V = sample_vertices(D, K, Kernel.noiseless(), rng)
    model = SimplexNest(V, alpha, Kernel.noiseless())
    return model, generate(model, n, rng)


class TestGdm:
    def test_gamma_one_equals_raw_kmeans_centroids(self):
        _, data = _noiseless(6, 3, 1.0, 500, seed=0)
        f = gdm(data, 3, gamma=1.0, rng=np.random.default_rng(1))
        km = kmeans(data.observations, 3, restarts=8, rng=np.random.default_rng(1))
        got = np.asarray(sorted(map(tuple, f.vertices.T)))
        want = np.asarray(sorted(map(tuple, km.centroids)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_extension_arithmetic_identical_to_vlad(self):
        # same centroids in, bit-identical extension out: both estimators
        # share extend_rays
        _, data = _noiseless(6, 3, 1.0, 500, seed=2)
        base = gdm(data, 3, gamma=1.0, rng=np.random.default_rng(3))
        extended = gdm(data, 3, gamma=2.5, rng=np.random.default_rng(3))
        c0 = data.observations.mean(axis=0)
        manual = extend_rays(c0, base.vertices, 2.5)
        order = np.lexsort(manual[::-1])
        np.testing.assert_array_equal(extended.vertices, manual[:, order])

    def test_multinomial_vertices_are_the_raw_extension(self):
        # unlike vlad's, gdm's multinomial vertices are never clipped or rescaled
        kern = Kernel.multinomial(60)
        model = SimplexNest(sample_vertices(30, 3, kern, np.random.default_rng(25)), 1.0, kern)
        data = generate(model, 3000, np.random.default_rng(26))
        f = gdm(data, 3, gamma=2.5, rng=np.random.default_rng(27))
        X = data.fitting_matrix()
        km = kmeans(X, 3, restarts=8, rng=np.random.default_rng(27))
        raw = extend_rays(X.mean(axis=0), km.centroids.T, 2.5)
        np.testing.assert_array_equal(f.vertices, raw[:, np.lexsort(raw[::-1])])
        assert f.vertices.min() < 0

    def test_equilateral_simplex_matches_reduced_space_estimator(self):
        # on an equilateral simplex the raw-space and reduced-space
        # estimators agree up to K-means noise
        model = SimplexNest(4.0 * np.eye(3), 2.0, Kernel.noiseless())
        data = generate(model, 20_000, np.random.default_rng(4))
        gamma = 3.0
        a = gdm(data, 3, gamma=gamma, rng=np.random.default_rng(5), method_tag="gdm_mc")
        b = fit(data, 3, gamma=gamma, rng=np.random.default_rng(6))
        assert a.method_tag == "gdm_mc"
        assert min_matching(a.vertices, b.vertices).distance < 0.05 * model.diameter()

    def test_skewed_simplex_damages_gdm_but_not_vlad(self):
        from simplexnest import estimate_gamma, skew_simplex

        rng = np.random.default_rng(3)
        V = sample_vertices(3, 3, Kernel.noiseless(), rng)
        V = skew_simplex(V, 0.5, np.random.default_rng(1))
        model = SimplexNest(V, 2.5, Kernel.noiseless())
        data = generate(model, 6000, np.random.default_rng(7))
        g = estimate_gamma(3, 2.5, 50_000, np.random.default_rng(8))
        err_gdm = min_matching(gdm(data, 3, gamma=g, rng=np.random.default_rng(9)).vertices,
                               model.vertices).distance
        err_vlad = min_matching(fit(data, 3, gamma=g, rng=np.random.default_rng(9)).vertices,
                                model.vertices).distance
        assert err_gdm > 2.0 * err_vlad

    def test_input_validation(self):
        _, data = _noiseless(4, 3, 1.0, 10, seed=10)
        with pytest.raises(ValueError):
            gdm(data, 1, gamma=1.0, rng=np.random.default_rng(0))
        small = Dataset(data.observations[:3], Kernel.noiseless())
        with pytest.raises(ValueError):
            gdm(small, 3, gamma=1.0, rng=np.random.default_rng(0))


class TestSpa:
    def test_recovers_planted_anchor_rows_exactly(self):
        # rows include each vertex; all other rows are strict interior mixes
        rng = np.random.default_rng(11)
        V = sample_vertices(12, 4, Kernel.noiseless(), rng)
        mixes = rng.dirichlet(np.full(4, 5.0), size=80)  # bounded away from vertices
        X = np.vstack([mixes @ V.T, V.T])
        data = Dataset(X, Kernel.noiseless())
        f = spa(data, 4)
        got = sorted(map(tuple, f.vertices.T))
        want = sorted(map(tuple, V.T))
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
        assert sorted(f.meta["rows"]) == [80, 81, 82, 83]

    def test_orthogonal_rows_returned_whole(self):
        X = np.diag([3.0, 2.0, 1.0])
        f = spa(Dataset(X, Kernel.noiseless()), 3)
        got = sorted(map(tuple, f.vertices.T))
        np.testing.assert_array_equal(np.asarray(got), sorted(map(tuple, X)))

    def test_deterministic(self):
        _, data = _noiseless(8, 3, 1.0, 300, seed=12)
        a = spa(data, 3)
        b = spa(data, 3)
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_rank_deficiency_error(self):
        rng = np.random.default_rng(13)
        X = np.outer(rng.uniform(1, 2, 50), rng.normal(size=6))  # rank 1
        with pytest.raises(ValueError, match="rank deficiency"):
            spa(Dataset(X, Kernel.noiseless()), 3)

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            spa(Dataset(np.ones((2, 4)), Kernel.noiseless()), 3)


class TestBaselineSerialization:
    def test_save_and_load_vertices(self, tmp_path):
        _, data = _noiseless(5, 3, 1.0, 200, seed=14)
        f = spa(data, 3)
        save_baseline(f, tmp_path / "spa_fit", seed=14)
        back = load_vertices(tmp_path / "spa_fit")
        np.testing.assert_array_equal(back, f.vertices)
        # loading the bare csv works too
        back2 = load_vertices(tmp_path / "spa_fit" / "vertices.csv")
        np.testing.assert_array_equal(back2, f.vertices)

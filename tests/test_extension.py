import json
import warnings

import numpy as np
import pytest

from simplexnest.extension import (
    GammaTable,
    build_gamma_table,
    estimate_gamma,
    quadrature_gamma,
    varphi,
)


def test_vertex_distance_identity():
    # sum_l ||e_l - (1/K) 1||_2 equals sqrt(K^2 - K): the numerator of the
    # gamma formula is exactly the summed vertex-to-center distance
    for K in range(2, 9):
        u0 = np.full(K, 1.0 / K)
        total = sum(np.linalg.norm(np.eye(K)[k] - u0) for k in range(K))
        np.testing.assert_allclose(total, np.sqrt(K * K - K), rtol=1e-12)


class TestEstimateGamma:
    def test_uniform_segment_cvt(self):
        # 1-D CVT of a uniform density: centroids at 1/4, 3/4 => gamma = 2
        g = estimate_gamma(2, 1.0, 200_000, np.random.default_rng(0))
        assert abs(g - 2.0) < 0.02

    def test_tiny_alpha_limit(self):
        # mass concentrates at the vertices, centroids -> vertices, gamma -> 1
        g = estimate_gamma(3, 0.01, 50_000, np.random.default_rng(1))
        assert 0.95 <= g <= 1.05

    @pytest.mark.parametrize("K,alpha", [(2, 0.1), (3, 1.0), (5, 3.0), (8, 0.5)])
    def test_gamma_at_least_one(self, K, alpha):
        g = estimate_gamma(K, alpha, 10_000, np.random.default_rng(2))
        assert g >= 1.0

    def test_stderr_brackets_truth(self):
        g, se = estimate_gamma(2, 1.0, 200_000, np.random.default_rng(3), return_stderr=True)
        assert 0 < se < 0.05
        assert abs(g - 2.0) < 4 * se

    def test_monotone_in_alpha_at_large_m(self):
        K = 5
        alphas = np.array([0.2, 0.6, 1.5, 3.0, 6.0])
        out = [
            estimate_gamma(K, a, 100_000, np.random.default_rng([4, i]), return_stderr=True)
            for i, a in enumerate(alphas)
        ]
        gammas = np.array([g for g, _ in out])
        ses = np.array([s for _, s in out])
        slack = 2 * np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
        assert np.all(np.diff(gammas) >= -slack)

    def test_parameter_errors(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            estimate_gamma(3, np.array([1.0, 2.0, 3.0]), 100, rng)
        with pytest.raises(ValueError):
            estimate_gamma(1, 1.0, 100, rng)
        with pytest.raises(ValueError):
            estimate_gamma(4, 1.0, 3, rng)


# gamma(K, alpha) to 30 digits, from mpmath 1.3.0:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     def gamma_ref(K, a):
#         a = mp.mpf(a)
#         f = lambda x: (lambda p: p - p**K)(mp.gammainc(a, 0, x, regularized=True))
#         s = mp.sqrt(a)
#         pts = sorted({mp.mpf(0), mp.mpf(1), max(mp.mpf(1), a - 10*s), a, a + s, a + 10*s + 40})
#         return (K - 1) * a / mp.quad(f, pts + [mp.inf])
#     for K in (2, 3, 10, 50):
#         print(K, [mp.nstr(gamma_ref(K, a), 30)
#                   for a in ("1e-3", "0.02", "0.1", "0.5", "1", "2", "5", "10", "100", "1000")])
#
# At 50 digits with breakpoints added at alpha +- 3 sqrt(alpha) and alpha + 30 sqrt(alpha)
# + 100 it prints the same 30 digits.
MPMATH_ALPHAS = (1e-3, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)
MPMATH_GAMMA = {
    2: (
        1.00138561090033609119029211602, 1.02745673522397318664320664474, 1.13230869752157537214559449516,
        1.57079632679489661923132169164, 2.0, 2.66666666666666666666666666667,
        4.06349206349206349206349206349, 5.67546385503041849791075797268, 17.7467079428307013891646952954,
        56.0569188406160061380010345935,
    ),
    3: (
        1.00207801582846749625529843724, 1.04103187880843592230514782815, 1.19524229599782308783601045752,
        1.81379936423421785059407825764, 2.4, 3.29770992366412213740458015267,
        5.16491349553874841228872157673, 7.31491241974063397221985112135, 23.4079884465897469467478170355,
        74.4867914281525235856328073834,
    ),
    10: (
        1.00691741079923841327420078726, 1.13345062946650940848360174138, 1.59420833151768046927948179934,
        3.21472101544140095835403974909, 4.66570664472330796132483028184, 6.86248366297264582949235279988,
        11.432320802311204897003484397, 16.713745721376083667137061874, 56.4523891516268919154339972662,
        182.832076900895363004252169366,
    ),
    50: (
        1.03432711661106207268775115279, 1.6001452350940465014142777778, 3.32753652082520354196026300137,
        8.94009089543857718196307138183, 14.0031793685458197682045209168, 21.7974179069536141453649939462,
        38.3137148084675395157395330543, 57.6522404825632518952721890617, 204.968624618569063735991944192,
        675.452283143061561962904781843,
    ),
}


class TestQuadratureGamma:
    def test_uniform_segment_is_exactly_two(self):
        assert abs(quadrature_gamma(2, 1.0) - 2.0) <= 1e-12

    @pytest.mark.parametrize("K", [3, 5, 10, 50])
    def test_uniform_simplex_closed_form(self, K):
        # alpha = 1: E[max of K iid Exp(1)] is the harmonic number H_K
        harmonic = sum(1.0 / k for k in range(1, K + 1))
        np.testing.assert_allclose(quadrature_gamma(K, 1.0), (K - 1) / (harmonic - 1), rtol=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    def test_matches_monte_carlo_within_three_stderr(self, K):
        # the Monte-Carlo estimator is the oracle; a K-means optimum that
        # broke the symmetric CVT structure would show up here
        for i, alpha in enumerate([0.05, 0.5, 2.0, 10.0]):
            g, se = estimate_gamma(K, alpha, 20_000, np.random.default_rng([K, i]), return_stderr=True)
            assert abs(quadrature_gamma(K, alpha) - g) <= 3 * se, (alpha, g, se)

    @pytest.mark.parametrize("K", [3, 10, 50])
    def test_phi_strictly_increasing(self, K):
        alphas = np.geomspace(1e-3, 1e3, 700)
        phi = [varphi(K, a, g) for a, g in zip(alphas, quadrature_gamma(K, alphas))]
        assert np.all(np.diff(phi) > 0)

    def test_array_in_array_out(self):
        alphas = np.array([[0.5, 1.0], [2.0, 4.0]])
        out = quadrature_gamma(4, alphas)
        assert out.shape == (2, 2)
        assert out[0, 1] == quadrature_gamma(4, 1.0)
        assert isinstance(quadrature_gamma(4, 1.0), float)

    @pytest.mark.parametrize("K", sorted(MPMATH_GAMMA))
    def test_matches_mpmath(self, K):
        for alpha, want in zip(MPMATH_ALPHAS, MPMATH_GAMMA[K]):
            assert abs(quadrature_gamma(K, alpha) / want - 1) <= 1e-10, (K, alpha)

    @pytest.mark.parametrize("K", [2, 3, 10, 50])
    def test_matches_scipy_quad(self, K):
        # the former rule, E[max g] by scipy's adaptive quad: (K - 1) / (E[max g] / alpha - 1)
        from scipy.integrate import quad
        from scipy.special import gammainc

        for alpha in np.geomspace(1e-3, 1e3, 121):
            e_max = quad(lambda x: 1.0 - gammainc(alpha, x) ** K, 0.0, np.inf)[0]
            want = (K - 1) / (e_max / alpha - 1.0)
            assert abs(quadrature_gamma(K, alpha) / want - 1) <= 5e-8, (K, alpha)

    def test_no_warning(self):
        alphas = np.geomspace(1e-3, 1e3, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (2, 3, 10, 50, 1000):
                assert np.all(np.isfinite(quadrature_gamma(K, alphas)))

    def test_parameter_errors(self):
        for K, alpha in [(1, 1.0), (3, 0.0), (3, -1.0), (3, np.nan), (3, [1.0, np.inf])]:
            with pytest.raises(ValueError):
                quadrature_gamma(K, alpha)


class TestVarphi:
    def test_uniform_segment_value(self):
        # from the K=2, alpha=1 gamma of 2: 4 / (2 * 3) = 2/3
        np.testing.assert_allclose(varphi(2, 1.0, 2.0), 2.0 / 3.0, rtol=1e-12)

    def test_input_validation(self):
        for args in [(1, 1.0, 1.0), (3, -1.0, 1.0), (3, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                varphi(*args)


class TestGammaTable:
    def _table(self):
        return GammaTable(
            K=4,
            alphas=np.array([0.5, 1.0, 2.0]),
            gammas=np.array([2.0, 3.0, 5.0]),
            m=100,
            seed=0,
        )

    def test_lookup_grid_point_exact(self):
        assert self._table().lookup(1.0) == 3.0

    def test_lookup_interpolates_linearly(self):
        np.testing.assert_allclose(self._table().lookup(1.5), 4.0, rtol=1e-12)
        np.testing.assert_allclose(self._table().lookup(0.75), 2.5, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [10.0, 0.1, 2.0 + 1e-12, [1.0, 2.5], np.nan])
    def test_lookup_outside_the_range_raises(self, alpha):
        t = self._table()
        with pytest.raises(ValueError, match=r"outside the tabulated range \[0.5, 2.0\]"):
            t.lookup(alpha)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            t(4, alpha)

    def test_call_is_lookup_for_its_own_k(self):
        t = self._table()
        assert t(4, 1.5) == t.lookup(1.5)
        np.testing.assert_array_equal(t(4, t.alphas), t.gammas)
        with pytest.raises(ValueError, match="gamma table K = 4 does not match K = 3"):
            t(3, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GammaTable(K=3, alphas=np.array([1.0, 0.5]), gammas=np.array([1.0, 1.0]), m=1, seed=0)
        with pytest.raises(ValueError):
            GammaTable(K=3, alphas=np.array([]), gammas=np.array([]), m=1, seed=0)

    @pytest.mark.parametrize("alphas", [[0.5, np.nan, 2.0], [0.5, 1.0, np.inf], [np.nan, 1.0, 2.0]],
                             ids=["nan", "inf-last", "nan-first"])
    def test_non_finite_alpha_knot_rejected(self, alphas):
        with pytest.raises(ValueError, match="alpha grid must be finite"):
            GammaTable(K=3, alphas=np.array(alphas), gammas=np.array([2.0, 2.5, 3.0]), m=0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_gamma_validation(self, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            GammaTable(K=3, alphas=np.array([1.0, 2.0]), gammas=np.array([2.0, bad]), m=1, seed=0)

    def test_from_dict_names_the_missing_key(self):
        d = self._table().to_dict()
        del d["gammas"]
        with pytest.raises(ValueError, match="missing gammas"):
            GammaTable.from_dict(d)

    @pytest.mark.parametrize("payload,message", [("[1, 2]", "must be a JSON object"), ('{"K": 3,', "Expecting")])
    def test_load_rejects_a_file_that_is_not_a_table(self, tmp_path, payload, message):
        path = tmp_path / "table.json"
        path.write_text(payload)
        with pytest.raises(ValueError, match=message):
            GammaTable.load(path)

    def test_json_roundtrip(self, tmp_path):
        # the format of the benchmark's fixture: to_dict as JSON, read back by load
        t = self._table()
        path = tmp_path / "table.json"
        path.write_text(json.dumps(t.to_dict()))
        back = GammaTable.load(path)
        assert back.K == t.K and back.m == t.m and back.seed == t.seed
        np.testing.assert_array_equal(back.alphas, t.alphas)
        np.testing.assert_array_equal(back.gammas, t.gammas)
        payload = json.loads(path.read_text())
        assert set(payload) == {"K", "m", "seed", "alphas", "gammas"}


class TestBuildGammaTable:
    def test_deterministic_and_worker_independent(self):
        grid = np.array([0.5, 1.0, 2.0])
        a = build_gamma_table(3, grid, m=3000, seed=11, workers=1)
        b = build_gamma_table(3, grid, m=3000, seed=11, workers=2)
        np.testing.assert_array_equal(a.gammas, b.gammas)

    def test_matches_pointwise_estimates(self):
        grid = np.array([0.8, 1.6])
        table = build_gamma_table(3, grid, m=2000, seed=12, workers=1)
        children = np.random.SeedSequence(12).spawn(2)
        for i in range(2):
            direct = estimate_gamma(3, float(grid[i]), 2000, np.random.default_rng(children[i]))
            assert table.gammas[i] == direct

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_gamma_table(3, np.array([]), m=100, seed=0)

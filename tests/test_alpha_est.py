import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from simplexnest import (
    Dataset,
    Kernel,
    SimplexNest,
    dirichlet_covariance,
    generate,
    sample_vertices,
)
from simplexnest.alpha_est import (
    _moments,
    _reduced_moments,
    _solve_alpha,
    corrected_covariance,
    estimate_alpha,
    gmm_objective,
)
from simplexnest.extension import GammaTable, build_gamma_table, quadrature_gamma, varphi
from simplexnest.numerics import sample_covariance
from simplexnest.vlad import fit, fit_auto


def _data(kernel, D=100, K=10, alpha=2.0, n=20_000, seed=1):
    rng = np.random.default_rng(seed)
    V = sample_vertices(D, K, kernel, rng)
    model = SimplexNest(V, alpha, kernel)
    return model, generate(model, n, rng)


@pytest.fixture(scope="module")
def table_k5():
    return build_gamma_table(5, np.geomspace(0.5, 5.0, 8), m=10_000, seed=5, workers=2)


class TestCorrectedCovariance:
    def test_noiseless_is_plain_sample_covariance(self):
        _, data = _data(Kernel.noiseless(), D=20, K=4, n=500)
        tgt = corrected_covariance(data, 4)
        np.testing.assert_array_equal(tgt.sigma_tilde, sample_covariance(data.observations))

    def test_gaussian_noise_variance_estimate(self):
        model, data = _data(Kernel.gaussian(1.0), n=20_000)
        tgt = corrected_covariance(data, 10)
        assert abs(tgt.correction_meta["sigma2_hat"] - 1.0) < 0.05
        BSB = model.vertices @ dirichlet_covariance(10, 2.0) @ model.vertices.T
        rel = np.linalg.norm(tgt.sigma_tilde - BSB) / np.linalg.norm(BSB)
        assert rel < 0.10

    def test_poisson_mean_subtraction(self):
        model, data = _data(Kernel.poisson(), n=30_000)
        tgt = corrected_covariance(data, 10)
        BSB = model.vertices @ dirichlet_covariance(10, 2.0) @ model.vertices.T
        rel = np.linalg.norm(tgt.sigma_tilde - BSB) / np.linalg.norm(BSB)
        assert rel < 0.10
        # the correction is exactly the diagonal of column means
        raw = sample_covariance(data.observations)
        np.testing.assert_array_equal(
            tgt.sigma_tilde, raw - np.diag(data.observations.mean(axis=0))
        )

    def test_multinomial_inverts_the_mixing_identity(self):
        model, data = _data(Kernel.multinomial(200), D=60, K=5, n=30_000, seed=2)
        N = 200
        X = data.observations / data.divisor
        sigma_hat = sample_covariance(X)
        m = X.mean(axis=0)
        expected = (sigma_hat - np.diag(m) / N + np.outer(m, m) / N) / (1.0 - 1.0 / N)
        tgt = corrected_covariance(data, 5)
        np.testing.assert_array_equal(tgt.sigma_tilde, expected)
        BSB = model.vertices @ dirichlet_covariance(5, 2.0) @ model.vertices.T
        rel = np.linalg.norm(tgt.sigma_tilde - BSB) / np.linalg.norm(BSB)
        assert rel < 0.10

    def test_parameter_errors(self):
        one_trial = Dataset(np.eye(4)[:3], Kernel.multinomial(1))
        with pytest.raises(ValueError, match="N > 1"):
            corrected_covariance(one_trial, 2)
        tiny = Dataset(np.ones((1, 4)), Kernel.noiseless())
        with pytest.raises(ValueError):
            corrected_covariance(tiny, 2)
        _, narrow = _data(Kernel.gaussian(1.0), D=4, K=5, n=100, seed=4)
        with pytest.raises(ValueError, match="trailing"):
            corrected_covariance(narrow, 5)


class TestEstimateAlpha:
    def test_recovers_alpha_from_analytic_target(self, table_k5):
        # target constructed exactly from the fitted centroids at a grid
        # alpha: the objective is zero at the truth
        _, data = _data(Kernel.noiseless(), D=30, K=5, n=3000, seed=6)
        f = fit(data, 5, gamma=1.0, rng=np.random.default_rng(7))
        alpha0 = float(table_k5.alphas[3])
        gamma0 = float(table_k5.gammas[3])
        B0 = f.center[:, None] + gamma0 * (f.cvt_centroids - f.center[:, None])
        target_matrix = B0 @ dirichlet_covariance(5, alpha0) @ B0.T
        tgt = corrected_covariance(data, 5)
        analytic = type(tgt)(sigma_tilde=target_matrix, kernel=tgt.kernel, correction_meta={})
        alpha_hat = estimate_alpha(f, analytic, table_k5, search=(0.5, 5.0))
        assert abs(alpha_hat - alpha0) / alpha0 < 1e-3

    def test_objective_worse_far_from_truth(self, table_k5):
        _, data = _data(Kernel.noiseless(), D=30, K=5, n=10_000, seed=8)
        f = fit(data, 5, gamma=1.0, rng=np.random.default_rng(9))
        tgt = corrected_covariance(data, 5)
        at_truth, far = gmm_objective(f, tgt, table_k5, [2.0, 4.9])
        assert far > at_truth

    def test_objective_continuous_on_grid(self, table_k5):
        _, data = _data(Kernel.noiseless(), D=30, K=5, n=2000, seed=10)
        f = fit(data, 5, gamma=1.0, rng=np.random.default_rng(11))
        tgt = corrected_covariance(data, 5)
        grid = np.linspace(0.6, 4.8, 200)
        vals = gmm_objective(f, tgt, table_k5, grid)
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.05 * (vals.max() - vals.min() + 1e-12) + 1e-9

    def test_search_interval_validation(self, table_k5):
        _, data = _data(Kernel.noiseless(), D=30, K=5, n=2000, seed=12)
        f = fit(data, 5, gamma=1.0, rng=np.random.default_rng(13))
        tgt = corrected_covariance(data, 5)
        with pytest.raises(ValueError):
            estimate_alpha(f, tgt, table_k5, search=(2.0, 1.0))
        with pytest.raises(ValueError, match="outside the tabulated range"):
            estimate_alpha(f, tgt, table_k5, search=(0.01, 5.0))
        wrong_k = GammaTable(K=7, alphas=np.array([1.0, 2.0]), gammas=np.array([2.0, 3.0]), m=1, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            estimate_alpha(f, tgt, wrong_k, search=(1.0, 2.0))

    def test_seed_spread_shrinks_with_sample_size(self, table_k5):
        # quadrupling n roughly halves the interquartile range (slack 1.5x)
        def iqr(n):
            hats = []
            for s in range(8):
                rng = np.random.default_rng([s, 55])
                V = sample_vertices(50, 5, Kernel.noiseless(), rng)
                model = SimplexNest(V, 2.0, Kernel.noiseless())
                data = generate(model, n, rng)
                f = fit_auto(data, 5, table_k5, alpha_search=(0.5, 5.0),
                             rng=np.random.default_rng([s, 56]))
                hats.append(f.alpha)
            q75, q25 = np.percentile(hats, [75, 25])
            return q75 - q25

        assert iqr(10_000) <= 0.75 * iqr(2500)


def _reference_objective(fit, target, table, alphas):
    """The D x D form: build B_hat S B_hat^T at each alpha and subtract."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    gammas = np.interp(alphas, table.alphas, table.gammas)
    C, c0 = fit.cvt_centroids, fit.center[:, None]
    out = np.empty(alphas.shape)
    for i, (a, g) in enumerate(zip(alphas, gammas)):
        B_hat = c0 + g * (C - c0)
        M = B_hat @ dirichlet_covariance(C.shape[1], a) @ B_hat.T
        out[i] = np.linalg.norm(M - target.sigma_tilde, "fro")
    return out


def _reference_estimate(fit, target, table, search):
    """A 64-point log-spaced scan, then golden section in log(alpha) to 1e-4."""
    grid = np.geomspace(search[0], search[1], 64)
    best = int(np.argmin(_reference_objective(fit, target, table, grid)))
    a = np.log(grid[max(best - 1, 0)])
    b = np.log(grid[min(best + 1, grid.size - 1)])

    def f(log_alpha):
        return float(_reference_objective(fit, target, table, np.exp(log_alpha))[0])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return float(np.exp((a + b) / 2.0))


_ORACLE_KERNELS = [Kernel.noiseless(), Kernel.gaussian(0.5), Kernel.poisson(), Kernel.multinomial(500)]


def _base_fit(kernel, alpha, seed):
    _, data = _data(kernel, D=100, K=5, alpha=alpha, n=4000, seed=seed)
    f = fit(data, 5, gamma=1.0, rng=np.random.default_rng(seed + 1))
    return f, corrected_covariance(data, 5)


@pytest.fixture(scope="module")
def oracle_fits():
    cases = [(kern, alpha) for kern in _ORACLE_KERNELS for alpha in (1.0, 3.0)]
    return [_base_fit(kern, alpha, 20 + 2 * i) for i, (kern, alpha) in enumerate(cases)]


class TestClosedFormAgainstScan:
    @pytest.mark.filterwarnings("error")  # every fit lands inside the search interval
    def test_alpha_matches_scan_and_golden_section(self, oracle_fits, table_k5):
        assert len(oracle_fits) == 8
        for f, tgt in oracle_fits:
            new = estimate_alpha(f, tgt, table_k5, search=(0.5, 5.0))
            ref = _reference_estimate(f, tgt, table_k5, (0.5, 5.0))
            assert abs(np.log(new) - np.log(ref)) <= 1e-4, (tgt.kernel.name, new, ref)

    def test_objective_matches_dense_form(self, oracle_fits, table_k5):
        grid = np.geomspace(0.5, 5.0, 50)
        for f, tgt in oracle_fits:
            new = gmm_objective(f, tgt, table_k5, grid)
            ref = _reference_objective(f, tgt, table_k5, grid)
            np.testing.assert_allclose(new, ref, rtol=0,
                                       atol=1e-6 * np.linalg.norm(tgt.sigma_tilde))


class TestSearchEdge:
    def test_pure_noise_warns_and_returns_the_edge(self):
        table = build_gamma_table(4, np.geomspace(0.02, 10.0, 6), m=5000, seed=3, workers=1)
        noise = np.random.default_rng(0).standard_normal((2000, 50))
        data = Dataset(noise, Kernel.gaussian(1.0))
        with pytest.warns(RuntimeWarning, match=r"phi\* = .* outside the range of phi") as rec:
            f = fit_auto(data, 4, table, rng=np.random.default_rng(1))
        assert len(rec) == 1
        assert "edge alpha = 0.02" in str(rec[0].message)
        assert f.alpha == 0.02

    def test_warning_names_the_callers_line(self):
        noise = np.random.default_rng(0).standard_normal((2000, 50))
        data = Dataset(noise, Kernel.gaussian(1.0))
        with pytest.warns(RuntimeWarning, match="edge alpha = 0.02") as rec:
            fit_auto(data, 4, rng=np.random.default_rng(1))
        assert [w.filename for w in rec] == [__file__]
        base = fit(data, 4, gamma=1.0, rng=np.random.default_rng(1))
        with pytest.warns(RuntimeWarning, match="edge alpha = 0.02") as rec:
            estimate_alpha(base, corrected_covariance(data, 4), quadrature_gamma)
        assert [w.filename for w in rec] == [__file__]

    @pytest.mark.filterwarnings("error")
    def test_normal_fit_does_not_warn(self, table_k5):
        _, data = _data(Kernel.gaussian(1.0), D=40, K=5, alpha=2.0, n=5000, seed=30)
        f = fit_auto(data, 5, table_k5, alpha_search=(0.5, 5.0), rng=np.random.default_rng(31))
        assert 0.5 < f.alpha < 5.0


def _phi_ends(K, gamma, lo, hi):
    return [varphi(K, a, gamma(K, a)) for a in (lo, hi)]


def _assert_scipy_root(K, gamma, lo, hi, where):
    """``_solve_alpha`` at phi* a fraction ``where`` up the phi-curve against scipy's brentq:
    the same root to within brentq's default tolerance, 2e-12 + 4 eps alpha."""
    ends = _phi_ends(K, gamma, lo, hi)
    phi_star = min(max(ends[0] + where * (ends[1] - ends[0]), ends[0]), ends[1])
    want = scipy_brentq(lambda a: varphi(K, a, gamma(K, a)) - phi_star, lo, hi)
    got = _solve_alpha(K, 1.0, phi_star, gamma, (lo, hi))
    assert abs(got - want) <= 2e-12 + 4 * np.finfo(float).eps * got, (K, where, got, want)


class TestSolveAlphaAgainstScipy:
    """The bisection of ``_solve_alpha`` with scipy's brentq as the oracle."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(2, 12), st.floats(0.05, 0.95))
    def test_same_root_on_the_quadrature_phi_curve(self, K, where):
        _assert_scipy_root(K, quadrature_gamma, 0.02, 10.0, where)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_same_root_on_a_gamma_table_phi_curve(self, where):
        alphas = np.geomspace(0.1, 5.0, 12)
        table = GammaTable(K=10, alphas=alphas, gammas=quadrature_gamma(10, alphas), m=0, seed=0)
        _assert_scipy_root(10, table, 0.1, 5.0, where)

    @pytest.mark.filterwarnings("error")
    def test_root_at_an_end_or_a_midpoint(self):
        lo, hi = 0.02, 10.0
        for where in (0.0, 1.0):  # phi* = phi at an end: no edge warning
            _assert_scipy_root(3, quadrature_gamma, lo, hi, where)
        mid = (lo + hi) / 2
        assert _solve_alpha(3, 1.0, varphi(3, mid, quadrature_gamma(3, mid)), quadrature_gamma,
                            (lo, hi)) == mid

    def test_nan_phi_raises(self):
        def gamma(K, a):
            return math.nan if 0.02 < a < 10.0 else quadrature_gamma(K, a)

        phi_star = sum(_phi_ends(4, gamma, 0.02, 10.0)) / 2
        with pytest.raises(ValueError, match="phi is NaN"):
            _solve_alpha(4, 1.0, phi_star, gamma, (0.02, 10.0))

    @pytest.mark.filterwarnings("error")
    def test_nan_phi_at_an_end_raises(self):
        # NaN compares false, so a NaN end once failed the bracket test and returned an edge
        def gamma(K, a):
            return math.nan if a < 0.05 else quadrature_gamma(K, a)

        with pytest.raises(ValueError, match=r"phi is NaN at the search end alpha = 0\.02$"):
            _solve_alpha(4, 1.0, 0.1, gamma, (0.02, 10.0))

    def test_both_edges_warn(self):
        ends = _phi_ends(4, quadrature_gamma, 0.02, 10.0)
        for phi_star, edge, text in ((ends[0] / 2, 0.02, "0.02"), (2 * ends[1], 10.0, "10")):
            with pytest.warns(RuntimeWarning, match=f"outside the range of phi .*edge alpha = {text}$"):
                assert _solve_alpha(4, 1.0, phi_star, quadrature_gamma, (0.02, 10.0)) == edge


_REDUCED_KERNELS = [Kernel.noiseless(), Kernel.gaussian(1.0), Kernel.poisson(), Kernel.multinomial(500)]


class TestReducedMoments:
    """fit_auto's moments from the fit's own factors against the D x D oracle."""

    @pytest.mark.parametrize("D,K", [(60, 5), (300, 10)])
    @pytest.mark.parametrize("kernel", _REDUCED_KERNELS, ids=lambda k: k.name)
    def test_matches_the_dense_oracle(self, kernel, D, K):
        _, data = _data(kernel, D=D, K=K, n=3000, seed=60 + K)
        base = fit(data, K, gamma=1.0, rng=np.random.default_rng(61))
        target = corrected_covariance(data, K)
        aa, at, _ = _moments(base, target)
        np.testing.assert_allclose(_reduced_moments(base, kernel), (aa, at), rtol=1e-10)
        if kernel.name == "gaussian":
            Xbar = data.observations - base.center
            s = base.factors.singular
            # the fit sums ||Xbar||_F^2 over centred blocks, in another order
            trace_identity = (float(np.vdot(Xbar, Xbar)) - float(s @ s)) / (data.n * (D - K + 1))
            assert base.sigma2_hat == pytest.approx(trace_identity, rel=1e-13)
            assert base.sigma2_hat == pytest.approx(target.correction_meta["sigma2_hat"], rel=1e-12)
        else:
            assert base.sigma2_hat is None
        reference = estimate_alpha(base, target, quadrature_gamma)
        auto = fit_auto(data, K, rng=np.random.default_rng(61))
        assert abs(np.log(auto.alpha) - np.log(reference)) <= 1e-10

    def test_fit_auto_forms_no_dxd_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("D x D covariance formed")

        monkeypatch.setattr("simplexnest.alpha_est.corrected_covariance", forbidden)
        monkeypatch.setattr("simplexnest.alpha_est.sample_covariance", forbidden)
        monkeypatch.setattr("simplexnest.numerics.sample_covariance", forbidden)
        for kernel in _REDUCED_KERNELS:
            _, data = _data(kernel, D=30, K=4, n=1500, seed=70)
            assert 0.02 <= fit_auto(data, 4, rng=np.random.default_rng(71)).alpha <= 10.0

    def test_fit_auto_keeps_the_correction_errors(self):
        _, one_trial = _data(Kernel.multinomial(1), D=20, K=3, n=200, seed=73)
        with pytest.raises(ValueError, match="N > 1"):
            fit_auto(one_trial, 3, rng=np.random.default_rng(0))
        _, narrow = _data(Kernel.gaussian(1.0), D=4, K=5, n=100, seed=4)
        with pytest.raises(ValueError, match="trailing"):
            fit_auto(narrow, 5, rng=np.random.default_rng(0))
        narrower = Dataset(np.random.default_rng(5).standard_normal((100, 3)), Kernel.gaussian(1.0))
        with pytest.raises(ValueError):
            fit_auto(narrower, 5, rng=np.random.default_rng(0))

    def test_fit_auto_raises_before_the_base_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr("simplexnest.vlad.truncated_svd", lambda *a, **k: calls.append("svd"))
        monkeypatch.setattr("simplexnest.vlad.kmeans", lambda *a, **k: calls.append("kmeans"))
        _, one_trial = _data(Kernel.multinomial(1), D=20, K=3, n=200, seed=73)
        with pytest.raises(ValueError, match="N > 1"):
            fit_auto(one_trial, 3, rng=np.random.default_rng(0))
        _, narrow = _data(Kernel.gaussian(1.0), D=4, K=5, n=100, seed=4)
        with pytest.raises(ValueError, match="trailing"):
            fit_auto(narrow, 5, rng=np.random.default_rng(0))
        assert calls == []


@pytest.fixture(scope="module")
def noiseless_k5():
    _, data = _data(Kernel.noiseless(), D=30, K=5, n=2000, seed=40)
    return fit(data, 5, gamma=1.0, rng=np.random.default_rng(41)), corrected_covariance(data, 5)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)))
def test_estimate_alpha_ignores_centroid_order(noiseless_k5, table_k5, perm):
    f, tgt = noiseless_k5
    permuted = replace(f, cvt_centroids=f.cvt_centroids[:, list(perm)],
                       vertices=f.vertices[:, list(perm)])
    a = estimate_alpha(f, tgt, table_k5, search=(0.5, 5.0))
    b = estimate_alpha(permuted, tgt, table_k5, search=(0.5, 5.0))
    assert b == pytest.approx(a, rel=1e-10)

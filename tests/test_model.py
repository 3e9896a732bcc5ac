import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplexnest
from simplexnest import numerics
from simplexnest import (
    Dataset,
    DatasetTruth,
    Kernel,
    SimplexNest,
    dirichlet_covariance,
    generate,
    load_dataset,
    sample_vertices,
    sample_weights,
    save_dataset,
    skew_simplex,
)


class TestSampleWeights:
    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        W = sample_weights(5, 0.7, 1000, rng)
        assert np.all(W >= 0)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_marginal_variance(self):
        # Dir_2(1) marginals are Beta(1,1) = uniform, variance 1/12
        rng = np.random.default_rng(1)
        W = sample_weights(2, 1.0, 1_000_000, rng)
        assert abs(W[:, 0].var() - 1.0 / 12.0) < 0.002

    def test_covariance_matches_closed_form(self):
        # Monte Carlo oracle for the closed form P / (K (K alpha + 1))
        rng = np.random.default_rng(2)
        K, alpha = 10, 2.0
        W = sample_weights(K, alpha, 1_000_000, rng)
        mc_cov = np.cov(W.T, bias=True)
        np.testing.assert_allclose(mc_cov, dirichlet_covariance(K, alpha), atol=1e-3)

    def test_vector_alpha_mean(self):
        rng = np.random.default_rng(3)
        a = np.array([0.5, 1.0, 3.5])
        W = sample_weights(3, a, 200_000, rng)
        np.testing.assert_allclose(W.mean(axis=0), a / a.sum(), atol=2e-3)

    def test_parameter_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_weights(1, 1.0, 10, rng)
        with pytest.raises(ValueError):
            sample_weights(3, 0.0, 10, rng)
        with pytest.raises(ValueError):
            sample_weights(3, [1.0, -1.0, 1.0], 10, rng)
        with pytest.raises(ValueError):
            sample_weights(3, 1.0, 0, rng)

    def test_tiny_alpha_rows_still_valid(self):
        rng = np.random.default_rng(4)
        W = sample_weights(3, 0.005, 50_000, rng)
        assert np.all(np.isfinite(W))
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_alpha_where_every_draw_underflows(self):
        # every Gamma(1e-12) draw is 0.0; in a subprocess with a timeout, a sampler
        # that redraws such rows for ever fails here instead of hanging the suite
        code = """
import numpy as np
from simplexnest import sample_weights
W = sample_weights(3, 1e-12, 5, np.random.default_rng(5))
assert W.shape == (5, 3) and np.isfinite(W).all() and (W >= 0).all(), W
assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12, W
"""
        src = str(Path(simplexnest.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr


class TestDirichletCovariance:
    def test_k2_uniform(self):
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 12.0
        np.testing.assert_allclose(dirichlet_covariance(2, 1.0), expected, atol=1e-15)

    def test_k3_uniform(self):
        S = dirichlet_covariance(3, 1.0)
        np.testing.assert_allclose(np.diag(S), 1.0 / 18.0, atol=1e-15)
        assert abs(S[0, 1] + 1.0 / 36.0) < 1e-15

    def test_structure(self):
        S = dirichlet_covariance(7, 0.3)
        np.testing.assert_allclose(S, S.T, atol=1e-15)
        np.testing.assert_allclose(S.sum(axis=1), 0.0, atol=1e-15)
        assert np.linalg.matrix_rank(S) == 6

    def test_rejects_vector_alpha(self):
        with pytest.raises(ValueError):
            dirichlet_covariance(3, np.array([1.0, 2.0, 3.0]))


class TestSkewSimplex:
    def test_identity_at_one(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(skew_simplex(V, 1.0, rng), V)

    def test_vertices_contract_toward_mean(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(6, 4))
        C = V.mean(axis=1, keepdims=True)
        V2 = skew_simplex(V, 0.5, np.random.default_rng(7))
        ratios = np.linalg.norm(V2 - C, axis=0) / np.linalg.norm(V - C, axis=0)
        assert np.all((ratios >= 0.5) & (ratios <= 1.0))
        # each new vertex lies on the segment [C, beta_k]
        for k in range(4):
            d_old = (V[:, k] - C[:, 0]) / np.linalg.norm(V[:, k] - C[:, 0])
            d_new = (V2[:, k] - C[:, 0]) / np.linalg.norm(V2[:, k] - C[:, 0])
            np.testing.assert_allclose(d_old, d_new, atol=1e-12)

    def test_parameter_errors(self):
        rng = np.random.default_rng(0)
        V = rng.normal(size=(3, 3))
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                skew_simplex(V, bad, rng)


class TestSampleVertices:
    def test_multinomial_columns_on_simplex(self):
        V = sample_vertices(50, 4, Kernel.multinomial(10), np.random.default_rng(8))
        assert np.all(V >= 0)
        np.testing.assert_allclose(V.sum(axis=0), 1.0, atol=1e-12)

    def test_poisson_positive(self):
        V = sample_vertices(40, 5, Kernel.poisson(), np.random.default_rng(9))
        assert np.all(V > 0)

    def test_gaussian_entry_variance_is_K(self):
        # 10^4 entries; sampling noise on the variance is ~1.4%
        V = sample_vertices(1000, 10, Kernel.gaussian(1.0), np.random.default_rng(10))
        assert abs(V.var() - 10.0) / 10.0 < 0.05


class TestSimplexNestValidation:
    def test_rejects_degenerate(self):
        V = np.zeros((4, 3))
        V[:, 1] = 1.0
        V[:, 2] = 0.5  # collinear with the first two columns
        with pytest.raises(ValueError, match="degenerate"):
            SimplexNest(V, 1.0, Kernel.noiseless())

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            SimplexNest(np.random.default_rng(0).normal(size=(1, 3)), 1.0, Kernel.noiseless())

    def test_rejects_bad_kernel_domain(self):
        rng = np.random.default_rng(11)
        V = rng.normal(size=(5, 3))  # has negatives
        with pytest.raises(ValueError):
            SimplexNest(V, 1.0, Kernel.poisson())
        with pytest.raises(ValueError):
            SimplexNest(V, 1.0, Kernel.multinomial(5))

    def test_rejects_bad_alpha(self):
        V = sample_vertices(5, 3, Kernel.noiseless(), np.random.default_rng(12))
        with pytest.raises(ValueError):
            SimplexNest(V, -1.0, Kernel.noiseless())
        with pytest.raises(ValueError):
            SimplexNest(V, [1.0, 2.0], Kernel.noiseless())  # wrong length

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("binomial")
        with pytest.raises(ValueError):
            Kernel.gaussian(0.0)
        with pytest.raises(ValueError):
            Kernel.multinomial(0)


def _model(kernel, D=30, K=4, alpha=2.0, seed=0):
    V = sample_vertices(D, K, kernel, np.random.default_rng(seed))
    return SimplexNest(V, alpha, kernel)


class TestGenerate:
    def test_noiseless_is_exact(self):
        model = _model(Kernel.noiseless())
        data = generate(model, 200, np.random.default_rng(13))
        np.testing.assert_array_equal(
            data.observations, data.truth.weights @ model.vertices.T
        )

    def test_multinomial_rows_sum_to_trials(self):
        model = _model(Kernel.multinomial(57), D=40)
        data = generate(model, 300, np.random.default_rng(14))
        assert np.all(data.observations.sum(axis=1) == 57)
        assert np.all(data.observations == np.round(data.observations))

    def test_multinomial_draws_match_out_of_place_probabilities(self):
        # generate divides the means by their row sums in place; the draws are those of
        # the probabilities computed into a new array from the same stream
        model = _model(Kernel.multinomial(57), D=40)
        data = generate(model, 300, np.random.default_rng(14))
        rng = np.random.default_rng(14)
        mu = sample_weights(model.n_vertices, model.alpha, 300, rng) @ model.vertices.T
        expected = rng.multinomial(57, mu / mu.sum(axis=1, keepdims=True)).astype(float)
        np.testing.assert_array_equal(data.observations, expected)

    def test_poisson_column_means_match_law_of_large_numbers(self):
        # column mean of X -> B E[theta] = (1/K) B 1 within 3 standard errors
        model = _model(Kernel.poisson(), D=500, K=10, alpha=2.0, seed=15)
        data = generate(model, 100_000, np.random.default_rng(17))
        X = data.observations
        truth = model.vertices.mean(axis=1)
        se = X.std(axis=0, ddof=1) / np.sqrt(X.shape[0])
        assert np.all(np.abs(X.mean(axis=0) - truth) <= 3.0 * se)

    @pytest.mark.parametrize("kernel", [
        Kernel.noiseless(), Kernel.gaussian(0.5), Kernel.poisson(), Kernel.multinomial(40),
    ])
    def test_empirical_mean_near_model_centroid(self, kernel):
        model = _model(kernel, D=40, K=5, seed=17)
        data = generate(model, 100_000, np.random.default_rng(18))
        X = data.observations / data.divisor
        se = X.std(axis=0, ddof=1) / np.sqrt(X.shape[0])
        assert np.all(np.abs(X.mean(axis=0) - model.vertices.mean(axis=1)) <= 3.0 * se)

    def test_noiseless_covariance_rank(self):
        model = _model(Kernel.noiseless(), D=20, K=4, seed=19)
        data = generate(model, 20_000, np.random.default_rng(20))
        Xbar = data.observations - data.observations.mean(axis=0)
        cov = Xbar.T @ Xbar / Xbar.shape[0]
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert eigs[2] > 1e-3          # K - 1 = 3 signal directions
        assert abs(eigs[3]) < 1e-9 * eigs[0]

    def test_reproducible(self):
        model = _model(Kernel.gaussian(1.0))
        d1 = generate(model, 500, np.random.default_rng(21))
        d2 = generate(model, 500, np.random.default_rng(21))
        np.testing.assert_array_equal(d1.observations, d2.observations)
        np.testing.assert_array_equal(d1.truth.weights, d2.truth.weights)


def _generate_reference(model: SimplexNest, n: int, rng: np.random.Generator) -> Dataset:
    """``generate`` as it was before it drew by row blocks, verbatim: the oracle of the blocked draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    K = model.n_vertices
    theta = sample_weights(K, model.alpha, n, rng)
    mu = theta @ model.vertices.T
    kern = model.kernel
    if kern.name == "noiseless":
        X = mu
    elif kern.name == "gaussian":
        X = mu + rng.normal(0.0, kern.sigma, size=mu.shape)
    elif kern.name == "poisson":
        X = rng.poisson(mu).astype(float)
    elif kern.name == "multinomial":
        mu /= mu.sum(axis=1, keepdims=True)  # the draw probabilities, in place
        X = rng.multinomial(kern.trials, mu)
        del mu  # free the (n, D) means before the float copy and the Dataset checks
        X = X.astype(float)
    else:  # pragma: no cover - Kernel validates names
        raise ValueError(f"unknown kernel {kern.name!r}")
    return Dataset(X, kern, truth=DatasetTruth(weights=theta, simplex=model))


_ALL_KERNELS = pytest.mark.parametrize("kernel", [
    Kernel.noiseless(), Kernel.gaussian(0.5), Kernel.poisson(), Kernel.multinomial(57),
], ids=["noiseless", "gaussian", "poisson", "multinomial"])


class TestBlockedGenerate:
    """``generate`` and the Dataset checks work one block of rows at a time."""

    @_ALL_KERNELS
    @pytest.mark.parametrize("block_rows", [1, 7, 200, 10**6])
    def test_draws_equal_the_one_shot_reference(self, monkeypatch, kernel, block_rows):
        # n = 200 rows of D = 30: 7 rows a block leaves a short last block
        model = _model(kernel, D=30, K=4, alpha=0.7, seed=40)
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", block_rows * 30 * 8)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        data = generate(model, 200, rng)
        ref = _generate_reference(model, 200, ref_rng)
        np.testing.assert_array_equal(data.observations, ref.observations)
        np.testing.assert_array_equal(data.truth.weights, ref.truth.weights)
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the stream goes on alike

    @pytest.mark.parametrize("case, message", [
        ("poisson-fraction", "non-negative integers"),
        ("poisson-negative", "non-negative integers"),
        ("counts-fraction", "non-negative counts"),  # the row sum kept: only the count check fails
        ("counts-negative", "non-negative counts"),
        ("counts-sum", "sum to the trial count"),
    ])
    def test_checks_reach_the_short_last_block(self, monkeypatch, case, message):
        kernel = Kernel.poisson() if case.startswith("poisson") else Kernel.multinomial(57)
        monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 7 * 30 * 8)
        X = generate(_model(kernel, D=30, K=4, seed=42), 200, np.random.default_rng(43)).observations

        def spoil(row):
            a, b = row[:2]
            row[:2] = {"poisson-fraction": (0.5, b), "poisson-negative": (-1.0, b),
                       "counts-fraction": (a + 0.5, b - 0.5), "counts-negative": (-1.0, a + b + 1.0),
                       "counts-sum": (a + 1.0, b)}[case]

        spoil(X[-1])  # in the last block, of 4 rows
        with pytest.raises(ValueError, match=message):
            Dataset(X, kernel)
        spoil(X[0])  # in the first and only block
        with pytest.raises(ValueError, match=message):
            Dataset(X[:7], kernel)

    def test_without_truth_checks_nothing_again(self, monkeypatch):
        data = generate(_model(Kernel.multinomial(57), D=30), 100, np.random.default_rng(44))
        checked = []
        monkeypatch.setattr(Dataset, "__post_init__", lambda d: checked.append(d))
        blind = data.without_truth()
        assert checked == []
        assert blind.truth is None and data.truth is not None
        assert blind.observations is data.observations and blind.kernel == data.kernel
        assert blind.without_truth() is blind

    @_ALL_KERNELS
    def test_generate_holds_one_copy_of_the_observations(self, kernel):
        # the one-shot draw held the means, the draw and its float copy at once (2.13 x for counts)
        model = _model(kernel, D=1500, K=10, alpha=0.5, seed=45)
        tracemalloc.start()
        try:
            data = generate(model, 2000, np.random.default_rng(46))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.observations.nbytes


class TestDataset:
    def test_truth_weight_validation(self):
        model = _model(Kernel.noiseless())
        X = np.zeros((2, 30))
        W = np.full((2, 4), 0.3)  # rows do not sum to 1
        with pytest.raises(ValueError):
            Dataset(X, Kernel.noiseless(), truth=DatasetTruth(W, model))

    def test_multinomial_row_sum_validation(self):
        X = np.array([[3.0, 2.0], [4.0, 2.0]])
        with pytest.raises(ValueError):
            Dataset(X, Kernel.multinomial(5))

    def test_poisson_integrality_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 1.0]]), Kernel.poisson())

    def test_divisor_normalization(self):
        model = _model(Kernel.multinomial(50), D=40)
        data = generate(model, 100, np.random.default_rng(22))
        assert data.divisor == 50.0
        np.testing.assert_allclose((data.observations / data.divisor).sum(axis=1), 1.0, atol=1e-12)
        for kernel in (Kernel.noiseless(), Kernel.gaussian(0.5), Kernel.poisson()):
            assert generate(_model(kernel, D=40), 10, np.random.default_rng(23)).divisor == 1.0

    def test_without_truth(self):
        model = _model(Kernel.noiseless())
        data = generate(model, 50, np.random.default_rng(23))
        assert data.truth is not None
        assert data.without_truth().truth is None


class TestSerialization:
    @pytest.mark.parametrize("kernel", [Kernel.gaussian(0.7), Kernel.multinomial(30)])
    def test_roundtrip_bit_exact(self, kernel, tmp_path):
        model = _model(kernel, D=12, K=3, alpha=[0.5, 1.0, 2.0], seed=24)
        data = generate(model, 60, np.random.default_rng(25))
        save_dataset(data, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(back.observations, data.observations)
        np.testing.assert_array_equal(back.truth.weights, data.truth.weights)
        np.testing.assert_array_equal(back.truth.simplex.vertices, model.vertices)
        np.testing.assert_array_equal(back.truth.simplex.alpha, model.alpha)
        assert back.kernel == data.kernel

    def test_truthless_roundtrip(self, tmp_path):
        data = Dataset(np.random.default_rng(26).normal(size=(20, 5)), Kernel.noiseless())
        save_dataset(data, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.truth is None
        np.testing.assert_array_equal(back.observations, data.observations)

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = _model(Kernel.noiseless(), seed=27)
        data = generate(model, 40, np.random.default_rng(28))
        save_dataset(data, tmp_path / "a")
        save_dataset(data, tmp_path / "b")
        assert (tmp_path / "a" / "X.csv").read_bytes() == (tmp_path / "b" / "X.csv").read_bytes()
        assert (tmp_path / "a" / "dataset.json").read_bytes() == (tmp_path / "b" / "dataset.json").read_bytes()

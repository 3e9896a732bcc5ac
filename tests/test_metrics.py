import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexnest import Dataset, Kernel, SimplexNest, generate, sample_vertices
from simplexnest.metrics import (
    EvalReport,
    _pairwise_column_distances,
    evaluate_fit,
    heldout_frobenius,
    heldout_likelihood,
    min_matching,
    simplex_volume,
)
from simplexnest.vlad import extend_rays, fit, simplex_least_squares


def _brute_force_max_form(M):
    K = M.shape[0]
    best = np.inf
    for p in itertools.permutations(range(K)):
        val = max(M[p[j], j] for j in range(K))
        if val < best:
            best = val
    return best


class TestMinMatching:
    def test_identical_sets(self):
        A = np.random.default_rng(0).normal(size=(5, 4))
        res = min_matching(A, A)
        assert res.distance == 0.0
        assert res.frobenius == 0.0
        np.testing.assert_array_equal(res.permutation, np.arange(4))

    def test_permuted_columns(self):
        A = np.random.default_rng(1).normal(size=(5, 4))
        perm = np.array([2, 0, 3, 1])
        res = min_matching(A[:, perm], A)
        assert res.distance == 0.0
        np.testing.assert_array_equal(res.permutation, np.argsort(perm))
        for k in range(4):
            np.testing.assert_array_equal(A[:, perm][:, res.permutation[k]], A[:, k])

    def test_one_dimensional_example(self):
        A = np.array([[0.0, 1.0]])
        B = np.array([[0.1, 1.0]])
        res = min_matching(A, B)
        np.testing.assert_allclose(res.distance, 0.1)
        np.testing.assert_allclose(res.frobenius, 0.1)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert min_matching(A, B).distance == min_matching(B, A).distance
        assert min_matching(A, B).frobenius == pytest.approx(min_matching(B, A).frobenius)

    def test_hungarian_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            K = int(rng.integers(2, 8))
            A = rng.normal(size=(4, K))
            B = rng.normal(size=(4, K))
            M = _pairwise_column_distances(A, B)
            res = min_matching(A, B)
            assert res.distance == _brute_force_max_form(M)
            assert max(M[res.permutation[k], k] for k in range(K)) == res.distance

    def test_large_k_bottleneck_consistency(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 9))
        B = rng.normal(size=(6, 9))
        res = min_matching(A, B)
        achieved = max(
            np.linalg.norm(A[:, res.permutation[k]] - B[:, k]) for k in range(9)
        )
        np.testing.assert_allclose(res.distance, achieved, rtol=1e-12)
        for _ in range(200):
            p = rng.permutation(9)
            val = max(np.linalg.norm(A[:, p[k]] - B[:, k]) for k in range(9))
            assert val >= res.distance - 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            min_matching(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            min_matching(np.zeros((3, 2)), np.zeros((4, 2)))


class TestHeldoutFrobenius:
    def test_points_inside_score_zero(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(6, 4))
        theta = rng.dirichlet(np.ones(4), size=40)
        assert heldout_frobenius(B, theta @ B.T) < 1e-7

    def test_segment_clamp(self):
        B = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(heldout_frobenius(B, np.array([[-1.0], [2.0]])), 1.0)

    def test_stretching_never_increases_score(self):
        rng = np.random.default_rng(6)
        B = rng.normal(size=(5, 3))
        X = rng.normal(size=(30, 5)) * 2.0
        centroid = B.mean(axis=1, keepdims=True)
        stretched = centroid + 2.0 * (B - centroid)
        assert heldout_frobenius(stretched, X) <= heldout_frobenius(B, X) + 1e-9

    def test_degenerate_rejected(self):
        B = np.ones((4, 3))
        with pytest.raises(ValueError):
            heldout_frobenius(B, np.zeros((2, 4)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        B = rng.normal(size=(5, 4))
        X = rng.normal(size=(20, 5))
        assert heldout_frobenius(B, X) == pytest.approx(heldout_frobenius(B[:, ::-1], X))


class TestSimplexVolume:
    def test_unit_segment(self):
        assert simplex_volume(np.array([[0.0, 1.0]])) == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        V = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, math.sqrt(3) / 2]])
        assert simplex_volume(V) == pytest.approx(math.sqrt(3) / 4)

    def test_unit_right_tetrahedron(self):
        V = np.hstack([np.zeros((3, 1)), np.eye(3)])
        assert simplex_volume(V) == pytest.approx(1.0 / 6.0)

    def test_rigid_motion_invariance_and_scaling(self):
        rng = np.random.default_rng(8)
        V = rng.normal(size=(5, 4))
        vol = simplex_volume(V)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        shift = rng.normal(size=(5, 1))
        assert simplex_volume(Q @ V + shift) == pytest.approx(vol)
        assert simplex_volume(V[:, ::-1]) == pytest.approx(vol)
        s = 1.7
        centroid = V.mean(axis=1, keepdims=True)
        assert simplex_volume(centroid + s * (V - centroid)) == pytest.approx(vol * s ** (4 - 1))

    def test_degenerate_is_zero(self):
        V = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        assert simplex_volume(V) == pytest.approx(0.0, abs=1e-12)


class TestHeldoutLikelihood:
    def test_uniform_multinomial_model_has_perplexity_D(self):
        D, N = 25, 30
        kern = Kernel.multinomial(N)
        V = sample_vertices(D, 3, kern, np.random.default_rng(9))
        model = SimplexNest(V, 1.0, kern)
        test = generate(model, 200, np.random.default_rng(10))
        uniform_vertices = np.full((D, 3), 1.0 / D)
        rep = heldout_likelihood(uniform_vertices, test)
        assert rep.kind == "perplexity"
        assert rep.value == pytest.approx(D, rel=1e-9)

    def test_truth_model_beats_uniform_model(self):
        D, N = 25, 30
        kern = Kernel.multinomial(N)
        V = sample_vertices(D, 3, kern, np.random.default_rng(11))
        model = SimplexNest(V, 1.0, kern)
        test = generate(model, 300, np.random.default_rng(12))
        truth_perp = heldout_likelihood(V, test).value
        uniform_perp = heldout_likelihood(np.full((D, 3), 1.0 / D), test).value
        assert truth_perp < uniform_perp

    def test_raw_count_perplexity_matches_normalized(self):
        D, N, K = 40, 200, 4
        kern = Kernel.multinomial(N)
        data = generate(SimplexNest(sample_vertices(D, K, kern, np.random.default_rng(13)), 0.5, kern),
                        4000, np.random.default_rng(14))
        train = Dataset(data.observations[:3000], kern)
        test = Dataset(data.observations[3000:], kern)
        scores = []
        for normalize in (True, False):
            f = fit(train, K, gamma=2.0, rng=np.random.default_rng(15), normalize=normalize)
            raw = extend_rays(f.center, f.cvt_centroids, f.gamma)  # normalized fits also renormalize
            scores.append(heldout_likelihood(raw, test, normalize=normalize).value)
            scores.append(evaluate_fit(raw, heldout=test, metrics=("likelihood",), normalize=normalize).perplexity)
        assert min(scores) >= 1.0
        np.testing.assert_allclose(scores, scores[0], rtol=1e-6)

    def test_poisson_nll_minimal_when_mean_equals_counts(self):
        # test rows equal the vertices, so projection returns them exactly
        counts = np.array([[4.0, 1.0, 7.0], [2.0, 9.0, 3.0]])
        B = counts.T.copy()
        test = Dataset(counts, Kernel.poisson())
        rep = heldout_likelihood(B, test)
        assert rep.kind == "nll"
        expected = np.mean([(x - x * np.log(x)).sum() for x in counts])
        assert rep.value == pytest.approx(expected, rel=1e-9)
        worse = heldout_likelihood(B * 1.5, test)
        assert worse.value > rep.value

    def test_gaussian_scores_mean_squared_residual(self):
        rng = np.random.default_rng(13)
        B = rng.normal(size=(4, 3))
        X = rng.normal(size=(10, 4)) * 3.0
        test = Dataset(X, Kernel.gaussian(1.0))
        rep = heldout_likelihood(B, test)
        assert rep.kind == "frobenius"
        from simplexnest.vlad import simplex_least_squares

        theta = simplex_least_squares(B, X)
        expected = (((X - theta @ B.T) ** 2).sum(axis=1)).mean()
        assert rep.value == pytest.approx(expected, rel=1e-9)

    def test_log_floor_counter(self):
        kern = Kernel.multinomial(10)
        counts = np.array([[5.0, 5.0, 0.0], [10.0, 0.0, 0.0]])
        test = Dataset(counts, kern)
        vertices = np.array([[1.0, 0.5], [0.0, 0.5], [0.0, 0.0]])  # zero rows force floors
        rep = heldout_likelihood(vertices, test)
        assert rep.floored > 0
        assert np.isfinite(rep.value)


class TestEvaluateFit:
    def test_metric_routing(self):
        kern = Kernel.noiseless()
        V = sample_vertices(10, 3, kern, np.random.default_rng(14))
        model = SimplexNest(V, 1.0, kern)
        data = generate(model, 2000, np.random.default_rng(15))
        heldout = generate(model, 200, np.random.default_rng(16))
        f = fit(data, 3, gamma=2.0, rng=np.random.default_rng(17))
        report = evaluate_fit(f, dataset=data, heldout=heldout,
                              metrics=("mm", "volume", "heldout", "likelihood"))
        assert report.mm_distance is not None and report.mm_distance >= 0
        assert report.mm_frobenius >= report.mm_distance  # stacked form dominates max form
        assert report.volume > 0
        assert report.frobenius_heldout >= 0
        assert report.nll is not None  # noiseless scores the squared residual
        d = report.to_dict()
        assert set(d) >= {"mm_distance", "volume", "frobenius_heldout"}

    def test_heldout_rows_projected_once(self, monkeypatch):
        kern = Kernel.poisson()
        V = sample_vertices(12, 3, kern, np.random.default_rng(20))
        heldout = generate(SimplexNest(V, 1.0, kern), 150, np.random.default_rng(21))
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return simplex_least_squares(*args, **kwargs)

        monkeypatch.setattr("simplexnest.metrics.simplex_least_squares", spy)
        report = evaluate_fit(V, heldout=heldout, metrics=("heldout", "likelihood"))
        assert len(calls) == 1
        assert report.frobenius_heldout == heldout_frobenius(V, heldout.fitting_matrix())
        assert report.nll == heldout_likelihood(V, heldout).value

    def test_missing_inputs_raise(self):
        V = np.random.default_rng(18).normal(size=(4, 3))
        with pytest.raises(ValueError, match="ground truth"):
            evaluate_fit(V, metrics=("mm",))
        with pytest.raises(ValueError, match="held-out"):
            evaluate_fit(V, metrics=("heldout",))
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate_fit(V, metrics=("bogus",))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(2, 9), st.data())
def test_min_matching_is_symmetric(D, K, data):
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    A = data.draw(arrays(np.float64, (D, K), elements=finite))
    B = data.draw(arrays(np.float64, (D, K), elements=finite))
    ab, ba = min_matching(A, B), min_matching(B, A)
    assert ab.distance == ba.distance
    assert ab.frobenius == pytest.approx(ba.frobenius, rel=1e-12, abs=1e-12)

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from simplexnest import Dataset, Kernel, SimplexNest, generate, min_matching, sample_vertices
from simplexnest.baselines import BaselineFit, gdm, load_vertices, save_baseline, spa
from simplexnest.numerics import kmeans
from simplexnest.vlad import _extended, _lexsorted_columns, extend_rays, fit


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
        # K-means on the counts, its centroids and the center divided by N
        X, N = data.observations, data.divisor
        km = kmeans(X, 3, restarts=8, rng=np.random.default_rng(27))
        raw = extend_rays(X.mean(axis=0) / N, km.centroids.T / N, 2.5)
        np.testing.assert_array_equal(f.vertices, raw[:, np.lexsort(raw[::-1])])
        assert f.vertices.min() < 0

    @pytest.mark.parametrize("kernel", [Kernel.noiseless(), Kernel.gaussian(0.3), Kernel.poisson()],
                             ids=["noiseless", "gaussian", "poisson"])
    def test_divisor_one_matches_the_copying_formula(self, kernel):
        # data with divisor 1 fit bit for bit as when gdm clustered a divided copy
        model = SimplexNest(sample_vertices(8, 3, kernel, np.random.default_rng(28)), 1.0, kernel)
        data = generate(model, 400, np.random.default_rng(29))
        f = gdm(data, 3, gamma=2.0, rng=np.random.default_rng(30))
        X = data.observations
        km = kmeans(X, 3, restarts=8, rng=np.random.default_rng(30))
        want = _extended(X.mean(axis=0), km.centroids.T, 2.0, onto_simplex=False)[0]
        np.testing.assert_array_equal(f.vertices, want)

    def test_coincident_vertices_warn(self):
        # 3 distinct points and K = 4: two centroids, and so two vertices, coincide
        X = np.repeat(np.random.default_rng(31).normal(size=(3, 6)), 5, axis=0)
        with pytest.warns(UserWarning, match="coincide") as record:
            f = gdm(Dataset(X, Kernel.noiseless()), 4, gamma=1.5, rng=np.random.default_rng(32))
        assert record[0].filename == __file__
        gaps = np.linalg.norm(f.vertices[:, :, None] - f.vertices[:, None, :], axis=0)
        assert gaps[~np.eye(4, dtype=bool)].min() == 0.0

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

    @pytest.mark.parametrize("data", [
        Dataset(np.outer(np.random.default_rng(13).uniform(1, 2, 50), np.arange(1.0, 7.0)),
                Kernel.noiseless()),
        Dataset(np.repeat([[7.0, 3.0, 0.0, 0.0], [0.0, 2.0, 4.0, 4.0]], 20, axis=0), Kernel.multinomial(10)),
    ], ids=["noiseless-rank-1", "multinomial-rank-2"])
    def test_rank_deficiency_error_matches_the_oracle(self, data):
        with pytest.raises(ValueError, match="rank deficiency") as want:
            _spa_oracle(data, 3)
        with pytest.raises(ValueError, match="rank deficiency") as got:
            spa(data, 3)
        assert str(got.value) == str(want.value)

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            spa(Dataset(np.ones((2, 4)), Kernel.noiseless()), 3)


def _spa_oracle(data: Dataset, K: int) -> BaselineFit:
    """Reference: ``spa`` as it ran by deflation, ``R - outer(R u, u)`` over an
    (n, D) copy of the observations divided by N, before the residual-norm
    updates; verbatim but for that division."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if data.n < K:
        raise ValueError(f"need n >= K observations, got n = {data.n}")
    X = data.observations / data.divisor
    R = np.array(X, dtype=float)
    scale = float(np.linalg.norm(R, axis=1).max())
    if scale == 0.0:
        raise ValueError("all-zero data has no extreme rows")
    chosen: list[int] = []
    for _ in range(K):
        norms = np.linalg.norm(R, axis=1)
        idx = int(np.argmax(norms))
        if norms[idx] <= 1e-12 * scale:
            raise ValueError(
                f"rank deficiency: only {len(chosen)} independent directions found, needed {K}"
            )
        chosen.append(idx)
        u = R[idx] / norms[idx]
        R = R - np.outer(R @ u, u)
    vertices = X[chosen].T
    order = _lexsorted_columns(vertices)
    return BaselineFit(
        vertices=vertices[:, order],
        method_tag="spa",
        meta={"rows": [chosen[i] for i in order]},
    )


def _oracle_top_two_gap(data: Dataset, K: int) -> float:
    """The least relative gap, over the oracle's K steps, between its two
    largest residual norms."""
    R = data.observations / data.divisor
    gaps = []
    for _ in range(K):
        norms = np.linalg.norm(R, axis=1)
        second, first = np.sort(norms)[-2:]
        gaps.append((first - second) / first)
        u = R[np.argmax(norms)] / first
        R = R - np.outer(R @ u, u)
    return min(gaps)


def _spa_case(kernel: str, family: str, K: int, D: int, n: int, seed: int) -> Dataset:
    """Mixtures of K vertices under one kernel. ``planted`` adds one row at
    each vertex; ``near_tie`` adds the K largest rows with their coordinates
    reversed, which keeps each row's norm up to rounding; ``near_rank``
    mixes K - 1 vertices and adds a direction 1e-9 of their size, so the
    last residuals are far below the rows."""
    rng = np.random.default_rng(seed)
    kern = {"noiseless": Kernel.noiseless(), "gaussian": Kernel.gaussian(0.05),
            "poisson": Kernel.poisson(), "multinomial": Kernel.multinomial(50)}[kernel]
    V = sample_vertices(D, K, kern, rng)
    if kern.name == "poisson":
        V = 20.0 * V
    weights = rng.dirichlet(np.full(K, 0.5 if family == "random" else 5.0), size=n)
    if family == "planted":
        weights = np.vstack([weights, np.eye(K)])
    means = weights @ V.T
    if family == "near_rank":
        means = weights[:, 1:] / weights[:, 1:].sum(axis=1, keepdims=True) @ V[:, 1:].T
        if kern.name in ("noiseless", "gaussian"):
            return Dataset(means + 1e-9 * np.outer(rng.normal(size=n), rng.normal(size=D)), kern)
    if kern.name == "gaussian":
        X = means + 0.05 * rng.normal(size=means.shape)
    elif kern.name == "poisson":
        X = rng.poisson(means).astype(float)
    elif kern.name == "multinomial":
        X = rng.multinomial(50, means / means.sum(axis=1, keepdims=True)).astype(float)
    else:
        X = means
    if family == "near_tie":
        top = np.argsort(np.linalg.norm(X, axis=1))[-K:]
        X = np.vstack([X, X[top, ::-1]])
    return Dataset(X, kern)


@settings(max_examples=120, deadline=None)
@given(kernel=st.sampled_from(["noiseless", "gaussian", "poisson", "multinomial"]),
       family=st.sampled_from(["random", "planted", "near_tie", "near_rank"]),
       K=st.integers(2, 5), extra_D=st.integers(1, 20), extra_n=st.integers(2, 60),
       seed=st.integers(0, 2**32 - 1))
def test_spa_picks_the_oracle_rows(kernel, family, K, extra_D, extra_n, seed):
    data = _spa_case(kernel, family, K, K + extra_D, K + extra_n, seed)
    try:
        want = _spa_oracle(data, K)
    except ValueError as err:  # counts can hold fewer than K directions
        with pytest.raises(ValueError, match="rank deficiency") as got:
            spa(data, K)
        assert str(got.value) == str(err)
        event("rank deficient: both raise")
        return
    got = spa(data, K)
    if got.meta["rows"] != want.meta["rows"] and _oracle_top_two_gap(data, K) <= 1e-10:
        event("the picks part at a near tie of the oracle's top two residual norms: either row accepted")
        return
    assert got.meta["rows"] == want.meta["rows"]
    np.testing.assert_array_equal(got.vertices, want.vertices)


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

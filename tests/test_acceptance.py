"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte-Carlo configurations are seeded, so every number asserted here is
reproducible; margins were chosen against the stated tolerances, never the
other way around.
"""

import csv
import itertools
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import simplexnest as sn
from simplexnest.alpha_est import corrected_covariance
from simplexnest.harness import ExperimentConfig, build_model, run_experiment
from simplexnest.metrics import _pairwise_column_distances, min_matching
from simplexnest.numerics import center, kmeans, truncated_svd
from simplexnest.vlad import simplex_least_squares


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_toy_triangle():
    start = time.perf_counter()
    kern = sn.Kernel.gaussian(0.1)
    gamma = sn.estimate_gamma(3, 2.5, 50_000, np.random.default_rng(42))
    V = sn.sample_vertices(3, 3, kern, np.random.default_rng(3))
    V = sn.skew_simplex(V, 0.5, np.random.default_rng(1))
    model = sn.SimplexNest(V, 2.5, kern)
    diam = model.diameter()
    vlad_rel, gdm_rel = [], []
    for s in range(20):
        data = sn.generate(model, 5000, np.random.default_rng([s, 5]))
        fv = sn.fit(data, 3, gamma=gamma, rng=np.random.default_rng([s, 6]))
        fg = sn.gdm(data, 3, gamma=gamma, rng=np.random.default_rng([s, 8]))
        vlad_rel.append(min_matching(fv.vertices, V).distance / diam)
        gdm_rel.append(min_matching(fg.vertices, V).distance / diam)
    elapsed = time.perf_counter() - start
    hits = int(np.sum(np.asarray(vlad_rel) <= 0.10))
    med_v, med_g = float(np.median(vlad_rel)), float(np.median(gdm_rel))
    ok = hits >= 18 and med_g > 2.0 * med_v and elapsed < 5.0
    _report(1, "toy triangle", ok,
            f"vlad<=0.10 diam in {hits}/20 seeds, median vlad={med_v:.4f}, "
            f"gdm={med_g:.4f} ({med_g / med_v:.1f}x), {elapsed:.1f}s < 5s")


def test_criterion_02_noiseless_consistency_rate():
    start = time.perf_counter()
    gamma = sn.estimate_gamma(4, 2.0, 100_000, np.random.default_rng(43))
    kern = sn.Kernel.noiseless()
    errors = {2000: [], 8000: []}
    for s in range(10):
        rng = np.random.default_rng([s, 11])
        V = sn.sample_vertices(100, 4, kern, rng)
        V = sn.skew_simplex(V, 0.5, rng)
        model = sn.SimplexNest(V, 2.0, kern)
        for n in (2000, 8000):
            data = sn.generate(model, n, np.random.default_rng([s, n]))
            f = sn.fit(data, 4, gamma=gamma, rng=np.random.default_rng([s, n, 3]))
            errors[n].append(min_matching(f.vertices, V).distance)
    elapsed = time.perf_counter() - start
    ratio = float(np.median(errors[8000]) / np.median(errors[2000]))
    ok = ratio <= 0.55 and elapsed < 30.0
    _report(2, "noiseless n^(-1/2) rate", ok,
            f"median error ratio (n=8000 / n=2000) = {ratio:.3f} <= 0.55, {elapsed:.1f}s < 30s")


def test_criterion_03_gamma_sanity():
    start = time.perf_counter()
    g2 = sn.estimate_gamma(2, 1.0, 1_000_000, np.random.default_rng(5), restarts=4)
    g3 = sn.estimate_gamma(3, 0.01, 100_000, np.random.default_rng(6))
    elapsed = time.perf_counter() - start
    ok = abs(g2 - 2.0) <= 0.01 and 0.95 <= g3 <= 1.05 and elapsed < 10.0
    _report(3, "gamma sanity", ok,
            f"gamma(2,1)={g2:.4f} in 2.00+-0.01, gamma(3,0.01)={g3:.4f} in [0.95,1.05], "
            f"{elapsed:.1f}s < 10s")


def test_criterion_04_phi_identifiability_curve(phi_curve_k10):
    start = time.perf_counter()
    K = 10
    alphas, gammas, ses = phi_curve_k10.alphas, phi_curve_k10.gammas, phi_curve_k10.stderrs
    phis = gammas**2 / (K * (K * alphas + 1.0))
    phi_se = 2.0 * gammas * ses / (K * (K * alphas + 1.0))
    diffs = np.diff(phis)
    slack = 2.0 * np.sqrt(phi_se[:-1] ** 2 + phi_se[1:] ** 2)
    violations = int(np.sum(diffs < -slack))
    slope_lo = float(np.polyfit(alphas[alphas <= 0.5], phis[alphas <= 0.5], 1)[0])
    slope_hi = float(np.polyfit(alphas[alphas >= 2.5], phis[alphas >= 2.5], 1)[0])
    elapsed = time.perf_counter() - start + phi_curve_k10.build_seconds
    ok = violations == 0 and slope_hi < 0.10 * slope_lo and elapsed < 60.0
    _report(4, "phi(alpha) identifiability", ok,
            f"0 monotonicity violations beyond 2 MC se (found {violations}), "
            f"slope ratio {slope_hi / slope_lo:.3f} < 0.10, {elapsed:.1f}s < 60s")


def test_criterion_05_alpha_recovery(phi_curve_k10):
    start = time.perf_counter()
    table = phi_curve_k10.table()
    search = (0.5, 5.0)

    def run(kernel, D):
        hats = []
        for s in range(10):
            rng = np.random.default_rng([s, 99])
            V = sn.sample_vertices(D, 10, kernel, rng)
            model = sn.SimplexNest(V, 2.0, kernel)
            data = sn.generate(model, 10_000, rng)
            f = sn.fit_auto(data, 10, table, alpha_search=search,
                            rng=np.random.default_rng([s, 7]))
            hats.append(f.alpha)
        return int(np.sum((np.asarray(hats) >= 1.6) & (np.asarray(hats) <= 2.4)))

    # noiseless at the quick-mode dimension; the noise kernels run at the
    # simulation protocol's D = 500, where the noise share of the top K-1
    # singular directions is small enough for the band (see notes ledger)
    hits_nl = run(sn.Kernel.noiseless(), 100)
    hits_ga = run(sn.Kernel.gaussian(1.0), 500)
    hits_po = run(sn.Kernel.poisson(), 500)
    elapsed = time.perf_counter() - start
    ok = hits_nl >= 8 and hits_ga >= 7 and hits_po >= 7 and elapsed < 180.0
    _report(5, "alpha recovery in [1.6, 2.4]", ok,
            f"noiseless {hits_nl}/10 (>=8), gaussian {hits_ga}/10 (>=7), "
            f"poisson {hits_po}/10 (>=7), {elapsed:.0f}s < 180s")


def test_criterion_06_covariance_correction_oracle():
    start = time.perf_counter()
    cases = [
        (sn.Kernel.noiseless(), 100, 0),
        (sn.Kernel.gaussian(1.0), 300, 1),
        (sn.Kernel.poisson(), 300, 0),
        (sn.Kernel.multinomial(200), 100, 0),
    ]
    rels = {}
    for kernel, D, seed in cases:
        rng = np.random.default_rng(seed)
        V = sn.sample_vertices(D, 10, kernel, rng)
        V = sn.skew_simplex(V, 0.5, rng)
        model = sn.SimplexNest(V, 2.0, kernel)
        data = sn.generate(model, 100_000, rng)
        target = corrected_covariance(data, 10)
        BSB = model.vertices @ sn.dirichlet_covariance(10, 2.0) @ model.vertices.T
        rels[kernel.name] = float(
            np.linalg.norm(target.sigma_tilde - BSB, "fro") / np.linalg.norm(BSB, "fro")
        )
    elapsed = time.perf_counter() - start
    ok = all(r <= 0.05 for r in rels.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in rels.items())
    _report(6, "corrected covariance within 5%", ok, f"{detail} (all <= 0.05), {elapsed:.0f}s < 60s")


def _scaled_lloyd(Xbar, Sdag, init, max_iter=300):
    """Brute-force Lloyd under the covariance-pseudoinverse metric."""
    n = Xbar.shape[0]
    C = init.copy()
    prev = None
    for _ in range(max_iter):
        diff = Xbar[:, None, :] - C[None, :, :]
        d2 = np.einsum("nkd,de,nke->nk", diff, Sdag, diff)
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=C.shape[0])
        if np.any(counts == 0):
            nearest = d2[np.arange(n), assign]
            for k in np.flatnonzero(counts == 0):
                far = int(np.argmax(nearest))
                assign[far] = k
                nearest[far] = 0.0
            counts = np.bincount(assign, minlength=C.shape[0])
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        C = np.vstack([Xbar[assign == k].mean(axis=0) for k in range(C.shape[0])])
    return assign


def test_criterion_07_scaled_kmeans_equivalence():
    rng = np.random.default_rng(2024)
    matches = 0
    for _ in range(25):
        K = int(rng.integers(2, 5))
        D = int(rng.integers(K, 11))
        n = int(rng.integers(50, 201))
        V = sn.sample_vertices(D, K, sn.Kernel.noiseless(), rng)
        model = sn.SimplexNest(V, float(rng.uniform(0.3, 3.0)), sn.Kernel.noiseless())
        data = sn.generate(model, n, rng)
        Xbar, _ = center(data.observations)
        fac = truncated_svd(Xbar, K - 1)
        idx = rng.choice(n, size=K, replace=False)
        reduced = kmeans(fac.left, K, restarts=0, extra_inits=(fac.left[idx],))
        S = (Xbar.T @ Xbar) / n
        lam, Q = np.linalg.eigh(S)
        Sdag = (Q[:, -(K - 1):] / lam[-(K - 1):]) @ Q[:, -(K - 1):].T
        raw = _scaled_lloyd(Xbar, Sdag, Xbar[idx])
        matches += int(np.array_equal(reduced.assignments, raw))
    ok = matches == 25
    _report(7, "scaled K-means equivalence", ok,
            f"identical partitions in {matches}/25 matched-initialization instances")


def test_criterion_08_minimum_matching_oracle():
    rng = np.random.default_rng(1000)
    exact = 0
    for _ in range(100):
        K = int(rng.integers(2, 8))
        D = int(rng.integers(1, 6))
        A = rng.normal(size=(D, K))
        B = rng.normal(size=(D, K))
        M = _pairwise_column_distances(A, B)
        oracle = min(
            max(M[p[j], j] for j in range(K))
            for p in itertools.permutations(range(K))
        )
        res = min_matching(A, B)
        achieved = max(M[res.permutation[j], j] for j in range(K))
        exact += int(res.distance == oracle and achieved == oracle)
    ok = exact == 100
    _report(8, "minimum-matching assignment oracle", ok,
            f"bottleneck assignment equals K! enumeration exactly in {exact}/100 instances")


def _simplex_grid(K: int, m: int) -> np.ndarray:
    cache: dict = {}

    def comps(total, parts):
        if parts == 1:
            return np.array([[total]])
        key = (total, parts)
        if key not in cache:
            blocks = []
            for j in range(total + 1):
                rest = comps(total - j, parts - 1)
                blocks.append(np.hstack([np.full((rest.shape[0], 1), j), rest]))
            cache[key] = np.vstack(blocks)
        return cache[key]

    return comps(m, K) / m


def test_criterion_09_simplex_projection_vs_dense_grid():
    rng = np.random.default_rng(1000)
    resolution = {2: 4000, 3: 1200, 4: 180, 5: 70}
    grids: dict = {}
    max_gap = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 6))
        D = K + int(rng.integers(0, 3))
        B = rng.normal(0, 0.3, (D, K))
        x = B @ rng.dirichlet(np.ones(K))
        off = rng.normal(size=D)
        x = x + off / np.linalg.norm(off) * rng.uniform(0.6, 1.2)
        theta = simplex_least_squares(B, x[None, :])[0]
        obj = float(np.linalg.norm(B @ theta - x))
        if K not in grids:
            grids[K] = _simplex_grid(K, resolution[K])
        obj_grid = float(np.linalg.norm(grids[K] @ B.T - x, axis=1).min())
        max_gap = max(max_gap, abs(obj - obj_grid))
    ok = max_gap <= 1e-3
    _report(9, "simplex projection vs dense grid", ok,
            f"max objective gap {max_gap:.2e} <= 1e-3 over 100 instances")


def test_criterion_10_experiment_determinism(tmp_path):
    base = dict(
        kernel="noiseless", D=20, K=3, alpha=[2.0], n=[300, 600], c_min=[0.6],
        seeds=[0, 1, 2], methods=["vlad", "vlad_alpha", "gdm", "spa"],
        metrics=["mm", "volume"], gamma_grid=[0.5, 5.0, 6], gamma_m=4000,
    )
    root1 = run_experiment(ExperimentConfig(**base, out=str(tmp_path / "w1"), workers=1))
    root2 = run_experiment(ExperimentConfig(**base, out=str(tmp_path / "w2"), workers=2))
    b1 = (root1 / "results.csv").read_bytes()
    b2 = (root2 / "results.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(10, "experiment determinism", ok,
            f"results.csv byte-identical across worker counts ({len(b1)} bytes)")


def test_criterion_11_separability_regime():
    kern = sn.Kernel.noiseless()
    rng = np.random.default_rng(31)
    V = sn.sample_vertices(30, 5, kern, rng)
    model = sn.SimplexNest(V, 0.01, kern)
    data = sn.generate(model, 500, rng)
    X = np.vstack([data.observations, V.T])
    W = np.vstack([data.truth.weights, np.eye(5)])
    planted = sn.Dataset(X, kern, truth=sn.DatasetTruth(W, model))
    anchor_err = min_matching(sn.spa(planted, 5).vertices, V).distance
    exact = anchor_err <= 1e-9 * model.diameter()

    gamma = sn.estimate_gamma(5, 2.5, 50_000, np.random.default_rng(44))
    spa_err, vlad_err = [], []
    for s in range(10):
        rng = np.random.default_rng([s, 21])
        V = sn.sample_vertices(30, 5, kern, rng)
        interior_model = sn.SimplexNest(V, 2.5, kern)
        d = sn.generate(interior_model, 4000, rng)
        vlad_err.append(min_matching(sn.fit(d, 5, gamma=gamma, rng=np.random.default_rng([s, 22])).vertices, V).distance)
        spa_err.append(min_matching(sn.spa(d, 5).vertices, V).distance)
    ratio = float(np.median(spa_err) / np.median(vlad_err))
    ok = exact and ratio >= 3.0
    _report(11, "separability regime", ok,
            f"planted anchors recovered to {anchor_err:.1e} (exact), "
            f"interior alpha=2.5 SPA/VLAD median error ratio {ratio:.1f}x >= 3x")


def _median_relative_errors(tmp_path, **config) -> dict:
    """Run a known-gamma sweep on seeds 0-2; the median over seeds of the
    matched distance over the true diameter, per (method, n, c_min)."""
    cfg = ExperimentConfig(K=10, seeds=[0, 1, 2], metrics=["mm"], out=str(tmp_path), **config)
    root = run_experiment(cfg)
    resolved = cfg.resolved()
    errors = {}
    with open(root / "results.csv") as fh:
        for row in csv.DictReader(fh):
            assert row["status"] == "ok", row
            c_min = float(row["c_min"])
            model = build_model(resolved, int(row["seed"]), c_min, resolved.c_min.index(c_min), resolved.alpha[0])
            key = (row["method"], int(row["n"]), c_min)
            errors.setdefault(key, []).append(float(row["mm_distance"]) / model.diameter())
    return {key: float(np.median(v)) for key, v in errors.items()}


def test_criterion_12_skewed_simplex_advantage(tmp_path):
    # seeds 0-2 and both thresholds were fixed from a probe before this test first ran:
    # median vlad/gdm error 0.072/0.105 at c_min = 1 and 0.124/0.609 at c_min = 0.3
    med = _median_relative_errors(tmp_path, kernel="gaussian", sigma=1.0, D=100, alpha=[2.0], n=[10_000],
                                  c_min=[1.0, 0.3], methods=["vlad", "gdm"])
    ratio = med["gdm", 10_000, 0.3] / med["vlad", 10_000, 0.3]
    ok = med["vlad", 10_000, 1.0] < med["gdm", 10_000, 1.0] and ratio >= 3.0
    _report(12, "skewed simplex advantage", ok,
            f"median error / diameter vlad={med['vlad', 10_000, 1.0]:.4f} < gdm={med['gdm', 10_000, 1.0]:.4f} "
            f"at c_min=1; gdm/vlad = {ratio:.1f}x >= 3x at c_min=0.3")


def test_criterion_13_noisy_consistency(tmp_path):
    # seeds 0-2 and the threshold were fixed from a probe before this test first ran:
    # median errors 0.0935, 0.0564, 0.0358, a log-log slope of -0.42
    ns = [1_000, 3_000, 10_000]
    med = _median_relative_errors(tmp_path, kernel="poisson", D=100, alpha=[0.5], n=ns, c_min=[1.0],
                                  methods=["vlad"])
    errors = [med["vlad", n, 1.0] for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    ok = errors[0] > errors[1] > errors[2] and slope < -0.3
    _report(13, "noisy consistency", ok,
            f"Poisson median error / diameter {', '.join(f'{e:.4f}' for e in errors)} at n = {ns} falls, "
            f"log-log slope {slope:.2f} < -0.3")

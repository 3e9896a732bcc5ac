"""The extension parameter gamma(K, alpha), exactly and by Monte Carlo.

The ray-extension factor gamma is the ratio of vertex-to-center distance
over CVT-centroid-to-center distance for a symmetric Dirichlet on the
(K-1)-simplex. It depends only on (K, alpha), never on the geometry of the
simplex being fitted. Consumers take gamma as a function ``gamma(K, alpha)``,
and every program path uses the exact ``quadrature_gamma``.

The paper's Monte-Carlo calibration stays for reproducing its protocol and as
the oracle the tests check the quadrature against: ``estimate_gamma`` for one
alpha, and ``build_gamma_table`` over a grid into an in-memory
``GammaTable``. Such a table is also a function gamma(K, alpha); the tests
pass one to ``vlad.fit_auto``, and the benchmark's paper workloads load their
committed fixture through ``GammaTable.load``. That fixture, written by
``perfbench/make_gamma_fixture.py`` from ``to_dict``, is the only saved table:
no command writes or reads one.

``quadrature_gamma`` is the package's one use of scipy (``quad`` and
``gammainc``), imported on its first call, so ``import simplexnest`` and every
fit given gamma as a number or a table load numpy alone.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import sample_weights
from .numerics import kmeans


def estimate_gamma(
    K: int,
    alpha: float,
    m: int,
    rng: np.random.Generator,
    restarts: int = 8,
    return_stderr: bool = False,
):
    """Monte-Carlo estimate of the extension parameter gamma(K, alpha).

    Draws m Dirichlet(alpha) samples, clusters them with K-means (++
    restarts plus one run seeded at the simplex vertices), and returns

        gamma = sqrt(K^2 - K) / sum_l || v_l - (1/K) 1 ||_2

    where v_l are the K centroids. The numerator is the summed
    vertex-to-center distance, so gamma -> 1 as centroids approach the
    vertices and gamma >= 1 always.

    With ``return_stderr=True`` also returns a delta-method standard error
    that treats the winning partition as fixed.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 0:
        raise ValueError("estimate_gamma supports symmetric (scalar) alpha only")
    if K < 2:
        raise ValueError("K must be >= 2")
    if m < K:
        raise ValueError("need at least m >= K Monte Carlo samples")
    theta = sample_weights(K, float(a), m, rng)
    result = kmeans(theta, K, restarts=restarts, rng=rng, extra_inits=(np.eye(K),))
    u0 = np.full(K, 1.0 / K)
    diffs = result.centroids - u0
    dists = np.linalg.norm(diffs, axis=1)
    total = float(dists.sum())
    gamma = float(np.sqrt(K * K - K) / total)
    if not return_stderr:
        return gamma
    var_total = 0.0
    for l in range(K):
        members = theta[result.assignments == l]
        m_l = members.shape[0]
        if m_l < 2 or dists[l] == 0.0:
            continue
        g = diffs[l] / dists[l]
        proj = members @ g
        var_total += float(np.var(proj, ddof=1)) / m_l
    stderr = gamma * np.sqrt(var_total) / total
    return gamma, float(stderr)


def quadrature_gamma(K: int, alpha):
    """Exact gamma(K, alpha) for a scalar or an array alpha, by one quadrature.

    With symmetric CVT centroids each cell is {theta : theta_l is largest}.
    theta = g / sum(g), g_l iid Gamma(alpha), is independent of sum(g), so
    gamma = (K-1) / (E[max g]/alpha - 1), E[max g] = int_0^inf 1 - P(alpha, x)^K dx.
    """
    from scipy.integrate import quad  # imported here, not at module level: see the module docstring
    from scipy.special import gammainc

    a = np.asarray(alpha, dtype=float)
    if K < 2 or not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("need K >= 2 and finite alpha > 0")
    e_max = np.vectorize(lambda s: quad(lambda x: 1.0 - gammainc(s, x) ** K, 0.0, np.inf)[0],
                         otypes=[float])
    out = (K - 1) / (e_max(a) / a - 1.0)
    return float(out) if out.ndim == 0 else out


def varphi(K: int, alpha: float, gamma: float) -> float:
    """Scalar moment ratio gamma^2 / (K (K alpha + 1)).

    Strictly increasing in alpha for fixed K (checked on the exact gamma,
    not proved), which makes alpha identifiable from second moments.
    """
    if K < 2 or alpha <= 0 or gamma <= 0:
        raise ValueError("need K >= 2, alpha > 0, gamma > 0")
    return float(gamma) ** 2 / (K * (K * float(alpha) + 1.0))


@dataclass(frozen=True)
class GammaTable:
    """Cached map alpha -> gamma(alpha) for a fixed K, callable as gamma(K, alpha).

    Lookups interpolate linearly between grid points; a query outside the
    grid, or for another K, raises ValueError. ``to_dict`` gives the JSON
    format ``{K, m, seed, alphas, gammas}`` of the benchmark's fixture, and
    ``load`` reads it, checking every entry.
    """

    K: int
    alphas: np.ndarray
    gammas: np.ndarray
    m: int
    seed: int

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        if a.ndim != 1 or a.size == 0 or a.shape != g.shape:
            raise ValueError("alphas and gammas must be matching non-empty 1-D arrays")
        if not np.all(np.isfinite(a)) or np.any(a <= 0) or np.any(np.diff(a) <= 0):
            raise ValueError("alpha grid must be finite, positive and strictly ascending")
        if not np.all(np.isfinite(g) & (g > 0)):
            raise ValueError("gammas must be finite and > 0")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "gammas", g)

    @property
    def alpha_min(self) -> float:
        return float(self.alphas[0])

    @property
    def alpha_max(self) -> float:
        return float(self.alphas[-1])

    def lookup(self, alpha) -> float | np.ndarray:
        a = np.asarray(alpha, dtype=float)
        if not np.all((a >= self.alpha_min) & (a <= self.alpha_max)):
            raise ValueError(f"alpha outside the tabulated range [{self.alpha_min}, {self.alpha_max}]")
        out = np.interp(a, self.alphas, self.gammas)
        return float(out) if out.ndim == 0 else out

    def __call__(self, K: int, alpha) -> float | np.ndarray:
        if K != self.K:
            raise ValueError(f"gamma table K = {self.K} does not match K = {K}")
        return self.lookup(alpha)

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "m": self.m,
            "seed": self.seed,
            "alphas": self.alphas.tolist(),
            "gammas": self.gammas.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GammaTable":
        if not isinstance(d, dict):
            raise ValueError("a gamma table must be a JSON object")
        missing = [k for k in ("K", "m", "seed", "alphas", "gammas") if k not in d]
        if missing:
            raise ValueError(f"gamma table is missing {', '.join(missing)}")
        return cls(
            K=int(d["K"]),
            alphas=np.asarray(d["alphas"], dtype=float),
            gammas=np.asarray(d["gammas"], dtype=float),
            m=int(d["m"]),
            seed=int(d["seed"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "GammaTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_gamma_table(
    K: int,
    alpha_grid: np.ndarray,
    m: int = 100_000,
    seed: int = 0,
    restarts: int = 8,
    workers: int | None = None,
) -> GammaTable:
    """Tabulate estimate_gamma over an ascending alpha grid.

    Grid points get independent streams spawned from ``seed``, so the table
    is identical for any worker count.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("alpha grid must be non-empty")
    children = np.random.SeedSequence(seed).spawn(grid.size)

    def one(i: int) -> float:
        rng = np.random.default_rng(children[i])
        return estimate_gamma(K, float(grid[i]), m, rng, restarts=restarts)

    if workers is None or workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            gammas = list(pool.map(one, range(grid.size)))
    else:
        gammas = [one(i) for i in range(grid.size)]
    return GammaTable(K=K, alphas=grid, gammas=np.asarray(gammas), m=m, seed=seed)

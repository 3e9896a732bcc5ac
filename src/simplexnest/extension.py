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

``quadrature_gamma`` needs numpy alone: Gauss-Legendre panels over one
integral of the regularized incomplete gamma function P(alpha, x), which it
builds on the same nodes from the power series below x = 1 and from
cumulative integrals of the Gamma(alpha) density above.
"""

from __future__ import annotations

import json
import math
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


# The quadrature's layout. The relative error against 30-digit values is
# about 1e-13 over alpha in [1e-3, 1e3]; it grows as 1e-16 / alpha below,
# where 1 - P(alpha, x) = O(alpha) is formed as a difference.
GL_NODES = 16  # Gauss-Legendre nodes per panel
SERIES_TERMS = 20  # terms of the series of P(alpha, x <= 1); the next is below 1/21!
LEFT_PANELS = 8  # panels in t = -ln x over [0, LEFT_T], halving towards t = 0
LEFT_T = 40.0  # x from e^-40 to 1; as P - P^K < 1, [0, e^-40] adds less than e^-40
BULK_PANELS = 16  # equal panels over [max(1, alpha - S sqrt(alpha)), alpha + S sqrt(alpha) + T]
BULK_SPREAD = 10.0  # S; Gamma(alpha) puts under e^-48 of its mass outside that interval
BULK_TAIL = 40.0  # T, for small alpha, where Q(alpha, x) ~ alpha e^-x / x


def _legendre_table(x: np.ndarray, n: int) -> np.ndarray:
    """P_0(x), ..., P_n(x) by the three-term recurrence, one column each."""
    p = [np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.stack(p, axis=1)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], from the eigenvectors of the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return nodes, 2.0 * vectors[0] ** 2


_S, _W = _gauss_legendre(GL_NODES)


def _node_integrals() -> np.ndarray:
    """M with (M f)_i the integral over [-1, s_i] of the polynomial through f at the nodes s."""
    table = _legendre_table(_S, GL_NODES)
    to_coef = (np.arange(GL_NODES) + 0.5)[:, None] * table[:, :-1].T * _W  # exact by Gauss' rule
    k = np.arange(1, GL_NODES)
    # int_{-1}^s P_0 = s + 1 and int_{-1}^s P_k = (P_(k+1)(s) - P_(k-1)(s)) / (2k + 1)
    antiderivatives = np.column_stack([_S + 1.0, (table[:, 2:] - table[:, :-2]) / (2 * k + 1)])
    return antiderivatives @ to_coef


_FORWARD = _node_integrals()  # density to the integral from the panel's left end to each node
_BACKWARD = _W - _FORWARD  # ... and from each node to the panel's right end
_SERIES_N = np.arange(1.0, SERIES_TERMS + 1)
_LEFT_EDGES = LEFT_T * np.concatenate([[0.0], 2.0 ** np.arange(1 - LEFT_PANELS, 1)])
_LEFT_HALF = np.diff(_LEFT_EDGES)[:, None] / 2
_LEFT_T_NODES = (_LEFT_EDGES[:-1, None] + _LEFT_HALF) + _LEFT_HALF * _S
_LEFT_X = np.exp(-_LEFT_T_NODES)
_LEFT_WEIGHTS = _LEFT_HALF * _W * _LEFT_X  # dx = -x dt
_BULK_OFFSETS = 2.0 * np.arange(BULK_PANELS)[:, None] + 1.0 + _S  # nodes in half-panel units


def _log_p_series(alpha: float, x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log P(alpha, x) for x <= 1.

    P(alpha, x) = x^alpha e^-x / Gamma(alpha + 1) sum_n x^n / ((alpha + 1) ... (alpha + n)), n >= 0.
    """
    terms = np.cumprod(x[..., None] / (alpha + _SERIES_N), axis=-1)
    return alpha * log_x - x - math.lgamma(alpha + 1.0) + np.log1p(terms.sum(axis=-1))


def _p_minus_p_to_the_k(K: int, p: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """P - P^K as P (1 - P^(K-1)), which keeps its digits where P is near 1."""
    return p * -np.expm1((K - 1) * log_p)


def _gamma_one(K: int, alpha: float) -> float:
    # x in (0, 1], as x = e^-t
    log_p = _log_p_series(alpha, _LEFT_X, -_LEFT_T_NODES)
    below_one = np.sum(_LEFT_WEIGHTS * _p_minus_p_to_the_k(K, np.exp(log_p), log_p))
    # x above 1: the bulk of Gamma(alpha), where P and Q = 1 - P are cumulative integrals of
    # its density from the left and from the right, each accurate where it is small
    spread = BULK_SPREAD * math.sqrt(alpha)
    lo, hi = max(1.0, alpha - spread), alpha + spread + BULK_TAIL
    # P(alpha, lo): from the series at lo = 1, and under e^-48 at any larger lo
    p_lo = math.exp(_log_p_series(alpha, np.ones(1), np.zeros(1))[0]) if lo == 1.0 else 0.0
    half = (hi - lo) / (2 * BULK_PANELS)
    x = lo + half * _BULK_OFFSETS
    u = x / alpha - 1.0
    density = np.exp(alpha * (np.log1p(u) - u) - np.log(x))  # x^(alpha-1) e^-x over a constant
    panels = density @ _W
    scale = (1.0 - p_lo) / panels.sum()  # normalizes the density to P(hi) = 1
    # the panels wholly before and wholly after each one, each summed from its own far end so
    # that a small tail keeps its digits
    before = np.concatenate([[0.0], np.cumsum(panels)[:-1]])
    after = np.concatenate([np.cumsum(panels[::-1])[-2::-1], [0.0]])
    p = p_lo + scale * (before[:, None] + density @ _FORWARD.T)
    q = scale * (after[:, None] + density @ _BACKWARD.T)
    # log P from the smaller of P and Q, each clipped so that the branch not taken cannot warn
    log_p = np.where(q < 0.5, np.log1p(-np.minimum(q, 0.5)), np.log(np.maximum(p, 1e-300)))
    bulk = half * np.sum(_p_minus_p_to_the_k(K, p, log_p) @ _W)
    return float((K - 1) * alpha / (below_one + bulk))


def quadrature_gamma(K: int, alpha):
    """Exact gamma(K, alpha) for a scalar or an array alpha, by one quadrature.

    With symmetric CVT centroids each cell is {theta : theta_l is largest}.
    theta = g / sum(g), g_l iid Gamma(alpha), is independent of sum(g), so
    gamma = (K-1) alpha / (E[max g] - alpha), and E[max g] - alpha =
    int_0^inf P(alpha, x) - P(alpha, x)^K dx, P the regularized lower
    incomplete gamma function. The integral is summed on fixed Gauss-Legendre
    panels (the module constants): in t = -ln x below x = 1, with P from its
    power series, and over the bulk of Gamma(alpha) above, with P and 1 - P
    from cumulative integrals of the density on the same nodes. An array
    alpha is evaluated entry by entry, so each entry is the scalar call's value.
    """
    a = np.asarray(alpha, dtype=float)
    if K < 2 or not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("need K >= 2 and finite alpha > 0")
    out = np.array([_gamma_one(K, v) for v in a.ravel().tolist()]).reshape(a.shape)
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

"""Dirichlet simplex nest generative model and synthetic data generation.

A simplex nest is a set of K vertices in R^D; latent means are convex
combinations of the vertices with Dirichlet-distributed weights, observed
through a probability kernel (noiseless, Gaussian, Poisson or multinomial).

Conventions
-----------
- Vertex matrices are stored with shape (D, K): columns are vertices.
- Observations and weight matrices are row-major: shape (n, D) and (n, K).
- All sampling takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._matrix_io import read_matrix_csv, write_json, write_matrix_csv
from .numerics import row_blocks

KERNEL_NAMES = ("noiseless", "gaussian", "poisson", "multinomial")

# Relative tolerance for the affine-rank test at construction.
_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class Kernel:
    """Observation kernel: how data points are drawn around latent means.

    ``sigma`` is only meaningful for the Gaussian kernel and ``trials``
    (the per-row count total N) only for the multinomial kernel.
    """

    name: str
    sigma: float | None = None
    trials: int | None = None

    def __post_init__(self):
        if self.name not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {self.name!r}; expected one of {KERNEL_NAMES}")
        if self.name == "gaussian":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("gaussian kernel requires sigma > 0")
        if self.name == "multinomial":
            if self.trials is None or int(self.trials) < 1:
                raise ValueError("multinomial kernel requires trials >= 1")

    @classmethod
    def noiseless(cls) -> "Kernel":
        return cls("noiseless")

    @classmethod
    def gaussian(cls, sigma: float) -> "Kernel":
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def poisson(cls) -> "Kernel":
        return cls("poisson")

    @classmethod
    def multinomial(cls, trials: int) -> "Kernel":
        return cls("multinomial", trials=int(trials))

    def to_dict(self) -> dict:
        d = {"name": self.name}
        if self.sigma is not None:
            d["sigma"] = self.sigma
        if self.trials is not None:
            d["trials"] = self.trials
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Kernel":
        return cls(d["name"], sigma=d.get("sigma"), trials=d.get("trials"))


def _as_alpha_vector(alpha, K: int) -> np.ndarray:
    """Broadcast a scalar concentration to length K and validate positivity."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        a = np.full(K, float(a))
    if a.shape != (K,):
        raise ValueError(f"alpha must be a scalar or length-{K} vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("alpha entries must be finite and strictly positive")
    return a


def affine_rank_deficient(vertices: np.ndarray) -> bool:
    """True when the K columns do not span a (K-1)-dimensional affine set."""
    V = np.asarray(vertices, dtype=float)
    K = V.shape[1]
    G = V - V.mean(axis=1, keepdims=True)
    s = np.linalg.svd(G, compute_uv=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    return bool(s[K - 2] <= _DEGENERACY_RTOL * scale)


@dataclass(frozen=True)
class SimplexNest:
    """Latent model: vertex matrix (D x K), concentration vector, kernel.

    Invariants enforced at construction: K >= 2, D >= K - 1, vertices not
    affinely degenerate, alpha strictly positive, and kernel-domain
    constraints (multinomial vertices on the probability simplex, Poisson
    vertices non-negative).
    """

    vertices: np.ndarray
    alpha: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2:
            raise ValueError("vertices must be a (D, K) matrix")
        D, K = V.shape
        if K < 2:
            raise ValueError("need at least K = 2 vertices")
        if D < K - 1:
            raise ValueError(f"ambient dimension D = {D} must be >= K - 1 = {K - 1}")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if affine_rank_deficient(V):
            raise ValueError("vertices are affinely degenerate (affine rank < K - 1)")
        if self.kernel.name == "multinomial":
            sums = V.sum(axis=0)
            if np.any(V < 0) or not np.allclose(sums, 1.0, atol=1e-9):
                raise ValueError("multinomial kernel requires vertex columns on the probability simplex")
        if self.kernel.name == "poisson" and np.any(V < 0):
            raise ValueError("poisson kernel requires non-negative vertex entries")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "alpha", _as_alpha_vector(self.alpha, K))

    @property
    def dim(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[1]

    def diameter(self) -> float:
        """Largest pairwise vertex distance."""
        V = self.vertices.T
        d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
        return float(np.sqrt(d2.max()))


@dataclass(frozen=True)
class DatasetTruth:
    """Ground truth attached to a synthetic dataset for evaluation only."""

    weights: np.ndarray
    simplex: SimplexNest


@dataclass(frozen=True)
class Dataset:
    """n observations (rows) with a kernel tag and optional ground truth."""

    observations: np.ndarray
    kernel: Kernel
    truth: DatasetTruth | None = None

    def __post_init__(self):
        X = np.asarray(self.observations, dtype=float)
        if X.ndim != 2:
            raise ValueError("observations must be an (n, D) matrix")
        if self.kernel.name in ("poisson", "multinomial"):
            # a block of rows at a time, so that no check makes an (n, D) temporary
            for rows in row_blocks(X.shape[0], X.shape[1] * X.itemsize):
                block = X[rows]
                if np.any(block < 0) or np.any(block != np.round(block)):
                    raise ValueError("poisson observations must be non-negative integers"
                                     if self.kernel.name == "poisson"
                                     else "multinomial observations must be non-negative counts")
                if self.kernel.name == "multinomial" and np.any(block.sum(axis=1) != self.kernel.trials):
                    raise ValueError("multinomial rows must each sum to the trial count")
        if self.truth is not None:
            W = np.asarray(self.truth.weights, dtype=float)
            if W.shape != (X.shape[0], self.truth.simplex.n_vertices):
                raise ValueError("truth weights shape does not match observations")
            if np.any(W < 0) or np.any(np.abs(W.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("truth weight rows must lie on the probability simplex")
        object.__setattr__(self, "observations", X)

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]

    @property
    def divisor(self) -> float:
        """The trial count N of multinomial counts, else 1: the one owner of the rule that estimators
        and scores read counts divided by N, each dividing inside products, blocks or its vertices."""
        return float(self.kernel.trials) if self.kernel.name == "multinomial" else 1.0

    def without_truth(self) -> "Dataset":
        """The same observations with no truth block, not checked again."""
        if self.truth is None:
            return self
        blind = copy.copy(self)  # copies no array and runs no __post_init__
        object.__setattr__(blind, "truth", None)
        return blind


def sample_weights(K: int, alpha, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. Dirichlet(alpha) rows on the (K-1)-simplex.

    Sampling is by normalized Gamma draws. Rows whose Gamma draws all
    underflow to zero, as nearly all do for alpha below about 1e-10, are
    drawn again in log space: Gamma(a) is Gamma(a + 1) U^(1/a) in
    distribution, and each such row is scaled by its largest draw before
    ``exp``.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    a = _as_alpha_vector(alpha, K)
    g = rng.gamma(shape=a, scale=1.0, size=(n, K))
    bad = np.flatnonzero(g.sum(axis=1) == 0.0)
    if bad.size:
        size = (bad.size, K)
        logs = np.log(rng.gamma(shape=a + 1.0, scale=1.0, size=size)) + np.log1p(-rng.random(size)) / a
        g[bad] = np.exp(logs - logs.max(axis=1, keepdims=True))
    return g / g.sum(axis=1)[:, None]


def dirichlet_covariance(K: int, alpha: float) -> np.ndarray:
    """Covariance of a symmetric Dirichlet(alpha) on the (K-1)-simplex.

    Equals P / (K (K alpha + 1)) with P = I - (1/K) 11^T: symmetric,
    rank K - 1, zero row sums. Vector alpha is rejected; the moment
    machinery built on this assumes symmetry.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 0:
        raise ValueError("dirichlet_covariance requires a scalar (symmetric) alpha")
    if not np.isfinite(a) or a <= 0:
        raise ValueError("alpha must be finite and strictly positive")
    P = np.eye(K) - np.full((K, K), 1.0 / K)
    return P / (K * (K * float(a) + 1.0))


def skew_simplex(vertices: np.ndarray, c_min: float, rng: np.random.Generator) -> np.ndarray:
    """Rescale each vertex towards the vertex mean by a random factor.

    Each column moves to C + c_k (beta_k - C) with C the column mean and
    c_k ~ Unif(c_min, 1); smaller c_min means a more skewed simplex.
    """
    if not (0.0 < c_min <= 1.0):
        raise ValueError("c_min must lie in (0, 1]")
    V = np.asarray(vertices, dtype=float)
    C = V.mean(axis=1, keepdims=True)
    if c_min == 1.0:
        return V.copy()
    c = rng.uniform(c_min, 1.0, size=V.shape[1])
    return C + c[None, :] * (V - C)


def sample_vertices(D: int, K: int, kernel: Kernel, rng: np.random.Generator) -> np.ndarray:
    """Draw a random (D, K) vertex matrix appropriate for the kernel.

    Gaussian/noiseless vertices have i.i.d. N(0, K) entries, Poisson
    vertices Gamma(1, scale K) entries, multinomial columns are
    Dirichlet(0.1) points on the D-simplex.
    """
    if kernel.name in ("gaussian", "noiseless"):
        return rng.normal(0.0, np.sqrt(K), size=(D, K))
    if kernel.name == "poisson":
        return rng.gamma(shape=1.0, scale=float(K), size=(D, K))
    if kernel.name == "multinomial":
        return sample_weights(D, 0.1, K, rng).T
    raise ValueError(f"unknown kernel {kernel.name!r}")


def generate(model: SimplexNest, n: int, rng: np.random.Generator) -> Dataset:
    """Sample a Dataset of n observations from the simplex nest.

    Latent means are mu_i = B theta_i with theta_i ~ Dir(alpha); the kernel
    then emits x_i with conditional mean mu_i. The returned Dataset carries
    the generating weights and model in its truth block.

    The stream: all n weight rows are drawn first, then the kernel's noise
    row by row in C order. The means are formed once, into the array that
    becomes the observations, and the noise is drawn for one block of rows
    at a time (``numerics.row_blocks``) and written over their means, so
    no other (n, D) array exists. The means equal those of one product and
    the draws those of one call over all rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    K = model.n_vertices
    theta = sample_weights(K, model.alpha, n, rng)
    X = theta @ model.vertices.T  # the means, replaced block by block by the draws around them
    kern = model.kernel
    if kern.name != "noiseless":
        for rows in row_blocks(n, X.shape[1] * X.itemsize):
            mu = X[rows]
            if kern.name == "gaussian":
                mu += rng.normal(0.0, kern.sigma, size=mu.shape)
            elif kern.name == "poisson":
                mu[:] = rng.poisson(mu)
            elif kern.name == "multinomial":
                mu /= mu.sum(axis=1, keepdims=True)  # the draw probabilities, in place
                mu[:] = rng.multinomial(kern.trials, mu)
            else:  # pragma: no cover - Kernel validates names
                raise ValueError(f"unknown kernel {kern.name!r}")
    return Dataset(X, kern, truth=DatasetTruth(weights=theta, simplex=model))


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write X.csv plus a JSON sidecar (and truth CSVs when present)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / "X.csv", dataset.observations)
    meta = {
        "kernel": dataset.kernel.to_dict(),
        "n": dataset.n,
        "D": dataset.dim,
        "alpha": None,
        "truth": None,
    }
    if dataset.truth is not None:
        simplex = dataset.truth.simplex
        write_matrix_csv(directory / "B.csv", simplex.vertices)
        write_matrix_csv(directory / "theta.csv", dataset.truth.weights)
        meta["alpha"] = simplex.alpha.tolist()
        meta["truth"] = {"vertices_csv": "B.csv", "weights_csv": "theta.csv"}
    write_json(directory / "dataset.json", meta)
    return directory


def load_dataset(directory: str | Path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`."""
    directory = Path(directory)
    with open(directory / "dataset.json") as fh:
        meta = json.load(fh)
    kernel = Kernel.from_dict(meta["kernel"])
    X = read_matrix_csv(directory / "X.csv")
    truth = None
    if meta.get("truth"):
        vertices = read_matrix_csv(directory / meta["truth"]["vertices_csv"])
        weights = read_matrix_csv(directory / meta["truth"]["weights_csv"])
        simplex = SimplexNest(vertices, np.asarray(meta["alpha"]), kernel)
        truth = DatasetTruth(weights=weights, simplex=simplex)
    return Dataset(X, kernel, truth=truth)

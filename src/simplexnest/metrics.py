"""Scores for fitted simplices.

Minimum-matching distance between vertex sets (bottleneck headline form
plus the stacked Frobenius form), average held-out projection distance,
kernel likelihood scores, and simplex volume.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Dataset, Kernel, affine_rank_deficient
from .numerics import min_cost_assignment, row_blocks
from .vlad import _project_onto

_LOG_FLOOR = 1e-12


class MinMatch(NamedTuple):
    """Both matching forms; ``permutation`` realizes the headline max form.

    ``permutation[k]`` is the column of the first argument matched to
    column k of the second.
    """

    distance: float     # min over permutations of the max column distance
    permutation: np.ndarray
    frobenius: float    # min over permutations of the stacked Frobenius norm


def _pairwise_column_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A.T[:, None, :] - B.T[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _bottleneck_assignment(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Threshold search: smallest max edge admitting a perfect matching."""
    K = M.shape[0]
    values = np.unique(M)
    lo, hi = 0, values.size - 1
    big = float((M**2).max()) * K + 1.0

    def feasible(t: float) -> bool:
        mask = np.where(M <= t, 0.0, 1.0)
        return float(mask[np.arange(K), min_cost_assignment(mask)].sum()) == 0.0

    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(values[mid])):
            hi = mid
        else:
            lo = mid + 1
    t = float(values[lo])
    perm = np.argsort(min_cost_assignment(np.where(M <= t, M**2, big)))  # row of each column
    return t, perm


def min_matching(A: np.ndarray, B: np.ndarray) -> MinMatch:
    """Permutation-minimized distance between two vertex sets (columns).

    The headline distance is min over permutations of the worst matched
    pair, found exactly for every K by a bottleneck threshold search over
    the pairwise distances with an assignment feasibility check; among the
    permutations attaining it, one of least stacked squared distance is
    returned. The Frobenius field is the stacked-matrix form min over
    permutations of ||A_pi - B||_F (its optimal permutation may differ).
    Every assignment is ``numerics.min_cost_assignment``, the textbook
    Hungarian method on Python lists. Where that least stacked distance is
    attained once, the permutation is the one ``linear_sum_assignment``
    gives; where tied distances leave several, it is one of them, not
    necessarily scipy's, and the distance is the same either way. NaN
    entries raise ``ValueError``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2:
        raise ValueError(f"vertex sets must share one (D, K) shape, got {A.shape} vs {B.shape}")
    M = _pairwise_column_distances(A, B)
    cols = min_cost_assignment(M**2)
    frobenius = float(np.sqrt((M[np.arange(M.shape[0]), cols] ** 2).sum()))
    distance, perm = _bottleneck_assignment(M)
    return MinMatch(distance=distance, permutation=perm, frobenius=frobenius)


def _vertices_of(fit) -> np.ndarray:
    if hasattr(fit, "vertices"):
        return np.asarray(fit.vertices, dtype=float)
    return np.asarray(fit, dtype=float)


def heldout_frobenius(fit_vertices, X_test: np.ndarray) -> float:
    """Mean Euclidean distance from test rows to the fitted simplex."""
    B = _vertices_of(fit_vertices)
    if affine_rank_deficient(B):
        raise ValueError("degenerate simplex")
    return _project(B, Dataset(np.atleast_2d(X_test), Kernel.noiseless()))[0]  # rows as given: divisor 1


def simplex_volume(vertices) -> float:
    """(K-1)-dimensional volume sqrt(det(G^T G)) / (K-1)!.

    G stacks the edge vectors from the first vertex; degenerate vertex sets
    return 0.
    """
    V = _vertices_of(vertices)
    K = V.shape[1]
    if K < 2:
        raise ValueError("K must be >= 2")
    G = V[:, 1:] - V[:, :1]
    gram = G.T @ G
    det = float(np.linalg.det(gram))
    return math.sqrt(max(det, 0.0)) / math.factorial(K - 1)


@dataclass(frozen=True)
class LikelihoodReport:
    kind: str      # "frobenius" | "nll" | "perplexity"
    value: float
    floored: int   # log arguments clipped up to the floor


def heldout_likelihood(fit, test: Dataset) -> LikelihoodReport:
    """Kernel-appropriate held-out score under the fitted simplex.

    Weights come from projecting each test row onto the fitted simplex;
    the implied mean is mu = B theta. Gaussian and noiseless data score the
    mean squared residual, Poisson data the mean of sum(mu - x log mu)
    (log-factorial constant omitted), multinomial data the perplexity
    exp(-sum(x log mu) / total count), the vertices and mu being word
    distributions fitted to the counts divided by the trial count.
    Non-positive entries hitting log are floored at 1e-12 and counted,
    never silently dropped.
    """
    return _project(_vertices_of(fit), test)[1]


def _project(B: np.ndarray, test: Dataset) -> tuple[float, LikelihoodReport]:
    """The mean residual norm ||x / N - mu|| of the held-out rows and the
    :func:`heldout_likelihood` score, from one projection onto the simplex B.

    The rows are projected by ``vlad._project_onto``, as
    ``vlad.recover_weights`` projects them, and mu = B theta and the scores
    are formed one block of rows at a time.
    """
    X, N, kind = test.observations, test.divisor, test.kernel.name
    theta = _project_onto(B, test)
    squared, floored = np.empty(X.shape[0]), 0
    log_term = np.empty(X.shape[0])  # per row sum(mu - x log mu), or sum(x log mu) if multinomial
    for rows in row_blocks(X.shape[0], X.shape[1] * X.itemsize):
        mu = theta[rows] @ B.T
        residual = X[rows] / N
        residual -= mu
        squared[rows] = np.square(residual, out=residual).sum(axis=1)
        if kind in ("poisson", "multinomial"):
            floored += int(np.count_nonzero(mu < _LOG_FLOOR))
            mu_safe = np.maximum(mu, _LOG_FLOOR, out=mu)
            x_log_mu = np.multiply(X[rows], np.log(mu_safe), out=residual)
            log_term[rows] = (mu_safe - x_log_mu if kind == "poisson" else x_log_mu).sum(axis=1)
    residual_norm = float(np.sqrt(squared).mean())
    if kind == "poisson":
        return residual_norm, LikelihoodReport("nll", float(log_term.mean()), floored)
    if kind == "multinomial":
        return residual_norm, LikelihoodReport("perplexity", math.exp(-log_term.sum() / X.sum()), floored)
    return residual_norm, LikelihoodReport("frobenius", float(squared.mean()), 0)


@dataclass
class EvalReport:
    """One row of scores for a fitted vertex set."""

    mm_distance: float | None = None
    mm_permutation: list[int] | None = None
    mm_frobenius: float | None = None
    frobenius_heldout: float | None = None
    nll: float | None = None
    perplexity: float | None = None
    volume: float | None = None
    wall_time_s: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


METRIC_NAMES = ("mm", "heldout", "volume", "likelihood")
HELDOUT_METRICS = ("heldout", "likelihood")  # scored on held-out observations


def evaluate_fit(
    fit,
    dataset: Dataset | None = None,
    heldout: Dataset | None = None,
    metrics: tuple[str, ...] = ("mm", "volume"),
    wall_time_s: float | None = None,
) -> EvalReport:
    """Compute the requested metrics for one fitted vertex set.

    "mm" needs ``dataset`` with a truth block; "heldout" and "likelihood"
    need ``heldout`` observations, whose multinomial counts are scored
    divided by the trial count, so against vertices that are word
    distributions. Only evaluation touches ground truth.
    """
    report = EvalReport(wall_time_s=wall_time_s)
    vertices = _vertices_of(fit)
    for name in metrics:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    if "mm" in metrics:
        if dataset is None or dataset.truth is None:
            raise ValueError("the mm metric needs a dataset with ground truth")
        match = min_matching(vertices, dataset.truth.simplex.vertices)
        report.mm_distance = match.distance
        report.mm_permutation = [int(i) for i in match.permutation]
        report.mm_frobenius = match.frobenius
    if "volume" in metrics:
        report.volume = simplex_volume(vertices)
    projected = [name for name in HELDOUT_METRICS if name in metrics]
    if not projected:
        return report
    if heldout is None:
        raise ValueError(f"the {projected[0]} metric needs held-out observations")
    if "heldout" in metrics and affine_rank_deficient(vertices):
        raise ValueError("degenerate simplex")
    residual_norm, like = _project(vertices, heldout)  # both scores from one projection
    if "heldout" in metrics:
        report.frobenius_heldout = residual_norm
    if "likelihood" in metrics:
        if like.kind == "perplexity":
            report.perplexity = like.value
        else:
            report.nll = like.value
        if like.floored:
            report.diagnostics["log_floored_entries"] = like.floored
    return report

"""Concentration-parameter estimation by moment matching.

Each kernel adds observation noise, so the sample covariance is first
corrected to a consistent estimate T of B S(alpha) B^T, S(alpha) the
symmetric-Dirichlet covariance. Because the rows of S sum to zero, the
covariance implied by re-extending the fitted centroids C from the center
c0 with gamma(alpha) is exactly phi(alpha) A, with phi = gamma^2 /
(K (K alpha + 1)), A = R R^T and R = (C - c0 1^T)(I - 11^T / K). The
mismatch ||phi A - T||_F is a quadratic in phi with minimizer
phi* = <A,T> / <A,A>; alpha solves phi(alpha) = phi*. phi rises with
alpha, so the root is found by bisecting the search interval, whose two
ends the edge check evaluates anyway. gamma is any function gamma(K, alpha):
the exact ``quadrature_gamma`` on every program path, or an in-memory
Monte-Carlo ``GammaTable`` that the tests and the benchmark pass.

``vlad.fit_auto`` forms no D x D covariance. R lies in the span of the fit's
right singular vectors W, and Xbar W = U S, so from the fit's own factors
(n rows, singular values s_j) and its center m:

- <A, Sigma_hat> = ||S W^T R||_F^2 / n;
- gaussian: <A, I> = ||R||_F^2, times the fit's own sigma2_hat =
  (||Xbar||_F^2 - sum_j s_j^2) / (n (D - K + 1)), the mean of the trailing
  eigenvalues written as a trace identity (``vlad.fit`` sums ||Xbar||_F^2
  over centred blocks of rows in one O(nD) pass);
- poisson: <A, Diag(m)> = sum_d m_d ||R_d||^2;
- multinomial: the Poisson term and <A, m m^T> = ||R^T m||^2, both over N,
  and the whole over 1 - 1/N.

Nothing in the program calls the D x D route, ``corrected_covariance`` with
``estimate_alpha`` and ``gmm_objective``: it is the exported oracle the tests
check the reduced moments against, and it moves into the tests once the
benchmark's tracer no longer looks its functions up by name (ROADMAP item 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .extension import varphi
from .model import Dataset, Kernel
from .numerics import sample_covariance

if TYPE_CHECKING:  # pragma: no cover
    from .vlad import VladFit

ALPHA_XTOL = 2e-12  # absolute tolerance on alpha-hat, that of scipy's brentq
ALPHA_RTOL = 4 * float(np.finfo(float).eps)  # relative tolerance on alpha-hat, that of scipy's brentq


@dataclass(frozen=True)
class MomentTarget:
    """Noise-corrected covariance target; a consistent estimate of B S B^T."""

    sigma_tilde: np.ndarray
    kernel: Kernel
    correction_meta: dict


def corrected_covariance(data: Dataset, K: int) -> MomentTarget:
    """Kernel-specific correction of the sample covariance.

    - noiseless: the sample covariance itself.
    - gaussian: subtract sigma2_hat * I, with sigma2_hat the mean of the
      D - (K-1) trailing eigenvalues (the model puts all signal in the top
      K-1 directions, so trailing eigenvalues estimate the noise floor).
    - poisson: subtract Diag of the column means.
    - multinomial: invert (1 - 1/N) B S B^T + (1/N) Diag(m) - (1/N) m m^T
      for B S B^T on the counts divided by the trial count N, which this
      oracle, unlike the estimators, divides into a copy.

    Negative eigenvalues introduced by the subtraction are left in place;
    the scalar moment objective tolerates them and projecting them out
    would bias the match.
    """
    if data.n < 2:
        raise ValueError("need at least 2 observations")
    kern = data.kernel
    _check_correction(kern, data.dim, K)
    X = data.observations / data.divisor
    sigma_hat = sample_covariance(X)
    D = X.shape[1]

    if kern.name == "noiseless":
        return MomentTarget(sigma_hat, kern, {})
    if kern.name == "gaussian":
        eigs = np.linalg.eigvalsh(sigma_hat)
        sigma2 = float(eigs[: D - (K - 1)].mean())
        target = sigma_hat - sigma2 * np.eye(D)
        return MomentTarget(target, kern, {"sigma2_hat": sigma2})
    if kern.name == "poisson":
        col_means = X.mean(axis=0)
        target = sigma_hat - np.diag(col_means)
        return MomentTarget(target, kern, {"column_means": col_means})
    N = int(kern.trials)  # multinomial, the last of the four kernel names
    m = X.mean(axis=0)
    target = (sigma_hat - np.diag(m) / N + np.outer(m, m) / N) / (1.0 - 1.0 / N)
    return MomentTarget(target, kern, {"N": N})


def _check_correction(kern: Kernel, D: int, K: int) -> None:
    """Raise ValueError where a kernel's noise correction is undefined."""
    if kern.name == "gaussian" and D <= K - 1:
        raise ValueError("need D > K - 1 to estimate the noise variance from trailing eigenvalues")
    if kern.name == "multinomial" and int(kern.trials) <= 1:
        raise ValueError("multinomial correction requires N > 1 trials")


def _centered_rays(fit: "VladFit") -> np.ndarray:
    """R: the center-to-centroid rays with their column mean removed, (D, K)."""
    rays = fit.cvt_centroids - fit.center[:, None]
    return rays - rays.mean(axis=1, keepdims=True)


def _moments(fit: "VladFit", target: MomentTarget) -> tuple[float, float, float]:
    """<A,A>, <A,T> and ||T||_F^2 from D x K products only."""
    R = _centered_rays(fit)
    T = target.sigma_tilde
    return (float(np.linalg.norm(R.T @ R) ** 2), float(np.einsum("ij,ij->", T @ R, R)),
            float(np.vdot(T, T)))


def _reduced_moments(fit: "VladFit", kernel: Kernel) -> tuple[float, float]:
    """<A,A> and <A,T> from the fit's own factors, center and sigma2_hat, in O(D K^2).

    ``fit`` comes from ``vlad.fit`` on data of ``kernel`` whose noise
    correction is defined (``_check_correction``); its factors, centroids,
    center and, for the gaussian kernel, sigma2_hat are read as they are.
    """
    R = _centered_rays(fit)
    m = fit.center
    s = fit.factors.singular
    n = fit.factors.left.shape[0]
    aa = float(np.linalg.norm(R.T @ R) ** 2)
    at = float(np.linalg.norm(s[:, None] * (fit.factors.right.T @ R)) ** 2) / n
    if kernel.name == "gaussian":
        at -= fit.sigma2_hat * float(np.vdot(R, R))
    elif kernel.name == "poisson":
        at -= float(np.einsum("d,dk,dk->", m, R, R))
    elif kernel.name == "multinomial":
        N = int(kernel.trials)
        diag = float(np.einsum("d,dk,dk->", m, R, R))
        outer = float(np.linalg.norm(R.T @ m) ** 2)
        at = (at - diag / N + outer / N) / (1.0 - 1.0 / N)
    return aa, at


def gmm_objective(fit: "VladFit", target: MomentTarget, gamma: Callable, alphas) -> np.ndarray:
    """Frobenius moment mismatch ||phi(alpha) A - T||_F at each alpha."""
    K = fit.n_vertices
    aa, at, tt = _moments(fit, target)
    phi = np.array([varphi(K, a, gamma(K, a)) for a in np.atleast_1d(np.asarray(alphas, dtype=float))])
    return np.sqrt(np.maximum(aa * phi**2 - 2.0 * at * phi + tt, 0.0))


def estimate_alpha(
    fit: "VladFit",
    target: MomentTarget,
    gamma: Callable,
    search: tuple[float, float] = (0.02, 10.0),
) -> float:
    """Scalar moment-matching estimate of the concentration parameter.

    Returns the root of phi(alpha) = phi* on ``search``, phi(alpha) =
    varphi(K, alpha, gamma(K, alpha)), or, with a RuntimeWarning, the end of
    ``search`` whose phi is nearer phi* when phi* lies outside [phi(lo),
    phi(hi)], as it does on pure noise.
    """
    aa, at, _ = _moments(fit, target)
    return _solve_alpha(fit.n_vertices, aa, at, gamma, search)


def _phi_star(aa: float, at: float) -> float:
    """<A,T> / <A,A>, the phi the moment match solves for."""
    return at / aa if aa > 0 else 0.0  # coincident centroids imply zero covariance


def _solve_alpha(K: int, aa: float, at: float, gamma: Callable, search: tuple[float, float],
                 stacklevel: int = 3) -> float:
    """The root of phi(alpha) = <A,T> / <A,A> on ``search``, or its nearer edge.

    Bisection from the sign of phi(lo) - phi*, stopping once the bracket's
    half-width is below (``ALPHA_XTOL`` + ``ALPHA_RTOL`` |alpha|) / 2, scipy's
    ``brentq`` rule at its default tolerances; it returns the midpoint, or
    earlier a midpoint where phi equals phi* exactly. On the default search
    (0.02, 10) that is 43 halvings, so 45 evaluations of phi with the two
    ends. A NaN phi, at an end or inside, raises ValueError. The edge
    warning goes ``stacklevel`` frames up: 3 names the line that called
    ``estimate_alpha``, which calls this directly, and
    ``vlad._finish_auto`` passes 4 to name the line that called
    ``vlad.fit_auto``.
    """
    lo, hi = float(search[0]), float(search[1])
    if not (0.0 < lo < hi):
        raise ValueError("search interval must satisfy 0 < lo < hi")
    phi_star = _phi_star(aa, at)

    def phi(a: float) -> float:
        return varphi(K, a, gamma(K, a))

    ends = np.array([phi(lo), phi(hi)])
    for end, value in zip((lo, hi), ends):
        if np.isnan(value):
            raise ValueError(f"estimate_alpha: phi is NaN at the search end alpha = {end}")
    if not ends.min() <= phi_star <= ends.max():
        edge = lo if abs(ends[0] - phi_star) <= abs(ends[1] - phi_star) else hi
        warnings.warn(f"estimate_alpha: phi* = {phi_star:.4g} is outside the range of phi "
                      f"[{ends.min():.4g}, {ends.max():.4g}]; returning the edge alpha = {edge:.6g}",
                      RuntimeWarning, stacklevel=stacklevel)
        return edge
    while hi - lo >= ALPHA_XTOL + ALPHA_RTOL * abs((lo + hi) / 2):
        mid = (lo + hi) / 2
        f = phi(mid) - phi_star
        if np.isnan(f):
            raise ValueError(f"estimate_alpha: phi is NaN at alpha = {mid}")
        if f == 0:
            return mid
        # the root is above mid where f shares the sign of phi(lo) - phi*; comparing the
        # two ends settles the direction also where phi(lo) = phi*
        lo, hi = (mid, hi) if (f < 0) == (ends[0] < ends[1]) else (lo, mid)
    return (lo + hi) / 2

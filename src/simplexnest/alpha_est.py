"""Concentration-parameter estimation by moment matching.

Each kernel adds observation noise, so the sample covariance is first
corrected to a consistent estimate T of B S(alpha) B^T, S(alpha) the
symmetric-Dirichlet covariance. Because the rows of S sum to zero, the
covariance implied by re-extending the fitted centroids C from the center
c0 with gamma(alpha) is exactly phi(alpha) A, with phi = gamma^2 /
(K (K alpha + 1)), A = R R^T and R = (C - c0 1^T)(I - 11^T / K). The
mismatch ||phi A - T||_F is a quadratic in phi with minimizer
phi* = <A,T> / <A,A>; alpha solves phi(alpha) = phi*. gamma is any function
gamma(K, alpha): the exact ``quadrature_gamma`` or a saved ``GammaTable``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.optimize import brentq

from .extension import varphi
from .model import Dataset, Kernel
from .numerics import sample_covariance

if TYPE_CHECKING:  # pragma: no cover
    from .vlad import VladFit


@dataclass(frozen=True)
class MomentTarget:
    """Noise-corrected covariance target; a consistent estimate of B S B^T."""

    sigma_tilde: np.ndarray
    kernel: Kernel
    correction_meta: dict


def corrected_covariance(
    data: Dataset,
    K: int,
    kernel: Kernel | None = None,
    normalize: bool | None = None,
) -> MomentTarget:
    """Kernel-specific correction of the sample covariance.

    - noiseless: the sample covariance itself.
    - gaussian: subtract sigma2_hat * I, with sigma2_hat the mean of the
      D - (K-1) trailing eigenvalues (the model puts all signal in the top
      K-1 directions, so trailing eigenvalues estimate the noise floor).
    - poisson: subtract Diag of the column means.
    - multinomial: invert (1 - 1/N) B S B^T + (1/N) Diag(m) - (1/N) m m^T
      for B S B^T on observations normalized by the trial count N.

    Negative eigenvalues introduced by the subtraction are left in place;
    the scalar moment objective tolerates them and projecting them out
    would bias the match.
    """
    if data.n < 2:
        raise ValueError("need at least 2 observations")
    kern = data.kernel if kernel is None else kernel
    if kern.name == "multinomial" and normalize is False:
        raise ValueError("the multinomial correction is defined on normalized observations")
    X = data.fitting_matrix(normalize)
    sigma_hat = sample_covariance(X)
    D = X.shape[1]

    if kern.name == "noiseless":
        return MomentTarget(sigma_hat, kern, {})
    if kern.name == "gaussian":
        if D <= K - 1:
            raise ValueError("need D > K - 1 to estimate the noise variance from trailing eigenvalues")
        eigs = np.linalg.eigvalsh(sigma_hat)
        sigma2 = float(eigs[: D - (K - 1)].mean())
        target = sigma_hat - sigma2 * np.eye(D)
        return MomentTarget(target, kern, {"sigma2_hat": sigma2})
    if kern.name == "poisson":
        col_means = X.mean(axis=0)
        target = sigma_hat - np.diag(col_means)
        return MomentTarget(target, kern, {"column_means": col_means})
    if kern.name == "multinomial":
        N = int(kern.trials)
        if N <= 1:
            raise ValueError("multinomial correction requires N > 1 trials")
        m = X.mean(axis=0)
        target = (sigma_hat - np.diag(m) / N + np.outer(m, m) / N) / (1.0 - 1.0 / N)
        return MomentTarget(target, kern, {"N": N})
    raise ValueError(f"unknown kernel {kern.name!r}")


def _moments(fit: "VladFit", target: MomentTarget) -> tuple[float, float, float]:
    """<A,A>, <A,T> and ||T||_F^2 from D x K products only."""
    rays = fit.cvt_centroids - fit.center[:, None]
    R = rays - rays.mean(axis=1, keepdims=True)
    T = target.sigma_tilde
    return (float(np.linalg.norm(R.T @ R) ** 2), float(np.einsum("ij,ij->", T @ R, R)),
            float(np.vdot(T, T)))


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

    Returns Brent's root of phi(alpha) = phi* on ``search``, phi(alpha) =
    varphi(K, alpha, gamma(K, alpha)), or, with a RuntimeWarning, the end of
    ``search`` whose phi is nearer phi* when phi* lies outside [phi(lo),
    phi(hi)], as it does on pure noise.
    """
    lo, hi = float(search[0]), float(search[1])
    if not (0.0 < lo < hi):
        raise ValueError("search interval must satisfy 0 < lo < hi")
    K = fit.n_vertices
    aa, at, _ = _moments(fit, target)
    phi_star = at / aa if aa > 0 else 0.0  # coincident centroids imply zero covariance

    def phi(a: float) -> float:
        return varphi(K, a, gamma(K, a))

    ends = np.array([phi(lo), phi(hi)])
    if not ends.min() <= phi_star <= ends.max():
        edge = lo if abs(ends[0] - phi_star) <= abs(ends[1] - phi_star) else hi
        warnings.warn(f"estimate_alpha: phi* = {phi_star:.4g} is outside the range of phi "
                      f"[{ends.min():.4g}, {ends.max():.4g}]; returning the edge alpha = {edge:.6g}",
                      RuntimeWarning, stacklevel=2)
        return edge
    return float(brentq(lambda a: phi(a) - phi_star, lo, hi))

"""Latent simplex recovery for Dirichlet admixture data.

Generate synthetic simplex-nest datasets, fit the vertex matrix by the
reduced-space clustering estimator with ray extension by the exact
gamma(K, alpha) (one quadrature), estimate the Dirichlet concentration
from moments, and compare against ray-extension and separability baselines.
"""

from .alpha_est import MomentTarget, corrected_covariance, estimate_alpha, gmm_objective
from .baselines import BaselineFit, gdm, spa
from .extension import GammaTable, build_gamma_table, estimate_gamma, quadrature_gamma, varphi
from .harness import ExperimentConfig, run_experiment
from .metrics import (
    EvalReport,
    LikelihoodReport,
    evaluate_fit,
    heldout_frobenius,
    heldout_likelihood,
    min_matching,
    simplex_volume,
)
from .model import (
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
from .numerics import KMeansResult, SvdFactors, center, kmeans, sample_covariance, truncated_svd
from .vlad import VladFit, fit, fit_auto, load_fit, recover_weights, save_fit

__all__ = [
    "BaselineFit",
    "Dataset",
    "DatasetTruth",
    "EvalReport",
    "ExperimentConfig",
    "GammaTable",
    "KMeansResult",
    "Kernel",
    "LikelihoodReport",
    "MomentTarget",
    "SimplexNest",
    "SvdFactors",
    "VladFit",
    "build_gamma_table",
    "center",
    "corrected_covariance",
    "dirichlet_covariance",
    "estimate_alpha",
    "estimate_gamma",
    "evaluate_fit",
    "fit",
    "fit_auto",
    "gdm",
    "generate",
    "gmm_objective",
    "heldout_frobenius",
    "heldout_likelihood",
    "kmeans",
    "load_dataset",
    "load_fit",
    "min_matching",
    "quadrature_gamma",
    "recover_weights",
    "run_experiment",
    "sample_covariance",
    "sample_vertices",
    "sample_weights",
    "save_dataset",
    "save_fit",
    "simplex_volume",
    "skew_simplex",
    "spa",
    "truncated_svd",
    "varphi",
]

__version__ = "0.1.0"

"""Bouchaud-Mezard wealth dynamics on networks: ensemble simulation,
generalized-inverse-gamma fitting, and bootstrap goodness of fit."""

from .distributions import (GIGaParams, LNParams, giga_cdf, giga_logpdf,
                            giga_sample, ln_cdf, ln_logpdf, ln_sample,
                            stationary_giga, theta_of_gamma)
from .engine import (EFTDynamics, MeanFieldDynamics, ModelParams,
                     NetworkDynamics, SimConfig, simulate,
                     strong_convergence_study)
from .errors import ConfigError, DegenerateSampleError, PositivityError
from .fitting import FitReport, fit_giga, fit_iga, fit_lognormal
from .gof import GofReport, compare_families, ks_pvalue_bootstrap, ks_statistic
from .topology import build_complete, build_random_smallworld, build_regular_ring

__all__ = [
    "GIGaParams", "LNParams", "giga_cdf", "giga_logpdf", "giga_sample",
    "ln_cdf", "ln_logpdf", "ln_sample", "stationary_giga", "theta_of_gamma",
    "EFTDynamics", "MeanFieldDynamics", "ModelParams", "NetworkDynamics",
    "SimConfig", "simulate", "strong_convergence_study",
    "ConfigError", "DegenerateSampleError", "PositivityError",
    "FitReport", "fit_giga", "fit_iga", "fit_lognormal",
    "GofReport", "compare_families", "ks_pvalue_bootstrap", "ks_statistic",
    "build_complete", "build_random_smallworld", "build_regular_ring",
]

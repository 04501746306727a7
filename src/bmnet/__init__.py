"""Bouchaud-Mezard wealth dynamics on networks: ensemble simulation,
generalized-inverse-gamma fitting, and bootstrap goodness of fit."""

from .distributions import (GIGaParams, LNParams, giga_cdf, giga_logpdf,
                            giga_mean, giga_pdf, giga_quantile, giga_sample,
                            ln_cdf, ln_logpdf, ln_pdf, ln_sample,
                            stationary_giga, theta_of_gamma,
                            transient_lognormal_J0)
from .engine import (EFTDynamics, MeanFieldDynamics, ModelParams,
                     NetworkDynamics, SimConfig, milstein_step, simulate,
                     step_noise, strong_convergence_study, taylor15_step,
                     to_unscaled)
from .errors import ConfigError, DegenerateSampleError, PositivityError
from .fitting import (FitReport, fit_giga, fit_iga, fit_lognormal,
                      gamma_shape_scale_mle)
from .gof import GofReport, compare_families, ks_pvalue_bootstrap, ks_statistic
from .topology import (NetworkTopology, build_complete, build_random_smallworld,
                       build_regular_ring)

__all__ = [
    "GIGaParams", "LNParams", "giga_cdf", "giga_logpdf", "giga_mean",
    "giga_pdf", "giga_quantile", "giga_sample", "ln_cdf", "ln_logpdf",
    "ln_pdf", "ln_sample", "stationary_giga", "theta_of_gamma",
    "transient_lognormal_J0",
    "EFTDynamics", "MeanFieldDynamics", "ModelParams", "NetworkDynamics",
    "SimConfig", "milstein_step", "simulate", "step_noise",
    "strong_convergence_study", "taylor15_step", "to_unscaled",
    "ConfigError", "DegenerateSampleError", "PositivityError",
    "FitReport", "fit_giga", "fit_iga", "fit_lognormal",
    "gamma_shape_scale_mle",
    "GofReport", "compare_families", "ks_pvalue_bootstrap", "ks_statistic",
    "NetworkTopology", "build_complete", "build_random_smallworld",
    "build_regular_ring",
]

"""The public names of ``bmnet``.

The package exports what the commands and the paper's experiment use.
The step functions and the noise draw stay module globals of
``bmnet.engine``, because the benchmark's tracer replaces them there by
name, but they take private coefficient rows and are not exported.
"""

import bmnet
from bmnet import engine

PUBLIC = [
    "ConfigError", "DegenerateSampleError", "EFTDynamics", "FitReport",
    "GIGaParams", "GofReport", "LNParams", "MeanFieldDynamics",
    "ModelParams", "NetworkDynamics", "PositivityError",
    "SimConfig", "build_complete", "build_random_smallworld",
    "build_regular_ring", "fit_giga", "fit_iga",
    "fit_lognormal", "giga_cdf", "giga_logpdf", "giga_sample",
    "ks_pvalue_bootstrap", "ks_statistic", "ln_cdf", "ln_logpdf",
    "ln_sample", "simulate", "stationary_giga", "strong_convergence_study",
    "theta_of_gamma",
]


def test_public_names():
    assert sorted(bmnet.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(bmnet, name) is not None


def test_tracer_seams_are_engine_globals():
    for name in ("step_noise", "milstein_step", "taylor15_step"):
        assert name not in bmnet.__all__
        assert callable(vars(engine)[name])

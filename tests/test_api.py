"""The public names of ``bmnet``.

The package exports what the commands and the paper's experiment use.
The step functions and the noise draw stay module globals of
``bmnet.engine``, because the benchmark's tracer replaces them there by
name, but they take private coefficient rows and are not exported.
"""

import bmnet
from bmnet import cli, engine, gof, topology

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
    # every other name the benchmark's tracer replaces by name
    seams = [(topology, ("build_complete", "build_regular_ring",
                         "build_random_smallworld")),
             (cli, ("simulate", "load_config", "cmd_evolve",
                    "evolution_records", "ks_pvalue_bootstrap")),
             (gof, ("ks_statistic",))]
    seams += [(getattr(engine, cls), ("drift", "jacobian_apply", "l0_drift"))
              for cls in ("NetworkDynamics", "MeanFieldDynamics",
                          "EFTDynamics")]
    for owner, names in seams:
        for name in names:
            assert callable(getattr(owner, name, None)), \
                f"{owner.__name__}.{name}"

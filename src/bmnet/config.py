"""Experiment config files: flat `key = value` entries in `[section]` blocks.

Sections and keys:

    [model]     sigma2, J
    [dynamics]  kind (complete | ring | smallworld | meanfield | eft),
                z (ring), p_sw (smallworld), gamma_eft (eft)
    [run]       N, dt, t_end, snapshot_times, scheme, init, seed
    [fit]       families, fit_times, bootstrap_B     (optional section)

Unknown sections or keys are errors, anchored to their line.  Numbers
must be finite, and a seed must lie in [0, 2**64).  Lists are
comma separated.  ``init`` is ``ones``, ``gaussian`` or ``gaussian:<sd>``.
``scheme`` defaults by dynamics kind: the ring lattice uses the order-1.5
Taylor scheme, everything else Milstein.  The small-world topology seed
is the run seed, so a config fully determines its realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine, topology
from .engine import EFTDynamics, MeanFieldDynamics, ModelParams, SimConfig
from .errors import ConfigError
from .gof import DEFAULT_BOOTSTRAP_B, FAMILIES

_SECTION_KEYS = {
    "model": {"sigma2", "J"},
    "dynamics": {"kind", "z", "p_sw", "gamma_eft"},
    "run": {"N", "dt", "t_end", "snapshot_times", "scheme", "init", "seed"},
    "fit": {"families", "fit_times", "bootstrap_B"},
}

_KINDS = ("complete", "ring", "smallworld", "meanfield", "eft")
_KIND_EXTRA_KEY = {"ring": "z", "smallworld": "p_sw", "eft": "gamma_eft"}
_DEFAULT_SCHEME = {"ring": engine.TAYLOR15}  # everything else: milstein


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved experiment: simulation plus optional fitting schedule.

    ``sections`` holds the fully resolved key/value text form, suitable
    for byte-identical replay via :func:`config_to_text`.
    """

    sim: SimConfig
    families: tuple
    fit_times: tuple
    bootstrap_b: int
    sections: dict

    def validate(self) -> None:
        try:
            self.sim.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ConfigError(f"unknown families {sorted(unknown)}")
        missing = [t for t in self.fit_times if t not in self.sim.snapshot_times]
        if missing:
            raise ConfigError(
                f"fit_times {missing} are not snapshot_times")
        if self.bootstrap_b < 1:
            raise ConfigError(
                f"bootstrap_B must be >= 1, got {self.bootstrap_b}")


def _parse_sections(text: str, origin: str) -> dict:
    """Parse the raw text into {section: {key: (value, line)}}."""
    sections = {}
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{origin}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if current_name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{current_name}]", where)
            if current_name in sections:
                raise ConfigError(f"duplicate section [{current_name}]", where)
            sections[current_name] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", where)
        if current_name is None:
            raise ConfigError("key outside any [section]", where)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTION_KEYS[current_name]:
            raise ConfigError(
                f"unknown key {key!r} in [{current_name}]", where)
        if key in sections[current_name]:
            raise ConfigError(f"duplicate key {key!r}", where)
        sections[current_name][key] = (value, where)
    return sections


def _get(sections, section, key, convert, default=None, required=True):
    sec = sections.get(section, {})
    if key not in sec:
        if required and default is None:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        return default
    value, where = sec[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", where) from exc


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value}")
    return x


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _float_list(value: str):
    items = [v.strip() for v in value.split(",") if v.strip()]
    return tuple(_finite(v) for v in items)


def _str_list(value: str):
    return tuple(v.strip() for v in value.split(",") if v.strip())


def parse_config_text(text: str, origin: str = "<config>",
                      seed=None) -> ExperimentConfig:
    """Resolve config text; a given ``seed`` replaces the ``[run]`` seed."""
    sections = _parse_sections(text, origin)
    if seed is not None:
        if "seed" not in sections.get("run", {}):
            raise ConfigError("config has no [run] seed to override", origin)
        sections["run"]["seed"] = (str(seed), sections["run"]["seed"][1])
    for required in ("model", "dynamics", "run"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]", origin)

    # every value is checked here, before any topology is built
    sigma2 = _get(sections, "model", "sigma2", _finite)
    J = _get(sections, "model", "J", _finite)
    if sigma2 <= 0:
        raise ConfigError(f"sigma2 must be positive, got {sigma2}")
    try:
        params = ModelParams.from_sigma2(sigma2, J)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    n_agents = _get(sections, "run", "N", int)
    dt = _get(sections, "run", "dt", _finite)
    t_end = _get(sections, "run", "t_end", _finite)
    snapshot_times = _get(sections, "run", "snapshot_times", _float_list)
    seed = _get(sections, "run", "seed", _seed)
    init, init_sd = _parse_init(
        _get(sections, "run", "init", str, default="ones"))
    scheme = _get(sections, "run", "scheme", str, default="", required=False)

    kind = _get(sections, "dynamics", "kind", str)
    if kind not in _KINDS:
        raise ConfigError(f"unknown dynamics kind {kind!r}; expected {_KINDS}")
    for key in ("z", "p_sw", "gamma_eft"):
        if key in sections.get("dynamics", {}) and _KIND_EXTRA_KEY.get(kind) != key:
            _, where = sections["dynamics"][key]
            raise ConfigError(f"key {key!r} not valid for kind {kind!r}", where)
    if kind == "eft" and J == 0:
        raise ConfigError("eft dynamics needs J > 0: theta is undefined at "
                          "J = 0", sections["model"]["J"][1])
    if not scheme:
        scheme = _DEFAULT_SCHEME.get(kind, engine.MILSTEIN)
    if scheme not in engine.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected {engine.SCHEMES}")

    try:
        if kind == "complete":
            dynamics = topology.build_complete(n_agents)
        elif kind == "ring":
            z = _get(sections, "dynamics", "z", _finite)
            n = z * n_agents
            if abs(n - round(n)) > 1e-9:
                raise ConfigError(f"z*N = {n} is not an integer ring degree")
            dynamics = topology.build_regular_ring(n_agents, int(round(n)))
        elif kind == "smallworld":
            p_sw = _get(sections, "dynamics", "p_sw", _finite)
            dynamics = topology.build_random_smallworld(n_agents, p_sw, seed)
        elif kind == "meanfield":
            dynamics = MeanFieldDynamics()
        else:
            gamma_eft = _get(sections, "dynamics", "gamma_eft", _finite)
            dynamics = EFTDynamics(gamma_eft)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sim = SimConfig(params=params, dynamics=dynamics, scheme=scheme,
                    N=n_agents, dt=dt, t_end=t_end,
                    snapshot_times=tuple(snapshot_times),
                    init=init, init_sd=init_sd, seed=seed)

    families = _get(sections, "fit", "families", _str_list,
                    default=(), required=False) or ()
    fit_times = _get(sections, "fit", "fit_times", _float_list,
                     default=(), required=False) or ()
    bootstrap_b = _get(sections, "fit", "bootstrap_B", int,
                       default=DEFAULT_BOOTSTRAP_B, required=False)

    resolved = {
        "model": {"sigma2": sigma2, "J": J},
        "dynamics": _resolved_dynamics_section(kind, sections),
        "run": {"N": n_agents, "dt": dt, "t_end": t_end,
                "snapshot_times": ", ".join(repr(t) for t in snapshot_times),
                "scheme": scheme, "init": _init_text(init, init_sd),
                "seed": seed},
    }
    if "fit" in sections:
        resolved["fit"] = {"families": ", ".join(families),
                           "fit_times": ", ".join(repr(t) for t in fit_times),
                           "bootstrap_B": bootstrap_b}

    config = ExperimentConfig(sim=sim, families=tuple(families),
                              fit_times=tuple(fit_times),
                              bootstrap_b=bootstrap_b, sections=resolved)
    config.validate()
    return config


def _resolved_dynamics_section(kind: str, sections: dict) -> dict:
    out = {"kind": kind}
    extra = _KIND_EXTRA_KEY.get(kind)
    if extra:
        out[extra] = float(sections["dynamics"][extra][0])
    return out


def _parse_init(value: str):
    if value == "ones":
        return engine.INIT_ONES, engine.DEFAULT_GAUSSIAN_INIT_SD
    if value == "gaussian":
        return engine.INIT_GAUSSIAN, engine.DEFAULT_GAUSSIAN_INIT_SD
    if value.startswith("gaussian:"):
        try:
            sd = _finite(value.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad gaussian init sd: {exc}") from exc
        if sd <= 0:
            raise ConfigError(f"gaussian init sd must be positive, got {sd}")
        return engine.INIT_GAUSSIAN, sd
    raise ConfigError(f"unknown init {value!r}; expected ones or gaussian[:sd]")


def _init_text(init: str, init_sd: float) -> str:
    if init == engine.INIT_ONES:
        return "ones"
    return f"gaussian:{init_sd!r}"


def load_config(path, seed_override=None) -> ExperimentConfig:
    """Read and resolve a config file, optionally overriding the seed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, origin=str(path), seed=seed_override)


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a resolved config back to the file format (replayable)."""
    blocks = []
    for name, entries in config.sections.items():
        lines = [f"[{name}]"]
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"

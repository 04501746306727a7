"""Experiment config files: flat `key = value` entries in `[section]` blocks.

Sections and keys:

    [model]     sigma2, J
    [dynamics]  kind, and the extra key of that kind, if it has one
    [run]       N, dt, t_end, snapshot_times, scheme, init, seed
    [fit]       families, fit_times, bootstrap_B     (optional section)

Unknown sections or keys are errors, anchored to their line.  Numbers
must be finite, and a seed must lie in [0, 2**64).  Lists are
comma separated, with no entry repeated.  ``init`` is ``ones``,
``gaussian`` or ``gaussian:<sd>``.
One table, ``_KINDS``, declares each dynamics kind: its extra key, its
default ``scheme`` and its builder.  The small-world topology seed is
the run seed, so a config fully determines its realization.

Each rule is checked in one place, and all before any graph is drawn:
the parse checks the ring degree and the positive coupling divisor
(``p_sw = 0`` leaves none), :meth:`~bmnet.engine.SimConfig.validate`
checks the run (N, scheme, init, the dt grid of t_end and the snapshot
times) on a config with no dynamics yet, the parse checks the ``[fit]``
schedule against it, and only then does a ``topology.build_*``
function, whose own checks draw nothing, build the graph.  No rule is
checked on the built graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import topology
from .engine import (MILSTEIN, TAYLOR15, EFTDynamics, MeanFieldDynamics,
                     ModelParams, SimConfig)
from .errors import ConfigError
from .gof import DEFAULT_BOOTSTRAP_B, FAMILIES

# Every dynamics kind, in the order errors list them: its extra
# [dynamics] key or None, its default scheme, and its dynamics built from
# (the extra key's value, N, seed).  Each builder looks up its
# ``topology`` function when called, so a replaced one is the one used.
_KINDS = {
    "complete": (None, MILSTEIN, lambda _, N, s: topology.build_complete(N)),
    "ring": ("z", TAYLOR15,
             lambda z, N, s: topology.build_regular_ring(N, round(z * N))),
    "smallworld": ("p_sw", MILSTEIN,
                   lambda p, N, s: topology.build_random_smallworld(N, p, s)),
    "meanfield": (None, MILSTEIN, lambda *_: MeanFieldDynamics()),
    "eft": ("gamma_eft", MILSTEIN, lambda g, N, s: EFTDynamics(g)),
}
_EXTRA_KEYS = tuple(key for key, _, _ in _KINDS.values() if key)
_DEFAULT_INIT_SD = 0.05  # of ``init = gaussian``

_SECTION_KEYS = {
    "model": {"sigma2", "J"},
    "dynamics": {"kind", *_EXTRA_KEYS},
    "run": {"N", "dt", "t_end", "snapshot_times", "scheme", "init", "seed"},
    "fit": {"families", "fit_times", "bootstrap_B"},
}


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


def _get(sections, section, key, convert, default=None):
    """A converted value; a key without a default is required."""
    sec = sections.get(section, {})
    if key not in sec:
        if default is None:
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


def _distinct(items: tuple) -> tuple:
    """``items``, unless an entry repeats an earlier one."""
    repeated = [v for i, v in enumerate(items) if v in items[:i]]
    if repeated:
        raise ValueError(f"{repeated[0]!r} is listed more than once")
    return items


def _float_list(value: str):
    items = [v.strip() for v in value.split(",") if v.strip()]
    return _distinct(tuple(_finite(v) for v in items))


def _str_list(value: str):
    return _distinct(tuple(v.strip() for v in value.split(",") if v.strip()))


def _model(sections) -> tuple:
    """The [model] sigma2 and J, checked and as written."""
    sigma2 = _get(sections, "model", "sigma2", _finite)
    J = _get(sections, "model", "J", _finite)
    if sigma2 <= 0:
        raise ConfigError(f"sigma2 must be positive, got {sigma2}")
    if J < 0:
        raise ConfigError(f"J must be nonnegative, got {J}")
    return sigma2, J


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

    sigma2, J = _model(sections)
    n_agents = _get(sections, "run", "N", int)
    dt = _get(sections, "run", "dt", _finite)
    t_end = _get(sections, "run", "t_end", _finite)
    snapshot_times = _get(sections, "run", "snapshot_times", _float_list)
    seed = _get(sections, "run", "seed", _seed)
    init_sd = _parse_init(_get(sections, "run", "init", str, default="ones"))
    scheme = _get(sections, "run", "scheme", str, default="")
    families = _get(sections, "fit", "families", _str_list, default=())
    fit_times = _get(sections, "fit", "fit_times", _float_list, default=())
    bootstrap_b = _get(sections, "fit", "bootstrap_B", int,
                       default=DEFAULT_BOOTSTRAP_B)

    kind = _get(sections, "dynamics", "kind", str)
    if kind not in _KINDS:
        raise ConfigError(f"unknown dynamics kind {kind!r}; "
                          f"expected {tuple(_KINDS)}")
    extra, default_scheme, build = _KINDS[kind]
    for key in _EXTRA_KEYS:
        if key in sections.get("dynamics", {}) and key != extra:
            _, where = sections["dynamics"][key]
            raise ConfigError(f"key {key!r} not valid for kind {kind!r}", where)
    if kind == "eft" and J == 0:
        raise ConfigError("eft dynamics needs J > 0: theta is undefined at "
                          "J = 0", sections["model"]["J"][1])
    value = _get(sections, "dynamics", extra, _finite) if extra else None
    if kind == "ring":
        degree = value * n_agents
        if abs(degree - round(degree)) > 1e-9:
            raise ConfigError(f"z*N = {degree} is not an integer ring degree",
                              sections["dynamics"]["z"][1])
    elif kind == "smallworld" and value == 0:  # divisor p_sw * N
        raise ConfigError("topology n_divisor must be positive for network "
                          "dynamics", sections["dynamics"]["p_sw"][1])

    sim = SimConfig(params=ModelParams(sigma2=sigma2, J=J), dynamics=None,
                    scheme=scheme or default_scheme, N=n_agents,
                    dt=dt, t_end=t_end, snapshot_times=snapshot_times,
                    init_sd=init_sd, seed=seed)
    try:
        sim.validate()
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families {sorted(unknown)}")
        missing = [t for t in fit_times if t not in snapshot_times]
        if missing:
            raise ValueError(f"fit_times {missing} are not snapshot_times")
        if bootstrap_b < 1:
            raise ValueError(f"bootstrap_B must be >= 1, got {bootstrap_b}")
        sim = replace(sim, dynamics=build(value, n_agents, seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    resolved = {
        "model": {"sigma2": sigma2, "J": J},
        "dynamics": {"kind": kind, **({extra: value} if extra else {})},
        "run": {"N": n_agents, "dt": dt, "t_end": t_end,
                "snapshot_times": ", ".join(repr(t) for t in snapshot_times),
                "scheme": sim.scheme, "init": _init_text(init_sd),
                "seed": seed},
    }
    if "fit" in sections:
        resolved["fit"] = {"families": ", ".join(families),
                           "fit_times": ", ".join(repr(t) for t in fit_times),
                           "bootstrap_B": bootstrap_b}
    return ExperimentConfig(sim=sim, families=families, fit_times=fit_times,
                            bootstrap_b=bootstrap_b, sections=resolved)


def _parse_init(value: str):
    """The initial state's sd: None for ``ones``, 0.05 for ``gaussian``."""
    if value == "ones":
        return None
    if value == "gaussian":
        return _DEFAULT_INIT_SD
    if value.startswith("gaussian:"):
        try:
            return _finite(value.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad gaussian init sd: {exc}") from exc
    raise ConfigError(f"unknown init {value!r}; expected ones or gaussian[:sd]")


def _init_text(init_sd) -> str:
    return "ones" if init_sd is None else f"gaussian:{init_sd!r}"


def _read(path) -> str:
    """The UTF-8 text of a config file; a ConfigError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config: {reason}", str(path)) from exc


def load_config(path, seed_override=None) -> ExperimentConfig:
    """Read and resolve a config file, optionally overriding the seed."""
    return parse_config_text(_read(path), origin=str(path), seed=seed_override)


def load_model(path) -> tuple:
    """Read only the [model] sigma2 and J of a config file; the other
    sections are checked for unknown keys but not resolved."""
    return _model(_parse_sections(_read(path), str(path)))


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a resolved config back to the file format (replayable)."""
    blocks = []
    for name, entries in config.sections.items():
        lines = [f"[{name}]"]
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"

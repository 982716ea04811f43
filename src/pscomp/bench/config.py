"""Experiment configuration: presets for the standard runs and a JSON
key-value parser with validation.

A config document is a JSON object whose keys are fields of
:class:`ExperimentConfig` (plus an optional ``preset`` naming the defaults
to start from).  Unknown keys are rejected by name, and so is a field that
the preset does not read set to other than the preset's own value.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace

from ..diagnostics import step_count
from ..errors import ValidationError

PROBLEMS = ("harmonic", "kepler", "fisher", "cgl")
#: Most steps one (tau, t_final) run may take: 50 times the largest default.
MAX_STEPS = 10**6
BASE_METHODS = ("strang", "s4sim")

#: The ``problem_params`` each problem reads, with their defaults.
PROBLEM_PARAMS = {"harmonic": {"q0": 2.5, "p0": 0.0}, "kepler": {"e": 0.6},
                  "fisher": {}, "cgl": {"c1": 1.0, "c3": -2.0, "eps": 1.0}}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    base_method: str = "strang"
    levels: int = 3
    tau_list: tuple = ()
    t_final: float = 0.0
    grid_points: int = None
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValidationError(
                f"problem must be one of {PROBLEMS}, got {self.problem!r}"
            )
        if self.base_method not in BASE_METHODS:
            raise ValidationError(
                f"base_method must be one of {BASE_METHODS}, got {self.base_method!r}"
            )
        if not _is_int(self.levels) or not 1 <= self.levels <= 4:
            raise ValidationError(f"levels must be an integer in 1..4, got {self.levels!r}")
        if not isinstance(self.tau_list, (list, tuple)):
            raise ValidationError(f"tau_list must be a list of numbers, got {self.tau_list!r}")
        taus = tuple(_finite("tau_list entry", t) for t in self.tau_list)
        if any(t <= 0 for t in taus):
            raise ValidationError("tau_list entries must be positive")
        if any(a <= b for a, b in zip(taus, taus[1:])):
            raise ValidationError("tau_list must be strictly decreasing")
        if _finite("t_final", self.t_final) < 0:
            raise ValidationError(f"t_final must not be negative, got {self.t_final!r}")
        if self.t_final > 0:
            for tau in taus:
                if step_count(self.t_final, tau) > MAX_STEPS:
                    raise ValidationError(
                        f"t_final={self.t_final} takes over {MAX_STEPS} steps of tau={tau}")
        if self.grid_points is not None:
            n = self.grid_points
            if not _is_int(n) or not 2 <= n <= 65536 or (n & (n - 1)) != 0:
                raise ValidationError(
                    f"grid_points must be a power of two in 2..65536, got {n!r}"
                )
        _check_problem_params(self.problem, self.problem_params)
        object.__setattr__(self, "tau_list", taus)
        object.__setattr__(self, "problem_params", dict(self.problem_params))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(name, value):
    """``value`` as a float; anything but a finite number names ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _check_problem_params(problem, params):
    if not isinstance(params, dict):
        raise ValidationError(f"problem_params must be an object, got {params!r}")
    defaults = PROBLEM_PARAMS[problem]
    unknown = sorted(map(str, set(params) - set(defaults)))
    if unknown:
        raise ValidationError(
            f"unknown problem_params keys for {problem}: {', '.join(unknown)} "
            f"(allowed: {', '.join(defaults) or 'none'})"
        )
    for key, value in params.items():
        _finite(f"problem_params.{key}", value)
    merged = {**defaults, **params}
    if problem == "harmonic":
        q0, p0 = float(merged["q0"]), float(merged["p0"])
        if not 0.0 < 0.5 * (q0 * q0 + p0 * p0) < math.inf:
            raise ValidationError(f"problem_params q0={q0!r}, p0={p0!r}: the energy "
                                  "0.5*(q0^2 + p0^2) must be positive and finite")
    if problem == "kepler" and not 0.0 <= merged["e"] < 1.0:
        raise ValidationError(f"problem_params.e must lie in [0, 1), got {merged['e']!r}")


def _dyadic(tau0, count):
    return tuple(tau0 * 0.5**j for j in range(count))


#: Default configuration per preset; values follow the standard protocol
#: of each experiment (see README for the desk-scale deviations).
PRESETS = {
    "ho-table1": ExperimentConfig(
        problem="harmonic", base_method="strang", levels=3,
        tau_list=_dyadic(0.8, 6), t_final=0.0,
        problem_params={"q0": 2.5, "p0": 0.0},
    ),
    "ho-energy": ExperimentConfig(
        problem="harmonic", base_method="strang", levels=1,
        tau_list=(0.2, 0.1, 0.05), t_final=1000.0,
        problem_params={"q0": 2.5, "p0": 0.0},
    ),
    "kepler-order": ExperimentConfig(
        problem="kepler", base_method="strang", levels=3,
        tau_list=_dyadic(20.0 / 250.0, 6), t_final=20.0,
        problem_params={"e": 0.6},
    ),
    "kepler-energy": ExperimentConfig(
        problem="kepler", base_method="strang", levels=2,
        tau_list=(0.05,), t_final=200.0,
        problem_params={"e": 0.6},
    ),
    "fisher-order": ExperimentConfig(
        problem="fisher", base_method="strang", levels=2,
        tau_list=_dyadic(0.05, 5), t_final=1.0, grid_points=128,
    ),
    "cgl-order": ExperimentConfig(
        problem="cgl", base_method="strang", levels=2,
        tau_list=_dyadic(0.05, 5), t_final=1.0, grid_points=512,
        problem_params={"c1": 1.0, "c3": -2.0, "eps": 1.0},
    ),
    "coeff-audit": ExperimentConfig(
        problem="harmonic", base_method="strang", levels=3,
        tau_list=(), t_final=0.0,
    ),
}

#: The config fields each preset's runner reads.
PRESET_READS = {
    "ho-table1": {"base_method", "levels", "tau_list"},
    "ho-energy": {"base_method", "levels", "tau_list", "t_final", "problem_params"},
    "kepler-order": {"base_method", "levels", "tau_list", "t_final", "problem_params"},
    "kepler-energy": {"base_method", "levels", "tau_list", "t_final", "problem_params"},
    "fisher-order": {"base_method", "levels", "tau_list", "t_final", "grid_points"},
    "cgl-order": {"base_method", "levels", "tau_list", "t_final", "grid_points", "problem_params"},
    "coeff-audit": set(),
}

_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def preset_config(name):
    if not isinstance(name, str) or name not in PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]


def apply_overrides(base, overrides):
    """Merge a partial config mapping over ``base`` and re-validate.

    ``problem_params`` merges key by key over the defaults of the same
    problem; every other field replaces the default wholesale.  Unknown
    keys are listed in the error.
    """
    overrides = dict(overrides)
    unknown = sorted(map(str, set(overrides) - set(_CONFIG_KEYS)))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    params = overrides.get("problem_params", {})
    if not isinstance(params, dict):
        raise ValidationError("problem_params must be an object")
    if overrides.get("problem", base.problem) == base.problem:
        params = {**base.problem_params, **params}
    overrides["problem_params"] = params
    return replace(base, **overrides)


def parse_config(text, preset=None):
    """Parse a JSON config document, filling defaults from a preset.

    ``preset`` may come from the caller or from the document's own
    ``preset`` key (they must agree when both are given).
    """
    try:
        document = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError("config must be a JSON object")
    doc_preset = document.pop("preset", None)
    if doc_preset is not None and preset is not None and doc_preset != preset:
        raise ValidationError(
            f"config names preset {doc_preset!r} but {preset!r} was requested"
        )
    preset = preset or doc_preset
    if preset is None:
        raise ValidationError("no preset named (pass one or add a 'preset' key)")
    config = apply_overrides(preset_config(preset), document)
    check_runnable(preset, config)
    return config


def check_runnable(name, config):
    """Reject a config that preset ``name`` would not run as given: each
    field in ``PRESET_READS[name]`` must be set (``t_final > 0``, a non-empty
    ``tau_list``, a ``grid_points``), and every other field, ``problem``
    included, must keep the preset's own value, as the runner ignores it."""
    preset, reads = preset_config(name), PRESET_READS[name]
    for key in _CONFIG_KEYS:
        value, own = getattr(config, key), getattr(preset, key)
        if key not in reads and value != own:
            raise ValidationError(f"preset {name} does not read {key}: it must be "
                                  f"{own!r}, got {value!r}")
    if "t_final" in reads and config.t_final <= 0:
        raise ValidationError(f"t_final must be positive for preset {name}, "
                              f"got {config.t_final!r}")
    if "tau_list" in reads and not config.tau_list:
        raise ValidationError(f"tau_list must not be empty for preset {name}")
    if "grid_points" in reads and config.grid_points is None:
        raise ValidationError(f"grid_points must be set for preset {name}")

"""What an experiment config is: :class:`ExperimentConfig`, whose
construction validates every field, the ``problem_params`` each problem
reads, and :func:`apply_overrides`, which merges a partial mapping over a
config.  The presets, and the rule that a preset's config sets only the
fields its runner reads, sit in :mod:`pscomp.bench.run`.
"""

import math
from dataclasses import dataclass, field, fields, replace

from ..diagnostics import step_count
from ..errors import ValidationError

#: Most steps one (tau, t_final) run may take: 50 times the largest default.
MAX_STEPS = 10**6
BASE_METHODS = ("strang", "s4sim")

#: The ``problem_params`` each problem reads, with their defaults.
PROBLEM_PARAMS = {"harmonic": {"q0": 2.5, "p0": 0.0}, "kepler": {"e": 0.6},
                  "fisher": {}, "cgl": {"c1": 1.0, "c3": -2.0, "eps": 1.0}}
PROBLEMS = tuple(PROBLEM_PARAMS)


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


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def apply_overrides(base, overrides):
    """Merge a partial config mapping over ``base`` and re-validate.

    ``problem_params`` merges key by key over the defaults of the same
    problem; every other field replaces the default wholesale.  Unknown
    keys are listed in the error.
    """
    overrides = dict(overrides)
    unknown = sorted(map(str, set(overrides) - set(CONFIG_KEYS)))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    params = overrides.get("problem_params", {})
    if not isinstance(params, dict):
        raise ValidationError("problem_params must be an object")
    if overrides.get("problem", base.problem) == base.problem:
        params = {**base.problem_params, **params}
    overrides["problem_params"] = params
    return replace(base, **overrides)

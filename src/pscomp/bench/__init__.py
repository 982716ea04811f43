from .emit import ResultTable, emit
from .run import (
    PRESETS, ExperimentConfig, apply_overrides, available_presets, parse_config,
    preset_config, run_preset,
)

__all__ = [
    "ExperimentConfig", "PRESETS", "ResultTable", "apply_overrides",
    "available_presets", "emit", "parse_config", "preset_config",
    "run_preset",
]

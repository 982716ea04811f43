"""The refactor check's table: every config it runs or validates is one the
CLI answers cleanly, and it runs each base the presets can take."""

import importlib.util
import json
from pathlib import Path

import pytest

from pscomp.bench.run import BASES, PRESET_TABLE, parse_config
from pscomp.errors import ValidationError

_PATH = Path(__file__).resolve().parents[1] / "tools" / "refactor_check.py"
_spec = importlib.util.spec_from_file_location("refactor_check", _PATH)
refactor_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refactor_check)


@pytest.mark.parametrize("name, config", refactor_check.RUNS,
                         ids=[name for name, _ in refactor_check.RUNS])
def test_every_run_config_parses(name, config):
    parse_config(json.dumps(config))


@pytest.mark.parametrize("name, text", refactor_check.VALIDATE,
                         ids=[name for name, _ in refactor_check.VALIDATE])
def test_every_validate_document_passes_or_is_a_validation_error(name, text):
    # Anything but a ValidationError would exit with a traceback.
    try:
        parse_config(text)
    except ValidationError:
        pass


def test_runs_cover_every_base_of_every_preset_that_reads_one():
    covered = {(config["preset"], parse_config(json.dumps(config)).base_method)
               for _, config in refactor_check.RUNS}
    missing = [(name, base) for name, preset in PRESET_TABLE.items()
               if "base_method" in preset.reads
               for base in BASES if base != preset.config.base_method
               and (name, base) not in covered]
    assert not missing


def test_no_two_runs_share_an_output_directory_or_a_record():
    # A run's name is its output directory, its config file and its CLI
    # record; the defaults run into "defaults", each on a record of its preset.
    names = [name for name, _ in refactor_check.RUNS + refactor_check.VALIDATE]
    names += ["defaults", *PRESET_TABLE]
    assert len(set(names)) == len(names)

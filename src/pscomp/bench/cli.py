"""Command-line experiment runner.

    pscomp-bench list
    pscomp-bench run <preset> [--config FILE] [--out DIR]
    pscomp-bench validate <config-file>

Exit codes: 0 on success, 2 on validation errors, 3 when every measured
cell of a run failed (``singular: ...`` or ``non_finite: ...``).
"""

import argparse
import sys

from ..errors import ValidationError
from .config import parse_config
from .run import available_presets, run_preset

_DESCRIPTIONS = {
    "ho-table1": "harmonic oscillator truncation/defect coefficient table",
    "ho-energy": "harmonic oscillator long-run energy error and secular growth",
    "kepler-order": "Kepler final-time energy-error convergence orders",
    "kepler-energy": "Kepler energy-error evolution at fixed step",
    "fisher-order": "reaction-diffusion successive-error convergence orders",
    "cgl-order": "Ginzburg-Landau successive-error convergence orders",
    "coeff-audit": "coefficient-argument audit of the recursive families",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pscomp-bench",
        description="Run composition-method benchmark presets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available presets")

    run_parser = sub.add_parser("run", help="run a preset")
    run_parser.add_argument("preset", choices=available_presets())
    run_parser.add_argument("--config", help="JSON file with config overrides")
    run_parser.add_argument("--out", default=".", help="output directory")

    validate_parser = sub.add_parser("validate", help="validate a config file")
    validate_parser.add_argument("config", help="JSON config file (needs a 'preset' key)")
    return parser


def _load_config(path, preset=None):
    with open(path) as fh:
        return parse_config(fh.read(), preset=preset)


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in available_presets():
            print(f"{name:14s} {_DESCRIPTIONS[name]}")
        return 0

    try:
        if args.command == "validate":
            config = _load_config(args.config)
            print(f"ok: {config.problem} / {config.base_method}, "
                  f"levels={config.levels}, {len(config.tau_list)} step sizes")
            return 0
        config = _load_config(args.config, args.preset) if args.config else None
        table, paths = run_preset(args.preset, out_dir=args.out, config=config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    failures = table.metadata["failures"]
    if failures:
        print(f"{len(failures)} cell(s) failed", file=sys.stderr)
    if table.metadata.get("all_rows_failed"):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver for tetron leakage experiments.

Subcommands
-----------
run           execute a config (or preset) and persist the result table
fit           run a fitting config against a previously written table
oracle-check  compare the orbital method with the exact small-N oracle
presets       list the built-in named experiment presets

Exit codes: 0 success, 2 configuration error or unwritable output path,
3 numerical failure, 4 oracle-check difference above tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .experiments import (
    PRESETS,
    ExperimentConfig,
    parse_config,
    preset_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE_DIFF = 4

OUTDIR_ENV = "TETRONSIM_OUTDIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetronsim",
        description="Kitaev-tetron leakage simulations from declarative configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="INI experiment file")
        p.add_argument("--preset", help="built-in preset name (see 'presets')")
        p.add_argument("--out", type=Path, help="output CSV path")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--quiet", action="store_true",
                       help="print neither the rows-written line nor row failures "
                            "nor the oracle difference")

    add_common(sub.add_parser("run", help="run an experiment"))
    add_common(sub.add_parser("fit", help="fit a model family to a result table"))
    add_common(sub.add_parser("oracle-check", help="compare against the exact oracle"))
    sub.add_parser("presets", help="list built-in presets")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config of ``--config`` or ``--preset`` with the overrides; only ConfigError raises."""
    if (args.config is None) == (args.preset is None):
        raise ConfigError("provide exactly one of --config or --preset")
    cfg = parse_config(args.config) if args.config else preset_config(args.preset)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_path = str(args.out)
    return cfg


def _resolve_out_path(cfg: ExperimentConfig) -> Path:
    default_name = "%s.csv" % cfg.kind
    path = Path(cfg.out_path) if cfg.out_path else Path(default_name)
    if not path.is_absolute():
        base = os.environ.get(OUTDIR_ENV)
        if base:
            path = Path(base) / path
    return path


def _execute(args, expected_kind: Optional[str] = None) -> int:
    try:
        cfg = _load_config(args)
        if expected_kind is not None and cfg.kind != expected_kind:
            raise ConfigError("experiment.kind: subcommand requires kind=%s, got %s"
                              % (expected_kind, cfg.kind))
        table = run_experiment(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - reported as numerical failure
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL

    out_path = _resolve_out_path(cfg)
    try:
        table.write(out_path)
    except OSError as exc:
        print("config error: cannot write %s: %s" % (out_path, exc), file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print("wrote %d rows to %s" % (len(table.rows), out_path))

    statuses = table.metadata.get("row_status", [])
    failed = [s for s in statuses if s != "ok"]
    if failed:
        if not args.quiet:
            for i, status in enumerate(statuses):
                if status != "ok":
                    print("row %d: %s" % (i, status), file=sys.stderr)
        return EXIT_NUMERICAL

    if cfg.kind == "oracle-check" and not table.metadata.get("within_tolerance", False):
        if not args.quiet:
            print("oracle difference %g exceeds tolerance %g"
                  % (table.metadata.get("max_abs_diff", float("nan")),
                     table.metadata.get("tolerance")), file=sys.stderr)
        return EXIT_ORACLE_DIFF
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        for name in sorted(PRESETS):
            print("%-12s %s" % (name, PRESETS[name]["description"]))
        return EXIT_OK
    if args.command == "run":
        return _execute(args)
    if args.command == "fit":
        return _execute(args, expected_kind="fit")
    if args.command == "oracle-check":
        return _execute(args, expected_kind="oracle-check")
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Usage:
    levyfilter {simulate|validate|rate-sweep|compare-baseline}
        --config PATH [--seed N] [--out DIR] [--strict]

Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime error
(extinction-threshold breaches included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, parse_config, run_command, serialize_config

COMMANDS = ("simulate", "validate", "rate-sweep", "compare-baseline")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfilter",
        description="Branching particle filtering of stable signals: "
        "simulation, validation suite, rate sweeps, baseline comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help="override output.directory")
        p.add_argument(
            "--strict",
            action="store_true",
            help="turn grid accuracy and alpha-near-1 warnings into errors (exit 3)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:  # through the schema, so the seed's bound holds here too
            cfg.raw["run"]["seed"] = str(args.seed)
            cfg = parse_config(serialize_config(cfg))
        return run_command(args.command, cfg, args.out, strict=args.strict)
    except ConfigError as exc:
        print("config error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

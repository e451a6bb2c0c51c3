"""Command line front end: every experiment runner as a subcommand.

Flags mirror the config-file keys; a --config file is read first and
explicit flags override it. Exit codes: 0 all checks passed, 1 a check
failed, 2 malformed config or arguments.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, _value, load_config
from .experiments import CONFIG_KEYS, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqcf",
        description="blended force-based coupling: stability experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    # one flag per config key the experiment reads, parsed through the config
    # value grammar so ranges like 1/128..1/2048 and lists like 8,16,32 work
    for name, keys in CONFIG_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output directory")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def _assemble_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        cfg.update(load_config(args.config))
    for key in ("out",) + CONFIG_KEYS[args.experiment]:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg[key] = _value(raw, key)
    cfg["experiment"] = args.experiment
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _assemble_config(args)
        return run(cfg, cfg.get("out"))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: every experiment runner as a subcommand.

Flags mirror the config keys of experiments.EXPERIMENTS; a --config file is
read first and explicit flags override it. Exit codes: 0 all checks passed,
1 a check failed, 2 malformed config or arguments.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, _value, load_config
from .experiments import EXPERIMENTS, _When, run

__all__ = ["main"]


def _help(spec) -> str:
    """A flag's type, choices and default, from its EXPERIMENTS entry."""
    if isinstance(spec, _When):
        when = " and ".join(f"{key} {' or '.join(map(str, values))}"
                            for key, values in spec.when.items())
        return f"{_help(spec.spec)}; read only with {when}"
    if isinstance(spec, tuple):
        return f"one of {', '.join(map(str, spec))}; default {spec[0]}"
    if isinstance(spec, type):
        return f"{spec.__name__}; the default depends on the other keys"
    if isinstance(spec, list):
        return f"{type(spec[0]).__name__} list; default {','.join(map(repr, spec))}"
    return f"{type(spec).__name__}; default {spec!r}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqcf",
        description="blended force-based coupling: stability experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    # one flag per config key the experiment reads, parsed through the config
    # value grammar so ranges like 1/128..1/2048 and lists like 8,16,32 work
    for name, keys in EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output directory")
        for key, spec in keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_help(spec))
    return parser


def _assemble_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        cfg.update(load_config(args.config))
    for key in EXPERIMENTS[args.experiment]:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg[key] = _value(raw, key)
    if args.out is not None:                    # a path, not a config value
        cfg["out"] = args.out
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

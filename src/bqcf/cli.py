"""Command line front end: every experiment runner as a subcommand.

Flags mirror the config keys of experiments.EXPERIMENTS. A --config file,
a JSON object of the same keys such as the config.json a run writes, is
read first and explicit flags override it. Exit codes: 0 all checks passed,
1 a check failed, 2 malformed config or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, _value
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
        p.add_argument("--config", help="JSON object of config keys, such as a "
                       "run's config.json; flags override it")
        p.add_argument("--out", default="bqcf_out", help="output directory")
        for key, spec in keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_help(spec))
    return parser


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members, rejecting a key given twice."""
    cfg = {}
    for key, value in pairs:
        if key in cfg:
            raise ConfigError(f"key {key!r} given twice")
        cfg[key] = value
    return cfg


def _read_config(path: str, experiment: str) -> dict:
    """The config keys of a --config file: a JSON object, values as typed,
    each key once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:      # ValueError: not JSON
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} holds a JSON {type(cfg).__name__}, "
                          f"not an object of config keys")
    if cfg.get("experiment", experiment) != experiment:
        raise ConfigError(f"config {path!r} is for experiment {cfg['experiment']!r}, "
                          f"not {experiment}")
    return cfg


def _assemble_config(args: argparse.Namespace) -> dict:
    cfg = _read_config(args.config, args.experiment) if args.config else {}
    for key in EXPERIMENTS[args.experiment]:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg[key] = _value(raw, key)
    cfg["experiment"] = args.experiment
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(_assemble_config(args), args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

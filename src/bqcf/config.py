"""Flat key=value experiment configuration.

Grammar, one entry per line:

    key = value        # trailing comments stripped

Values parse as int, float, fraction ("1/128"), a doubling range of
fractions ("1/128..1/2048" expands by doubling the denominator), an
integer range ("4..8" expands by +1), a comma list of any scalar, or a
bare string. Keys are dotted lowercase.
"""

from __future__ import annotations

import re

__all__ = ["ConfigError", "ModelRangeError", "parse_config", "load_config", "format_value"]


class ConfigError(ValueError):
    """Malformed configuration; message carries the offending line."""


class ModelRangeError(ValueError):
    """An input lies outside the range a library function is defined on:
    a lattice size, a blend width or radius, a model constant. experiments.run
    reports it as a ConfigError."""


_FRACTION = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")


def _scalar(tok: str, where: str):
    tok = tok.strip()
    m = _FRACTION.match(tok)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise ConfigError(f"zero denominator in {tok!r} ({where})")
        return int(m.group(1)) / den
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if not tok:
        raise ConfigError(f"empty value ({where})")
    return tok


def _value(tok: str, where: str):
    tok = tok.strip()
    if ".." in tok:
        lo, _, hi = tok.partition("..")
        a = _scalar(lo, where)
        b = _scalar(hi, where)
        if isinstance(a, int) and isinstance(b, int):
            if b < a:
                raise ConfigError(f"descending integer range {tok!r} ({where})")
            return list(range(a, b + 1))
        if isinstance(a, float) and isinstance(b, float):
            # fraction ranges expand by doubling: 1/128..1/2048
            if not 0 < b <= a:
                raise ConfigError(f"fraction range must descend to a positive "
                                  f"endpoint: {tok!r} ({where})")
            out = [a]
            cur = a
            for _ in range(64):
                if abs(cur - b) <= 1e-12 * b:
                    out[-1] = b
                    return out
                cur /= 2.0
                out.append(cur)
            raise ConfigError(f"range endpoint unreachable by doubling: {tok!r} ({where})")
        raise ConfigError(f"mixed range endpoints in {tok!r} ({where})")
    if "," in tok:
        return [_scalar(t, where) for t in tok.split(",")]
    return _scalar(tok, where)


def parse_config(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key or not re.fullmatch(r"[A-Za-z0-9_.\-]+", key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _value(val, f"line {lineno}")
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def format_value(v) -> str:
    """Render a parsed value back to config/CSV text (17 significant digits);
    None, a field that does not apply, renders empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return ",".join(format_value(x) for x in v)
    return str(v)

"""Config values: the grammar of command line flag values, and their
rendering for rows.csv.

A flag value parses as an int, a float, a fraction ("1/128"), a doubling
range of fractions ("1/128..1/2048" expands by doubling the denominator),
an integer range ("4..8" expands by +1), a comma list of any scalar, or a
bare string. A config file (--config) is JSON and its values are not
parsed by this grammar.
"""

from __future__ import annotations

import re

__all__ = ["ConfigError", "ModelRangeError", "format_value"]


class ConfigError(ValueError):
    """Malformed configuration; the message names the key, value or file."""


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


def format_value(v) -> str:
    """Render a value as flag/CSV text (17 significant digits); None, a field
    that does not apply, renders empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return ",".join(format_value(x) for x in v)
    return str(v)

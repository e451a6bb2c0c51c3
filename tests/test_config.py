"""Flat key=value config parsing and rendering."""

import pytest

from bqcf.config import ConfigError, format_value, load_config, parse_config


def test_scalars():
    cfg = parse_config(
        "a = 3\n"
        "b = 2.5\n"
        "e = 1/128\n"
        "f = poly7\n"
    )
    assert cfg == {"a": 3, "b": 2.5, "e": 1.0 / 128, "f": "poly7"}


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nx = 1  # trailing\n")
    assert cfg == {"x": 1}


def test_integer_range():
    assert parse_config("k = 4..8")["k"] == [4, 5, 6, 7, 8]


def test_fraction_doubling_range():
    got = parse_config("eps = 1/128..1/512")["eps"]
    assert got == [1 / 128, 1 / 256, 1 / 512]


def test_comma_list():
    assert parse_config("n = 8,64,512")["n"] == [8, 64, 512]
    assert parse_config("r0 = 1e-2,1e-3")["r0"] == [0.01, 0.001]


@pytest.mark.parametrize(
    "text",
    [
        "just a line",
        "bad key! = 1",
        "x = 1\nx = 2",
        "x = 1/0",
        "x = garbage..more",
        "x = 8..4",
        "x = 1/512..1/128",
        "x =",
    ],
)
def test_malformed_lines(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("experiment = trace\nr0 = 1e-2\nquad-n = 8\n")
    cfg = load_config(str(p))
    assert cfg["experiment"] == "trace"
    assert cfg["quad-n"] == 8


def test_format_value_round_trips():
    vals = [3, -7, 0.25, 1 / 3, 1e-17, [1, 2, 3], "poly7"]
    for v in vals:
        rendered = format_value(v)
        back = parse_config(f"x = {rendered}")["x"]
        assert back == v


def test_format_value_renders_none_empty():
    # a field that does not apply, such as a 1D sweep row's Ra
    assert format_value(None) == ""


def test_format_value_precision():
    # 17 significant digits reproduce any double exactly
    x = 0.1 + 0.2
    assert float(format_value(x)) == x

"""Flag value grammar and rendering."""

import pytest

from bqcf.config import ConfigError, _value, format_value


def test_scalars():
    assert _value("3", "a") == 3
    assert _value("2.5", "b") == 2.5
    assert _value("1/128", "e") == 1.0 / 128
    assert _value("poly7", "f") == "poly7"


def test_integer_range():
    assert _value("4..8", "k") == [4, 5, 6, 7, 8]


def test_fraction_doubling_range():
    assert _value("1/128..1/512", "eps") == [1 / 128, 1 / 256, 1 / 512]


def test_comma_list():
    assert _value("8,64,512", "n") == [8, 64, 512]
    assert _value("1e-2,1e-3", "r0") == [0.01, 0.001]


# each case is a value for key x, its id the setting "x = value"
@pytest.mark.parametrize("value", [
    pytest.param("1/0", id="x = 1/0"),
    pytest.param("garbage..more", id="x = garbage..more"),
    pytest.param("8..4", id="x = 8..4"),
    pytest.param("1/512..1/128", id="x = 1/512..1/128"),
    pytest.param("", id="x =")])
def test_malformed_lines(value):
    with pytest.raises(ConfigError, match=r"\(x\)"):
        _value(value, "x")


def test_format_value_round_trips():
    vals = [3, -7, 0.25, 1 / 3, 1e-17, [1, 2, 3], "poly7"]
    for v in vals:
        assert _value(format_value(v), "x") == v


def test_format_value_renders_none_empty():
    # a field that does not apply, such as a 1D sweep row's Ra
    assert format_value(None) == ""


def test_format_value_precision():
    # 17 significant digits reproduce any double exactly
    x = 0.1 + 0.2
    assert float(format_value(x)) == x

from fractions import Fraction as F

import pytest

from wkam.numbers import (
    INF,
    EXACT,
    InputError,
    Mode,
    format_value,
    is_inf,
    parse_value,
)


def test_exact_coerce_keeps_rationals():
    assert EXACT.coerce(F(1, 3)) == F(1, 3)
    assert EXACT.coerce(7) == F(7)
    assert isinstance(EXACT.coerce(7), F)
    assert is_inf(EXACT.coerce(INF))


def test_exact_float_coercion_is_exact_binary():
    assert EXACT.coerce(0.5) == F(1, 2)


def test_nan_rejected():
    with pytest.raises(InputError):
        EXACT.coerce(float("nan"))
    with pytest.raises(InputError):
        parse_value(float("nan"), EXACT)


def test_inf_is_absorbing_under_min_plus():
    assert INF + F(3) == INF
    assert min(INF, F(3)) == F(3)


def test_float_mode_tolerance_band():
    # the band of the metric checks in float mode
    m = Mode("float", 1e-9)
    assert m.le(1.0 + 1e-12, 1.0)
    assert not m.le(1.0 + 1e-6, 1.0)
    assert m.le(1.0, INF) and not m.le(INF, 1.0)
    # scale widens the absolute band
    assert m.le(1e-7, 0.0, scale=1000)
    assert not m.le(1e-7, 0.0)


def test_mode_identity_is_kind_and_tolerance():
    # the stored ``exact`` flag takes no part in ==, hash or repr
    m = Mode("float", 1e-6)
    assert (m == Mode("float", 1e-6), hash(m), repr(m)) == (
        True,
        hash(("float", 1e-6)),
        "Mode(kind='float', tolerance=1e-06)",
    )


def test_mode_validation():
    with pytest.raises(InputError):
        Mode("decimal")
    with pytest.raises(InputError):
        Mode("float", 0.0)
    with pytest.raises(InputError):
        Mode("float", 1.0)
    with pytest.raises(InputError):
        Mode("float", float("inf"))


def test_parse_and_format_round_trip():
    assert parse_value("-1/2", EXACT) == F(-1, 2)
    assert parse_value("3", EXACT) == F(3)
    assert parse_value("1.25", EXACT) == F(5, 4)
    assert is_inf(parse_value("inf", EXACT))
    assert format_value(F(-1, 2)) == "-1/2"
    assert format_value(F(4, 2)) == 2
    assert format_value(INF) == "inf"
    with pytest.raises(InputError):
        parse_value("1/0", EXACT)
    with pytest.raises(InputError):
        parse_value("abc", EXACT)

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkam.numbers import (
    INF,
    EXACT,
    Band,
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
    m = Mode("float", 1e-9)
    assert m.eq(1.0, 1.0 + 1e-12)
    assert not m.eq(1.0, 1.0 + 1e-6)
    assert m.le(1.0 + 1e-12, 1.0)
    assert m.lt(0.0, 1.0)
    assert not m.lt(1.0, 1.0 + 1e-12)
    # scale widens the absolute band
    assert m.eq(0.0, 1e-7, scale=1000)


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


# Band against Mode, entry for entry: +-inf, signed zeros, subnormals and
# values far above the scale
ANY = st.floats(allow_nan=False) | st.sampled_from(
    [INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
SCALES = st.floats(0, 1e300) | st.integers(0, 10**15) | st.sampled_from([0, 0.5, 1, 1e16])
TOLERANCES = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from(
    [5e-324, 1e-9, 0.5, 0.999, 1 - 2**-53]
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TOLERANCES, SCALES, st.lists(st.tuples(ANY, ANY), min_size=1, max_size=6))
def test_band_matches_mode_entry_for_entry(tol, scale, pairs):
    m = Mode("float", tol)
    band = Band(m, scale)
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    assert band.zeros(u) == [i for i, a in enumerate(u) if m.is_zero(a, scale=scale)]
    # whole rows, which an infinite entry or an overflowing sum sends
    # entry by entry, and each pair alone
    for rows in [(u, v)] + [([a], [b]) for a, b in pairs]:
        assert band.eq(*rows) == [m.eq(a, b, scale=scale) for a, b in zip(*rows)]
        assert band.le(*rows) == [m.le(a, b, scale=scale) for a, b in zip(*rows)]
        assert band.lt(*rows) == [m.lt(a, b, scale=scale) for a, b in zip(*rows)]


def test_band_in_exact_mode_compares_plainly():
    band = Band(EXACT, F(7, 2))
    assert band.zeros([F(0), F(1, 10**9), 0, INF, -1]) == [0, 2]
    u, v = [F(1, 3), 2, INF, 5], [F(1, 3), 3, INF, 4]
    assert band.eq(u, v) == [True, False, True, False]
    assert band.le(u, v) == [True, True, True, False]
    assert band.lt(u, v) == [False, True, False, False]

"""Property tests for the symbolic field: random RatFuncs built from small
rational constants and the builtin variables, exponents in [-3, 3]."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselzeta.symfield import (
    BUILTIN_VARS,
    RF_ONE,
    RF_ZERO,
    LaurentPoly,
    RatFunc,
    parse_ratfunc,
    rf_var,
)

PROPS = settings(derandomize=True, max_examples=40, deadline=None)

consts = st.fractions(min_value=-6, max_value=6, max_denominator=5)
monomials = st.builds(
    lambda c, powers: reduce(lambda acc, p: acc * rf_var(*p), powers, RatFunc.const(c)),
    consts,
    st.lists(st.tuples(st.sampled_from(BUILTIN_VARS), st.integers(-3, 3)), max_size=2),
)
polys = st.lists(monomials, min_size=1, max_size=2).map(lambda ms: sum(ms, RF_ZERO))
ratfuncs = st.builds(
    lambda num, den: num / den, polys, polys.filter(lambda p: not p.is_zero)
)


@PROPS
@given(ratfuncs)
def test_text_roundtrip(f):
    assert parse_ratfunc(f.to_text()) == f


@PROPS
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == RF_ZERO
    if not f.is_zero:
        assert f / f == RF_ONE


@PROPS
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_const_value_roundtrip(a, b):
    assert RatFunc.const(Fraction(a, b)).const_value() == Fraction(a, b)


@PROPS
@given(st.one_of(consts, st.floats(allow_nan=False)))
def test_laurent_rejects_non_integer_coefficients(c):
    with pytest.raises(TypeError):
        LaurentPoly({(("T", 1),): c})

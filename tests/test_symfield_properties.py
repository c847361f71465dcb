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
    _ONE,
    _ZERO,
    _from_sympy,
    _gcd_cofactors,
    _int_gcd,
    _mono_key,
    _ring_for,
    _sorted_terms,
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


# -- the gcd-free fast paths against the full canonicalization -------------

def _old_min_exponents(poly):
    return {
        name: min(dict(mono).get(name, 0) for mono in poly.terms)
        for name in poly.variables()
    }


def _to_sympy(poly, names, R):
    # the reference's own conversion, independent of the program's
    # _exponent_vectors
    return R.from_dict(
        {_mono_key(mono, names): coeff for mono, coeff in poly.terms.items()}
    )


def _poly_gcd_reduce(num, den):
    """The reference reduction: one sympy cofactors of the whole pair,
    giving cofactors in sympy's terms() order when the gcd is nontrivial
    and the inputs themselves when it is 1."""
    names = tuple(sorted(set(num.variables()) | set(den.variables())))
    if not names:
        return num, den
    R = _ring_for(names)
    g, a, b = _to_sympy(num, names, R).cofactors(_to_sympy(den, names, R))
    if g == R.one:
        return num, den
    return _from_sympy(a, names), _from_sympy(b, names)


def _full(num, den):
    """Canonical form with the polynomial gcd always taken."""
    if num.is_zero:
        return _ZERO, _ONE
    mins_n, mins_d = _old_min_exponents(num), _old_min_exponents(den)
    shift = {}
    for name in set(mins_n) | set(mins_d):
        m = min(mins_n.get(name, 0), mins_d.get(name, 0))
        if m:
            shift[name] = -m
    if shift:
        mono = tuple(sorted(shift.items()))
        num, den = num.mono_shift(mono), den.mono_shift(mono)
    content = _int_gcd(*num.terms.values(), *den.terms.values())
    if content > 1:
        num = LaurentPoly({m: c // content for m, c in num.terms.items()})
        den = LaurentPoly({m: c // content for m, c in den.terms.items()})
    num, den = _poly_gcd_reduce(num, den)
    names = den.variables()
    lead = max(den.terms, key=lambda m: _mono_key(m, names))
    if den.terms[lead] < 0:
        num, den = -num, -den
    return num, den


# (num, den) pairs through the arithmetic as it reads with no fast path
def _add(f, g):
    return _full(f[0] * g[1] + g[0] * f[1], f[1] * g[1])


def _neg(f):
    return _full(-f[0], f[1])


def _mul(f, g):
    return _full(f[0] * g[0], f[1] * g[1])


def _div(f, g):
    return _full(f[0] * g[1], f[1] * g[0])


def _inv(f):
    return _full(f[1], f[0])


def _pow(f, k):
    if k < 0:
        return _pow(_inv(f), -k)
    return _full(f[0] ** k, f[1] ** k)


def _same_terms(r, pair):
    """Equal values with the terms stored in the same order."""
    assert (list(r.num.terms.items()), list(r.den.terms.items())) == (
        list(pair[0].terms.items()), list(pair[1].terms.items()))


units = st.one_of(st.just(RF_ZERO), st.just(RF_ONE), monomials)


@PROPS
@given(ratfuncs, units)
def test_fast_paths_match_full_canonicalization(f, m):
    fp, mp = (f.num, f.den), (m.num, m.den)
    _same_terms(f + m, _add(fp, mp))
    _same_terms(m + f, _add(mp, fp))
    _same_terms(f - m, _add(fp, _neg(mp)))
    _same_terms(m - f, _add(mp, _neg(fp)))
    _same_terms(f * m, _mul(fp, mp))
    _same_terms(m * f, _mul(mp, fp))
    _same_terms(-f, _neg(fp))
    if not m.is_zero:
        _same_terms(f / m, _div(fp, mp))
    if not f.is_zero:
        _same_terms(m / f, _div(mp, fp))
        _same_terms(f.inv(), _inv(fp))


@PROPS
@given(ratfuncs, st.integers(-3, 3))
def test_powers_match_full_canonicalization(f, k):
    if f.is_zero and k < 0:
        return
    _same_terms(f**k, _pow((f.num, f.den), k))


@PROPS
@given(ratfuncs, ratfuncs)
def test_general_arithmetic_matches_full_canonicalization(f, g):
    fp, gp = (f.num, f.den), (g.num, g.den)
    _same_terms(f + g, _add(fp, gp))
    _same_terms(f * g, _mul(fp, gp))
    if not g.is_zero:
        _same_terms(f / g, _div(fp, gp))


# -- Henrici's smaller gcds, where the operands share a planted factor ------

# h has at least two terms, so it is never a unit of the Laurent ring
factors = st.builds(lambda m1, m2: m1 + m2, monomials, monomials).filter(
    lambda h: len(h.num.terms) > 1)


@PROPS
@given(polys, polys, polys, polys, polys, factors)
def test_planted_common_factors_match_full_canonicalization(a, b, c, d, e, h):
    if b.is_zero or d.is_zero:
        return
    cases = [
        (a / (h * b), c / (h * d)),              # h in both denominators
        (a / h, c / h),                          # equal denominators
        (a / (h * b), (e * h - a * d) / (h * b * d)),  # the sum's t shares h
        ((a * h) / b, c / (d * h)),              # h in a numerator and a den
    ]
    for f, g in cases:
        fp, gp = (f.num, f.den), (g.num, g.den)
        _same_terms(f + g, _add(fp, gp))
        _same_terms(f - g, _add(fp, _neg(gp)))
        _same_terms(f * g, _mul(fp, gp))
        if not g.is_zero:
            _same_terms(f / g, _div(fp, gp))
        if not f.is_zero:
            _same_terms(g / f, _div(gp, fp))


polynomials = st.dictionaries(
    st.dictionaries(st.sampled_from(BUILTIN_VARS), st.integers(1, 3),
                    max_size=3).map(lambda d: tuple(sorted(d.items()))),
    st.integers(-9, 9).filter(bool),
    min_size=1, max_size=4,
).map(LaurentPoly)


@PROPS
@given(polynomials, polynomials, polynomials.filter(lambda h: len(h.terms) > 1))
def test_gcd_cofactors_nontrivial_path_is_lex_ordered(p, q, h):
    # pins the sympy behaviour that the lex=True constructions reproduce:
    # a nontrivial gcd comes back with every term in descending lex order
    x, y = h * p, h * q
    if x == y or x.is_monomial() or y.is_monomial():
        return
    g, x_g, y_g = _gcd_cofactors(x, y)
    assert g * x_g == x and g * y_g == y
    assert len(g.terms) > 1
    for poly in (g, x_g, y_g):
        assert list(poly.terms.items()) == _sorted_terms(poly)


@PROPS
@given(polynomials, polynomials)
def test_gcd_cofactors_shortcuts_return_the_operands(x, y):
    g, x_g, y_g = _gcd_cofactors(x, y)
    if len(g.terms) == 1:
        assert (g, x_g, y_g) == (_ONE, x, y)
        assert x_g is x and y_g is y
    assert _gcd_cofactors(x, x) == ((_ONE, x, x) if x.is_monomial() else (x, _ONE, _ONE))


laurent_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(BUILTIN_VARS), st.integers(-3, 3).filter(bool),
                    max_size=3).map(lambda d: tuple(sorted(d.items()))),
    st.integers(-9, 9),
    max_size=4,
).map(LaurentPoly)


@PROPS
@given(laurent_polys)
def test_min_exponents_one_pass(poly):
    assert poly.min_exponents() == _old_min_exponents(poly)

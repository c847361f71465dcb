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
    _canonicalize,
    _gcd_cofactors,
    _int_gcd,
    _ring_for,
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
        LaurentPoly(("T",), {(1,): c})


def test_laurent_needs_names_and_terms():
    # a one-argument call in the old pair format must not read as zero
    with pytest.raises(TypeError):
        LaurentPoly({(("T", 1),): 1})


def test_laurent_rejects_unsorted_names_and_short_or_long_monomials():
    # either would break structural equality and the text form
    for names, terms in ((("T", "Q"), {(1, 1): 1}), (("Q",), {(1, 2): 1}),
                         (("Q", "Q"), {(1, 1): 1}), (("Q", "T"), {(1,): 1, (1, 0): 1})):
        with pytest.raises(ValueError):
            LaurentPoly(names, terms)
    assert LaurentPoly(("Q", "T"), {(1, 1): 1}) == LaurentPoly.var("Q") * LaurentPoly.var("T")


# -- the gcd-free fast paths against the full canonicalization -------------

def _old_min_exponents(poly):
    return {
        name: min(dict(zip(poly.names, mono))[name] for mono in poly.terms)
        for name in poly.variables()
    }


def _to_sympy(poly, names, R):
    # the reference's own conversion, independent of the program's _over
    return R.from_dict({
        tuple(dict(zip(poly.names, mono)).get(n, 0) for n in names): coeff
        for mono, coeff in poly.terms.items()
    })


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
    return LaurentPoly(names, dict(a.terms())), LaurentPoly(names, dict(b.terms()))


class _Ref(tuple):
    """A reference (num, den) pair from _full; ``factored`` is true when its
    gcd divided out a factor of two or more terms, whose cofactors keep
    sympy's term order."""

    factored = False


def _full(num, den):
    """Canonical form with the polynomial gcd always taken."""
    if num.is_zero:
        return _Ref((_ZERO, _ONE))
    mins_n, mins_d = _old_min_exponents(num), _old_min_exponents(den)
    shift = {}
    for name in set(mins_n) | set(mins_d):
        m = min(mins_n.get(name, 0), mins_d.get(name, 0))
        if m:
            shift[name] = -m
    if shift:
        names = tuple(sorted({*num.names, *den.names}))
        exps = tuple(shift.get(n, 0) for n in names)
        num, den = num.mono_shift(names, exps), den.mono_shift(names, exps)
    content = _int_gcd(*num.terms.values(), *den.terms.values())
    if content > 1:
        num = LaurentPoly(num.names, {m: c // content for m, c in num.terms.items()})
        den = LaurentPoly(den.names, {m: c // content for m, c in den.terms.items()})
    reduced = _poly_gcd_reduce(num, den)
    factored = reduced[0] is not num
    num, den = reduced
    lead = max(den.terms)
    if den.terms[lead] < 0:
        num, den = -num, -den
    ref = _Ref((num, den))
    ref.factored = factored
    return ref


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


def _same_value(r, pair):
    """Equal values, as RatFunc == compares them: the term order is free."""
    assert (r.num, r.den) == pair


def _same_terms_unless_factored(r, ref):
    """_same_terms, or _same_value where _full divided out a factor of two
    or more terms: the arithmetic promises no order for those cofactors."""
    (_same_value if ref.factored else _same_terms)(r, ref)


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
    _same_terms_unless_factored(f + g, _add(fp, gp))
    _same_terms_unless_factored(f * g, _mul(fp, gp))
    if not g.is_zero:
        _same_terms_unless_factored(f / g, _div(fp, gp))


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
        _same_value(f + g, _add(fp, gp))
        _same_value(f - g, _add(fp, _neg(gp)))
        _same_value(f * g, _mul(fp, gp))
        if not g.is_zero:
            _same_value(f / g, _div(fp, gp))
        if not f.is_zero:
            _same_value(g / f, _div(gp, fp))


def _from_pairs(terms):
    """The LaurentPoly of {monomial as sorted (name, exponent) pairs: coeff}."""
    names = tuple(sorted({n for mono in terms for n, _ in mono}))
    return LaurentPoly(names, {tuple(dict(mono).get(n, 0) for n in names): c
                               for mono, c in terms.items()})


pair_monomials = st.dictionaries(st.sampled_from(BUILTIN_VARS), st.integers(1, 3),
                                 max_size=3).map(lambda d: tuple(sorted(d.items())))
polynomials = st.dictionaries(
    pair_monomials, st.integers(-9, 9).filter(bool), min_size=1, max_size=4,
).map(_from_pairs)


@PROPS
@given(polynomials, polynomials)
def test_gcd_cofactors_shortcuts_return_the_operands(x, y):
    g, x_g, y_g = _gcd_cofactors(x, y)
    if len(g.terms) == 1:
        assert (g, x_g, y_g) == (_ONE, x, y)
        assert x_g is x and y_g is y
    assert _gcd_cofactors(x, x) == ((_ONE, x, x) if x.is_monomial() else (x, _ONE, _ONE))


laurent_pair_monomials = st.dictionaries(
    st.sampled_from(BUILTIN_VARS), st.integers(-3, 3).filter(bool), max_size=3,
).map(lambda d: tuple(sorted(d.items())))
laurent_polys = st.dictionaries(
    laurent_pair_monomials, st.integers(-9, 9), max_size=4,
).map(_from_pairs)


@PROPS
@given(laurent_polys)
def test_min_exponents_one_pass(poly):
    assert dict(zip(poly.names, poly.min_exponents())) == _old_min_exponents(poly)


# -- the exponent-tuple format against (name, exponent) pair arithmetic ------

def test_cancelled_variable_is_dropped():
    q = LaurentPoly.var("Q")
    one = (q + _ONE) - q
    assert one == _ONE and hash(one) == hash(_ONE) and one.variables() == ()
    assert RatFunc(one) == RF_ONE
    t = LaurentPoly.var("T")
    assert (q * t) * LaurentPoly.var("T", -1) == q
    assert q.mono_shift(("Q", "T"), (-1, 0)) == _ONE
    assert q.mono_shift(("Q", "T"), (-1, 2)) == t * t


def test_arithmetic_across_variable_sets():
    q, t, a = (LaurentPoly.var(n) for n in "QTA")
    s = (q + t) + (a - t)
    assert s.names == ("A", "Q") and s.terms == {(0, 1): 1, (1, 0): 1}
    p = (q + t) * (a + _ONE)
    assert p.names == ("A", "Q", "T")
    assert list(p.terms.items()) == [((1, 1, 0), 1), ((0, 1, 0), 1), ((1, 0, 1), 1),
                                     ((0, 0, 1), 1)]
    m = (q + t).mono_shift(("A", "Q", "T"), (2, 0, -1))
    assert m.names == ("A", "Q", "T")
    assert list(m.terms.items()) == [((2, 1, -1), 1), ((2, 0, 0), 1)]


def _pair_mono_mul(m1, m2):
    d = dict(m1)
    for name, e in m2:
        e2 = d.get(name, 0) + e
        if e2:
            d[name] = e2
        else:
            del d[name]
    return tuple(sorted(d.items()))


def _pair_add(p, q):
    d = dict(p)
    for m, c in q.items():
        s = d.get(m, 0) + c
        if s:
            d[m] = s
        elif m in d:
            del d[m]
    return d


def _pair_mul(p, q):
    d = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _pair_mono_mul(m1, m2)
            s = d.get(m, 0) + c1 * c2
            if s:
                d[m] = s
            elif m in d:
                del d[m]
    return d


def _pair_key(mono, names):
    return tuple(dict(mono).get(n, 0) for n in names)


def _pair_names(*polys):
    return tuple(sorted({n for p in polys for mono in p for n, _ in mono}))


def _pair_from_sympy(elem, names):
    return {tuple((names[i], e) for i, e in enumerate(exps) if e): c
            for exps, c in elem.terms()}


def _pair_canonicalize(num, den, coprime):
    """_canonicalize on {pair monomial: coeff} dicts, with one sympy gcd."""
    if not num:
        return {}, {(): 1}
    low = {n: min(dict(m).get(n, 0) for m in [*num, *den])
           for n in _pair_names(num, den)}
    shift = tuple((n, -e) for n, e in low.items() if e)
    num = {_pair_mono_mul(m, shift): c for m, c in num.items()}
    den = {_pair_mono_mul(m, shift): c for m, c in den.items()}
    content = _int_gcd(*num.values(), *den.values())
    num = {m: c // content for m, c in num.items()}
    den = {m: c // content for m, c in den.items()}
    names = _pair_names(num, den)
    if not coprime and names:
        R = _ring_for(names)
        x, y = (R.from_dict({_pair_key(m, names): c for m, c in p.items()})
                for p in (num, den))
        g, a, b = x.cofactors(y)
        if len(g) > 1:
            num, den = _pair_from_sympy(a, names), _pair_from_sympy(b, names)
    if den[max(den, key=lambda m: _pair_key(m, _pair_names(den)))] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    return num, den


def _pairs(poly):
    """poly's terms as (pair monomial, coeff) items, in stored order."""
    return [(tuple((n, e) for n, e in zip(poly.names, m) if e), c)
            for m, c in poly.terms.items()]


laurent_terms = st.dictionaries(laurent_pair_monomials, st.integers(-9, 9).filter(bool),
                                max_size=5)


@PROPS
@given(laurent_terms, laurent_terms, laurent_pair_monomials, st.booleans())
def test_term_order_matches_pair_arithmetic(p, q, shift, coprime):
    x, y = _from_pairs(p), _from_pairs(q)
    assert _pairs(x) == list(p.items())
    assert _pairs(x + y) == list(_pair_add(p, q).items())
    assert _pairs(x * y) == list(_pair_mul(p, q).items())
    names = tuple(sorted({*x.names, *dict(shift)}))
    exps = tuple(dict(shift).get(n, 0) for n in names)
    assert _pairs(x.mono_shift(names, exps)) == [
        (_pair_mono_mul(m, shift), c) for m, c in p.items()]
    if q:
        got = _canonicalize(x, y, coprime)
        want = _pair_canonicalize(p, q, coprime)
        assert (_pairs(got[0]), _pairs(got[1])) == tuple(list(w.items()) for w in want)

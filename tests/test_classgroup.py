import cmath
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from besselzeta import classgroup
from besselzeta.classgroup import (
    ClassChar,
    ClassGroup,
    QuadForm,
    bessel_coeff_sum,
    compose_forms,
    is_fundamental,
    reduce_form,
    reduced_forms,
    t_theta,
    t_theta_principal,
)

LISTED = (-3, -4, -7, -8, -11, -15, -20, -23, -47)


def test_reduction_pins():
    assert reduce_form(QuadForm(1, 1, 6)) == QuadForm(1, 1, 6)
    assert reduce_form(QuadForm(6, 1, 1)) == QuadForm(1, 1, 6)
    assert reduce_form(QuadForm(3, 5, 3)) == QuadForm(1, 1, 3)  # D = -11
    assert reduced_forms(-11) == [QuadForm(1, 1, 3)]  # exhaustive table
    with pytest.raises(ValueError):
        reduce_form(QuadForm(-1, 0, 1))


def _random_sl2z(rng):
    # a product of 1 to 6 factors, each S or T^k with |k| <= 5
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(-5, 5)
        (p, q), (r, s) = m
        (e, f), (g, h) = ((0, -1), (1, 0)) if rng.random() < 0.5 else ((1, k), (0, 1))
        m = ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
    return m


def test_reduction_is_canonical_on_each_class():
    # every form SL_2(Z)-equivalent to a reduced form reduces back to it,
    # which is what makes the reduced form a class label
    rng = random.Random(22)
    for d in range(-3, -400, -1):
        if not is_fundamental(d):
            continue
        for g in reduced_forms(d):
            for _ in range(20):
                assert reduce_form(g.transform(_random_sl2z(rng))) == g, (d, g)


def test_enumeration_pins():
    assert reduced_forms(-3) == [QuadForm(1, 1, 1)]
    assert reduced_forms(-4) == [QuadForm(1, 0, 1)]
    assert sorted(reduced_forms(-23)) == sorted(
        [QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)]
    )
    assert len(reduced_forms(-47)) == 5


def test_class_numbers_against_oracle():
    for d, h in ((-3, 1), (-4, 1), (-23, 3), (-47, 5)):
        grp = ClassGroup(d)
        assert grp.h == h
        assert len(reduced_forms(d)) == h


def test_fundamental_check():
    assert is_fundamental(-4) and is_fundamental(-23)
    assert not is_fundamental(-12)  # 4 * (-3), -3 = 1 mod 4
    assert not is_fundamental(-9)
    assert not is_fundamental(5)
    with pytest.raises(ValueError):
        ClassGroup(-12)


def test_group_axioms_all_listed():
    for d in LISTED:
        grp = ClassGroup(d)
        cl = grp.classes
        ident = cl[grp.identity]
        for x in cl:
            assert grp.compose(ident, x) == x
            assert grp.compose(x, grp.conjugate_class(x)) == ident
        for x, y, z in itertools.product(cl, repeat=3):
            assert grp.compose(grp.compose(x, y), z) == grp.compose(
                x, grp.compose(y, z)
            )


def test_composition_pins():
    grp = ClassGroup(-23)
    assert grp.compose(QuadForm(2, 1, 3), QuadForm(2, -1, 3)) == QuadForm(1, 1, 6)
    assert grp.compose(QuadForm(2, 1, 3), QuadForm(2, 1, 3)) == QuadForm(2, -1, 3)
    with pytest.raises(ValueError):
        compose_forms(QuadForm(1, 1, 6), QuadForm(1, 0, 1))  # discriminant mismatch
    with pytest.raises(ValueError, match="not a primitive form of discriminant -23"):
        grp.index(QuadForm(1, 1, 1))  # discriminant -3


@pytest.mark.parametrize("f,g", [
    (QuadForm(0, 1, 0), QuadForm(0, 1, 0)),
    (QuadForm(0, 1, 0), QuadForm(1, 1, 0)),
    (QuadForm(1, 1, 6), QuadForm(-1, 1, -6)),
])
def test_composition_needs_positive_definite_forms(f, g):
    with pytest.raises(ValueError, match="composition needs positive definite forms"):
        compose_forms(f, g)


# -- independent ideal-arithmetic oracle -----------------------------------
# the class of (a, b, c) corresponds to the ideal Z a + Z (-b + sqrt(D))/2;
# module arithmetic is done in the basis {1, w} with w = (D + sqrt(D))/2.


def _form_to_module(f):
    d = f.disc
    # (-b + sqrt(D))/2 = (-b - D)/2 + w
    return [(f.a, 0), ((-f.b - d) // 2, 1)], d


def _module_product(gens1, gens2, d):
    # products of generators, expanded in {1, w}: w^2 = D w - (D^2 - D)/4
    w_tr = d
    w_norm = (d * d - d) // 4
    out = []
    for x1, y1 in gens1:
        for x2, y2 in gens2:
            # (x1 + y1 w)(x2 + y2 w)
            const = x1 * x2 - y1 * y2 * w_norm
            lin = x1 * y2 + y1 * x2 + y1 * y2 * w_tr
            out.append((const, lin))
    return out


def _module_hnf(gens):
    # canonical basis [(n, 0), (b, g)] of the Z-module spanned by gens
    gens = [g for g in gens if g != (0, 0)]
    # make a single generator with minimal positive w-coefficient
    while True:
        withw = sorted((g for g in gens if g[1]), key=lambda g: abs(g[1]))
        if len(withw) <= 1:
            break
        lead = withw[0]
        rest = []
        for g in gens:
            if g is lead or not g[1]:
                rest.append(g)
            else:
                k = g[1] // lead[1]
                rest.append((g[0] - k * lead[0], g[1] - k * lead[1]))
        gens = [lead] + [g for g in rest if g != (0, 0) and g is not lead]
        if all(g[1] % lead[1] == 0 or not g[1] for g in gens):
            reduced = []
            for g in gens:
                if g[1] and g is not lead:
                    k = g[1] // lead[1]
                    g = (g[0] - k * lead[0], g[1] - k * lead[1])
                if g != (0, 0):
                    reduced.append(g)
            if all(not g[1] for g in reduced if g is not lead):
                gens = reduced
                break
    lead = next(g for g in gens if g[1])
    if lead[1] < 0:
        lead = (-lead[0], -lead[1])
    n = math.gcd(*[abs(g[0]) for g in gens if not g[1]]) if any(
        not g[1] for g in gens
    ) else 0
    assert n > 0
    return n, (lead[0] % n, lead[1])


def _module_to_form(n, lead, d):
    # norm form of the ideal [n, b + g w] divided by its norm n * g, with
    # the basis oriented so that form -> ideal -> form is the identity
    b, g = lead
    w_tr, w_norm = d, (d * d - d) // 4
    # N(n x - (b + g w) y) = n^2 x^2 - n(2b + g w_tr) x y + N(b + g w) y^2
    nb = b * b + b * g * w_tr + g * g * w_norm
    norm_ideal = n * g
    aa = n * n // norm_ideal
    bb = -n * (2 * b + g * w_tr) // norm_ideal
    cc = nb // norm_ideal
    return reduce_form(QuadForm(aa, bb, cc))


def _ideal_compose(f1, f2):
    gens1, d = _form_to_module(f1)
    gens2, _ = _form_to_module(f2)
    prod = _module_product(gens1, gens2, d)
    n, lead = _module_hnf(prod)
    return _module_to_form(n, lead, d)


def test_ideal_oracle_roundtrip():
    # form -> ideal -> form is the identity on reduced representatives
    for d in LISTED:
        for f in reduced_forms(d):
            gens, _ = _form_to_module(f)
            n, lead = _module_hnf(gens)
            assert _module_to_form(n, lead, d) == f


def test_composition_against_ideal_oracle():
    for d in LISTED:
        grp = ClassGroup(d)
        for f1 in grp.classes:
            for f2 in grp.classes:
                assert grp.compose(f1, f2) == _ideal_compose(f1, f2), (d, f1, f2)


def test_t_theta():
    assert t_theta(-4, 0, 1) == QuadForm(1, 0, 1)
    assert t_theta(-23, 1, 6) == QuadForm(1, 1, 6)
    with pytest.raises(ValueError):
        t_theta(-23, 0, 1)
    # -det of the matrix form is D/4 exactly
    f = t_theta(-20, 0, 5)
    assert -(Fraction(f.a) * f.c - Fraction(f.b, 2) ** 2) == Fraction(-20, 4)
    # principal form generator matches the integer ring
    assert t_theta_principal(-4) == QuadForm(1, 0, 1)
    assert t_theta_principal(-23) == QuadForm(1, 1, 6)


def test_conjugation():
    grp = ClassGroup(-23)
    ident = grp.classes[grp.identity]
    assert grp.conjugate_class(ident) == ident
    assert grp.conjugate_class(QuadForm(2, 1, 3)) == QuadForm(2, -1, 3)
    grp47 = ClassGroup(-47)
    for f in grp47.classes:
        assert grp47.conjugate_class(grp47.conjugate_class(f)) == f
        # conjugation is inversion
        assert grp47.compose(f, grp47.conjugate_class(f)) == grp47.classes[
            grp47.identity
        ]


def test_characters_count_and_orthogonality():
    for d in (-15, -20, -23, -47):
        grp = ClassGroup(d)
        chars = ClassChar.all_chars(grp)
        assert len(chars) == grp.h
        for c1 in chars:
            for c2 in chars:
                s = sum(c1(f) * c2(f).conjugate() for f in grp.classes)
                want = grp.h if c1.exponents == c2.exponents else 0
                assert abs(s - want) < 1e-12
        # columns too
        for f1 in grp.classes:
            for f2 in grp.classes:
                s = sum(c(f1) * c(f2).conjugate() for c in chars)
                want = grp.h if f1 == f2 else 0
                assert abs(s - want) < 1e-12


def _fraction_turn(chi, f):
    # the sum of e x / d over Fractions, reduced mod 1: the value of chi(f)
    # as a fraction of a full turn, computed without the lcm of the orders
    total = Fraction(0)
    for e, x, d in zip(chi.exponents, chi.group.coords(f), chi.group.invariants):
        total += Fraction(e * x, d)
    return total % 1


def test_char_values_match_the_fraction_sum():
    # the integer route n / L gives the Fraction sum exactly and its float
    # bit for bit, on every class of every accepted D in [-400, -3]
    for d in range(-400, -2):
        try:
            grp = ClassGroup(d)
        except ValueError:
            continue
        for chi in ClassChar.all_chars(grp):
            for f in grp.classes:
                want = _fraction_turn(chi, f)
                assert chi.value_fraction(f) == want
                assert chi(f) == cmath.exp(2j * cmath.pi * float(want))


def test_char_conjugate_is_inverse():
    grp = ClassGroup(-47)
    for chi in ClassChar.all_chars(grp):
        conj = chi.conjugate()
        for f in grp.classes:
            assert abs(conj(f) - chi(f).conjugate()) < 1e-12
            assert abs(conj(f) * chi(f) - chi(grp.classes[grp.identity]) ** 0) < 1e-12


def test_bessel_coeff_sum_orthogonality():
    grp = ClassGroup(-23)
    chars = ClassChar.all_chars(grp)
    ones = {f: 1.0 for f in grp.classes}
    for chi in chars:
        got = bessel_coeff_sum(grp, ones, chi)
        want = grp.h if chi.is_trivial() else 0.0
        assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        bessel_coeff_sum(grp, {grp.classes[0]: 1.0}, chars[0])


def test_bessel_conj_sign_law():
    rng = random.Random(17)
    for d in (-23, -47):
        grp = ClassGroup(d)
        chars = ClassChar.all_chars(grp)
        for l2 in (0, 1):
            sign = (-1) ** l2
            for _ in range(100):
                coeffs = {}
                for f in grp.classes:
                    fc = grp.conjugate_class(f)
                    if f in coeffs:
                        continue
                    if fc == f:
                        coeffs[f] = rng.gauss(0, 1) if sign == 1 else 0.0
                    else:
                        v = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        coeffs[f] = v
                        coeffs[fc] = sign * v
                for chi in chars:
                    lhs = bessel_coeff_sum(grp, coeffs, chi.conjugate())
                    rhs = sign * bessel_coeff_sum(grp, coeffs, chi)
                    assert abs(lhs - rhs) < 1e-10


def test_unit_counts():
    assert ClassGroup(-3).w == 6
    assert ClassGroup(-4).w == 4
    assert ClassGroup(-23).w == 2


def test_structure_labels():
    assert ClassGroup(-3).structure_label() == "C1"
    assert ClassGroup(-23).structure_label() == "C3"
    assert ClassGroup(-47).structure_label() == "C5"
    # first non-cyclic fundamental discriminant
    grp = ClassGroup(-84)
    assert grp.h == 4
    assert grp.structure_label() == "C2 x C2"
    assert len(ClassChar.all_chars(grp)) == 4


# The composition code before `_xgcd` was replaced by pow(., -1, .), kept
# verbatim: the reduced output must not depend on which inverse is used.
def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _parent_compose_forms(f: QuadForm, g: QuadForm) -> QuadForm:
    if f.disc != g.disc:
        raise ValueError("cannot compose forms of different discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise ValueError("composition needs primitive forms")
    a1 = f.a
    g2 = _parent_equivalent_with_coprime_lead(g, a1)
    a2 = g2.a
    # solve B = b1 mod 2 a1, B = b2 mod 2 a2  (b1, b2 share the parity of D)
    b1, b2 = f.b, g2.b
    gcd_, x, _ = _xgcd(2 * a1, 2 * a2)
    assert (b2 - b1) % gcd_ == 0
    bb = (b1 + 2 * a1 * x * ((b2 - b1) // gcd_)) % (4 * a1 * a2 // gcd_)
    assert (bb - b1) % (2 * a1) == 0 and (bb - b2) % (2 * a2) == 0
    cc_num = bb * bb - f.disc
    assert cc_num % (4 * a1 * a2) == 0
    composed = QuadForm(a1 * a2, bb, cc_num // (4 * a1 * a2))
    return reduce_form(composed)


def _parent_equivalent_with_coprime_lead(g: QuadForm, n: int) -> QuadForm:
    for x in range(1, 4 * max(n, 2) + 2):
        for y in range(0, 4 * max(n, 2) + 2):
            if math.gcd(x, y) != 1:
                continue
            if math.gcd(g.value(x, y), n) == 1:
                gcd_, s, t = _xgcd(x, y)
                # complete (x, y) to [[x, -t], [y, s]] of determinant 1
                m = ((x, -t), (y, s))
                return g.transform(m)
    raise RuntimeError("no coprime representation found; form not primitive?")


FUNDAMENTAL_TO_400 = [d for d in range(-400, -2) if is_fundamental(d)]


def test_composition_equals_xgcd_version():
    for d in FUNDAMENTAL_TO_400:
        forms = reduced_forms(d)
        for f, g in itertools.product(forms, repeat=2):
            assert compose_forms(f, g) == _parent_compose_forms(f, g), (f, g)


def test_class_group_equals_xgcd_version(monkeypatch):
    new = {d: ClassGroup(d) for d in FUNDAMENTAL_TO_400}
    monkeypatch.setattr(classgroup, "compose_forms", _parent_compose_forms)
    for d, grp in new.items():
        old = ClassGroup(d)
        assert grp.table == old.table and grp.identity == old.identity, d
        assert grp.invariants == old.invariants, d
        assert [grp.coords(f) for f in grp.classes] == [old.coords(f) for f in old.classes], d


# Digest of every structure result for the 305 fundamental D in (-1000, -2],
# recorded from the closure-and-BFS structure pass that the one generating
# pass replaced: the reduced classes are unique, and U maps every exponent
# vector of a class to the same coordinates, so no result may move.
STRUCTURE_DIGEST = "3a15b5d89469d51f5a215079c04f06933e2243f46010c8049911d27a78abb259"


def test_class_group_structure_digest():
    rows = []
    for d in range(-999, -1):
        if is_fundamental(d):
            grp = ClassGroup(d)
            rows.append([d, grp.h, grp.identity, list(grp.invariants),
                         [list(grp.coords(f)) for f in grp.classes]])
    assert len(rows) == 305
    assert ClassGroup(-840).structure_label() == "C2 x C2 x C2"
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == STRUCTURE_DIGEST


def test_bessel_coeff_sum_equals_per_class_inverse():
    def per_class(group, coeffs, chi):
        total = 0j
        for f in group.classes:
            if f not in coeffs:
                raise ValueError(f"no coefficient assigned to the class of {f}")
            total += complex(coeffs[f]) * chi.inverse()(f)
        return total

    rng = random.Random(13)
    for d in (-23, -47):
        grp = ClassGroup(d)
        coeffs = {f: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for f in grp.classes}
        for chi in ClassChar.all_chars(grp):
            assert bessel_coeff_sum(grp, coeffs, chi) == per_class(grp, coeffs, chi)

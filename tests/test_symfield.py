import random
from fractions import Fraction

import pytest

from besselzeta.symfield import (
    RF_ONE,
    RF_ZERO,
    LaurentPoly,
    RatFunc,
    RatMatrix,
    Var,
    geom_resolvent,
    parse_ratfunc,
    poly_text,
    rf_arith,
    rf_var,
)

Q, T, A, B, G, U = (rf_var(n) for n in "QTABGU")


def test_cancellation_to_zero():
    f = RF_ONE / (RF_ONE - T) - RF_ONE / (RF_ONE - T)
    assert f.is_zero
    assert f == RF_ZERO


def test_identity_quotient():
    num = (Q**2 - A) * (Q**2 - B)
    assert num / num == RF_ONE


def test_case4_bracket_collapse():
    # the degree-4 numerator over X(1 - q^-2 X^2) collapses to A0(X + 1/X) + A1
    A0, A1, X = rf_var("A0"), rf_var("A1"), rf_var("X")
    q_inv4 = rf_var("Q", -4)
    num = A0 + A1 * X + q_inv4 * (Q**4 - 1) * A0 * X**2 - q_inv4 * A1 * X**3 \
        - q_inv4 * A0 * X**4
    den = X * (1 - q_inv4 * X**2)
    assert num / den == A0 * (X + X**-1) + A1


def test_rf_arith_dispatch():
    assert rf_arith(A, B, "add") == A + B
    assert rf_arith(A, B, "sub") == A - B
    assert rf_arith(A, B, "mul") == A * B
    assert rf_arith(A, B, "div") == A / B
    with pytest.raises(ZeroDivisionError):
        rf_arith(A, RF_ZERO, "div")
    with pytest.raises(ValueError):
        rf_arith(A, B, "pow")


def test_subst_symmetric_function():
    f = rf_var("X") + rf_var("X", -1)
    assert f.subst({"X": rf_var("X").inv()}) == f


def test_subst_polynomial_vanishes():
    f = RF_ONE - A * T
    assert f.subst({"A": RF_ONE, "T": RF_ONE}) == RF_ZERO


def test_subst_denominator_vanishing_raises():
    f = RF_ONE / (RF_ONE - A * T)
    with pytest.raises(ZeroDivisionError):
        f.subst({"A": RF_ONE, "T": RF_ONE})


def test_subst_is_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_ratfunc(rng)
        g = _random_ratfunc(rng)
        bind = {"A": T + 1, "T": Q * A}
        assert (f * g).subst(bind) == f.subst(bind) * g.subst(bind)


def _random_ratfunc(rng, vars_=("A", "T", "Q")):
    def poly():
        p = RF_ZERO
        for _ in range(rng.randint(1, 3)):
            term = RatFunc.const(rng.randint(-4, 4))
            for v in vars_:
                term = term * rf_var(v, rng.randint(-1, 2))
            p = p + term
        return p

    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return num / den


def test_field_axioms_random():
    rng = random.Random(5)
    for _ in range(20):
        f, g, h = (_random_ratfunc(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == RF_ZERO
        if not f.is_zero:
            assert f * f.inv() == RF_ONE


def test_evaluation_matches_product():
    rng = random.Random(6)
    for _ in range(30):
        f = _random_ratfunc(rng)
        g = _random_ratfunc(rng)
        point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in "ATQ"}
        try:
            lhs = (f * g).evaluate(point)
            rhs = f.evaluate(point) * g.evaluate(point)
        except ZeroDivisionError:
            continue
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_canonical_form_factored_vs_expanded():
    factored = (A + T) * (A - T) / ((A + T) * Q)
    expanded = (A * A - T * T) / (A * Q + T * Q)
    assert factored == expanded
    assert hash(factored) == hash(expanded)


def test_denominator_sign_normalized():
    f = RF_ONE / (RF_ONE - T)   # den -T + 1 vs T - 1
    g = -RF_ONE / (T - RF_ONE)
    assert f == g
    assert f.to_text() == g.to_text()


def test_geom_resolvent_zero_matrix():
    m = RatMatrix([[RF_ZERO, RF_ZERO], [RF_ZERO, RF_ZERO]])
    assert geom_resolvent(m, rf_var("X")) == RatMatrix.identity(2)


def test_geom_resolvent_scalar():
    m = RatMatrix([[rf_var("c")]])
    out = geom_resolvent(m, rf_var("X"))
    assert out[0, 0] == RF_ONE / (RF_ONE - rf_var("c") * rf_var("X"))


def test_geom_resolvent_inverse_property():
    x = rf_var("X")
    m = RatMatrix([[A, RF_ONE, T], [RF_ZERO, Q, A], [T, RF_ZERO, RF_ONE]])
    res = geom_resolvent(m, x)
    assert res * (RatMatrix.identity(3) - m.scale(x)) == RatMatrix.identity(3)


def test_solve_two_column_rhs():
    m = RatMatrix([[A, RF_ONE, T], [RF_ZERO, Q, A], [T, RF_ZERO, RF_ONE]])
    rhs = RatMatrix([[RF_ONE, B], [Q, RF_ZERO], [RF_ZERO, A * T]])
    assert m * m.solve(rhs) == rhs
    # the same system with a zero in the first pivot position
    swap = RatMatrix([m.entries[1], m.entries[0], m.entries[2]])
    swap_rhs = RatMatrix([rhs.entries[1], rhs.entries[0], rhs.entries[2]])
    assert swap.solve(swap_rhs) == m.solve(rhs)


def test_solve_singular_raises():
    m = RatMatrix([[A, T], [A * Q, T * Q]])
    with pytest.raises(ValueError):
        m.solve(RatMatrix([[RF_ONE], [RF_ZERO]]))


def test_geom_resolvent_table4_partial_sums():
    # brute-force partial sums agree with the closed resolvent through
    # degree 20 for the scaled lower-triangular Hecke matrix
    from besselzeta.localrep import LocalRep
    from besselzeta.localzeta import hecke_matrices

    rep = LocalRep("I", (Fraction(1), Fraction(2), Fraction(1, 3)))
    m = hecke_matrices(rep).t10.scale(rf_var("Q", -6))
    x = rf_var("X")
    closed = geom_resolvent(m, x)
    # diagonal of the inverse is (1 - mu_i Q^-6 X)^{-1}
    for i in range(4):
        mu_i = m[i, i]
        assert closed[i, i] == (RF_ONE - mu_i * x).inv()
    # compare Taylor coefficients: evaluate both sides at 20 sample X values
    # after truncating the series
    point = {"Q": 2.0}
    m_num = [[e.evaluate(point) for e in row] for row in m.entries]
    deg = 20
    xv = 0.35
    acc = [[float(i == j) for j in range(4)] for i in range(4)]
    power = [[float(i == j) for j in range(4)] for i in range(4)]
    for _ in range(deg):
        power = [
            [xv * sum(power[i][k] * m_num[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        acc = [[acc[i][j] + power[i][j] for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            closed_val = closed[i, j].evaluate({"Q": 2.0, "X": xv})
            assert abs(closed_val - acc[i][j]) < 1e-6


def test_singular_resolvent_raises():
    m = RatMatrix([[RF_ONE, RF_ZERO], [RF_ZERO, RF_ONE]])
    with pytest.raises(ValueError):
        geom_resolvent(m, RF_ONE)  # I - I is singular


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        RatMatrix([[RF_ONE], [RF_ONE, RF_ZERO]])
    m = RatMatrix([[RF_ONE, RF_ZERO]])
    with pytest.raises(ValueError):
        m + RatMatrix([[RF_ONE]])
    with pytest.raises(ValueError):
        m.trace()


def test_parser_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        f = _random_ratfunc(rng)
        assert parse_ratfunc(f.to_text()) == f


def test_parser_grammar():
    assert parse_ratfunc("(1 - A*T)^-1") == (RF_ONE - A * T).inv()
    assert parse_ratfunc("Q^2/(T - 1) + 3") == Q**2 / (T - 1) + 3
    assert parse_ratfunc("-T^(-2)") == -(T**-2)
    with pytest.raises(ValueError):
        parse_ratfunc("Z + 1")  # unregistered name
    assert parse_ratfunc("Z + 1", extra_vars=("Z",)) == rf_var("Z") + 1
    with pytest.raises(ValueError):
        parse_ratfunc("1 +")


def test_serialization_deterministic():
    f = (A + T) ** 3 / (Q - 1)
    g = (T + A) ** 3 / (Q - 1)
    assert f.to_text() == g.to_text()
    assert poly_text(LaurentPoly.const(0)) == "0"


def test_var_registry():
    with pytest.raises(ValueError):
        Var("not a name!")
    assert Var("Q") == Var("Q")
    assert Var("Q").rf() == Q


def test_laurent_negative_power_of_polynomial_raises():
    p = LaurentPoly.var("T") + LaurentPoly.const(1)
    with pytest.raises(ValueError):
        p ** -1

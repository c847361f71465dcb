import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from sympy.polys.rings import PolyElement

from besselzeta.symfield import (
    BUILTIN_VARS,
    RF_ONE,
    RF_ZERO,
    LaurentPoly,
    RatFunc,
    RatMatrix,
    _ONE,
    _P,
    _gcd_cofactors,
    _point,
    _provably_coprime,
    _ring_for,
    geom_resolvent,
    parse_ratfunc,
    poly_text,
    rf_var,
)

Q, T, A, B, G, U = (rf_var(n) for n in "QTABGU")
GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "verify_all.seed831.json"


def test_cancellation_to_zero():
    f = RF_ONE / (RF_ONE - T) - RF_ONE / (RF_ONE - T)
    assert f.is_zero
    assert f == RF_ZERO


def test_identity_quotient():
    num = (Q**2 - A) * (Q**2 - B)
    assert num / num == RF_ONE
    with pytest.raises(ZeroDivisionError):
        num / RF_ZERO


def test_case4_bracket_collapse():
    # the degree-4 numerator over X(1 - q^-2 X^2) collapses to A0(X + 1/X) + A1
    A0, A1, X = rf_var("A0"), rf_var("A1"), rf_var("X")
    q_inv4 = rf_var("Q", -4)
    num = A0 + A1 * X + q_inv4 * (Q**4 - 1) * A0 * X**2 - q_inv4 * A1 * X**3 \
        - q_inv4 * A0 * X**4
    den = X * (1 - q_inv4 * X**2)
    assert num / den == A0 * (X + X**-1) + A1


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


def test_hash_of_equal_ratfuncs_built_in_other_term_orders():
    f = (T + A) * (Q - 1) / (Q + 1)
    g = (Q * A - A + Q * T - T) / (1 + Q)
    assert list(f.num.terms) != list(g.num.terms) and f == g
    # no hash is memoized, so the second call recomputes it
    for _ in range(2):
        assert hash(f) == hash(g)


def test_equality_with_numbers_and_coercion():
    assert RatFunc.const(2) == 2 and RF_ONE / 2 == Fraction(1, 2)
    assert RF_ONE / 2 != 2 and T != 2
    # a value that is no number is unequal, not an error
    assert (T == "T") is False and (T == None) is False  # noqa: E711
    poly = LaurentPoly(("T",), {(1,): 1, (0,): -1})
    assert RatFunc.coerce(poly) == T - 1


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
    # the symbolic strings the verify report prints for case 1 and the periods
    report = json.loads(GOLDEN.read_text())
    texts = [c[side] for suite in report["suites"] for c in suite["cases"]
             if c["id"].startswith(("case1-", "period-")) for side in ("expected", "actual")]
    assert len(texts) == 16
    for text in texts:
        assert parse_ratfunc(text).to_text() == text


# (text, extra_vars, value): whitespace of any kind separates tokens, and a
# negative exponent may be parenthesised
PARSE_ACCEPTS = [
    ("(1 - A*T)^-1", (), (RF_ONE - A * T).inv()),
    ("Q^2/(T - 1) + 3", (), Q**2 / (T - 1) + 3),
    ("-T^(-2)", (), -(T**-2)),
    ("A^-(2) - 2^-1", (), A**-2 - Fraction(1, 2)),
    ("A\t*\n T\n", (), A * T),
    ("((A - (T)) * ((Q)))^2", (), ((A - T) * Q) ** 2),
    ("Z + 1", ("Z",), rf_var("Z") + 1),
]

# each raises ValueError: an unregistered name, Python syntax outside the
# grammar (** and comments, booleans, floats, underscored, hex and
# leading-zero literals, calls, attributes, comparisons, @, unary +), a
# doubly negated, chained or non-integer exponent, malformed text, and a
# keyword written against a number, which Python's tokenizer warns about
PARSE_REJECTS = [
    "Z + 1", "A**2", "A # T", "True", "1.5", "1_0", "0x10", "f(A)", "A.T", "A < T",
    "A @ T", "+A", "007", "A^-(-2)", "A^--2", "A^(-(-2))", "2^3^2", "A^B", "A^1.5",
    "A^1_0", "1 +", "(A", "A)", "A B", "", "1/0 +", "2if", "1or T", "3in",
]


def test_parser_grammar():
    for text, extra, want in PARSE_ACCEPTS:
        assert parse_ratfunc(text, extra_vars=extra) == want, text
    # a rejected text raises ValueError and nothing else: no warning either
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for text in PARSE_REJECTS:
            with pytest.raises(ValueError):
                parse_ratfunc(text)
    assert [str(w.message) for w in seen] == []


def test_parser_reads_long_chains_and_rejects_deep_ones():
    # a chain of n operands nests n - 1 deep down its left operands
    assert parse_ratfunc(" + ".join(["T"] * 1000)) == 1000 * T
    assert parse_ratfunc(" * ".join(["T"] * 1000)) == T**1000
    for op in (" + ", " * "):
        with pytest.raises(ValueError):
            parse_ratfunc(op.join(["T"] * 5000))
    with pytest.raises(ValueError):
        parse_ratfunc("-" * 5000 + "T")


def test_serialization_deterministic():
    f = (A + T) ** 3 / (Q - 1)
    g = (T + A) ** 3 / (Q - 1)
    assert f.to_text() == g.to_text()
    assert poly_text(LaurentPoly.const(0)) == "0"


def test_var_registry():
    with pytest.raises(ValueError):
        rf_var("not a name!")


def test_laurent_negative_power_of_polynomial_raises():
    p = LaurentPoly.var("T") + LaurentPoly.const(1)
    with pytest.raises(ValueError):
        p ** -1


def test_laurent_power_squares_only_while_bits_remain(monkeypatch):
    # binary powering: one product per set bit of k and one square per
    # bit below the top one, with no square after the last bit
    x = LaurentPoly.var("T") + LaurentPoly.var("Q", 2) - LaurentPoly.const(3)
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    for k in range(10):
        want = _ONE
        for _ in range(k):
            want = want * x
        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        calls.clear()
        got = x**k
        monkeypatch.undo()
        assert got == want
        if k:
            assert len(calls) == k.bit_count() + k.bit_length() - 1, k


# -- Brown's coprimality proof in front of sympy's cofactors ----------------

def _sympy_cofactors(x, y):
    """The sympy route of _gcd_cofactors, with no proof in front of it."""
    names = tuple(sorted(set(x.variables()) | set(y.variables())))
    R = _ring_for(names)
    g, a, b = R.from_dict(_vectors(x, names)).cofactors(R.from_dict(_vectors(y, names)))
    if len(g) == 1:
        return _ONE, x, y
    return tuple(LaurentPoly(names, dict(p.terms())) for p in (g, a, b))


def _vectors(poly, names):
    """poly's terms as exponent tuples over names, a superset of its own."""
    return {tuple(dict(zip(poly.names, mono)).get(n, 0) for n in names): c
            for mono, c in poly.terms.items()}


def _random_poly(rng, names, terms, top=3):
    """terms random terms, each exponent drawn in the order of names."""
    out = {}
    for _ in range(terms):
        exps = {n: rng.randint(0, top) for n in names}
        out[tuple(exps[n] for n in sorted(names))] = rng.choice(
            [c for c in range(-9, 10) if c])
    return LaurentPoly(tuple(sorted(names)), out)


def _shifted(poly, pairs):
    """poly times the monomial of the (name, exponent) pairs."""
    for name, e in pairs:
        poly = poly * LaurentPoly.var(name, e)
    return poly


def test_coprimality_proof_agrees_with_sympy():
    # whenever the proof answers, sympy's gcd has one term; on the draws
    # that sympy finds coprime, the proof answers nearly always
    rng = random.Random(1971)
    coprime = proved = draws = 0
    while draws < 1200:
        names = rng.sample(BUILTIN_VARS, rng.randint(1, 5))
        x = _random_poly(rng, names, rng.randint(2, 5))
        y = _random_poly(rng, names, rng.randint(2, 5))
        kind = draws % 4
        if kind == 1:  # a planted factor of two or more terms
            h = _random_poly(rng, names, rng.randint(2, 3), top=2)
            x, y = x * h, y * h
        elif kind == 2:  # planted monomial factors, partly shared
            x = _shifted(x, [(n, rng.randint(1, 2)) for n in names[:2]])
            y = _shifted(y, [(n, rng.randint(1, 2)) for n in names[-2:]])
        elif kind == 3:  # both
            h = _random_poly(rng, names, 2, top=2)
            x, y = x * h * LaurentPoly.var(names[0]), y * h
        if x.is_monomial() or y.is_monomial() or x == y:
            continue
        draws += 1
        ref = _sympy_cofactors(x, y)
        names = tuple(sorted(set(x.variables()) | set(y.variables())))
        proof = _provably_coprime(_vectors(x, names), _vectors(y, names))
        trivial = ref[0] == _ONE
        if proof:
            assert trivial, (x, y)
        coprime += trivial
        proved += proof
        assert _gcd_cofactors(x, y) == ref
    assert coprime >= 500
    assert proved >= 0.95 * coprime


def test_coprimality_proof_falls_through_at_a_vanishing_leading_coefficient():
    # x = Q*(T - c) + 1 loses its degree in Q where T takes the value c, so
    # the proof gives up and sympy answers; one step away it proves
    calls = []
    cofactors = PolyElement.cofactors

    def counted(self, other):
        calls.append(1)
        return cofactors(self, other)

    for shift, sympy_calls in ((0, 1), (1, 0)):
        c = (_point(1) + shift) % _P  # T is the second of the names (Q, T)
        x = LaurentPoly(("Q", "T"), {(1, 1): 1, (1, 0): -c, (0, 0): 1})
        y = LaurentPoly(("Q", "T"), {(1, 1): 1, (0, 0): 2})
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolyElement, "cofactors", counted)
            got = _gcd_cofactors(x, y)
        assert len(calls) == sympy_calls
        assert got == _sympy_cofactors(x, y) == (_ONE, x, y)
        assert got[1] is x and got[2] is y


# -- subst over one common denominator against the term-by-term route -------

def _term_subst(poly, bind):
    total = RF_ZERO
    for mono, coeff in poly.terms.items():
        term = RatFunc.const(coeff)
        for name, e in zip(poly.names, mono):
            base = bind.get(name)
            if base is None:
                term = term * RatFunc.var(name, e)
            else:
                term = term * base**e
        total = total + term
    return total


def _termwise_subst(f, bindings):
    """RatFunc.subst as it was: one product and one sum per term."""
    bind = {k: RatFunc.coerce(v) for k, v in bindings.items()}
    num = _term_subst(f.num, bind)
    den = _term_subst(f.den, bind)
    if den.is_zero:
        raise ZeroDivisionError("denominator vanishes under substitution")
    return num / den


def test_subst_matches_the_term_by_term_route():
    rng = random.Random(16)
    bindings = [
        {"T": T.inv(), "U": U.inv()},                   # monomial values
        {"T": T * Q.inv()},
        {"T": RatFunc.const(0)},                        # constants
        {"A": RatFunc.const(Fraction(1, 3)), "B": 2},
        {"A": (1 + Q) / (Q - 2), "T": 1 / (1 + T)},     # non-monomial denominators
        {"Q": (Q**2 + A) / (Q * B - 1)},
        {"T": T / (1 + T), "Q": Q**2 + 1},              # a variable in its own value
        {"K": Q + 1, "T": T},                           # K occurs nowhere
        {},
    ]
    names = ("Q", "T", "A", "B", "U")

    def monomial():
        out = RatFunc.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for n in rng.sample(names, rng.randint(0, 3)):
            out = out * rf_var(n, rng.choice([-2, -1, 1, 2, 3]))
        return out

    def draw():
        return sum((monomial() for _ in range(rng.randint(1, 4))), RF_ZERO)

    checked = 0
    for _ in range(60):
        den = draw()
        f = draw() / den if not den.is_zero else draw()
        for b in bindings:
            try:
                want = _termwise_subst(f, b)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    f.subst(b)
                continue
            got = f.subst(b)
            assert got == want and got.to_text() == want.to_text()
            checked += 1
    assert checked >= 400

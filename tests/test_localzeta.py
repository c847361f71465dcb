import cmath
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from besselzeta import localzeta as lz
from besselzeta import suites, symfield
from besselzeta.localrep import (
    LocalRep,
    TwistData,
    shift_half,
    spinor_lfactor,
)
from besselzeta.localzeta import (
    bessel_identity_values,
    bessel_norms,
    diag_series,
    diag_values_numeric,
    hecke_matrices,
    local_period,
    local_period_closed,
    mu_l_lfactor,
    recursion_consistency,
    zeta_case1,
    zeta_case4,
    zeta_case4_series,
    zeta_case5_6,
    zeta_case5_6_series,
)
from besselzeta.symfield import RF_ONE, RF_ZERO, RatFunc, RatMatrix, rf_var

Q, T, A, G, U, L = (rf_var(n) for n in "QTAGUL")
TW = TwistData(u=U)


def test_hecke_matrix_pins():
    pair = hecke_matrices(LocalRep.symbolic("I"))
    diag = [pair.t10[i, i] for i in range(4)]
    B = rf_var("B")
    assert diag == [A * B * G * Q**3, B * G * Q**3, A * G * Q**3, G * Q**3]
    assert pair.t10[0, 1].is_zero  # lower triangular
    assert pair.eta[1, 2] == A * G * Q
    pair = hecke_matrices(LocalRep.symbolic("IIb"))
    assert pair.eta[1, 1] == A * G  # center entry
    assert pair.t10[1, 1] == A * G * Q**4
    pair = hecke_matrices(LocalRep.symbolic("VIb"))
    assert pair.t10 == RatMatrix([[G * Q**2]])
    assert pair.eta == RatMatrix([[G]])
    pair = hecke_matrices(LocalRep.symbolic("IIIa"))
    assert pair.t10[0, 0] == A * G * Q**2 and pair.t10[1, 1] == G * Q**2
    assert pair.eta[1, 0] == A * G and pair.eta[0, 1] == G


def _stored(f):
    return [(p.names, list(p.terms.items())) for p in (f.num, f.den)]


@pytest.mark.parametrize("tag", ("I", "IIb", "IIIa", "VIb"))
def test_row_times_hecke_matrix_keeps_the_dot_product_term_order(tag):
    # the closed forms and series take b^T M as a one-row matrix product;
    # it must store what the per-column sum starting from RF_ZERO stored
    rep = LocalRep.symbolic_trivial(tag)
    pair = hecke_matrices(rep)
    row, _ = lz._series_linear_forms(rep, U * T * Q**2)
    for b in (bessel_identity_values(rep), row):
        for m in (pair.eta, pair.t10):
            got = (RatMatrix([b]) * m).entries[0]
            for j in range(m.cols):
                want = sum((b[k] * m[k, j] for k in range(m.rows)), RF_ZERO)
                assert _stored(got[j]) == _stored(want), (tag, j)


def test_eta_squared_is_identity_for_trivial_central_character():
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        eta = hecke_matrices(rep).eta
        assert eta * eta == RatMatrix.identity(eta.rows)


def test_eta_squared_equals_central_character_generally():
    rep = LocalRep.symbolic("IIb")
    eta = hecke_matrices(rep).eta
    z = rep.central_character()
    assert eta * eta == RatMatrix.identity(3).scale(z)


def test_bessel_identity_values():
    vals = bessel_identity_values(LocalRep.symbolic("I"))
    B = rf_var("B")
    den = (Q**2 - A) * (Q**2 - B)
    assert vals[3] == Q**4 / den  # B_4(1) = q^2 / ((q-a)(q-b))
    assert sum(vals, RF_ZERO) == RF_ONE
    vals = bessel_identity_values(LocalRep.symbolic("IIb"))
    assert sum(vals, RF_ZERO) == RF_ONE
    assert all(not v.is_zero for v in vals)
    assert bessel_identity_values(LocalRep.symbolic("IIIa")) == (RF_ONE, A.inv())
    assert bessel_identity_values(LocalRep.symbolic("VIb")) == (RF_ONE,)


def test_bessel_identity_degenerate():
    with pytest.raises(ZeroDivisionError):
        bessel_identity_values(LocalRep("I", (rf_var("Q") ** 2, 1, 1)))


def test_bessel_norms():
    q = Q**2
    assert bessel_norms(LocalRep.symbolic("I")) == tuple(
        q**i * (q + 1) for i in range(4)
    )
    assert bessel_norms(LocalRep.symbolic("IIb")) == (
        q + 1,
        q * (q + 1) ** 2,
        q**3 * (q + 1),
    )


def test_diag_series_constant_term():
    rep = LocalRep.symbolic_trivial("I")
    x = rf_var("X")
    series = diag_series(rep, x)
    assert series.subst({"X": RatFunc.const(0)}) == RF_ONE  # B0(1_4) = 1


def test_diag_series_linear_term_against_matrix_power():
    # coefficient of X^1 is q^-3 * b^T t10 1; extract it by differencing
    rep = LocalRep("I", (1, 1, 1))
    x = rf_var("X")
    series = diag_series(rep, x)
    pair = hecke_matrices(rep)
    b = bessel_identity_values(rep)
    ones = [RF_ONE] * 4
    brute = sum(
        (b[i] * sum((pair.t10[i, j] for j in range(4)), RF_ZERO) for i in range(4)),
        RF_ZERO,
    ) * Q**-6
    # numeric Taylor coefficient at a sample q
    point = {"Q": math.sqrt(7)}
    eps = 1e-5
    c1 = (
        series.evaluate({**point, "X": eps}) - series.evaluate({**point, "X": -eps})
    ) / (2 * eps)
    assert abs(c1 - brute.evaluate(point)) < 1e-6
    # same from the numeric diagonal recursion
    vals = diag_values_numeric(rep, point, 3)
    assert abs(vals[0] - 1) < 1e-12
    assert abs(vals[1] - brute.evaluate(point)) < 1e-12


def test_diag_series_requires_trivial_central_character():
    with pytest.raises(ValueError):
        diag_series(LocalRep.symbolic("I"), rf_var("X"))
    with pytest.raises(ValueError):
        diag_series(LocalRep.symbolic("IIIa"), rf_var("X"))


def test_case1_sugano_identity():
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        assert zeta_case1(rep, TW) == shift_half(spinor_lfactor(rep, TW))


def test_case1_equals_lfactor_times_series():
    # L(s+1, Lambda mu_L) * diag series at X = u T q is the definition
    rep = LocalRep.symbolic_trivial("I")
    x0 = U * T * Q**2
    assert zeta_case1(rep, TW) == mu_l_lfactor(TW) * diag_series(rep, x0)


def test_case1_at_T0():
    rep = LocalRep.symbolic_trivial("I")
    assert zeta_case1(rep, TW).subst({"T": RatFunc.const(0)}) == RF_ONE


def test_case1_preconditions():
    with pytest.raises(ValueError):
        zeta_case1(LocalRep.symbolic("VIb"), TW)
    with pytest.raises(ValueError):
        zeta_case1(LocalRep.symbolic_trivial("I"), TwistData(e=1))
    with pytest.raises(ValueError, match="u = mu\\(pi\\) must be nonzero"):
        zeta_case1(LocalRep.symbolic_trivial("I"), TwistData(u=0))


def test_case4_closed_equals_series_and_involution():
    inv = {"U": U.inv(), "T": T.inv()}
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        spin = shift_half(spinor_lfactor(rep, TW))
        closed_all = zeta_case4(rep, TW)
        assert len(closed_all) == len(bessel_identity_values(rep))
        assert closed_all == zeta_case4_series(rep, TW)
        for closed in closed_all:
            norm = closed / spin
            assert norm.subst(inv) == norm


def test_case4_preconditions():
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic("I"), TW)  # nontrivial central character
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic_trivial("I"), TwistData(u=U, lam=L))
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic("IIIa"), TW)


def test_case5_6_closed_forms():
    rep3 = LocalRep.symbolic_trivial("IIIa")
    z0, z1 = zeta_case5_6(rep3, TwistData(u=U, lam=L))
    # second basis vector scales by B_2(1_4) = alpha^{-1} = gamma^2
    alpha = rep3.alpha
    assert z1 == z0 * alpha.inv()
    # the closed form divided by L(s+1/2) B(1) is lambda^-1 u^-1 q^{s+1}/(q^2+1)
    lead = z0 / shift_half(spinor_lfactor(rep3, TwistData(u=U, lam=L)))
    assert lead == L.inv() * U.inv() * T.inv() * Q**2 / (Q**4 + 1)


def test_case5_6_series_equality_under_constraints():
    rep3 = LocalRep.symbolic_trivial("IIIa")
    z3 = zeta_case5_6(rep3, TW)
    assert len(z3) == 2 and z3 == zeta_case5_6_series(rep3, TW)
    for sign in (1, -1):
        rep6 = LocalRep.symbolic_trivial("VIb", sign)
        z6 = zeta_case5_6(rep6, TW)
        assert len(z6) == 1 and z6 == zeta_case5_6_series(rep6, TW)


@pytest.mark.parametrize("fn", [zeta_case5_6, zeta_case5_6_series])
def test_case5_6_preconditions(fn):
    with pytest.raises(ValueError, match="cases 5/6 need type IIIa or VIb"):
        fn(LocalRep.symbolic_trivial("I"), TW)
    with pytest.raises(ValueError, match="cases 5/6 need an unramified twist"):
        fn(LocalRep.symbolic_trivial("VIb"), TwistData(e=1))
    with pytest.raises(ValueError, match=r"u = mu\(pi\) must be nonzero"):
        fn(LocalRep.symbolic_trivial("IIIa"), TwistData(u=0))


def test_case5_6_series_hypotheses():
    # the closed form keeps Lambda(pi) and the central character free; the
    # series identity holds only at trivial central character, Lambda(pi) = 1
    rep3 = LocalRep.symbolic_trivial("IIIa")
    zeta_case5_6(rep3, TwistData(u=U, lam=L))
    with pytest.raises(ValueError, match=r"lam = Lambda\(pi\) must be nonzero"):
        zeta_case5_6(rep3, TwistData(u=U, lam=0))
    with pytest.raises(ValueError, match="series is stated for Lambda = 1"):
        zeta_case5_6_series(rep3, TwistData(u=U, lam=L))
    odd = LocalRep("IIIa", (-1, -1))
    zeta_case5_6(odd, TW)
    with pytest.raises(ValueError, match="series requires trivial central character"):
        zeta_case5_6_series(odd, TW)


def test_local_periods_match_displays():
    tw = TW
    for tag in ("I", "IIb", "IIIa", "VIb"):
        rep = LocalRep.symbolic_trivial(tag)
        assert local_period(rep, tw) == local_period_closed(rep, tw)


def test_period_factor_of_two():
    tw = TwistData(u=U, lam=L)
    p3 = local_period_closed(LocalRep.symbolic_trivial("IIIa"), tw)
    p6 = local_period_closed(LocalRep.symbolic_trivial("VIb"), tw)
    assert p3 == 2 * p6
    assert p6 == L.inv() * U.inv() * T.inv() * Q**2 / (Q**4 + 1)


def test_period_numeric_oracle():
    # independent float evaluation at q=3, s=0 (T=1), u=1:
    # 2*2/(3^5*10) * (3/2)^5 * (6 - tr(T_{1,0} + 3 eta)/4), tr = 4*3^{3/2}
    rep = LocalRep("I", (1, 1, 1))
    got = local_period(rep, TwistData(u=1)).evaluate({"Q": math.sqrt(3), "T": 1.0})
    q = 3.0
    lstd = (1 - 1 / q) ** -5
    want = 2 * (q - 1) / (q**5 * (q**2 + 1)) * lstd * (6 - 4 * q**1.5 / 4)
    assert abs(got - want) < 1e-12
    assert abs(got - (6 - 3 * math.sqrt(3)) / 80) < 1e-12


def test_recursion_consistency_symbolic():
    rec = recursion_consistency(LocalRep.symbolic("IIIa"))
    assert rec["matches_alpha_inverse"]
    assert rec["b2_at_kappa"] == A.inv()
    assert rec["kappa_value"] == A * G**2
    # alpha = 1 specialization
    rec1 = recursion_consistency(LocalRep("IIIa", (1, rf_var("G"))))
    assert rec1["b2_at_kappa"] == RF_ONE
    with pytest.raises(ValueError):
        recursion_consistency(LocalRep.symbolic("VIb"))


def test_recursion_numeric_oracle():
    # independent complex linear solve at alpha = i, q = 5
    alpha = 1j
    gamma = cmath.exp(0.7j)
    q = 5.0
    kappa = alpha * gamma**2
    rows = [
        [alpha * gamma * q, -(q**2), 0, 0, alpha * gamma * (q - 1)],
        [0, -(q**2 - 1), 0, kappa / gamma * (1 / q - 1), alpha * gamma * (q - 1)],
        [kappa * q * (alpha * q + 1), 0, -(q**4), 0,
         kappa * (alpha * q**2 - alpha * q - q**2 - 1) / (q + 1)],
        [0, 0, -(q**2 - 1), kappa * q**-3 * (1 - q),
         kappa * alpha * q**-2 * (q - 1)],
    ]
    n = 4
    work = [list(map(complex, r)) for r in rows]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(work[r][col]))
        work[col], work[piv] = work[piv], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [e * inv_p for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    b2 = work[3][n]
    assert abs(b2 - (-1j)) < 1e-12  # alpha^{-1} = -i
    # and the symbolic general solution evaluates to the same number
    rec = recursion_consistency(LocalRep.symbolic("IIIa"))
    sym = rec["b2_general"].evaluate(
        {"A": alpha, "G": gamma, "K": kappa, "Q": math.sqrt(q)}
    )
    assert abs(sym - b2) < 1e-12


def test_series_memo_solves_each_system_once(monkeypatch):
    # suite_case4 needs one series system per representation type, shared
    # by all basis vectors of that type
    lz._series_linear_forms.cache_clear()
    solve = RatMatrix.solve
    calls = []

    def counted(self, rhs):
        calls.append(self.rows)
        return solve(self, rhs)

    monkeypatch.setattr(RatMatrix, "solve", counted)
    suites.suite_case4()
    assert calls == [4, 3]


def test_symbolic_suites_keep_gcd_inputs_small(monkeypatch):
    # Henrici's arithmetic takes gcds of the operands, never of the
    # products: the three symbolic suites ask for gcds of 4,232 terms, 123
    # at most in one call, where one gcd of the full products took 11,020
    # and 498.  Only calls past the shortcuts count (one-term or equal
    # operands); the coprimality proof then settles most of them, so sympy
    # sees 2,194 of these terms.
    lz._series_linear_forms.cache_clear()
    gcd_cofactors = symfield._gcd_cofactors
    sizes = []

    def counted(x, y):
        if not (x.is_monomial() or y.is_monomial() or x == y):
            sizes.append(len(x.terms) + len(y.terms))
        return gcd_cofactors(x, y)

    monkeypatch.setattr(symfield, "_gcd_cofactors", counted)
    suites.suite_case1()
    suites.suite_case4()
    suites.suite_case56_periods()
    assert sum(sizes) <= 5500
    assert max(sizes) <= 150


def test_symbolic_suites_call_sympy_rarely(monkeypatch):
    # Brown's coprimality proof answers most gcds before sympy is asked:
    # the three symbolic suites make 96 cofactors calls, 287 without it
    from sympy.polys.rings import PolyElement

    lz._series_linear_forms.cache_clear()
    cofactors = PolyElement.cofactors
    calls = []

    def counted(self, other):
        calls.append(1)
        return cofactors(self, other)

    monkeypatch.setattr(PolyElement, "cofactors", counted)
    suites.suite_case1()
    suites.suite_case4()
    suites.suite_case56_periods()
    assert len(calls) <= 100


# -- a homomorphic audit of the symbolic arithmetic -------------------------

_P = 2**61 - 1


def _at(f: RatFunc, point) -> int:
    """f mod _P at point (a name -> residue mapping); ZeroDivisionError when
    the denominator vanishes there."""
    def poly(p):
        total = 0
        for mono, c in p.terms.items():
            for name, e in zip(p.names, mono):
                c = c * pow(point[name], e, _P)
            total += c
        return total % _P

    den = poly(f.den)
    if not den:
        raise ZeroDivisionError
    return poly(f.num) * pow(den, -1, _P) % _P


def _audited(name, op, expect, rng, log):
    """op wrapped so that each result is compared with expect(at, *args),
    the operation done on the operands' values at a random point mod _P
    (at(f) is f's value there); a point where a denominator vanishes is
    drawn again."""
    def wrapper(*args):
        out = op(*args)
        for _ in range(20):
            point = defaultdict(lambda: rng.randrange(1, _P))
            value = lambda f: _at(RatFunc.coerce(f), point)  # noqa: E731
            try:
                got, want = value(out), expect(value, *args)
            except ZeroDivisionError:
                continue
            assert got == want, f"{name} of {[_text(a) for a in args]}"
            log.append(name)
            return out
        raise AssertionError(f"no point off the poles for {name}")
    return wrapper


def _text(arg):
    if isinstance(arg, dict):
        return {k: _text(v) for k, v in arg.items()}
    return RatFunc.coerce(arg).to_text()[:200]


def _inverse(v):
    if not v:
        raise ZeroDivisionError
    return pow(v, -1, _P)


_AUDITED = {
    "__add__": lambda at, f, g: (at(f) + at(g)) % _P,
    "__sub__": lambda at, f, g: (at(f) - at(g)) % _P,
    "__mul__": lambda at, f, g: at(f) * at(g) % _P,
    "__truediv__": lambda at, f, g: at(f) * _inverse(at(g)) % _P,
    "__radd__": lambda at, f, g: (at(g) + at(f)) % _P,
    "__rsub__": lambda at, f, g: (at(g) - at(f)) % _P,
    "__rmul__": lambda at, f, g: at(g) * at(f) % _P,
    "__rtruediv__": lambda at, f, g: at(g) * _inverse(at(f)) % _P,
    # f(x -> b_x) at the point is f at the point that gives x the value b_x
    "subst": lambda at, f, b: _at(f, {n: at(b[n]) if n in b else at(rf_var(n))
                                      for n in f.variables()}),
}


def test_symbolic_arithmetic_passes_a_homomorphic_audit(monkeypatch):
    # every RatFunc + - * / and subst of the three symbolic suites is mapped
    # to F_p at a random point: a wrong result escapes with probability at
    # most deg/p (Schwartz 1980, Zippel 1979)
    lz._series_linear_forms.cache_clear()
    rng, log = random.Random(1980), []
    for name, expect in _AUDITED.items():
        monkeypatch.setattr(RatFunc, name,
                            _audited(name, getattr(RatFunc, name), expect, rng, log))
    cases = suites.suite_case1() + suites.suite_case4() + suites.suite_case56_periods()
    assert all(c["pass"] for c in cases)
    assert len(log) >= 1500
    assert {"__add__", "__sub__", "__mul__", "__truediv__", "subst"} <= set(log)


def _count_calls(monkeypatch, modules, name):
    # every module that imported the function by name gets the counting copy
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_local_period_builds_the_hecke_pair_once(monkeypatch):
    calls = _count_calls(monkeypatch, [lz], "hecke_matrices")
    local_period(LocalRep.symbolic_trivial("I"), TW)
    assert len(calls) == 1


def test_suite_case4_builds_two_lfactors_per_type(monkeypatch):
    # per type: the suite's own L(s+1/2) for the involution check, and one
    # for the closed forms of all basis vectors
    calls = _count_calls(monkeypatch, [lz, suites], "spinor_lfactor")
    suites.suite_case4()
    assert len(calls) == 4


_ORDER_PROBE = """
import cmath, json, math, sys
from besselzeta import suites
from besselzeta.localrep import LocalRep, TwistData
from besselzeta.localzeta import local_period
if sys.argv[1] == "warm":
    suites.suite_case1(); suites.suite_case4(); suites.suite_case56_periods()
period = local_period(LocalRep.symbolic_trivial("I"), TwistData(u=1))
point = {"Q": math.sqrt(3), "T": 1.0, "A": cmath.exp(0.3j),
         "G": cmath.exp(-0.7j)}
print(json.dumps([suites.suite_tfactor(), suites.suite_case23(),
                  repr(period.evaluate(point))]))
"""


def test_float_results_do_not_depend_on_call_order():
    # a memo hands later callers the first caller's objects, whose term
    # order fixes the last digits of evaluate(); the floats must be the
    # same in a fresh process and after the symbolic suites have run
    src = str(Path(lz.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run([sys.executable, "-c", _ORDER_PROBE, mode], env=env,
                       capture_output=True, text=True, check=True).stdout
        for mode in ("cold", "warm")
    ]
    assert runs[0] == runs[1]

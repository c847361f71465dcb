import cmath
import math

import pytest

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


def test_case4_closed_equals_series_and_involution():
    inv = {"U": U.inv(), "T": T.inv()}
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        spin = shift_half(spinor_lfactor(rep, TW))
        for idx in range(len(bessel_identity_values(rep))):
            closed = zeta_case4(rep, TW, idx)
            assert closed == zeta_case4_series(rep, TW, idx)
            norm = closed / spin
            assert norm.subst(inv) == norm


def test_case4_preconditions():
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic("I"), TW, 0)  # nontrivial central character
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic_trivial("I"), TwistData(u=U, lam=L), 0)
    with pytest.raises(ValueError):
        zeta_case4(LocalRep.symbolic("IIIa"), TW, 0)


@pytest.mark.parametrize("fn", [zeta_case4, zeta_case4_series])
def test_case4_basis_index_in_range(fn):
    rep = LocalRep.symbolic_trivial("I")
    for index in (-1, 4, 9):  # type I has the 4 basis vectors 0..3
        with pytest.raises(ValueError):
            fn(rep, TW, index)


def test_case5_6_closed_forms():
    rep3 = LocalRep.symbolic_trivial("IIIa")
    z0 = zeta_case5_6(rep3, TwistData(u=U, lam=L), 0)
    z1 = zeta_case5_6(rep3, TwistData(u=U, lam=L), 1)
    # second basis vector scales by B_2(1_4) = alpha^{-1} = gamma^2
    alpha = rep3.alpha
    assert z1 == z0 * alpha.inv()
    # the closed form divided by L(s+1/2) B(1) is lambda^-1 u^-1 q^{s+1}/(q^2+1)
    lead = z0 / shift_half(spinor_lfactor(rep3, TwistData(u=U, lam=L)))
    assert lead == L.inv() * U.inv() * T.inv() * Q**2 / (Q**4 + 1)


def test_case5_6_series_equality_under_constraints():
    rep3 = LocalRep.symbolic_trivial("IIIa")
    for idx in (0, 1):
        assert zeta_case5_6(rep3, TW, idx) == zeta_case5_6_series(rep3, TW, idx)
    for sign in (1, -1):
        rep6 = LocalRep.symbolic_trivial("VIb", sign)
        assert zeta_case5_6(rep6, TW, 0) == zeta_case5_6_series(rep6, TW, 0)


@pytest.mark.parametrize("fn", [zeta_case5_6, zeta_case5_6_series])
def test_case5_6_basis_index_in_range(fn):
    for tag, n in (("IIIa", 2), ("VIb", 1)):
        rep = LocalRep.symbolic_trivial(tag)
        for index in (-1, n, 5):
            with pytest.raises(ValueError):
                fn(rep, TW, index)


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

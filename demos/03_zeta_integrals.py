# The computed local zeta integrals, exactly.
#
# The unramified integral closes a geometric series of diagonal Bessel
# values and reproduces the spinor L-factor at s + 1/2.  The old-form and
# newform integrals (Atkin-Lehner translated) have closed forms that the
# series route re-derives term by term; the case 4-6 functions return one
# value per basis vector of the K_0(p)-fixed space.  The local periods then
# assemble from the basis values, the inner-product norms, and the closed
# forms.
# Run:  python demos/03_zeta_integrals.py

from besselzeta import (
    LocalRep,
    TwistData,
    bessel_identity_values,
    diag_series,
    hecke_matrices,
    local_period,
    local_period_closed,
    recursion_consistency,
    spinor_lfactor,
    zeta_case1,
    zeta_case4,
    zeta_case4_series,
    zeta_case5_6,
    zeta_case5_6_series,
)
from besselzeta.localrep import shift_half
from besselzeta.symfield import rf_var

tw = TwistData(u=rf_var("U"))

# case 1: for the spherical types the closed series equals L(s+1/2, pi, mu)
for tag in ("I", "IIb"):
    rep = LocalRep.symbolic_trivial(tag)
    z = zeta_case1(rep, tw)
    print(f"case 1, type {tag}:",
          "equals L(s+1/2)" if z == shift_half(spinor_lfactor(rep, tw)) else "FAIL")

# the ingredients: operator matrices, basis values at the identity, and the
# generating series of diagonal values
rep = LocalRep.symbolic_trivial("I")
pair = hecke_matrices(rep)
print("T_{1,0} diagonal:", [pair.t10[i, i].to_text() for i in range(4)])
print("values at 1_4:", [b.to_text() for b in bessel_identity_values(rep)])
print("series in X starts at", diag_series(rep, rf_var("X")).subst(
    {"X": rf_var("X") * 0}).to_text())

# case 4: closed form = series route, for every basis vector
print("case 4, type I, closed == series on all four basis vectors:",
      zeta_case4(rep, tw) == zeta_case4_series(rep, tw))

# cases 5/6 for the newform types; the display keeps Lambda(pi) symbolic
rep3 = LocalRep.symbolic_trivial("IIIa")
lam = TwistData(u=rf_var("U"), lam=rf_var("L"))
print("case 5 closed form:", zeta_case5_6(rep3, lam)[0].to_text())
print("case 5 series check at Lambda = 1:",
      zeta_case5_6(rep3, tw)[0] == zeta_case5_6_series(rep3, tw)[0])

# local periods: component sums against the displayed closed forms
for tag in ("I", "IIb", "IIIa", "VIb"):
    rep = LocalRep.symbolic_trivial(tag)
    print(f"period, type {tag}:",
          "matches display" if local_period(rep, tw) == local_period_closed(rep, tw)
          else "FAIL")
print("IIIa period = 2 x VIb period:",
      local_period_closed(LocalRep.symbolic_trivial("IIIa"), lam)
      == 2 * local_period_closed(LocalRep.symbolic_trivial("VIb"), lam))

# the IIIa identity-value system: solving the four relations pins the
# second basis value to alpha^{-1} once the recursion scalar is the
# compatible character value alpha gamma^2
rec = recursion_consistency(LocalRep.symbolic("IIIa"))
print("B_2(1_4) for generic recursion scalar:", rec["b2_general"].to_text())
print("at kappa = alpha gamma^2:", rec["b2_at_kappa"].to_text())

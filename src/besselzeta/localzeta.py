"""Local zeta integrals in Bessel models, exactly.

Implements the Hecke/Atkin-Lehner action on the K_0(p)-fixed space (the
representation matrices for the old-form types and the eigen-data of the
newform types), the Bessel basis values at the identity, the generating
series of diagonal Bessel values, the closed forms of the computed
zeta-integral cases, and the local periods.

Variable conventions (see symfield): Q = q^{1/2}, T = q^{-s}, A/B/G the
Satake parameters, U = mu(pi), L = Lambda(pi).  The geometric-series
routes below sum Bessel values against X_0 = mu(pi) q^{1-s}; closing the
series through (I - X M)^{-1} is what makes everything a rational
function.

Matrices act in the column convention: (T f_j) = sum_i M[i][j] f_i on the
ordered basis f_1, f_2, ... of the K_0(p)-fixed space.  The diagonal
Bessel values then satisfy

    sum_{l>=0} B(h(l,0)) X^l = b^T (I - q^{-3} X T_{1,0})^{-1} v

where b is the vector of basis values at the identity and v the
coordinate vector of B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .localrep import (
    LocalRep,
    TwistData,
    UNRAMIFIED,
    dims,
    shift_half,
    spinor_lfactor,
    std_lfactor,
)
from .symfield import (
    RF_ONE,
    RF_ZERO,
    RatFunc,
    RatMatrix,
    rf_var,
)

_Q = rf_var("Q")
_T = rf_var("T")


@dataclass(frozen=True)
class HeckePair:
    """Matrices of T_{1,0} and the Atkin-Lehner involution eta."""

    t10: RatMatrix
    eta: RatMatrix


def hecke_matrices(rep: LocalRep) -> HeckePair:
    """Representation matrices of T_{1,0} and eta for I/IIb; eigenvalue
    matrices for the one- and two-dimensional newform types."""
    zero, Q = RF_ZERO, _Q
    q32 = Q**3
    low = (Q**2 - 1) * Q  # (q-1) q^{1/2}
    if rep.tag == "I":
        a, b, g = rep.satake
        t10 = RatMatrix([
            [a * b * g * q32, zero, zero, zero],
            [a * b * g * low, b * g * q32, zero, zero],
            [a * b * g * low, b * g * low, a * g * q32, zero],
            [a * b * g * low, b * g * low, a * g * low, g * q32],
        ])
        eta = RatMatrix([
            [zero, zero, zero, g * Q**3],
            [zero, zero, a * g * Q, zero],
            [zero, b * g * Q.inv(), zero, zero],
            [a * b * g * Q**-3, zero, zero, zero],
        ])
    elif rep.tag == "IIb":
        a, g = rep.satake
        t10 = RatMatrix([
            [a**2 * g * q32, zero, zero],
            [a**2 * g * low, a * g * Q**4, zero],
            [a**2 * g * low, a * g * (Q**4 - 1), g * q32],
        ])
        eta = RatMatrix([
            [zero, zero, g * Q**3],
            [zero, a * g, zero],
            [a**2 * g * Q**-3, zero, zero],
        ])
    elif rep.tag == "IIIa":
        a, g = rep.satake
        q = Q**2
        t10 = RatMatrix([[a * g * q, zero], [zero, g * q]])
        eta = RatMatrix([[zero, g], [a * g, zero]])
    else:  # VIb
        g = rep.satake[0]
        t10 = RatMatrix([[g * Q**2]])
        eta = RatMatrix([[g]])
    return HeckePair(t10, eta)


def bessel_identity_values(rep: LocalRep) -> tuple:
    """Basis values B_i(1_4), one per K_0(p)-fixed basis element.

    Types I and IIb share the common denominators (q-alpha)(q-beta) and
    (q^{1/2}-alpha)(q^{3/2}-alpha); IIIa is (1, alpha^-1) and VIb is (1,).
    Degenerate numeric parameters that kill a denominator raise.
    """
    Q = _Q
    if rep.tag == "I":
        a, b = rep.alpha, rep.beta
        den = (Q**2 - a) * (Q**2 - b)
        if den.is_zero:
            raise ZeroDivisionError("degenerate parameters: alpha or beta = q")
        return (a * b / den, -(Q**2) * b / den, -(Q**2) * a / den, Q**4 / den)
    if rep.tag == "IIb":
        a = rep.alpha
        den = (Q - a) * (Q**3 - a)
        if den.is_zero:
            raise ZeroDivisionError("degenerate parameter: alpha in {q^1/2, q^3/2}")
        return (a**2 / den, -Q * (1 + Q**2) * a / den, Q**4 / den)
    if rep.tag == "IIIa":
        if rep.alpha.is_zero:
            raise ZeroDivisionError("alpha = 0 is degenerate for IIIa")
        return (RF_ONE, rep.alpha.inv())
    return (RF_ONE,)


def bessel_norms(rep: LocalRep) -> tuple:
    """Inner products <B_i | B_i> for the normalized local newform datum."""
    q = _Q**2
    if rep.tag == "I":
        return tuple(q**i * (q + 1) for i in range(4))
    if rep.tag == "IIb":
        return (q + 1, q * (q + 1) ** 2, q**3 * (q + 1))
    if rep.tag == "IIIa":
        return (RF_ONE, RF_ONE)
    return (RF_ONE,)


def _require_trivial_cc(rep: LocalRep, what: str):
    if not rep.has_trivial_central_character():
        raise ValueError(f"{what} requires trivial central character")


def _series_linear_forms(rep: LocalRep, x: RatFunc):
    """Row vector b^T (I - q^{-3} x T_{1,0})^{-1} over the fixed basis,
    solved as (I - q^{-3} x T_{1,0})^T y = b."""
    pair = hecke_matrices(rep)
    n = pair.t10.rows
    system = RatMatrix.identity(n) - pair.t10.scale(RatFunc.coerce(x) * _Q**-6)
    b = RatMatrix([[v] for v in bessel_identity_values(rep)])
    row = system.transpose().solve(b).transpose().entries[0]
    return row, pair


def diag_series(rep: LocalRep, x) -> RatFunc:
    """Generating function sum_{l>=0} B0(h(l,0)) x^l for the spherical B0.

    B0 is the normalized K-fixed Bessel function, which is the sum of the
    K_0(p)-fixed basis.  Needs types I/IIb with trivial central character.
    """
    if rep.tag not in ("I", "IIb"):
        raise ValueError("diagonal Bessel series needs a spherical type")
    _require_trivial_cc(rep, "diag_series")
    row, _ = _series_linear_forms(rep, x)
    return sum(row, RF_ZERO)


def diag_values_numeric(rep: LocalRep, point: dict, count: int) -> list:
    """B0(h(l,0)) for l = 0..count-1 at a numeric parameter point.

    Iterates the recursion B0(h(l,0)) = q^{-3l} b^T T_{1,0}^l 1 with the
    matrices evaluated at ``point`` (which must bind Q and any symbolic
    Satake parameters).  Used by the ramified-case coset-sum oracle and by
    brute-force series checks.
    """
    pair = hecke_matrices(rep)
    t10 = [[e.evaluate(point) for e in row] for row in pair.t10.entries]
    b = [e.evaluate(point) for e in bessel_identity_values(rep)]
    n = len(b)
    q3 = point["Q"] ** 6  # q^3 with Q = q^(1/2)
    vec = [1.0] * n
    out = []
    scale = 1.0
    for _ in range(count):
        out.append(scale * sum(b[i] * vec[i] for i in range(n)))
        vec = [sum(t10[i][k] * vec[k] for k in range(n)) for i in range(n)]
        scale /= q3
    return out


def mu_l_lfactor(twist: TwistData) -> RatFunc:
    """L(s+1, Lambda mu_L) for the inert quadratic extension.

    The residue field has q^2 elements and mu_L(pi) = mu(pi)^2, so this is
    (1 - Lambda(pi) u^2 q^{-2s-2})^{-1}.
    """
    return (RF_ONE - twist.lam * twist.u**2 * _T**2 * _Q**-4).inv()


def zeta_case1(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """Case 1: the unramified zeta integral Z(phi, B0, s, mu; 1_4).

    Computed by closing the diagonal series at X_0 = mu(pi) q^{1-s}; equals
    the spinor L-factor at s+1/2 (checked exactly by the acceptance suite)
    when Lambda(pi) = 1.
    """
    if rep.tag not in ("I", "IIb"):
        raise ValueError("case 1 needs a spherical type")
    if not twist.unramified:
        raise ValueError("case 1 needs an unramified twist")
    x0 = twist.u * _T * _Q**2
    return mu_l_lfactor(twist) * diag_series(rep, x0)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), RF_ZERO)


def _column(m: RatMatrix, j: int) -> list:
    return [m[i, j] for i in range(m.rows)]


def _check_index(rep: LocalRep, index: int):
    n = dims(rep)[1]
    if not 0 <= index < n:
        raise ValueError(
            f"basis index {index} out of range for type {rep.tag} (0..{n - 1})"
        )


def zeta_case4_series(rep: LocalRep, twist: TwistData, index: int) -> RatFunc:
    """Case 4 by the geometric-series route through the operator matrices.

    Z(phi, B_i, s, mu; eta) = L(s+1, mu_L)/(q^2+1) *
        { sum_l (eta B_i)(h(l,0)) X_0^l + q^{s+1} u^{-1} sum_l B_i(h(l,0)) X_0^l }.
    """
    _check_case4_args(rep, twist, index)
    x0 = twist.u * _T * _Q**2
    row, pair = _series_linear_forms(rep, x0)
    qs1 = _T.inv() * _Q**2  # q^{s+1}
    series = _dot(row, _column(pair.eta, index)) + qs1 * twist.u.inv() * row[index]
    return mu_l_lfactor(twist) * series / (_Q**4 + 1)


def zeta_case4(rep: LocalRep, twist: TwistData, index: int) -> RatFunc:
    """Case 4 closed form for the basis vector B_i (old forms, type I/IIb).

    L(s+1/2,pi,mu)/(q^2+1) * [eta B + q^{-1} T_{1,0} B
        + {u^{-1} q^{s+1} + u q^{-s+1} - tr(q^{-1} T_{1,0} + eta)} B](1_4).
    """
    return _case4_over_l(rep, twist, index) * shift_half(spinor_lfactor(rep, twist))


def _case4_over_l(rep: LocalRep, twist: TwistData, index: int) -> RatFunc:
    """zeta_case4 divided by L(s+1/2, pi, mu)."""
    _check_case4_args(rep, twist, index)
    pair = hecke_matrices(rep)
    b = bessel_identity_values(rep)
    tr = (pair.t10.scale(_Q**-2) + pair.eta).trace()
    qs1, qms1 = _T.inv() * _Q**2, _T * _Q**2
    bracket = (
        _dot(b, _column(pair.eta, index))
        + _Q**-2 * _dot(b, _column(pair.t10, index))
        + (twist.u.inv() * qs1 + twist.u * qms1 - tr) * b[index]
    )
    return bracket / (_Q**4 + 1)


def _check_case4_args(rep, twist, index):
    if rep.tag not in ("I", "IIb"):
        raise ValueError("case 4 needs type I or IIb")
    _require_trivial_cc(rep, "case 4")
    if not twist.unramified:
        raise ValueError("case 4 needs an unramified twist")
    if twist.lam != RF_ONE:
        raise ValueError("case 4 is stated for Lambda = 1")
    _check_index(rep, index)


def zeta_case5_6(rep: LocalRep, twist: TwistData = UNRAMIFIED, index: int = 0) -> RatFunc:
    """Cases 5/6 closed form: newform zeta integral for IIIa and VIb.

    Lambda(pi)^{-1} mu(pi)^{-1} q^{s+1} / (q^2+1) * L(s+1/2,pi,mu) * B(1_4),
    with B(1_4) taken from the basis values (1, alpha^-1) resp. (1,).
    The display keeps Lambda(pi) symbolic; the series identity behind it
    holds under trivial central character, where Lambda(pi) = 1.
    """
    return _case5_6_over_l(rep, twist, index) * shift_half(spinor_lfactor(rep, twist))


def _case5_6_over_l(rep: LocalRep, twist: TwistData, index: int) -> RatFunc:
    """zeta_case5_6 divided by L(s+1/2, pi, mu)."""
    _check_case5_6_args(rep, twist, index)
    qs1 = _T.inv() * _Q**2
    lead = twist.lam.inv() * twist.u.inv() * qs1 / (_Q**4 + 1)
    return lead * bessel_identity_values(rep)[index]


def zeta_case5_6_series(rep: LocalRep, twist: TwistData, index: int = 0) -> RatFunc:
    """Cases 5/6 by the geometric-series route (eigen-data matrices)."""
    _check_case5_6_args(rep, twist, index)
    x0 = twist.u * _T * _Q**2
    row, pair = _series_linear_forms(rep, x0)
    qs1 = _T.inv() * _Q**2
    series = (_dot(row, _column(pair.eta, index))
              + qs1 * twist.lam.inv() * twist.u.inv() * row[index])
    return mu_l_lfactor(twist) * series / (_Q**4 + 1)


def _check_case5_6_args(rep, twist, index):
    if rep.tag not in ("IIIa", "VIb"):
        raise ValueError("cases 5/6 need type IIIa or VIb")
    if not twist.unramified:
        raise ValueError("cases 5/6 need an unramified twist")
    _check_index(rep, index)


def local_period(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """Local Bessel period: sum over an orthonormal basis of the normalized
    zeta integral against the conjugated identity value.

    Conjugation of the symbolic unitary parameters is the substitution
    alpha -> alpha^-1 etc.  Everything stays inside the rational-function
    field because only |B(1_4)|^2 / <B|B> combinations appear.
    """
    z_star = _case4_over_l if rep.tag in ("I", "IIb") else _case5_6_over_l
    conj = rep.conjugation_map()
    b = bessel_identity_values(rep)
    norms = bessel_norms(rep)
    total = RF_ZERO
    for i in range(len(b)):
        total = total + z_star(rep, twist, i) * b[i].subst(conj) / norms[i]
    return total


def local_period_closed(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """The closed forms of the three local periods."""
    q = _Q**2
    qs1, qms1 = _T.inv() * q, _T * q
    if rep.tag in ("I", "IIb"):
        pair = hecke_matrices(rep)
        tr = (pair.t10 + pair.eta.scale(q)).trace()
        lstd1 = std_lfactor(rep).subst({"T": _Q**-2})  # L(1, pi, Std)
        lead = 2 * (q - 1) / (q**5 * (q**2 + 1))
        return lead * lstd1 * (twist.u.inv() * qs1 + twist.u * qms1 - tr / (q + 1))
    lead = twist.lam.inv() * twist.u.inv() * qs1 / (q**2 + 1)
    if rep.tag == "IIIa":
        return 2 * lead
    return lead


def recursion_consistency(rep: LocalRep) -> dict:
    """Solve the IIIa identity-value linear system and pin B_2(1_4).

    The four relations (the displayed system, with the missing factor q
    restored on the third equation's left side) are solved symbolically in
    the unknowns B_1(s_2), B_1(h(-1,1)s_1s_2), B_1(h(0,1)s_1s_2), B_2(1_4)
    with B_1(1_4) = 1 and the recursion scalar kept as the free symbol K.
    Specializing K to the Bessel-compatible value Lambda(pi) = alpha gamma^2
    must give B_2(1_4) = alpha^-1.
    """
    if rep.tag != "IIIa":
        raise ValueError("the recursion system is the IIIa one")
    a, g = rep.alpha, rep.gamma
    kappa = rf_var("K")
    q = _Q**2
    zero, one = RF_ZERO, RF_ONE
    rows = [
        [a * g * q, -(q**2), zero, zero, a * g * (q - 1)],
        [zero, -(q**2 - 1), zero, kappa * g.inv() * (q.inv() - 1), a * g * (q - 1)],
        [kappa * q * (a * q + 1), zero, -(q**4), zero,
         kappa * (a * q**2 - a * q - q**2 - 1) / (q + 1)],
        [zero, zero, -(q**2 - 1), kappa * q**-3 * (1 - q),
         kappa * a * q**-2 * (q - 1)],
    ]
    system = RatMatrix([r[:4] for r in rows])
    solution = system.solve(RatMatrix([r[4:] for r in rows])).transpose().entries[0]
    b2_general = solution[3]
    lam = a * g**2
    b2_at_lambda = b2_general.subst({"K": lam})
    return {
        "unknowns": ("B1(s2)", "B1(h(-1,1)s1s2)", "B1(h(0,1)s1s2)", "B2(1_4)"),
        "solution": solution,
        "b2_general": b2_general,
        "kappa_value": lam,
        "b2_at_kappa": b2_at_lambda,
        "matches_alpha_inverse": b2_at_lambda == a.inv(),
    }

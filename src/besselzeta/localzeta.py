"""Local zeta integrals in Bessel models, exactly.

Implements the Hecke/Atkin-Lehner action on the K_0(p)-fixed space (the
representation matrices for the old-form types and the eigen-data of the
newform types), the Bessel basis values at the identity, the generating
series of diagonal Bessel values, the closed forms of the computed
zeta-integral cases, the local periods, and the per-prime correction
factor entering the spectral average.

Variable conventions (see symfield): Q = q^{1/2}, T = q^{-s}, A/B/G the
Satake parameters, U = mu(pi), L = Lambda(pi).  The geometric-series
routes below sum Bessel values against X_0 = mu(pi) q^{1-s}; closing the
series through (I - X M)^{-1} is what makes everything a rational
function.  The case 4-6 functions return one value per basis vector of
the K_0(p)-fixed space, in basis order.

Matrices act in the column convention: (T f_j) = sum_i M[i][j] f_i on the
ordered basis f_1, f_2, ... of the K_0(p)-fixed space.  The diagonal
Bessel values then satisfy

    sum_{l>=0} B(h(l,0)) X^l = b^T (I - q^{-3} X T_{1,0})^{-1} v

where b is the vector of basis values at the identity and v the
coordinate vector of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .localrep import (
    SPHERICAL_TAGS,
    LocalRep,
    TwistData,
    UNRAMIFIED,
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


def _hecke_trace(pair: HeckePair, q_inv: RatFunc) -> RatFunc:
    """tr(q^-1 T_{1,0} + eta), with q^-1 given in the caller's exact form."""
    return (pair.t10.scale(q_inv) + pair.eta).trace()


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


# Memoized: one `verify --suite all` makes 7 calls on 5 systems, so 2 hit.
# Besides symfield._ring_for (sympy rings per variable tuple), it is the
# one memo on the symbolic path.  A memo hands every caller the first
# caller's objects, and equal RatFuncs may store their terms in different
# orders, which moves evaluate() floats in their last digits.  The series
# row is never evaluated numerically, only combined exactly and printed in
# sorted text, so sharing it is safe; hecke_matrices and _over_l are
# evaluated (t_factor, diag_values_numeric, local_period) and stay
# unmemoized.
@lru_cache(maxsize=16)
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
    if rep.tag not in SPHERICAL_TAGS:
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
    the spinor L-factor at s+1/2 (checked exactly by the acceptance suite).
    Like case 4 it is stated for trivial central character and
    Lambda(pi) = 1.
    """
    _check_case_args(rep, twist, "1")
    x0 = twist.u * _T * _Q**2
    return mu_l_lfactor(twist) * diag_series(rep, x0)


# the types of each case, and the subject of their error messages
_CASES = {
    "1": (SPHERICAL_TAGS, "case 1 needs"),
    "4": (SPHERICAL_TAGS, "case 4 needs"),
    "5/6": (("IIIa", "VIb"), "cases 5/6 need"),
}


def _check_case_args(rep: LocalRep, twist: TwistData, case: str, series: bool = False):
    tags, subject = _CASES[case]
    if rep.tag not in tags:
        raise ValueError(f"{subject} type {tags[0]} or {tags[1]}")
    # the series identities hold at trivial central character and
    # Lambda(pi) = 1; only the case 5/6 closed form keeps Lambda(pi) free
    strict = f"case {case}" if case in ("1", "4") else "the case 5/6 series" if series else None
    if strict:
        _require_trivial_cc(rep, strict)
    if not twist.unramified:
        raise ValueError(f"{subject} an unramified twist")
    if strict and twist.lam != RF_ONE:
        raise ValueError(f"{strict} is stated for Lambda = 1")
    if twist.u.is_zero:
        raise ValueError("u = mu(pi) must be nonzero")
    if twist.lam.is_zero:
        raise ValueError("lam = Lambda(pi) must be nonzero")


def _over_l(rep: LocalRep, twist: TwistData, case: str | None = None) -> tuple:
    """Z(phi, B_i, s, mu; eta) / L(s+1/2, pi, mu) for each basis vector B_i:
    case 4 for the old-form types I/IIb, cases 5/6 for IIIa/VIb.  ``case``
    is the case asked for; by default it is the case of the type."""
    old = rep.tag in SPHERICAL_TAGS
    _check_case_args(rep, twist, case or ("4" if old else "5/6"))
    qs1 = _T.inv() * _Q**2  # q^{s+1}
    if old:
        pair = hecke_matrices(rep)
        b = bessel_identity_values(rep)
        tr = _hecke_trace(pair, _Q**-2)
        coeff = twist.u.inv() * qs1 + twist.u * (_T * _Q**2) - tr
        b_row = RatMatrix([b])
        b_eta, b_t10 = (b_row * pair.eta).entries[0], (b_row * pair.t10).entries[0]
        return tuple((e + _Q**-2 * t + coeff * v) / (_Q**4 + 1)
                     for e, t, v in zip(b_eta, b_t10, b))
    lead = twist.lam.inv() * twist.u.inv() * qs1 / (_Q**4 + 1)
    return tuple(lead * v for v in bessel_identity_values(rep))


def _closed(rep: LocalRep, twist: TwistData, case: str) -> tuple:
    over_l = _over_l(rep, twist, case)
    spin = shift_half(spinor_lfactor(rep, twist))
    return tuple(z * spin for z in over_l)


def _series(rep: LocalRep, twist: TwistData, case: str) -> tuple:
    """Z(phi, B_i, s, mu; eta) by the geometric-series route, for each B_i:
    L(s+1, Lambda mu_L)/(q^2+1) * { sum_l (eta B_i)(h(l,0)) X_0^l
        + Lambda(pi)^{-1} u^{-1} q^{s+1} sum_l B_i(h(l,0)) X_0^l }."""
    _check_case_args(rep, twist, case, series=True)
    row, pair = _series_linear_forms(rep, twist.u * _T * _Q**2)
    head = _T.inv() * _Q**2 * twist.lam.inv() * twist.u.inv()
    mu_l = mu_l_lfactor(twist)
    row_eta = (RatMatrix([row]) * pair.eta).entries[0]
    return tuple(mu_l * (e + head * v) / (_Q**4 + 1) for e, v in zip(row_eta, row))


def zeta_case4(rep: LocalRep, twist: TwistData) -> tuple:
    """Case 4 closed form for each basis vector B_i (old forms, type I/IIb).

    L(s+1/2,pi,mu)/(q^2+1) * [eta B + q^{-1} T_{1,0} B
        + {u^{-1} q^{s+1} + u q^{-s+1} - tr(q^{-1} T_{1,0} + eta)} B](1_4).
    """
    return _closed(rep, twist, "4")


def zeta_case4_series(rep: LocalRep, twist: TwistData) -> tuple:
    """Case 4 by the geometric-series route, for each basis vector (Lambda = 1)."""
    return _series(rep, twist, "4")


def zeta_case5_6(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> tuple:
    """Cases 5/6 closed form for each basis vector (newforms IIIa and VIb).

    Lambda(pi)^{-1} mu(pi)^{-1} q^{s+1} / (q^2+1) * L(s+1/2,pi,mu) * B(1_4),
    with B(1_4) taken from the basis values (1, alpha^-1) resp. (1,).
    The display keeps Lambda(pi) symbolic; the series identity behind it
    holds under trivial central character, where Lambda(pi) = 1.
    """
    return _closed(rep, twist, "5/6")


def zeta_case5_6_series(rep: LocalRep, twist: TwistData) -> tuple:
    """Cases 5/6 by the geometric-series route (eigen-data matrices), under
    the hypotheses of the series identity: trivial central character and
    Lambda(pi) = 1."""
    return _series(rep, twist, "5/6")


def local_period(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """Local Bessel period: sum over an orthonormal basis of the normalized
    zeta integral against the conjugated identity value.

    Conjugation of the symbolic unitary parameters is the substitution
    alpha -> alpha^-1 etc.  Everything stays inside the rational-function
    field because only |B(1_4)|^2 / <B|B> combinations appear.
    """
    conj = rep.conjugation_map()
    b = bessel_identity_values(rep)
    norms = bessel_norms(rep)
    total = RF_ZERO
    for z, v, norm in zip(_over_l(rep, twist), b, norms):
        total = total + z * v.subst(conj) / norm
    return total


def local_period_closed(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """The closed forms of the three local periods."""
    q = _Q**2
    qs1, qms1 = _T.inv() * q, _T * q
    if rep.tag in SPHERICAL_TAGS:
        tr = q * _hecke_trace(hecke_matrices(rep), _Q**-2)  # tr(T_{1,0} + q eta)
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


def t_factor(rep: LocalRep, twist: TwistData, p) -> float:
    """Per-prime correction of the spectral average.

    1 for VIb, 2 for IIIa; for the spherical types
    2(p-1) p^-5 L(1, pi, Std) {1 + mu(p)^2 - mu(p)/(p+1) tr(p^-1 T_{1,0} + eta)}
    with the trace taken on the K_0(p)-fixed space.
    """
    if not twist.unramified:
        raise ValueError("t-factor needs an unramified twist")
    if rep.tag == "VIb":
        return 1
    if rep.tag == "IIIa":
        return 2
    p_exact = Fraction(p)
    pf = float(p_exact)
    point = {"Q": math.sqrt(pf)}
    tr = _hecke_trace(hecke_matrices(rep), RatFunc.const(1 / p_exact))
    # Satake parameters are folded into the matrices; only Q remains free
    tr_val = tr.evaluate(point)
    u = twist.u.evaluate(point) if twist.u.variables() else complex(
        twist.u.const_value()
    )
    lstd = std_lfactor(rep).evaluate({"T": 1.0 / pf, "Q": math.sqrt(pf)})
    # rational inputs at real points: the imaginary part is 0
    val = 2 * (pf - 1) * pf**-5 * lstd * (1 + u**2 - u / (pf + 1) * tr_val)
    return val.real

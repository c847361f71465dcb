"""Machine-checkable verification suites.

Each suite re-proves one block of the computed identities at its stated
tolerance (exact rational-function equality for the symbolic ones,
1e-8/1e-9/1e-12 for the numeric ones) and reports per-case results.  The
acceptance tests and the command-line ``verify`` subcommand both run these.

Case provenance tags: PAPER for displayed values verified against their
source, TRIVIAL for immediate pins, DERIVED for values computed by an
independent oracle inside the suite.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from fractions import Fraction

from . import classgroup as cg
from . import globalasm as ga
from . import localzeta as lz
from . import padicring as pr
from .localrep import LocalRep, TwistData, UNRAMIFIED, shift_half, spinor_lfactor, t_factor
from .symfield import RF_ONE, RatFunc, rf_var

DEFAULT_SEED = 831


def _seed() -> int:
    env = os.environ.get("BZ_SEED")
    return int(env) if env else DEFAULT_SEED


def _case(cid, inputs, expected, actual, ok, provenance):
    return {
        "id": cid,
        "inputs": inputs,
        "expected": expected,
        "actual": actual,
        "pass": bool(ok),
        "provenance": provenance,
    }


def _report(name, cases, seed):
    # reports carry no timing so that repeated runs are byte-identical;
    # the acceptance gate measures runtime around run_suite itself
    return {
        "suite": name,
        "seed": seed,
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": sum(1 for c in cases if c["pass"]),
            "failed": sum(1 for c in cases if not c["pass"]),
        },
        "ok": all(c["pass"] for c in cases),
    }


def suite_case1() -> dict:
    """Unramified zeta integral equals the half-shifted spinor L-factor."""
    seed = _seed()
    cases = []
    tw = TwistData(u=rf_var("U"))
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        lhs = lz.zeta_case1(rep, tw)
        rhs = shift_half(spinor_lfactor(rep, tw))
        cases.append(
            _case(
                f"case1-{tag}",
                f"type {tag}, symbolic parameters, trivial central character",
                rhs.to_text(),
                lhs.to_text(),
                lhs == rhs,
                "PAPER",
            )
        )
    # constant term sanity: T = 0 specialization gives 1
    rep = LocalRep.symbolic_trivial("I")
    val = lz.zeta_case1(rep, tw).subst({"T": RatFunc.const(0)})
    cases.append(
        _case("case1-T0", "type I at T=0", "1", val.to_text(), val == RF_ONE, "TRIVIAL")
    )
    return _report("case1", cases, seed)


def suite_case4() -> dict:
    """Old-form closed form = series route; inversion symmetry."""
    seed = _seed()
    cases = []
    tw = TwistData(u=rf_var("U"))
    inv_sub = {"U": rf_var("U").inv(), "T": rf_var("T").inv()}
    for tag in ("I", "IIb"):
        rep = LocalRep.symbolic_trivial(tag)
        spin = shift_half(spinor_lfactor(rep, tw))
        for idx in range(len(lz.bessel_identity_values(rep))):
            closed = lz.zeta_case4(rep, tw, idx)
            series = lz.zeta_case4_series(rep, tw, idx)
            cases.append(
                _case(
                    f"case4-{tag}-B{idx + 1}",
                    f"type {tag}, basis index {idx + 1}",
                    "closed form == geometric series",
                    "equal" if closed == series else "DIFFERENT",
                    closed == series,
                    "DERIVED",
                )
            )
            norm = closed / spin
            cases.append(
                _case(
                    f"case4-{tag}-B{idx + 1}-inv",
                    "L-normalized value under (T,U) -> (1/T, 1/U)",
                    "invariant",
                    "invariant" if norm.subst(inv_sub) == norm else "NOT invariant",
                    norm.subst(inv_sub) == norm,
                    "PAPER",
                )
            )
    return _report("case4", cases, seed)


def suite_case56_periods() -> dict:
    """Newform zeta integrals and all three local-period closed forms."""
    seed = _seed()
    cases = []
    tw = TwistData(u=rf_var("U"))
    rep3 = LocalRep.symbolic_trivial("IIIa")
    for idx in (0, 1):
        a = lz.zeta_case5_6(rep3, tw, idx)
        b = lz.zeta_case5_6_series(rep3, tw, idx)
        cases.append(
            _case(
                f"case5-IIIa-B{idx + 1}",
                f"IIIa basis index {idx + 1}",
                "closed == series",
                "equal" if a == b else "DIFFERENT",
                a == b,
                "PAPER",
            )
        )
    for sign in (1, -1):
        rep6 = LocalRep.symbolic_trivial("VIb", sign)
        a = lz.zeta_case5_6(rep6, tw, 0)
        b = lz.zeta_case5_6_series(rep6, tw, 0)
        cases.append(
            _case(
                f"case6-VIb-gamma{sign:+d}",
                f"VIb, gamma = {sign}",
                "closed == series",
                "equal" if a == b else "DIFFERENT",
                a == b,
                "PAPER",
            )
        )
    for tag in ("I", "IIb", "IIIa", "VIb"):
        rep = LocalRep.symbolic_trivial(tag)
        got = lz.local_period(rep, tw)
        want = lz.local_period_closed(rep, tw)
        cases.append(
            _case(
                f"period-{tag}",
                f"type {tag} component sum over the orthonormal basis",
                want.to_text(),
                got.to_text(),
                got == want,
                "PAPER",
            )
        )
    ratio = lz.local_period_closed(
        LocalRep.symbolic_trivial("IIIa"), tw
    ) / lz.local_period_closed(LocalRep.symbolic_trivial("VIb"), tw)
    cases.append(
        _case(
            "period-IIIa-twice-VIb",
            "IIIa period / VIb period",
            "2",
            ratio.to_text(),
            ratio == RatFunc.const(2),
            "PAPER",
        )
    )
    rec = lz.recursion_consistency(LocalRep.symbolic("IIIa"))
    cases.append(
        _case(
            "IIIa-recursion-B2",
            "linear system at kappa = alpha gamma^2",
            "A^-1",
            rec["b2_at_kappa"].to_text(),
            rec["matches_alpha_inverse"],
            "PAPER",
        )
    )
    return _report("case56_periods", cases, seed)


def suite_gauss() -> dict:
    """Character-sum lemmas by exhaustive summation, tolerance 1e-9."""
    seed = _seed()
    rng = random.Random(seed)
    cases = []
    tol = 1e-9
    for p in (3, 5, 7):
        for e in (1, 2):
            ring = pr.ResidueRing(p, e)
            gring = pr.GaloisRing(p, e)
            prims = pr.MultChar.primitive_chars(ring)
            rng.shuffle(prims)
            # three characters where the ring has them (p=3, e=1 has a
            # single primitive character, the quadratic one)
            chars = prims[:3]
            for mu in chars:
                worst = 0.0
                for n in range(-e - 3, -e + 4):
                    lhs = pr.unit_psi_mu_integral(mu, n)
                    rhs = pr.gauss_sum_lemma_value(mu, n)
                    worst = max(worst, abs(lhs - rhs))
                cases.append(
                    _case(
                        f"vanishing-p{p}-e{e}-k{mu.k}",
                        f"p={p}, e={e}, char k={mu.k}, |n+e|<=3",
                        "0 off n=-e; lemma value at n=-e",
                        f"max abs err {worst:.2e}",
                        worst < tol,
                        "PAPER",
                    )
                )
                wf = pr.gauss_sum_F(mu)
                wl = pr.gauss_sum_L(mu, gring)
                err_mod = max(abs(abs(wf) - 1), abs(abs(wl) - 1))
                cases.append(
                    _case(
                        f"modulus-p{p}-e{e}-k{mu.k}",
                        "both Gauss sums have modulus 1",
                        "1",
                        f"deviation {err_mod:.2e}",
                        err_mod < tol,
                        "PAPER",
                    )
                )
                err_split = abs(wl - (-1) ** e * wf**2)
                cases.append(
                    _case(
                        f"split-p{p}-e{e}-k{mu.k}",
                        "W_L = (-1)^e W_F^2",
                        f"{(-1) ** e * wf ** 2:.6f}",
                        f"{wl:.6f}",
                        err_split < tol,
                        "PAPER",
                    )
                )
                u = rng.choice([a for a in ring.units()])
                got = pr.norm_char_sum(gring, mu, u)
                want = (-1) ** e * p**e * mu(u)
                cases.append(
                    _case(
                        f"normsum-p{p}-e{e}-k{mu.k}-u{u}",
                        f"norm sum at u={u}",
                        f"{want:.6f}",
                        f"{got:.6f}",
                        abs(got - want) < tol,
                        "PAPER",
                    )
                )
    return _report("gauss", cases, seed)


def suite_case23() -> dict:
    """Ramified-twist zeta integrals against the coset-sum oracle."""
    seed = _seed()
    cases = []
    setup = pr.BesselSetup(1, 0, 1, 3)  # d = -4, inert at 3
    ring = pr.ResidueRing(3, 1)
    mu = pr.MultChar.primitive_chars(ring)[0]
    rep = LocalRep.symbolic_trivial("I")
    point = {"Q": math.sqrt(3), "A": cmath.exp(0.3j), "G": cmath.exp(0.9j)}
    diag = lz.diag_values_numeric(rep, point, 12)
    u = cmath.exp(0.4j)
    for s in (0.3, 0.7 + 0.2j, 1.1):
        try:
            out = pr.zeta_case2_3_numeric(
                setup, 1, mu, u, s, lambda l: diag[l], tol=1e-8
            )
            err = max(out["abs_errors"])
            ok = True
        except ValueError:
            err = float("inf")
            ok = False
        cases.append(
            _case(
                f"case23-s{s}",
                f"p=3, e=1, s={s}",
                "closed forms == coset sum (1e-8)",
                f"max abs err {err:.2e}",
                ok,
                "PAPER",
            )
        )
    # epsilon factor through the functional-equation ratio
    s = 0.3 + 0.1j
    z = pr.zeta_case2_3_closed(setup, 1, mu, u, s)[0]
    z_hat = pr.zeta_case2_3_closed(setup, 1, mu.inverse(), 1 / u, -s)[1]
    ratio = z_hat / z
    wf = pr.gauss_sum_F(mu, u)
    wl = pr.gauss_sum_L(mu, setup.galois_ring(1), u)
    eps = (
        (-1) ** 1
        * 3 ** (4 * (0.5 - (s + 0.5)))
        * mu.value_at_rational(Fraction(-setup.disc, setup.a**2))
        * (wl * wf**2).conjugate()
    )
    cases.append(
        _case(
            "case23-epsilon-ratio",
            f"Z-hat(-s, mu^-1)/Z(s, mu) at s={s}",
            f"{eps:.8f}",
            f"{ratio:.8f}",
            abs(ratio - eps) < 1e-8,
            "DERIVED",
        )
    )
    return _report("case23", cases, seed)


def suite_y_eta() -> dict:
    """Y_eta determinant and Smith-form claims on >= 20 instances."""
    seed = _seed()
    rng = random.Random(seed + 1)
    cases = []
    count = 0
    configs = [
        ((1, 0, 1), 5),
        ((1, 1, 1), 5),
        ((1, 0, 1), 3),
        ((3, 1, 1), 7),
        ((1, 2, 3), 5),
    ]
    for (a, b, c), p in configs:
        try:
            setup = pr.BesselSetup(a, b, c, p)
        except ValueError:
            continue
        for e in (1, 2):
            picked = 0
            while picked < 3:
                b2 = rng.randrange(p**e)
                b3 = rng.randrange(p**e)
                rep = pr.y_eta_check(setup, b2, b3, e)
                if not rep["hypothesis_holds"]:
                    continue  # degenerate lift, resample
                picked += 1
                count += 1
                cases.append(
                    _case(
                        f"yeta-{a},{b},{c}-p{p}-e{e}-({b2},{b3})",
                        f"S=({a},{b},{c}), p={p}, e={e}, eta=({b2},{b3})",
                        "det, trace, Smith p-part all exact",
                        f"det={rep['det_identity']}, tr={rep['trace_identity']}, "
                        f"smith={rep['smith_p_part']}, divisors={rep['elementary_divisors']}",
                        rep["ok"],
                        "DERIVED",
                    )
                )
    cases.append(
        _case(
            "yeta-count",
            "number of instances checked",
            ">= 20",
            str(count),
            count >= 20,
            "TRIVIAL",
        )
    )
    return _report("y_eta", cases, seed)


def suite_classgroup() -> dict:
    """Class numbers, group axioms, conjugation = inversion, sign law."""
    seed = _seed()
    rng = random.Random(seed + 2)
    cases = []
    for d, h in ((-3, 1), (-4, 1), (-23, 3), (-47, 5)):
        grp = cg.ClassGroup(d)
        oracle = len(cg.reduced_forms(d))
        cases.append(
            _case(
                f"h({d})",
                f"D = {d}",
                str(h),
                f"{grp.h} (enumeration oracle: {oracle})",
                grp.h == h == oracle,
                "DERIVED",
            )
        )
    axioms_ok = True
    for d in (-3, -4, -7, -8, -11, -15, -20, -23, -47):
        grp = cg.ClassGroup(d)
        ident = grp.classes[grp.identity]
        for x in grp.classes:
            if grp.compose(ident, x) != x:
                axioms_ok = False
            if grp.compose(x, grp.conjugate_class(x)) != ident:
                axioms_ok = False
        for x in grp.classes:
            for y in grp.classes:
                for z in grp.classes:
                    if grp.compose(grp.compose(x, y), z) != grp.compose(
                        x, grp.compose(y, z)
                    ):
                        axioms_ok = False
    cases.append(
        _case(
            "group-axioms",
            "all D in {-3,...,-47}: associativity, identity, inverse=conjugate",
            "hold",
            "hold" if axioms_ok else "FAIL",
            axioms_ok,
            "DERIVED",
        )
    )
    grp = cg.ClassGroup(-47)
    chars = cg.ClassChar.all_chars(grp)
    law_ok = True
    for l2 in (0, 1):
        sign = (-1) ** l2
        for _ in range(50):
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
                lhs = cg.bessel_coeff_sum(grp, coeffs, chi.conjugate())
                rhs = sign * cg.bessel_coeff_sum(grp, coeffs, chi)
                if abs(lhs - rhs) > 1e-10:
                    law_ok = False
    cases.append(
        _case(
            "bessel-conj-sign",
            "100 random coefficient assignments, both parities, D=-47",
            "R(conj Lambda) = (-1)^{l2} R(Lambda)",
            "holds" if law_ok else "FAIL",
            law_ok,
            "PAPER",
        )
    )
    return _report("classgroup", cases, seed)


def suite_tfactor() -> dict:
    """Spectral-average correction factor pins."""
    seed = _seed()
    cases = []
    v6 = t_factor(LocalRep.symbolic_trivial("VIb"), UNRAMIFIED, 3)
    v3 = t_factor(LocalRep.symbolic("IIIa"), UNRAMIFIED, 3)
    cases.append(_case("t-VIb", "type VIb", "1", str(v6), v6 == 1, "PAPER"))
    cases.append(_case("t-IIIa", "type IIIa", "2", str(v3), v3 == 2, "PAPER"))
    cases.append(
        _case(
            "t-sum", "VIb + IIIa", "3", str(v6 + v3), v6 + v3 == 3, "TRIVIAL"
        )
    )
    got = t_factor(LocalRep("I", (1, 1, 1)), UNRAMIFIED, 3)
    # independent evaluation: tr T_{1,0} = 4 q^{3/2}, tr eta = 0 at q = 3
    q = 3.0
    lstd = (1 - 1 / q) ** -5
    want = 2 * (q - 1) * q**-5 * lstd * (2 - (1 / (q + 1)) * (4 * q**1.5 / q))
    cases.append(
        _case(
            "t-spherical",
            "type I, alpha=beta=gamma=1, u=1, p=3",
            f"(2-sqrt(3))/8 = {(2 - math.sqrt(3)) / 8!r}",
            repr(got),
            abs(got - want) < 1e-12 and abs(got - (2 - math.sqrt(3)) / 8) < 1e-12,
            "DERIVED",
        )
    )
    return _report("tfactor", cases, seed)


def suite_global_eps() -> dict:
    """Global epsilon sign at the center; Gauss-sum moduli."""
    seed = _seed()
    cases = []
    for l1, l2, want in ((6, 4, 1), (5, 3, -1)):
        gp = ga.GlobalParams(
            D=-23, l1=l1, l2=l2, N=5, M=17, chi=ga.DirichletChar.quadratic(17)
        )
        eps = ga.global_epsilon(0.5, gp, 5)
        cases.append(
            _case(
                f"eps-center-l2-{l2}",
                f"real mu~, l2={l2}",
                str(want),
                f"{eps:.10f}",
                abs(eps - want) < 1e-9,
                "PAPER",
            )
        )
    import itertools

    for m in (5, 7, 9, 11, 13):
        facs = pr.factorize(m)
        ranges = [range(pr.ResidueRing(p, k).unit_order) for p, k in facs]
        worst = 0.0
        n_prim = 0
        for expo in itertools.product(*ranges):
            chi = ga.DirichletChar(m, expo)
            if not chi.is_primitive:
                continue
            n_prim += 1
            worst = max(worst, abs(abs(chi.gauss_sum()) - math.sqrt(m)))
        cases.append(
            _case(
                f"gauss-modulus-M{m}",
                f"all {n_prim} primitive characters mod {m}",
                f"|G| = sqrt({m})",
                f"max deviation {worst:.2e}",
                worst < 1e-9,
                "DERIVED",
            )
        )
    return _report("global_eps", cases, seed)


def suite_arch() -> dict:
    """Archimedean Mellin-Gamma quadrature pin at three parameter points."""
    seed = _seed()
    cases = []
    for sigma, d in ((4.5, -4), (7.0, -23), (3.0, -3)):
        r = ga.mellin_gamma_pin(sigma, d)
        cases.append(
            _case(
                f"mellin-sigma{sigma}-D{d}",
                f"sigma={sigma}, D={d}",
                f"{r['closed']:.9e}",
                f"{r['integral']:.9e} (rel err {r['rel_err']:.2e})",
                r["rel_err"] < 1e-6,
                "DERIVED",
            )
        )
    return _report("arch_quadrature", cases, seed)


SUITES = {
    "case1": suite_case1,
    "case4": suite_case4,
    "case56_periods": suite_case56_periods,
    "gauss": suite_gauss,
    "case23": suite_case23,
    "y_eta": suite_y_eta,
    "classgroup": suite_classgroup,
    "tfactor": suite_tfactor,
    "global_eps": suite_global_eps,
    "arch_quadrature": suite_arch,
}

# stated runtime budgets (seconds) per acceptance criterion
RUNTIME_LIMITS = {
    "case1": 2.0,
    "case4": 5.0,
    "case56_periods": 1.0,
    "gauss": 30.0,
    "case23": 10.0,
    "y_eta": 5.0,
    "classgroup": 5.0,
    "tfactor": 1.0,
    "global_eps": 5.0,
    "arch_quadrature": 5.0,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name]()


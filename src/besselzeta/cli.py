"""Command-line front end: verification suites and one-off evaluations.

Every subcommand prints a single JSON document (schema "1") with
deterministic member ordering; symbolic values are serialized through the
canonical sorted-monomial text form.  The BZ_SEED environment variable
overrides the seed of the randomized property suites, and the seed used is
always part of the report.

Exit status: 0 on success, 1 when a verification suite or check fails, 2
for usage errors, which include an input the library rejects (a
ValueError or ZeroDivisionError outside ``verify``), reported in one line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classgroup as cg
from . import globalasm as ga
from . import localzeta as lz
from . import padicring as pr
from . import suites
from .localrep import (REP_TAGS, SATAKE_SLOTS, SPHERICAL_TAGS, LocalRep, TwistData,
                       shift_half, spinor_lfactor, std_lfactor)
from .symfield import RatFunc, rf_var

SCHEMA = "1"


def _complex_json(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return json.JSONEncoder().default(x)  # json's own TypeError


def _emit(doc: dict) -> None:
    json.dump({"schema": SCHEMA, **doc}, sys.stdout, indent=2, default=_complex_json)
    sys.stdout.write("\n")


def _u(args) -> RatFunc:
    # symbolic mode keeps mu(pi) formal
    return rf_var("U") if args.symbolic else RatFunc.const(Fraction(args.u))


def _twist(args) -> TwistData:
    # Lambda(pi) stays a rational value because the series/closed-form
    # identities hold at Lambda(pi) = 1
    return TwistData(u=_u(args), lam=RatFunc.const(Fraction(args.lam)))


def _rep(args, trivial: bool = True) -> LocalRep:
    if args.symbolic:
        return LocalRep.symbolic_trivial(args.type) if trivial \
            else LocalRep.symbolic(args.type)
    slots = len(SATAKE_SLOTS[args.type])
    values = [Fraction(v) for v in (args.satake.split(",") if args.satake else [])]
    if not values:
        values = [Fraction(1)] * slots
    if len(values) != slots:
        raise ValueError(f"type {args.type} takes {slots} Satake values")
    return LocalRep(args.type, tuple(values))


def cmd_verify(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    for n in names:
        if n not in suites.SUITES:
            print(f"unknown suite {n!r}; known: all, {', '.join(suites.SUITES)}",
                  file=sys.stderr)
            return 2
    try:
        suites._seed()  # a bad BZ_SEED is a usage error, not a failed check
    except ValueError as exc:
        print(f"besselzeta verify: error: {exc}", file=sys.stderr)
        return 2
    reports = [suites.run_suite(n) for n in names]
    ok = all(r["ok"] for r in reports)
    _emit(
        {
            "command": "verify",
            "suites": reports,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def cmd_lfactor(args) -> int:
    # generic parameters for the factor tables; no central-character
    # constraint is needed to display them
    rep = _rep(args, trivial=False)
    doc = {
        "command": "lfactor",
        "type": args.type,
        "satake": [s.to_text() for s in rep.satake],
        "unitarity": "not checked; unit-circle convention is the caller's",
        "spinor": spinor_lfactor(rep, TwistData(u=_u(args))).to_text(),
    }
    if args.type in SPHERICAL_TAGS:
        doc["standard"] = std_lfactor(rep).to_text()
    _emit(doc)
    return 0


_NEWFORM_TYPE = {"5": "IIIa", "6": "VIb"}


def cmd_zeta_local(args) -> int:
    rep = _rep(args)
    tw = _twist(args)
    case = args.case
    if case == "1":
        # the spherical vector has no basis index
        if args.index != 0:
            raise ValueError("case 1 has no basis index; --index must be 0")
        series = lz.zeta_case1(rep, tw)
        closed = shift_half(spinor_lfactor(rep, tw))
    else:
        closed_fn, series_fn = (lz.zeta_case4, lz.zeta_case4_series) if case == "4" \
            else (lz.zeta_case5_6, lz.zeta_case5_6_series)
        closed = closed_fn(rep, tw)
        # one value per basis vector; a tuple would take a negative index.
        # Checked before the series route, whose case 5/6 hypotheses are
        # stricter than the closed form's.
        n = len(closed)
        if not 0 <= args.index < n:
            raise ValueError(
                f"basis index {args.index} out of range for type {rep.tag} (0..{n - 1})"
            )
        # case 5 is the IIIa newform and case 6 the VIb one
        if case in _NEWFORM_TYPE and rep.tag != _NEWFORM_TYPE[case]:
            raise ValueError(f"case {case} is stated for type {_NEWFORM_TYPE[case]}")
        closed, series = closed[args.index], series_fn(rep, tw)[args.index]
    match = closed == series
    _emit(
        {
            "command": "zeta-local",
            "case": case,
            "inputs": {
                "type": args.type,
                "satake": [s.to_text() for s in rep.satake],
                "u": tw.u.to_text(),
                "lambda": tw.lam.to_text(),
                "index": args.index,
            },
            "closed_form": closed.to_text(),
            "series_form": series.to_text(),
            "match": match,
        }
    )
    return 0 if match else 1


def cmd_period(args) -> int:
    rep = _rep(args)
    tw = _twist(args)
    got = lz.local_period(rep, tw)
    want = lz.local_period_closed(rep, tw)
    _emit(
        {
            "command": "period",
            "type": args.type,
            "component_sum": got.to_text(),
            "closed_form": want.to_text(),
            "match": got == want,
        }
    )
    return 0 if got == want else 1


def cmd_gauss(args) -> int:
    p, e = args.p, args.e
    inputs = {"p": p, "e": e, "char_index": args.char_index, "check": args.check}
    if args.check != "smith":  # smith uses neither the ring nor the character
        ring = pr.ResidueRing(p, e)
        mu = pr.MultChar(ring, args.char_index)
        inputs["conductor"] = mu.conductor
    if args.check == "gauss":
        lhs = pr.unit_psi_mu_integral(mu, -e)
        rhs = pr.gauss_sum_lemma_value(mu, -e)
        off = max(
            abs(pr.unit_psi_mu_integral(mu, n)) for n in range(-e - 2, -e + 3) if n != -e
        )
        err = max(abs(lhs - rhs), off)
    elif args.check == "split":
        gring = pr.GaloisRing(p, e)
        lhs = pr.gauss_sum_L(mu, gring)
        rhs = (-1) ** e * pr.gauss_sum_F(mu) ** 2
        err = abs(lhs - rhs)
    elif args.check == "normsum":
        if mu.conductor != e:
            # outside the lemma's hypothesis the identity fails, which is
            # not a failed verification
            raise ValueError(f"conductor {mu.conductor} != e = {e}; the "
                             "norm-sum lemma needs an exact-conductor character")
        gring = pr.GaloisRing(p, e)
        u = args.unit % ring.modulus
        lhs = pr.norm_char_sum(gring, mu, u)
        rhs = (-1) ** e * p**e * mu(u)
        err = abs(lhs - rhs)
        inputs["unit"] = u
    else:  # smith; argparse admits no other check
        m = [[int(v) for v in row.split(",")] for row in args.matrix.split(";")]
        d1, d2, u_, v_ = pr.smith_form_2x2(m)
        lhs = {"U": u_, "V": v_}
        rhs = {"d1": d1, "d2": d2}
        umv = [[sum(u_[i][k] * m[k][l] * v_[l][j] for k in range(2) for l in range(2))
                for j in range(2)] for i in range(2)]
        unimodular = all(abs(x[0][0] * x[1][1] - x[0][1] * x[1][0]) == 1 for x in (u_, v_))
        # the claim is exact in integers: abs_err reads 0 when it holds, 1 when not
        err = float(not (umv == [[d1, 0], [0, d2]] and 0 < d1 and 0 < d2
                         and d2 % d1 == 0 and unimodular))
        inputs["matrix"] = m
    ok = err < 1e-9
    _emit(
        {
            "command": "gauss",
            "inputs": inputs,
            "lhs": lhs,
            "rhs": rhs,
            "abs_err": err,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def cmd_classgroup(args) -> int:
    grp = cg.ClassGroup(args.D)
    chars = cg.ClassChar.all_chars(grp)
    # character values as exact fractions of a full turn
    table = [
        [str(chi.value_fraction(f)) for f in grp.classes] for chi in chars
    ]
    _emit(
        {
            "command": "classgroup",
            "D": args.D,
            "h": grp.h,
            "w": grp.w,
            "structure": grp.structure_label(),
            "reduced_forms": [[f.a, f.b, f.c] for f in grp.classes],
            "principal": grp.identity,
            "conjugation_pairing": [
                grp.index(grp.conjugate_class(f)) for f in grp.classes
            ],
            "character_table_turns": table,
        }
    )
    return 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def cmd_average(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    try:
        m, d, l1, l2 = cfg["M"], cfg["D"], cfg["l1"], cfg["l2"]
    except KeyError as exc:
        raise ValueError(f"config has no key {exc}") from exc
    for key in ("M", "D", "l1", "l2", "N", "N_pi"):
        if key in cfg and not _is_int(cfg[key]):
            raise ValueError(f"config key {key!r} must be an integer")
    for key in ("chi", "S"):
        if key in cfg and not (
            isinstance(cfg[key], list) and all(map(_is_int, cfg[key]))
        ):
            raise ValueError(f"config key {key!r} must be a list of integers")
    s_pair = cfg.get("s", [0.0, 0.0])
    if not (isinstance(s_pair, list) and len(s_pair) == 2 and all(
        _is_int(v) or isinstance(v, float) for v in s_pair
    )):
        raise ValueError("config key 's' must be a list of two numbers")
    chi = ga.DirichletChar(m, tuple(cfg.get("chi", [])))
    gp = ga.GlobalParams(
        D=d, l1=l1, l2=l2, N=cfg.get("N", 1),
        M=m, chi=chi, S=tuple(cfg.get("S", ())),
    )
    s = complex(*s_pair)
    n_pi = cfg.get("N_pi", gp.N)
    _emit(
        {
            "command": "average",
            "params": {
                "D": gp.D, "l1": gp.l1, "l2": gp.l2, "N": gp.N, "M": gp.M,
                "s": s, "N_pi": n_pi,
            },
            "constants": {
                "w_D": {
                    "value": gp.w,
                    "provenance": "unit count of the imaginary quadratic order",
                },
                "siegel_index": {
                    "value": ga.siegel_index(gp.N),
                    "provenance": "[K_f : K_0(N)] = prod p^3 (1+1/p)(1+1/p^2)",
                },
                "gauss_sum": {
                    "value": gp.chi.gauss_sum(),
                    "provenance": "G(mu~) by CRT over the prime powers of M",
                },
                "zeta_M_1": {
                    "value": ga.zeta_partial(gp.M, 1),
                    "provenance": "zeta_M(1) = prod_{p|M} (1-1/p)^{-1}",
                },
                "zeta_M_4": {
                    "value": ga.zeta_partial(gp.M, 4),
                    "provenance": "zeta_M(4) = prod_{p|M} (1-p^{-4})^{-1}",
                },
                "prefactor": {
                    "value": ga.average_prefactor(s, gp),
                    "provenance": "scalar multiplying the spectral sum "
                    "(archimedean vector norm taken as 1)",
                },
                "global_epsilon": {
                    "value": ga.global_epsilon(s, gp, n_pi),
                    "provenance": "(-1)^{l2} mu~(N_pi^2) (G/sqrt M)^4 "
                    "(M^4 N_pi^2)^{1/2-s}",
                },
                "arch_lfactor": {
                    "value": ga.arch_lfactor(s, gp.l1, gp.l2),
                    "provenance": "Gamma_C(s+(l1-l2)/2+1/2) "
                    "Gamma_C(s+(l1+l2)/2-3/2)",
                },
            },
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="besselzeta",
        description="exact verification of Bessel-model zeta integrals and "
        "the constants built from them",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    for name, fn in (("lfactor", cmd_lfactor), ("period", cmd_period),
                     ("zeta-local", cmd_zeta_local)):
        p = sub.add_parser(name)
        p.add_argument("--type", required=True, choices=REP_TAGS)
        p.add_argument("--symbolic", action="store_true",
                       help="symbolic Satake parameters (no central-character "
                       "constraint)" if name == "lfactor" else
                       "symbolic Satake parameters (trivial central character)")
        p.add_argument("--satake", help="comma-separated rational Satake values")
        p.add_argument("--u", default="1", help="rational twist value mu(pi)")
        if name != "lfactor":  # the L-factors do not depend on Lambda(pi)
            p.add_argument("--lam", default="1", help="rational value Lambda(pi)")
        if name == "zeta-local":
            p.add_argument("--case", required=True, choices=("1", "4", "5", "6"))
            p.add_argument("--index", type=int, default=0)
        p.set_defaults(func=fn)

    p = sub.add_parser("gauss")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--char-index", type=int, default=1)
    p.add_argument("--check", required=True,
                   choices=("gauss", "split", "normsum", "smith"))
    p.add_argument("--unit", type=int, default=1)
    p.add_argument("--matrix", default="2,7;4,9",
                   help="2x2 integer matrix as 'a,b;c,d' (smith check)")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("classgroup")
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("average")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_average)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.func is cmd_verify:
        return cmd_verify(args)  # a failed check is exit 1, never a usage error
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        # the library validates its inputs at its boundary, so here these
        # mean an argument was rejected
        print(f"besselzeta {args.cmd}: error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

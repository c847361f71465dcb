"""Acceptance gate: every criterion suite must pass at its stated tolerance
and inside its stated runtime budget.  One line is printed per criterion.

At the default seed, the report of every suite, the float-printing ones
included, must equal, byte for byte, its entry in the benchmark's golden
`verify --suite all` report.
"""

import json
import math
import os
import time
from pathlib import Path

import pytest

from besselzeta import classgroup as cg
from besselzeta import globalasm as ga
from besselzeta import localzeta as lz
from besselzeta import padicring as pr
from besselzeta import suites
from besselzeta.suites import (RUNTIME_LIMITS, SUITES, _equal_forms_case, _exact_case,
                               run_suite)
from besselzeta.symfield import RF_ZERO, RatFunc, rf_var

GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "verify_all.seed831.json"

CRITERIA = [
    ("case1", "1. case-1 identity: series route = spinor L at shift 1/2, exact"),
    ("case4", "2. case-4 closed form = series, all indices, both types; X-inversion"),
    ("case56_periods", "3. cases 5-6 and all local periods from components; IIIa = 2 x VIb"),
    ("gauss", "4. character-sum lemmas by exhaustive summation (1e-9)"),
    ("case23", "5. case-2/3 closed forms vs coset-sum oracle (1e-8), epsilon ratio"),
    ("y_eta", "6. Y_eta determinant and Smith claims on >= 20 instances"),
    ("classgroup", "7. class numbers, group axioms, conjugation, sign law"),
    ("tfactor", "8. t-factor pins: VIb 1, IIIa 2, spherical (2-sqrt 3)/8 (1e-12)"),
    ("global_eps", "9. global epsilon sign at center; |G(mu~)| = sqrt(M) (1e-9)"),
    ("arch_quadrature", "10. archimedean Mellin-Gamma quadrature pin (1e-6)"),
]


@pytest.mark.parametrize("name,label", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, label):
    t0 = time.perf_counter()
    report = run_suite(name)
    elapsed = time.perf_counter() - t0
    status = "PASS" if report["ok"] else "FAIL"
    print(f"\n[{status}] {label}  "
          f"({report['summary']['passed']}/{report['summary']['total']} cases, "
          f"{elapsed:.2f}s / limit {RUNTIME_LIMITS[name]}s)")
    failed = [c for c in report["cases"] if not c["pass"]]
    assert report["ok"], f"failed cases: {[c['id'] for c in failed]}"
    assert elapsed <= RUNTIME_LIMITS[name], (
        f"suite {name} took {elapsed:.2f}s, over the stated {RUNTIME_LIMITS[name]}s"
    )
    if not os.environ.get("BZ_SEED"):
        golden = next(r for r in json.loads(GOLDEN.read_text())["suites"]
                      if r["suite"] == name)
        assert json.dumps(report, indent=2) == json.dumps(golden, indent=2)


def test_every_suite_is_an_acceptance_criterion():
    assert set(SUITES) == {name for name, _ in CRITERIA}


def test_two_zero_forms_do_not_pass():
    case = _equal_forms_case("c", "i", "closed == series", RF_ZERO, RF_ZERO, "PAPER")
    assert case["pass"] is False and case["actual"] == "both identically 0"
    t = rf_var("T")
    assert _equal_forms_case("c", "i", "e", t, t, "PAPER")["pass"] is True
    assert _equal_forms_case("c", "i", "e", t, RF_ZERO, "PAPER")["actual"] == "DIFFERENT"
    two = RatFunc.const(2)
    case = _equal_forms_case("c", "i", "e", two, two, "PAPER")
    assert case["pass"] is False and case["actual"] == "both free of T"
    # an exact identity passes on equal nonzero sides, constants included
    case = _exact_case("c", "i", RF_ZERO, RF_ZERO)
    assert case["pass"] is False and (case["expected"], case["actual"]) == ("0", "0")
    assert _exact_case("c", "i", two, two)["pass"] is True
    assert _exact_case("c", "i", two, t)["pass"] is False


def _verdicts(cases, prefix):
    return {c["id"]: c["pass"] for c in cases if c["id"].startswith(prefix)}


def test_case1_both_sides_zero_does_not_pass(monkeypatch):
    monkeypatch.setattr(lz, "zeta_case1", lambda rep, tw: RF_ZERO)
    monkeypatch.setattr(suites, "shift_half", lambda value: RF_ZERO)
    verdicts = _verdicts(suites.suite_case1(), "case1-I")
    assert verdicts == {"case1-I": False, "case1-IIb": False}


def test_period_both_sides_zero_does_not_pass(monkeypatch):
    # type I only, so that the IIIa / VIb ratio still has a nonzero divisor
    def collapse(route):
        return lambda rep, tw: RF_ZERO if rep.tag == "I" else route(rep, tw)

    monkeypatch.setattr(lz, "local_period", collapse(lz.local_period))
    monkeypatch.setattr(lz, "local_period_closed", collapse(lz.local_period_closed))
    verdicts = _verdicts(suites.suite_case56_periods(), "period-")
    assert verdicts["period-I"] is False
    assert all(verdicts[f"period-{tag}"] for tag in ("IIb", "IIIa", "VIb"))


def test_case4_constant_normalized_value_does_not_pass(monkeypatch):
    # closed form = series = the spinor L-factor itself, so the normalized
    # value is the constant 1, which inversion cannot move
    def spin(rep, tw):
        return (suites.shift_half(suites.spinor_lfactor(rep, tw)),)

    monkeypatch.setattr(lz, "zeta_case4", spin)
    monkeypatch.setattr(lz, "zeta_case4_series", spin)
    cases = suites.suite_case4()
    assert {c["id"]: (c["pass"], c["actual"]) for c in cases} == {
        "case4-I-B1": (True, "equal"),
        "case4-I-B1-inv": (False, "free of T"),
        "case4-IIb-B1": (True, "equal"),
        "case4-IIb-B1-inv": (False, "free of T"),
    }


def test_arch_pin_with_a_wrong_constant_does_not_pass(monkeypatch):
    # a pin whose c is 2 pi / sqrt|d| agrees with itself; the suite's own
    # closed form with c = 2 pi sqrt|d| must catch it
    def wrong_pin(sigma, d):
        c = 2 * math.pi / math.sqrt(abs(d))
        value = math.gamma(sigma) * c**-sigma
        return {"integral": value, "closed": value, "rel_err": 0.0}

    monkeypatch.setattr(ga, "mellin_gamma_pin", wrong_pin)
    assert not any(c["pass"] for c in suites.suite_arch())


def test_y_eta_rejected_config_raises(monkeypatch):
    # a config that stops being valid is an error, not fewer instances
    real = pr.BesselSetup

    def reject(a, b, c, p):
        if (a, b, c, p) == (1, 2, 3, 5):
            raise ValueError("rejected config")
        return real(a, b, c, p)

    monkeypatch.setattr(pr, "BesselSetup", reject)
    with pytest.raises(ValueError, match="rejected config"):
        suites.suite_y_eta()


def test_case23_doubled_closed_form_does_not_pass(monkeypatch):
    # Z_phi doubled: the oracle check raises, the epsilon ratio halves
    real = pr.zeta_case2_3_closed

    def doubled(*args, **kwargs):
        z_phi, z_phi_hat = real(*args, **kwargs)
        return 2 * z_phi, z_phi_hat

    monkeypatch.setattr(pr, "zeta_case2_3_closed", doubled)
    verdicts = _verdicts(suites.suite_case23(), "case23-")
    assert len(verdicts) == 4 and not any(verdicts.values())


CLASSGROUP_IDS = ("h(-3)", "h(-4)", "h(-23)", "h(-47)", "group-axioms", "bessel-conj-sign")


# the first breaks the identity and inverse axioms, the second the identity
# and associativity axioms
@pytest.mark.parametrize("broken", [
    lambda compose: lambda grp, f, g: f,
    lambda compose: lambda grp, f, g: grp.conjugate_class(compose(grp, f, g)),
], ids=["first-argument", "conjugated-product"])
def test_classgroup_broken_composition_fails_the_axioms(monkeypatch, broken):
    monkeypatch.setattr(cg.ClassGroup, "compose", broken(cg.ClassGroup.compose))
    verdicts = _verdicts(suites.suite_classgroup(), "")
    assert verdicts == {cid: cid != "group-axioms" for cid in CLASSGROUP_IDS}


def test_classgroup_self_conjugate_characters_fail_the_sign_law(monkeypatch):
    monkeypatch.setattr(cg.ClassChar, "conjugate", lambda self: self)
    verdicts = _verdicts(suites.suite_classgroup(), "")
    assert verdicts == {cid: cid != "bessel-conj-sign" for cid in CLASSGROUP_IDS}

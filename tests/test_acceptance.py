"""Acceptance gate: every criterion suite must pass at its stated tolerance
and inside its stated runtime budget.  One line is printed per criterion.

At the default seed, the report of each suite that prints no floats must
equal, byte for byte, its entry in the benchmark's golden
`verify --suite all` report.  Float-printing suites are checked there only.
"""

import json
import os
import time
from pathlib import Path

import pytest

from besselzeta.suites import RUNTIME_LIMITS, SUITES, run_suite

GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "verify_all.seed831.json"
EXACT_SUITES = ("case1", "case4", "case56_periods", "y_eta", "classgroup")

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
    t0 = time.time()
    report = run_suite(name)
    elapsed = time.time() - t0
    status = "PASS" if report["ok"] else "FAIL"
    print(f"\n[{status}] {label}  "
          f"({report['summary']['passed']}/{report['summary']['total']} cases, "
          f"{elapsed:.2f}s / limit {RUNTIME_LIMITS[name]}s)")
    failed = [c for c in report["cases"] if not c["pass"]]
    assert report["ok"], f"failed cases: {[c['id'] for c in failed]}"
    assert elapsed <= RUNTIME_LIMITS[name], (
        f"suite {name} took {elapsed:.2f}s, over the stated {RUNTIME_LIMITS[name]}s"
    )
    if name in EXACT_SUITES and not os.environ.get("BZ_SEED"):
        golden = next(r for r in json.loads(GOLDEN.read_text())["suites"]
                      if r["suite"] == name)
        assert json.dumps(report, indent=2) == json.dumps(golden, indent=2)


def test_every_suite_is_an_acceptance_criterion():
    assert set(SUITES) == {name for name, _ in CRITERIA}

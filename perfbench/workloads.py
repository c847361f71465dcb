"""The two workloads: their seeded inputs, term counts and output checks.

verify_all runs the command-line program in a fresh process per
operation; exhaustive_sums calls padicring/globalasm in the process that
imports this module.  Inputs come from the seed only.  Every output is checked
against golden files recorded at the commit that defined the benchmark,
or against closed forms recomputed by ``reference`` -- never against
another output of the run under test.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEFAULT_SEED = 831          # the program's default BZ_SEED
TOL_GAUSS = 1e-9            # tolerance of the gauss / global_eps suites
TOL_CASE23 = 1e-8           # tolerance of the case23 suite


def rng_for(seed: int, round_no: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_no)


def _draw_char(rng, p, e):
    return rng.choice([k for k in range(ref.phi_pk(p, e)) if ref.is_exact_conductor(p, e, k)])


def close(x, y, tol) -> bool:
    return abs(complex(x) - complex(y)) <= tol


def more(busy, last, seconds) -> bool:
    """Start another unit of work only while it should end within half a
    unit of `seconds`, so that a run measures about `seconds` of it."""
    return busy + last / 2 < seconds


# ---------------------------------------------------------------------------
# character-sum term counts, from ring sizes


def terms_unit_integral(p, e, n):
    """Units modulo p^K summed by the unit integral at level n."""
    return ref.phi_pk(p, max(e, -n, 1))


def terms_w_f(p, e):
    return ref.phi_pk(p, e)


def terms_w_l(p, e):
    return p ** (2 * e) - p ** (2 * e - 2)


def terms_norm_sum(p, e):
    return p ** (2 * e)


def terms_case23(p, e):
    """Closed forms (W_F, W_L) plus the coset-sum oracle: one unipotent
    coset with four unit integrals, and p^2e Weyl cosets with seven."""
    closed = terms_w_f(p, e) + terms_w_l(p, e)
    z_phi = sum(terms_unit_integral(p, e, n) for n in range(-e, -e + 4))
    z_hat = terms_w_l(p, e) + p ** (2 * e) * sum(
        terms_unit_integral(p, e, n) for n in range(-e - 3, -e + 4))
    return closed + z_phi + z_hat


def terms_dirichlet(modulus):
    return sum(ref.phi_pk(p, k) for p, k in ref.factorize(modulus))


# ---------------------------------------------------------------------------
# verify_all


VERIFY_ARGV = ("verify", "--suite", "all")     # without --jobs, whose pool may go


def _golden_verify():
    return (GOLDEN / f"verify_all.seed{DEFAULT_SEED}.json").read_bytes()


SEEDED_SUITES = ("gauss", "y_eta")
_CASE_PATTERNS = {
    "vanishing": re.compile(r"vanishing-p(\d+)-e(\d+)-k(\d+)$"),
    "modulus": re.compile(r"modulus-p(\d+)-e(\d+)-k(\d+)$"),
    "split": re.compile(r"split-p(\d+)-e(\d+)-k(\d+)$"),
    "normsum": re.compile(r"normsum-p(\d+)-e(\d+)-k(\d+)-u(\d+)$"),
}
_YETA = re.compile(r"yeta-(-?\d+),(-?\d+),(-?\d+)-p(\d+)-e(\d+)-\((\d+),(\d+)\)$")
_FLOAT = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


def _check_gauss_case(case) -> str | None:
    for kind, pat in _CASE_PATTERNS.items():
        m = pat.match(case["id"])
        if m:
            break
    else:
        return f"unexpected case {case['id']}"
    p, e, k = (int(x) for x in m.groups()[:3])
    if (p, e) not in {(q, f) for q in (3, 5, 7) for f in (1, 2)} \
            or not ref.is_exact_conductor(p, e, k):
        return f"{case['id']}: not an exact-conductor character of the grid"
    if kind in ("vanishing", "modulus"):
        err = float(_FLOAT.search(case["actual"]).group())
        return None if err < TOL_GAUSS else f"{case['id']}: error {err}"
    if kind == "split":
        want = ref.w_l_closed(p, e, k)
    else:
        want = ref.norm_sum_closed(p, e, k, int(m.group(4)))
    if close(complex(case["expected"]), want, 2e-6) and \
            close(complex(case["actual"]), want, 2e-6):
        return None
    return f"{case['id']}: {case['actual']} != closed form {want:.6f}"


def _check_y_eta_case(case, count) -> str | None:
    if case["id"] == "yeta-count":
        n = int(case["actual"])
        return None if n == count and n >= 20 else "wrong instance count"
    m = _YETA.match(case["id"])
    if not m:
        return f"unexpected case {case['id']}"
    a, b, c, p, e, b2, b3 = (int(x) for x in m.groups())
    (d1, d2), j = ref.y_eta_divisors((a, b, c), p, b2, b3)
    want = f"det=True, tr=True, smith=True, divisors=({d1}, {d2})"
    if case["actual"] != want:
        return f"{case['id']}: {case['actual']!r} != {want!r}"
    if ref.ord_p(d1, p) != 0 or ref.ord_p(d2, p) != j:
        return f"{case['id']}: Smith p-part is not (1, p^{j})"
    return None


def check_verify(stdout: bytes, seed: int) -> str | None:
    """None when the report is right, else the first problem found."""
    golden = _golden_verify()
    if seed == DEFAULT_SEED:
        return None if stdout == golden else "differs from the golden report"
    doc, want = json.loads(stdout), json.loads(golden)
    if [s["suite"] for s in doc["suites"]] != [s["suite"] for s in want["suites"]]:
        return "suite list differs from the golden report"
    if doc["ok"] is not True or doc["command"] != "verify":
        return "verdict is not ok"
    for got, gold in zip(doc["suites"], want["suites"]):
        if got["seed"] != seed:
            return f"{got['suite']}: seed {got['seed']} echoed, {seed} given"
        if got["suite"] not in SEEDED_SUITES:
            if got != {**gold, "seed": seed}:
                return f"{got['suite']}: differs from the golden report"
            continue
        cases = got["cases"]
        if len(cases) != len(gold["cases"]) or got["summary"] != gold["summary"] \
                or not got["ok"] or not all(c["pass"] for c in cases):
            return f"{got['suite']}: wrong case count or verdict"
        count = sum(c["id"] != "yeta-count" for c in cases)
        for case in cases:
            bad = (_check_gauss_case(case) if got["suite"] == "gauss"
                   else _check_y_eta_case(case, count))
            if bad:
                return bad
    return None


def verify_terms(stdout: bytes) -> int:
    """Character-sum terms behind one report: the gauss suite, the
    case23 coset sums and the Dirichlet Gauss sums of global_eps."""
    total = 0
    for suite in json.loads(stdout)["suites"]:
        for case in suite["cases"]:
            cid = case["id"]
            m = re.match(r"(\w+)-p(\d+)-e(\d+)-k\d+", cid)
            if suite["suite"] == "gauss" and m:
                kind, p, e = m.group(1), int(m.group(2)), int(m.group(3))
                total += {
                    "vanishing": sum(terms_unit_integral(p, e, n)
                                     for n in range(-e - 3, -e + 4))
                    + terms_w_f(p, e),
                    "modulus": terms_w_f(p, e) + terms_w_l(p, e),
                    "split": 0,
                    "normsum": terms_norm_sum(p, e),
                }[kind]
            elif suite["suite"] == "case23":
                # three oracle comparisons, then the epsilon ratio: two
                # closed forms and one more W_F, W_L pair, all at p = 3, e = 1
                total += (terms_case23(3, 1) if cid.startswith("case23-s")
                          else 3 * (terms_w_f(3, 1) + terms_w_l(3, 1)))
            elif suite["suite"] == "global_eps" and cid.startswith("gauss-modulus-M"):
                m_ = int(cid.rsplit("M", 1)[1])
                n_prim = int(re.search(r"all (\d+)", case["inputs"]).group(1))
                total += n_prim * terms_dirichlet(m_)
    return total


# ---------------------------------------------------------------------------
# exhaustive_sums


SUM_RINGS = [(p, e) for p in (3, 5, 7, 11, 13) for e in (1, 2)] + [(3, 3), (5, 3), (3, 4)]
COSET_SETUPS = ((3, (1, 0, 1)), (5, (1, 1, 1)), (7, (1, 0, 1)))   # S inert at p
# a round takes six to eight seconds on a 2-core sandbox: long enough to
# span several of the host's one-to-two-second fast and slow phases, so
# that the median round is not decided by which phase dominated a run
# (over 8 seeds, halving the round widened the spread of the median
# round from 0.11 to 0.15 of its value)
CHARS_PER_RING = 6
DIRICHLET_MODULI_PER_ROUND = 12
CHARS_PER_MODULUS = 8
POINTS_PER_COSET_SETUP = 8


def exhaustive_round(seed: int, round_no: int) -> dict:
    """The seeded inputs of one round of lemma checks."""
    rng = rng_for(seed, round_no)
    rings = []
    for p, e in SUM_RINGS:
        for _ in range(CHARS_PER_RING):
            k = _draw_char(rng, p, e)
            u = rng.choice([a for a in range(1, p**e) if a % p])
            rings.append((p, e, k, u))
    dirichlet = []
    for _ in range(DIRICHLET_MODULI_PER_ROUND):
        m = rng.randrange(501, 1002, 2)
        facs = ref.factorize(m)
        chars = set()
        while len(chars) < CHARS_PER_MODULUS:
            chars.add(tuple(_draw_char(rng, p, k) for p, k in facs))
        dirichlet.append((m, sorted(chars)))
    cosets = []
    for p, abc in COSET_SETUPS:
        for _ in range(POINTS_PER_COSET_SETUP):
            k = _draw_char(rng, p, 1)
            u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            s = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.3, 0.3))
            cosets.append((p, abc, k, u, s))
    return {"rings": rings, "dirichlet": dirichlet, "cosets": cosets}


def exhaustive_terms(batch, out) -> int:
    """Terms of the sums one round evaluated (checks skipped for a
    missing public name count nothing)."""
    total = 0
    for (p, e, _, _), got in zip(batch["rings"], out["rings"]):
        if "vanishing" in got:
            total += sum(terms_unit_integral(p, e, n) for n in (-e - 1, -e, -e + 1))
            total += terms_w_f(p, e)
        total += terms_w_f(p, e) * ("w_f" in got) + terms_w_l(p, e) * ("w_l" in got)
        total += terms_norm_sum(p, e) * ("norm_sum" in got)
    for (m, chars), _ in zip(batch["dirichlet"], out["dirichlet"]):
        total += len(chars) * terms_dirichlet(m)
    for (p, _, _, _, _), _ in zip(batch["cosets"], out["cosets"]):
        total += terms_case23(p, 1)
    return total


class ExhaustiveSums:
    """Runs rounds through the public padicring/globalasm functions.

    A public name that the program no longer has is reported once in
    ``missing`` and its checks are skipped.
    """

    NAMES = {
        "padicring": ("ResidueRing", "GaloisRing", "MultChar", "BesselSetup",
                      "unit_psi_mu_integral", "gauss_sum_lemma_value",
                      "gauss_sum_F", "gauss_sum_L", "norm_char_sum",
                      "zeta_case2_3_numeric"),
        "globalasm": ("DirichletChar",),
        "localzeta": ("diag_values_numeric",),
        "localrep": ("LocalRep",),
    }

    def __init__(self, seed: int):
        import importlib

        self.seed = seed
        self.modules = {mod: importlib.import_module(f"besselzeta.{mod}")
                        for mod in self.NAMES}
        api = self.resolve()
        self.missing = [f"{mod}.{name}" for mod, names in self.NAMES.items()
                        for name in names if name not in api]
        self.diag = {}
        rng = rng_for(seed, -1)
        alpha, gamma = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        if {"LocalRep", "diag_values_numeric"} <= api.keys():
            rep = api["LocalRep"].symbolic_trivial("I")
            for p, _ in COSET_SETUPS:
                point = {"Q": math.sqrt(p), "A": cmath.exp(1j * alpha),
                         "G": cmath.exp(1j * gamma)}
                self.diag[p] = api["diag_values_numeric"](rep, point, 12)

    def resolve(self) -> dict:
        """The public names as the modules hold them now (the tracer
        rebinds them)."""
        return {name: getattr(self.modules[mod], name)
                for mod, names in self.NAMES.items()
                for name in names if hasattr(self.modules[mod], name)}

    def run(self, batch) -> dict:
        """Library values for one round; this is the timed operation."""
        api, out = self.resolve(), {"rings": [], "dirichlet": [], "cosets": []}
        have = api.keys()
        if {"ResidueRing", "GaloisRing", "MultChar"} <= have:
            for p, e, k, u in batch["rings"]:
                ring, gring = api["ResidueRing"](p, e), api["GaloisRing"](p, e)
                mu = api["MultChar"](ring, k)
                got = {}
                if {"unit_psi_mu_integral", "gauss_sum_lemma_value"} <= have:
                    got["vanishing"] = [
                        (n, api["unit_psi_mu_integral"](mu, n),
                         api["gauss_sum_lemma_value"](mu, n))
                        for n in (-e - 1, -e, -e + 1)]
                if "gauss_sum_F" in have:
                    got["w_f"] = api["gauss_sum_F"](mu)
                if "gauss_sum_L" in have:
                    got["w_l"] = api["gauss_sum_L"](mu, gring)
                if "norm_char_sum" in have:
                    got["norm_sum"] = api["norm_char_sum"](gring, mu, u)
                out["rings"].append(got)
        if "DirichletChar" in have:
            for m, chars in batch["dirichlet"]:
                out["dirichlet"].append(
                    [abs(api["DirichletChar"](m, c).gauss_sum()) for c in chars])
        if {"BesselSetup", "zeta_case2_3_numeric", "ResidueRing", "MultChar"} <= have \
                and self.diag:
            for p, abc, k, u, s in batch["cosets"]:
                setup = api["BesselSetup"](*abc, p)
                mu = api["MultChar"](api["ResidueRing"](p, 1), k)
                diag = self.diag[p]
                out["cosets"].append(api["zeta_case2_3_numeric"](
                    setup, 1, mu, u, s, lambda l, diag=diag: diag[l], tol=TOL_CASE23))
        return out

    @staticmethod
    def problem(batch, out) -> str | None:
        """None when the round's values are right, else what is wrong.
        `out` is the round's result or the exception it raised."""
        if isinstance(out, Exception):
            return f"raised {out!r}"
        try:
            return ExhaustiveSums.check(batch, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"unreadable result: {exc!r}"

    @staticmethod
    def check(batch, out) -> str | None:
        """Each library value against the lemma's closed form."""
        for (p, e, k, u), got in zip(batch["rings"], out["rings"]):
            tag = f"p={p} e={e} k={k}"
            for n, lhs, rhs in got.get("vanishing", ()):
                want = ref.unit_integral_closed(p, e, k, n)
                if not (close(lhs, want, TOL_GAUSS) and close(rhs, want, TOL_GAUSS)):
                    return f"vanishing lemma fails at {tag} n={n}"
            w_f = ref.w_f(p, e, k)
            if "w_f" in got and not (close(got["w_f"], w_f, TOL_GAUSS)
                                     and abs(abs(got["w_f"]) - 1) < TOL_GAUSS):
                return f"W_F wrong at {tag}"
            if "w_l" in got and not (close(got["w_l"], ref.w_l_closed(p, e, k), TOL_GAUSS)
                                     and abs(abs(got["w_l"]) - 1) < TOL_GAUSS):
                return f"W_L != (-1)^e W_F^2 at {tag}"
            if "norm_sum" in got and not close(
                    got["norm_sum"], ref.norm_sum_closed(p, e, k, u), TOL_GAUSS):
                return f"norm-sum lemma fails at {tag} u={u}"
        for (m, _), mods in zip(batch["dirichlet"], out["dirichlet"]):
            if any(abs(g - math.sqrt(m)) >= TOL_GAUSS for g in mods):
                return f"|G(chi)| != sqrt({m})"
        for (p, abc, k, u, s), got in zip(batch["cosets"], out["cosets"]):
            want = ref.zeta_case2_3_closed(abc, p, 1, k, u, s)
            scale = max(1.0, *(abs(w) for w in want))
            for key_closed, key_oracle, w in (("Z_phi", "oracle_Z_phi", want[0]),
                                              ("Z_phi_hat", "oracle_Z_phi_hat", want[1])):
                if not (close(got[key_closed], w, TOL_CASE23 * scale)
                        and close(got[key_oracle], w, TOL_CASE23 * scale)):
                    return f"case 2/3 closed form fails at p={p} s={s}"
        return None

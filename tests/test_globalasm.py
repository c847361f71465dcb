import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from besselzeta import globalasm
from besselzeta.globalasm import (
    DirichletChar,
    GlobalParams,
    arch_lfactor,
    average_prefactor,
    composite_lfactors,
    gamma_complex,
    global_epsilon,
    kronecker_at_prime,
    mellin_gamma_pin,
    partial_spinor_L,
    siegel_index,
    zeta_partial,
)
from besselzeta.localrep import LocalRep
from besselzeta.padicring import ResidueRing, factorize


def test_gamma_complex_high_precision_reference():
    # 50-digit reference for Gamma_C(3/2) Gamma_C(7/2)
    with mpmath.workdps(50):
        ref = complex(
            4 * mpmath.power(2 * mpmath.pi, -5) * mpmath.gamma(1.5) * mpmath.gamma(3.5)
        )
    got = arch_lfactor(1.0, 4, 4)
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_gamma_pole_detection():
    with pytest.raises(ValueError):
        arch_lfactor(-0.5, 4, 4)  # s + (l1-l2)/2 + 1/2 = 0
    with pytest.raises(ValueError):
        gamma_complex(-3)


def test_mellin_quadrature_pin():
    for sigma, d in ((4.5, -4), (7.0, -23), (3.0, -3)):
        r = mellin_gamma_pin(sigma, d)
        assert r["rel_err"] < 1e-6


def _mellin_integrand(sigma, d):
    c = 2 * math.pi * math.sqrt(abs(d))
    return lambda a: a ** (sigma - 1) * math.exp(-c * a)


def test_mellin_quadrature_equals_scipy_quad():
    # where quad does not extrapolate, the QK15I rule with bisection is
    # quad's own computation, so the floats agree bit for bit
    quad = pytest.importorskip("scipy.integrate").quad
    rng = random.Random(8)
    for _ in range(600):
        sigma, d = rng.uniform(3.0, 30.0), -rng.randint(3, 2000)
        want, _ = quad(_mellin_integrand(sigma, d), 0.0, math.inf)
        assert mellin_gamma_pin(sigma, d)["integral"] == want, (sigma, d)


@pytest.mark.parametrize("sigma", [1, 1.1, 1.5, 2, 2.5, 3, 4.5, 7, 12])
@pytest.mark.parametrize("d", [-3, -4, -7, -23])
def test_mellin_quadrature_meets_closed_form(sigma, d):
    r = mellin_gamma_pin(sigma, d)
    assert r["closed"] == math.gamma(sigma) * (2 * math.pi * math.sqrt(-d)) ** -sigma
    assert r["rel_err"] < 1e-6


def test_mellin_quadrature_suite_points():
    # the arch_quadrature suite prints these integrals; the values are
    # the ones scipy's quad returned
    got = [mellin_gamma_pin(s, d)["integral"] for s, d in ((4.5, -4), (7.0, -23), (3.0, -3))]
    assert got == [0.00013158302479621096, 3.191728869502827e-08, 0.0015517026739002356]


def test_mellin_quadrature_domain():
    with pytest.raises(ValueError, match="sigma"):
        mellin_gamma_pin(0.5, -4)
    with pytest.raises(ValueError, match="d = 0"):
        mellin_gamma_pin(4.5, 0)
    # a log-divergent integral never meets the bound: raise, do not return
    with pytest.raises(ArithmeticError, match="not converged"):
        globalasm._quad_0_inf(lambda a: 1.0 / (1.0 + a))


def test_arch_suite_loads_no_scipy_or_numpy():
    probe = (
        "import contextlib, io, sys\n"
        "from besselzeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--suite', 'arch_quadrature']) == 0\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(globalasm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_dirichlet_char_basics():
    chi = DirichletChar.quadratic(5)
    assert abs(chi(4) - 1) < 1e-12 and abs(chi(2) + 1) < 1e-12 and chi(5) == 0
    assert chi.is_primitive and chi(5 - 1) == 1
    assert all(min(abs(chi(a)), abs(chi(a) - 1), abs(chi(a) + 1)) < 1e-12 for a in range(5))
    triv = DirichletChar.trivial(1)
    assert triv(7) == 1 and triv.gauss_sum() == 1
    with pytest.raises(ValueError):
        DirichletChar(6, (0,))


def test_char_value_is_periodic_exactly():
    for m in (1, 15, 17, 45):
        orders = [p ** (k - 1) * (p - 1) for p, k in factorize(m)]
        every = list(itertools.product(*(range(n) for n in orders)))
        for ks in every[:: max(1, len(every) // 4)]:
            chi = DirichletChar(m, ks)
            for x in range(-3 * m, 3 * m + 1):
                assert chi(x) == chi(x % m), (m, ks, x)


def test_gauss_sum_crt_equals_direct():
    for m in (5, 9, 15, 35, 45):
        facs_ranges = []
        from besselzeta.padicring import factorize

        for p, k in factorize(m):
            facs_ranges.append(range(ResidueRing(p, k).unit_order))
        for expo in itertools.product(*facs_ranges):
            chi = DirichletChar(m, expo)
            direct = sum(
                chi(a) * cmath.exp(2j * cmath.pi * a / m) for a in range(m)
            )
            assert abs(chi.gauss_sum() - direct) < 1e-9, (m, expo)


def test_gauss_modulus_for_primitive():
    from besselzeta.padicring import factorize

    for m in (5, 7, 9, 11, 13):
        ranges = [range(ResidueRing(p, k).unit_order) for p, k in factorize(m)]
        n_prim = 0
        for expo in itertools.product(*ranges):
            chi = DirichletChar(m, expo)
            if not chi.is_primitive:
                continue
            n_prim += 1
            assert abs(abs(chi.gauss_sum()) - math.sqrt(m)) < 1e-9
        assert n_prim > 0


def test_global_params_validation():
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=4, N=4)  # not squarefree
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=3)  # parity
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=4, l2=2)  # l2 < 3
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=4, M=6)  # even M
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=4, N=3)  # 3 splits in Q(sqrt -23)
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=4, N=5, M=15)  # gcd(M, N) != 1
    with pytest.raises(ValueError):
        GlobalParams(D=-23, l1=6, l2=4, S=(23,))
    gp = GlobalParams(D=-23, l1=6, l2=4, N=5, M=7, chi=DirichletChar(7, (1,)))
    assert gp.w == 2


def test_kronecker_at_prime():
    assert kronecker_at_prime(-23, 5) == -1
    assert kronecker_at_prime(-23, 3) == 1
    assert kronecker_at_prime(-23, 23) == 0
    assert kronecker_at_prime(-7, 2) == 1  # -7 = 1 mod 8
    assert kronecker_at_prime(-23, 2) == 1
    assert kronecker_at_prime(-20, 2) == 0


def test_global_epsilon_center_pins():
    # trivial mu (M = 1): epsilon(1/2) = (-1)^{l2}
    gp = GlobalParams(D=-23, l1=6, l2=4, N=5, M=1)
    assert abs(global_epsilon(0.5, gp, 5) - 1) < 1e-12
    gp = GlobalParams(D=-23, l1=5, l2=3, N=5, M=1)
    assert abs(global_epsilon(0.5, gp, 5) + 1) < 1e-12
    # real quadratic mu-tilde mod 17 (even since 17 = 1 mod 4)
    chi = DirichletChar.quadratic(17)
    assert chi(17 - 1) == 1
    gp = GlobalParams(D=-23, l1=6, l2=4, N=5, M=17, chi=chi)
    assert abs(global_epsilon(0.5, gp, 5) - 1) < 1e-9
    gp = GlobalParams(D=-23, l1=5, l2=3, N=5, M=17, chi=chi)
    assert abs(global_epsilon(0.5, gp, 5) + 1) < 1e-9


def test_global_epsilon_modulus_and_fe():
    chi = DirichletChar(5, (1,))
    gp = GlobalParams(D=-23, l1=6, l2=4, N=7, M=5, chi=chi)
    assert abs(abs(global_epsilon(0.5, gp, 7)) - 1) < 1e-9
    s = 0.7 + 0.3j
    gp_bar = GlobalParams(D=-23, l1=6, l2=4, N=7, M=5, chi=chi.inverse())
    prod = global_epsilon(s, gp, 7) * global_epsilon(1 - s, gp_bar, 7)
    assert abs(prod - 1) < 1e-9


def test_average_prefactor_pins():
    gp = GlobalParams(D=-4, l1=4, l2=4, N=1, M=1)
    want = 0.25 * 4 ** ((3 - 4) / 2) * math.exp(-2 * math.pi * 2) / 16
    got = average_prefactor(1.0, gp)
    assert abs(got - want) <= 1e-14 * abs(want)
    assert gp.w == 4  # the 1/16 is w_D^2
    # caller-supplied archimedean norm enters squared
    assert abs(average_prefactor(1.0, gp, v_norm=3.0) - 9 * want) < 1e-12 * abs(want)


def test_siegel_index():
    assert siegel_index(1) == 1
    assert siegel_index(3) == 40
    assert siegel_index(5) == 156
    assert siegel_index(15) == 40 * 156  # multiplicative


def test_siegel_index_coset_oracle():
    # Lagrangian planes in F_p^4 for p = 3, counted by row-reduced frames
    p = 3

    def rref(rows):
        m = [list(r) for r in rows]
        r = 0
        for c in range(4):
            piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], -1, p)
            m[r] = [x * inv % p for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] % p:
                    f = m[i][c]
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
            r += 1
        return tuple(tuple(row) for row in m[:r])

    def pairing(u, v):
        return (u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]) % p

    vecs = [v for v in itertools.product(range(p), repeat=4) if any(v)]
    found = set()
    for u in vecs:
        for v in vecs:
            if len(rref([u, v])) != 2 or pairing(u, v):
                continue
            found.add(rref([u, v]))
    assert len(found) == siegel_index(3)


def test_prefactor_multiplicative_in_N():
    base = average_prefactor(0.9, GlobalParams(D=-23, l1=6, l2=4, N=1, M=1))
    a = average_prefactor(0.9, GlobalParams(D=-23, l1=6, l2=4, N=5, M=1))
    b = average_prefactor(0.9, GlobalParams(D=-23, l1=6, l2=4, N=7, M=1))
    ab = average_prefactor(0.9, GlobalParams(D=-23, l1=6, l2=4, N=35, M=1))
    assert abs(ab / base - (a / base) * (b / base)) < 1e-12 * abs(ab / base)


def test_zeta_partial():
    assert zeta_partial(1, 4) == 1.0
    assert abs(zeta_partial(15, 1) - 1 / ((1 - 1 / 3) * (1 - 1 / 5))) < 1e-15


def test_composite_lfactors():
    assert composite_lfactors("Yoshida", {"factor1": 2.0, "factor2": 3.5}, 1.0) == 7.0
    sk = composite_lfactors(
        "SK", {"pi0_times_mu": 1, "mu_plus_half": 1, "mu_minus_half": 1}, 0.5
    )
    assert abs(sk) < 1e-15  # the (s - 1/2) prefactor forces central vanishing
    sk1 = composite_lfactors(
        "SK", {"pi0_times_mu": 1, "mu_plus_half": 1, "mu_minus_half": 1}, 1.0
    )
    assert abs(sk1 - 0.5 / (4 * math.pi)) < 1e-15
    with pytest.raises(ValueError):
        composite_lfactors("SK", {"pi0_times_mu": 1}, 1.0)
    with pytest.raises(ValueError):
        composite_lfactors("Eisenstein", {}, 1.0)


def test_partial_spinor_L():
    gp = GlobalParams(D=-23, l1=6, l2=4, N=1, M=1)
    # empty prime set: the archimedean factor alone
    assert partial_spinor_L(2.0, [], gp) == arch_lfactor(2.0, 6, 4)
    rep = LocalRep("I", (1, 1, 1))
    got = partial_spinor_L(2.0, [(2, rep)], gp)
    want = arch_lfactor(2.0, 6, 4) * (1 - 0.25) ** -4
    assert abs(got - want) < 1e-12 * abs(want)
    # multiplicativity: adding a factor scales by its modulus
    both = partial_spinor_L(3.0, [(2, rep), (3, rep)], gp)
    one = partial_spinor_L(3.0, [(2, rep)], gp)
    factor = (1 - 3.0**-3) ** -4
    assert abs(abs(both) - abs(one) * factor) < 1e-10 * abs(both)
    # pole is signaled
    with pytest.raises(ZeroDivisionError):
        partial_spinor_L(0.0, [(2, rep)], gp)

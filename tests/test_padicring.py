import cmath
import math
import random
from fractions import Fraction

import pytest

from besselzeta.localrep import LocalRep
from besselzeta.localzeta import diag_values_numeric
from besselzeta.padicring import (
    BesselSetup,
    GaloisRing,
    MultChar,
    ResidueRing,
    factorize,
    gauss_sum_F,
    gauss_sum_L,
    gauss_sum_lemma_value,
    is_odd_prime,
    is_squarefree,
    mu_L_conductor,
    norm_char_sum,
    ord_p,
    psi_frac,
    rational_mod,
    smith_form_2x2,
    smith_normal_form,
    unit_psi_mu_integral,
    y_eta_check,
    y_eta_matrix,
    zeta_case2_3_closed,
    zeta_case2_3_cosets,
    zeta_case2_3_numeric,
)

TOL = 1e-9


def test_residue_ring_basics():
    r = ResidueRing(7, 2)
    assert r.unit_order == 42
    g = r.generator
    assert pow(g, 42, 49) == 1
    assert all(pow(g, 42 // q, 49) != 1 for q in (2, 3, 7))
    with pytest.raises(ValueError):
        ResidueRing(2, 1)
    with pytest.raises(ValueError):
        ResidueRing(9, 1)


def test_char_multiplicativity_random_pairs():
    rng = random.Random(13)
    for p, e in ((5, 2), (7, 1)):
        ring = ResidueRing(p, e)
        units = [a for a in ring.units()]
        for mu in MultChar.all_chars(ring)[:5]:
            for _ in range(1000):
                a, b = rng.choice(units), rng.choice(units)
                lhs = mu(a * b % ring.modulus)
                rhs = mu(a) * mu(b)
                assert abs(lhs - rhs) < 1e-12  # 10^4 pairs across the rings


def test_char_conductor():
    ring = ResidueRing(5, 2)
    chars = MultChar.all_chars(ring)
    assert sum(1 for c in chars if c.conductor == 0) == 1  # trivial
    assert sum(1 for c in chars if c.conductor <= 1) == 4  # lifted from mod 5
    assert sum(1 for c in chars if c.conductor == 2) == 16


def test_psi_frac_is_p_adic():
    # prime-to-p denominators are units: psi(x) = 1
    assert psi_frac(Fraction(1, 2), 3) == 1
    assert abs(psi_frac(Fraction(1, 3), 3) - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    # 1/(2*9): the 3-part is 1/9 with numerator 2^{-1} = 5 mod 9
    got = psi_frac(Fraction(1, 18), 3)
    assert abs(got - cmath.exp(2j * cmath.pi * 5 / 9)) < 1e-15


def test_quadratic_gauss_sum_pin():
    ring = ResidueRing(5, 1)
    quad = next(c for c in MultChar.all_chars(ring) if c.order == 2)
    # sum over (Z/5)^* of psi(a/5) chi(a) = sqrt(5); normalized to 1
    assert abs(gauss_sum_F(quad, 1.0) - 1.0) < TOL


def test_gauss_sum_conductor_requirement():
    ring = ResidueRing(5, 2)
    lifted = next(c for c in MultChar.all_chars(ring) if c.conductor == 1)
    with pytest.raises(ValueError):
        gauss_sum_F(lifted)


def test_unit_integral_vanishing_window():
    for p, e in ((3, 1), (5, 1), (3, 2)):
        ring = ResidueRing(p, e)
        for mu in MultChar.primitive_chars(ring)[:3]:
            for n in range(-e - 3, -e + 4):
                lhs = unit_psi_mu_integral(mu, n)
                rhs = gauss_sum_lemma_value(mu, n)
                assert abs(lhs - rhs) < TOL, (p, e, n)


def test_gauss_sum_moduli():
    for p in (3, 5, 7):
        for e in (1, 2):
            ring = ResidueRing(p, e)
            gring = GaloisRing(p, e)
            for mu in MultChar.primitive_chars(ring):
                assert abs(abs(gauss_sum_F(mu)) - 1) < TOL
                assert abs(abs(gauss_sum_L(mu, gring)) - 1) < TOL


def test_split_lemma_pins():
    # (p=3, e=1, quadratic) -> -W_F^2
    ring = ResidueRing(3, 1)
    mu = MultChar.primitive_chars(ring)[0]
    g = GaloisRing(3, 1)
    assert abs(gauss_sum_L(mu, g) + gauss_sum_F(mu) ** 2) < TOL
    # (p=5, e=2, exact conductor 2) -> +W_F^2
    ring = ResidueRing(5, 2)
    mu = MultChar.primitive_chars(ring)[0]
    g = GaloisRing(5, 2)
    assert abs(gauss_sum_L(mu, g) - gauss_sum_F(mu) ** 2) < TOL
    # (p=7, e=1, order 3) -> -W_F^2, brute force over the 48 units
    ring = ResidueRing(7, 1)
    mu = next(c for c in MultChar.all_chars(ring) if c.order == 3)
    g = GaloisRing(7, 1)
    assert len(list(g.units())) == 48
    assert abs(gauss_sum_L(mu, g) + gauss_sum_F(mu) ** 2) < TOL


def test_mu_L_conductor_matches():
    for p, e in ((3, 1), (5, 2)):
        ring = ResidueRing(p, e)
        gring = GaloisRing(p, e)
        for mu in MultChar.primitive_chars(ring)[:3]:
            assert mu_L_conductor(mu, gring) == e


def test_norm_surjectivity_by_image_counting():
    for p, e in ((3, 1), (3, 2), (5, 1), (7, 1)):
        g = GaloisRing(p, e)
        base_units = set(a for a in ResidueRing(p, e).units())
        image = {g.norm(z) for z in g.units()}
        assert image == base_units


def test_norm_char_sum_pins():
    ring = ResidueRing(3, 1)
    mu = MultChar.primitive_chars(ring)[0]
    g = GaloisRing(3, 1)
    got = norm_char_sum(g, mu, 1)
    assert abs(got + 3 * mu(1)) < TOL  # (-1)^1 * 3 * mu(1) = -3
    ring = ResidueRing(3, 2)
    g = GaloisRing(3, 2)
    for mu in MultChar.primitive_chars(ring)[:3]:
        # exhaustive tally over the 81 eta values
        got = norm_char_sum(g, mu, 2)
        assert abs(got - 9 * mu(2)) < TOL


def test_galois_ring_frobenius_and_norm():
    g = GaloisRing(5, 2)
    for z in [(1, 2), (3, 7), (24, 1)]:
        n = g.norm(z)
        assert n == (g.mul(z, g.frobenius(z)))[0]
        assert g.mul(z, g.frobenius(z))[1] == 0  # lands in the base ring
        assert g.trace(z) == (z[0] * 2) % 25
    with pytest.raises(ValueError):
        GaloisRing(5, 1, c=4)  # 4 = 2^2 is a square mod 5


def test_smith_2x2_pins():
    d1, d2, u, v = smith_form_2x2([[1, 0], [0, 1]])
    assert (d1, d2) == (1, 1)
    d1, d2, u, v = smith_form_2x2([[25, 0], [0, 1]])
    assert (d1, d2) == (1, 25)  # divisibility reorder
    with pytest.raises(ValueError):
        smith_form_2x2([[1, 2], [2, 4]])


def test_smith_random_matrices():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        m = [[rng.randint(-40, 40) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            continue
        d1, d2, u, v = smith_form_2x2(m)
        prod = [
            [
                sum(u[i][k] * m[k][l] * v[l][j] for k in range(2) for l in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert prod == [[d1, 0], [0, d2]]
        assert d1 > 0 and d2 % d1 == 0
        assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
        assert abs(v[0][0] * v[1][1] - v[0][1] * v[1][0]) == 1
        checked += 1


def test_y_eta_spec_examples():
    # S = diag(1,1): d = -4, eta = 0, p = 5: det Y = 1, trivial Smith p-part
    setup = BesselSetup(1, 0, 1, 5)
    y = y_eta_matrix(setup, 0, 0)
    assert y[0][0] * y[1][1] - y[0][1] * y[1][0] == 1
    rep = y_eta_check(setup, 0, 0, 1)
    assert rep["ok"] and rep["j"] == 0
    # eta with N(eta) = -a^6 d/4 mod 5 but not mod 25: j = 1, divisors (1, 5*unit)
    found = next(
        (b2, b3)
        for b2 in range(5)
        for b3 in range(5)
        if (lambda v: v != 0 and ord_p(v, 5) == 1)(
            Fraction(-4, 4) + setup.norm_basis(b2, b3)
        )
    )
    rep = y_eta_check(setup, *found, 1)
    assert rep["ok"] and rep["j"] == 1
    assert ord_p(Fraction(rep["elementary_divisors"][1]), 5) == 1


def test_y_eta_trace_pin_exact():
    for args in ((1, 0, 1, 5), (1, 1, 1, 5), (3, 1, 1, 7)):
        setup = BesselSetup(*args)
        a, b, c = setup.a, setup.b, setup.c
        for b2, b3 in ((0, 0), (1, 2), (3, 1)):
            y = y_eta_matrix(setup, b2, b3)
            s = [[Fraction(a), Fraction(b, 2)], [Fraction(b, 2), Fraction(c)]]
            tr = sum(
                y[i][0] * s[0][i] + y[i][1] * s[1][i] for i in range(2)
            )
            assert tr == Fraction(a**2 * setup.disc, 2)


def test_setup_precondition_errors():
    with pytest.raises(ValueError):
        BesselSetup(5, 0, 1, 5)  # a not a unit
    with pytest.raises(ValueError):
        BesselSetup(1, 1, 2, 7)  # d = -7 not a unit at 7
    # split discriminant is fine for Y_eta but has no Galois ring
    split = BesselSetup(1, 0, 1, 5)
    assert not split.is_inert
    with pytest.raises(ValueError):
        split.galois_ring(1)


def _bessel_diag():
    rep = LocalRep.symbolic_trivial("I")
    point = {"Q": math.sqrt(3), "A": cmath.exp(0.3j), "G": cmath.exp(0.9j)}
    vals = diag_values_numeric(rep, point, 12)
    return lambda l: vals[l]


def test_case23_three_sample_points():
    setup = BesselSetup(1, 0, 1, 3)
    mu = MultChar.primitive_chars(ResidueRing(3, 1))[0]
    diag = _bessel_diag()
    u = cmath.exp(0.4j)
    for s in (0.3, 0.7 + 0.2j, 1.1):
        out = zeta_case2_3_numeric(setup, 1, mu, u, s, diag, tol=1e-8)
        assert max(out["abs_errors"]) < 1e-8


def test_case23_e2_sample():
    # one deeper-level instance: p = 3, e = 2
    setup = BesselSetup(1, 0, 1, 3)
    ring = ResidueRing(3, 2)
    mu = MultChar.primitive_chars(ring)[0]
    diag = _bessel_diag()
    out = zeta_case2_3_numeric(setup, 2, mu, cmath.exp(0.2j), 0.6, diag, tol=1e-8)
    assert max(out["abs_errors"]) < 1e-8


def test_case23_epsilon_corollary_ratio():
    setup = BesselSetup(1, 0, 1, 3)
    mu = MultChar.primitive_chars(ResidueRing(3, 1))[0]
    u = cmath.exp(0.4j)
    s = 0.3 + 0.1j
    z = zeta_case2_3_closed(setup, 1, mu, u, s)[0]
    z_hat = zeta_case2_3_closed(setup, 1, mu.inverse(), 1 / u, -s)[1]
    wf = gauss_sum_F(mu, u)
    wl = gauss_sum_L(mu, setup.galois_ring(1), u)
    eps = (
        -(3 ** (4 * (0.5 - (s + 0.5))))
        * mu.value_at_rational(Fraction(-setup.disc, setup.a**2))
        * (wl * wf**2).conjugate()
    )
    assert abs(z_hat / z - eps) < 1e-12
    # and the same ratio from the coset-sum oracle on both sides
    diag = _bessel_diag()
    zo = zeta_case2_3_cosets(setup, 1, mu, u, s, diag)[0]
    zo_hat = zeta_case2_3_cosets(setup, 1, mu.inverse(), 1 / u, -s, diag)[1]
    assert abs(zo_hat / zo - eps) < 1e-10


def test_rational_mod():
    assert rational_mod(Fraction(1, 2), 9) == 5
    with pytest.raises(ValueError):
        rational_mod(Fraction(1, 3), 9)


def test_smith_normal_form_rectangular():
    diag, u, v = smith_normal_form([[2, 4, 6], [4, 8, 12]])
    assert diag[0] == 2 and diag[1] == 0


def test_factorization_helpers_against_brute_force():
    for n in range(1, 2001):
        facs = factorize(n)
        assert math.prod(p**k for p, k in facs) == n
        assert [p for p, _ in facs] == sorted({p for p, _ in facs})
        assert all(all(p % d for d in range(2, p)) for p, _ in facs)
        assert is_squarefree(n) == all(n % (d * d) for d in range(2, n + 1))
        assert is_odd_prime(n) == (n > 2 and n % 2 == 1
                                   and all(n % d for d in range(2, n)))

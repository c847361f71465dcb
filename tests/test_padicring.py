import cmath
import hashlib
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from besselzeta.globalasm import DirichletChar
from besselzeta.localrep import LocalRep
from besselzeta.localzeta import diag_values_numeric
from besselzeta.padicring import (
    BesselSetup,
    GaloisRing,
    MultChar,
    ResidueRing,
    _p_adic_frac,
    _unit_integral_sum,
    factorize,
    gauss_sum_F,
    gauss_sum_L,
    gauss_sum_lemma_value,
    is_odd_prime,
    is_squarefree,
    legendre,
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


def test_generator_lift_mod_p_squared():
    # 5 is the least primitive root mod 40487 and 5^(p-1) = 1 mod p^2, so
    # the generator mod p^2 is 5 + p; the unit tables of a ring that size
    # are out of reach, so the search runs on a bare instance
    p = 40487
    ring = object.__new__(ResidueRing)
    ring.p, ring.e, ring.modulus = p, 2, p * p
    g = ring._find_generator()
    assert g == 5 + p
    assert all(pow(g, p * (p - 1) // r, p * p) != 1 for r in (2, 31, 653, p))


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


def _scan_conductor(mu):
    """The least f with mu trivial on 1 + p^f o (on all units when f = 0)."""
    ring = mu.ring
    for f in range(ring.e + 1):
        group = ring.units() if f == 0 else range(1, ring.modulus, ring.p**f)
        if all(mu.value_exponent(a) == 0 for a in group):
            return f
    return ring.e


def test_char_conductor():
    ring = ResidueRing(5, 2)
    chars = MultChar.all_chars(ring)
    assert sum(1 for c in chars if c.conductor == 0) == 1  # trivial
    assert sum(1 for c in chars if c.conductor <= 1) == 4  # lifted from mod 5
    assert sum(1 for c in chars if c.conductor == 2) == 16
    rings = [(3, e) for e in range(1, 5)] + [(5, e) for e in range(1, 4)] \
        + [(7, 1), (7, 2), (11, 1), (11, 2), (13, 2)]
    for p, e in rings:
        for mu in MultChar.all_chars(ResidueRing(p, e)):
            assert mu.conductor == _scan_conductor(mu), mu


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


def _scan_mu_L_conductor(mu, gring):
    """The least f with mu o N trivial on 1 + p^f o_L (on all units when f = 0)."""
    m = gring.modulus
    for f in range(gring.e + 1):
        if f == 0:
            group = gring.units()
        else:
            step = gring.p**f
            group = (((1 + a) % m, b) for a in range(0, m, step) for b in range(0, m, step))
        if all(mu.ring.is_unit(gring.norm(z)) and mu.value_exponent(gring.norm(z)) == 0
               for z in group):
            return f
    return gring.e


def test_mu_L_conductor_matches():
    # N maps 1 + p^f o_L onto 1 + p^f o, so mu o N has the conductor of mu
    for p, e in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        gring = GaloisRing(p, e)
        for mu in MultChar.all_chars(ResidueRing(p, e)):
            assert _scan_mu_L_conductor(mu, gring) == mu.conductor, mu


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
    with pytest.raises(ValueError):
        norm_char_sum(GaloisRing(3, 1), mu, 2)  # mu lives on Z/9


def test_galois_ring_frobenius_and_norm():
    g = GaloisRing(5, 2)
    for z in [(1, 2), (3, 7), (24, 1)]:
        n = g.norm(z)
        assert n == (g.mul(z, g.frobenius(z)))[0]
        assert g.mul(z, g.frobenius(z))[1] == 0  # lands in the base ring
        assert g.trace(z) == (z[0] * 2) % 25
    with pytest.raises(ValueError):
        GaloisRing(5, 1, c=4)  # 4 = 2^2 is a square mod 5


def test_galois_ring_rejects_bad_p_and_e():
    for p, e, message in ((4, 1, "p must be an odd prime"),
                          (9, 1, "p must be an odd prime"),
                          (3, 0, "exponent e must be >= 1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaloisRing(p, e)


def test_legendre_against_quadratic_residue_scan():
    for p in range(3, 60):
        if not is_odd_prime(p):
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else 1 if a in squares else -1
            assert legendre(a, p) == want, (a, p)
            assert legendre(a - 3 * p, p) == want, (a, p)


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


def test_y_eta_degenerate_lift_keeps_the_identities():
    # v = a^6 d/4 + N(eta) = 0 fails the Smith claim's hypothesis, while
    # the determinant and trace identities still hold
    setup = BesselSetup(1, 0, 1, 3)
    eta = next((b2, b3) for b2 in range(3) for b3 in range(3)
               if Fraction(-1) + setup.norm_basis(b2, b3) == 0)
    assert list(y_eta_check(setup, *eta, 1).items()) == [
        ("det_identity", True), ("trace_identity", True), ("j", None),
        ("j_raw", None), ("elementary_divisors", None), ("smith_p_part", None),
        ("hypothesis_holds", False), ("ok", True),
    ]


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


def _smith_reference(m) -> tuple:
    """An earlier smith_normal_form, kept as written, with the pivot search
    spelled out twice and the clean-pass re-checks."""
    rows = len(m)
    cols = len(m[0])
    a = [[int(x) for x in row] for row in m]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i += k * row_j
        for mat, w in ((a, cols), (U, rows)):
            for col in range(w):
                mat[i][col] += k * mat[j][col]

    def col_op(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(rows, cols):
        # move a smallest-magnitude nonzero entry of the trailing block to (t,t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            if a[t][t] < 0:
                row_negate(t)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                # enforce divisibility into the remaining block
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t]:
                            offender = i
                            break
                    if offender:
                        break
                if offender is None:
                    break
                row_op(t, offender, 1)
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] and (
                        pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
        t += 1
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, U, V


def test_smith_normal_form_matches_reference():
    # same row and column operations, so the same (diag, U, V) bit for bit
    rng = random.Random(2024)
    for _ in range(2500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        bound = rng.choice((1, 3, 12, 60))
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            if rng.random() < 0.15:
                m[i] = [0] * cols
        assert smith_normal_form(m) == _smith_reference(m), m


# Digest of (diag, U, V) for 2,000 seeded matrices, recorded from the
# elimination with separate U and V matrices before U and V were carried
# inside its rows: the same operations in the same order give the same bits.
SMITH_DIGEST = "e524dafe7aeb81d9c4c6302b920ec68233178380d2ecde991298db0f9c413654"


def test_smith_normal_form_digest():
    rng = random.Random(2100)
    out = []
    for _ in range(2000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        m = [[0 if rng.random() < 0.2 else rng.randint(-30, 30) for _ in range(cols)]
             for _ in range(rows)]
        out.append(list(smith_normal_form(m)))
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == SMITH_DIGEST


def test_smith_2x2_rejects_ragged_rows():
    for m in ([[2, 7], [4]], [[2, 7], [4, 9, 1]], [[2], [4, 9]], [[2, 7]]):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            smith_form_2x2(m)
    # U rides in the rows of the matrix, so a ragged row would corrupt it
    for m in ([[2, 7], [4]], [[2, 7], [4, 9, 1]], [[2], [4, 9]], [[3, 5, 7], [2]]):
        with pytest.raises(ValueError, match="expected a rectangular matrix"):
            smith_normal_form(m)


def test_factorization_helpers_against_brute_force():
    for n in range(1, 2001):
        facs = factorize(n)
        assert math.prod(p**k for p, k in facs) == n
        assert [p for p, _ in facs] == sorted({p for p, _ in facs})
        assert all(all(p % d for d in range(2, p)) for p, _ in facs)
        assert is_squarefree(n) == all(n % (d * d) for d in range(2, n + 1))
        assert is_odd_prime(n) == (n > 2 and n % 2 == 1
                                   and all(n % d for d in range(2, n)))


# per-term references for the table-driven kernels: one cmath.exp per
# character value, psi_frac per additive term, and the GaloisRing methods
# over its element generators; the kernels must agree bit for bit


def _value(mu, a):
    return cmath.exp(2j * cmath.pi * mu.value_exponent(a) / mu.ring.unit_order)


def _ref_gauss_sum_F(mu):
    ring = mu.ring
    pe = ring.modulus
    total = 0j
    for a in ring.units():
        total += cmath.exp(2j * cmath.pi * a / pe) * _value(mu, a)
    return pe ** -0.5 * 1.0 ** (-ring.e) * total


def _ref_gauss_sum_L(mu, gring):
    ring = mu.ring
    pe = ring.modulus
    total = 0j
    for z in gring.units():
        total += cmath.exp(2j * cmath.pi * gring.trace(z) / pe) * _value(mu, gring.norm(z))
    return (ring.p**2) ** (-ring.e / 2) * (1.0**2) ** (-ring.e) * total


def _ref_norm_char_sum(gring, mu, u):
    ring = mu.ring
    total = 0j
    for z in gring.elements():
        arg = (u + gring.norm(z)) % ring.modulus
        if ring.is_unit(arg):
            total += _value(mu, arg)
    return total


def _ref_unit_integral(mu, n, scale):
    ring = mu.ring
    p = ring.p
    K = max(ring.e, -(n + ord_p(scale, p)), 1)
    x = Fraction(p) ** n * scale
    total = 0j
    count = 0
    for a in range(1, p**K):
        if a % p:
            count += 1
            total += psi_frac(x * a, p) * _value(mu, a % ring.modulus)
    return total / count


EXACT_RINGS = ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1))


@pytest.mark.parametrize("p,e", EXACT_RINGS)
def test_table_kernels_equal_per_term_sums(p, e):
    ring, gring = ResidueRing(p, e), GaloisRing(p, e)
    d = -3  # discriminant of S = [[1, 1/2], [1/2, 1]]
    scales = (Fraction(1), Fraction(-d, 2), Fraction(1, 2 * p))
    chars = MultChar.primitive_chars(ring)
    for mu in chars:
        assert gauss_sum_F(mu) == _ref_gauss_sum_F(mu)
        assert gauss_sum_L(mu, gring) == _ref_gauss_sum_L(mu, gring)
        for u in (1, 2, ring.modulus - 1):
            assert norm_char_sum(gring, mu, u) == _ref_norm_char_sum(gring, mu, u)
        assert mu(2) == _value(mu, 2)
        with pytest.raises(ValueError):
            mu(p)
        with pytest.raises(ValueError):
            mu(0)
    # the unit integral sums over units mod up to p^(e+3): two characters;
    # at a rational scale it is the sum at the key {p^n scale}_p, as the
    # coset oracle takes it, and at scale 1 the lemma's brute force
    for mu in chars[:2]:
        for scale in scales:
            for n in range(-e - 3, -e + 4):
                got = _unit_integral_sum(mu, *_p_adic_frac(Fraction(p) ** n * scale, p))
                assert got == _ref_unit_integral(mu, n, scale), (mu, n, scale)
                assert got == _parent_unit_psi_mu_integral(mu, n, scale), (mu, n, scale)
                if scale == 1:
                    assert unit_psi_mu_integral(mu, n) == got, (mu, n)


# the unit integral and the coset-sum oracle as they were before the oracle
# summed each distinct unit integral once per call, and split it over
# a = b + p^e t at p^k > p^e, kept as written (constants inlined); the
# oracle must give the same floats bit for bit


def _parent_unit_psi_mu_integral(mu, n, scale=Fraction(1)):
    ring = mu.ring
    p, pe = ring.p, ring.modulus
    scale = Fraction(scale)
    v = n + ord_p(scale, p)
    K = max(ring.e, -v, 1)
    pK = p**K
    pk, r0 = _p_adic_frac(Fraction(p) ** n * scale, p)
    psi, values = ring._roots(pk), mu._values
    total = 0j
    for a in range(1, pK):
        if a % p:
            total += psi[r0 * a % pk] * values[a % pe]
    return total / (pK - pK // p)


# W_F as it was before it took the unit character sum of the unit integral,
# kept as written, and the Gauss sum of a Dirichlet character as the raw
# per-element sum of each prime-power block; they must give the same floats
# bit for bit


def _parent_gauss_sum_F(mu, pi_choice=1.0):
    ring = mu.ring
    pe = ring.modulus
    psi, values = ring._roots(pe), mu._values
    total = 0j
    for a in ring.units():
        total += psi[a] * values[a]
    return pe ** -0.5 * pi_choice ** (-ring.e) * total


def _parent_dirichlet_gauss_sum(chi):
    total = 1 + 0j
    for comp in chi.components:
        q = comp.ring.modulus
        cofactor = chi.modulus // q
        psi = comp.ring._roots(q)
        local = sum(comp(a) * psi[a] for a in comp.ring.units())
        total *= comp(cofactor % q) * local
    return total


@pytest.mark.parametrize("p,e", ((3, 3), (5, 2), (7, 2), (11, 1)))
def test_gauss_sum_F_equals_parent_code(p, e):
    for mu in MultChar.primitive_chars(ResidueRing(p, e)):
        for pi_choice in (1.0, 0.3 + 0.4j):
            want = _parent_gauss_sum_F(mu, pi_choice)
            assert repr(gauss_sum_F(mu, pi_choice)) == repr(want), (mu, pi_choice)


@pytest.mark.parametrize("m", (9, 25, 27, 45, 49, 63, 75, 81, 125))
def test_dirichlet_gauss_sum_equals_parent_code(m):
    orders = [p ** (k - 1) * (p - 1) for p, k in factorize(m)]
    imprimitive = 0
    for ks in itertools.product(*map(range, orders)):
        chi = DirichletChar(m, ks)
        imprimitive += not chi.is_primitive
        assert repr(chi.gauss_sum()) == repr(_parent_dirichlet_gauss_sum(chi)), (m, ks)
    assert imprimitive > 0


def test_dirichlet_gauss_sum_meets_a_40_digit_sum():
    """G(chi) for every character mod 7, 9, 25, 27, 45 and 63, against
    sum_a chi(a) e^{2 pi i a / M} at 40 digits, with chi(a) taken from the
    exact exponents of its blocks."""
    worst = 0.0
    with mpmath.workdps(40):
        for m in (7, 9, 25, 27, 45, 63):
            orders = [p ** (k - 1) * (p - 1) for p, k in factorize(m)]
            for ks in itertools.product(*map(range, orders)):
                chi = DirichletChar(m, ks)
                want = mpmath.mpc(0)
                for a in range(1, m):
                    if math.gcd(a, m) == 1:
                        turns = Fraction(a, m) + sum(
                            Fraction(c.value_exponent(a), c.ring.unit_order)
                            for c in chi.components)
                        want += mpmath.expjpi(2 * mpmath.mpf(turns.numerator)
                                              / turns.denominator)
                worst = max(worst, abs(chi.gauss_sum() - complex(want)))
    assert worst <= 3e-14


def _parent_zeta_case2_3_cosets(setup, e, mu, pi_choice, s, bessel_diag, lam=1.0):
    _COSET_WINDOW, _COSET_TOL = 3, 1e-12
    p = setup.p
    d, a_s = setup.disc, setup.a
    pe = p**e
    u = pi_choice
    prefactor = p ** (-2 * e + 2) / (p**2 + 1)

    def bessel_value(l: int, m: int) -> complex:
        if l < 0:
            return 0.0  # support condition
        if m == 0:
            return bessel_diag(l)
        raise RuntimeError(
            "needed a Bessel value off the diagonal; this cannot happen when "
            "the unit integrals vanish where the lemma says they do"
        )

    f_id = p ** float(-2 * e + 2) / (p**2 - 1)
    acc = 0j
    for n in range(-e, -e + _COSET_WINDOW + 1):
        coef = (
            u**n
            * p ** (-n * (s - 1))
            * _parent_unit_psi_mu_integral(mu, n, Fraction(-d, 2))
        )
        if abs(coef) > _COSET_TOL:
            acc += coef * bessel_value(e + n, 0)
    z_phi = f_id * acc * prefactor

    w_l = gauss_sum_L(mu, setup.galois_ring(e), pi_choice)
    f_hat = (
        p ** (e * (2 * s - 3) + 2) / (p**2 - 1) * lam ** (-e) * w_l
    )
    z_hat = 0j
    for b2 in range(pe):
        for b3 in range(pe):
            v = Fraction(a_s**6 * d, 4) + setup.norm_basis(b2, b3)
            if v == 0 or ord_p(v, p) > e:
                v = next(
                    cand
                    for t in range(1, p + 1)
                    for cand in (v + Fraction(pe * t),)
                    if ord_p(cand, p) == e
                )
            j = ord_p(v, p)
            acc = 0j
            for n in range(j - e - _COSET_WINDOW, j - e + _COSET_WINDOW + 1):
                scale = Fraction(-(a_s**4) * d, 2) / v
                coef = u**n * p ** (-n * (s - 1)) * _parent_unit_psi_mu_integral(
                    mu, n, scale
                )
                if abs(coef) > _COSET_TOL:
                    acc += coef * bessel_value(e + n - 2 * j, j)
            z_hat += f_hat * acc
    z_hat *= prefactor
    return z_phi, z_hat


# S inert at p, as in the benchmark's coset set-ups, plus one deeper level;
# each is run at these (u, s)
ORACLE_SETUPS = (((1, 0, 1), 3, 1), ((1, 1, 1), 5, 1), ((1, 0, 1), 7, 1),
                 ((1, 0, 1), 3, 2))
ORACLE_POINTS = ((cmath.exp(0.4j), 0.3), (cmath.exp(2.1j), 0.7 + 0.2j),
                 (cmath.exp(-1.3j), 1.1 - 0.25j))


def _diag_at(p):
    rep = LocalRep.symbolic_trivial("I")
    point = {"Q": math.sqrt(p), "A": cmath.exp(0.3j), "G": cmath.exp(0.9j)}
    vals = diag_values_numeric(rep, point, 12)
    return lambda l: vals[l]


@pytest.mark.parametrize("abc,p,e", ORACLE_SETUPS, ids=("p3e1", "p5e1", "p7e1", "p3e2"))
def test_coset_oracle_equals_parent_code(abc, p, e):
    setup, diag = BesselSetup(*abc, p), _diag_at(p)
    for mu in MultChar.primitive_chars(ResidueRing(p, e))[:2]:
        for u, s in ORACLE_POINTS:
            got = zeta_case2_3_cosets(setup, e, mu, u, s, diag)
            want = _parent_zeta_case2_3_cosets(setup, e, mu, u, s, diag)
            assert got == want, (abc, p, e, mu, u, s)


def test_oracle_unit_integral_equals_the_unit_sum(monkeypatch):
    """On every key the oracle meets over ORACLE_SETUPS and ORACLE_POINTS,
    its sum over a = b + p^e t gives _unit_integral_sum's float at
    p^k <= p^e, where the t-sum is the one term psi(0) = 1, and comes within
    1e-15 of it at p^k > p^e."""
    import besselzeta.padicring as pr

    keys, real = set(), pr._oracle_unit_integral

    def recording(mu, pk, r0):
        keys.add((mu.ring.p, mu.ring.e, mu.k, pk, r0))
        return real(mu, pk, r0)

    monkeypatch.setattr(pr, "_oracle_unit_integral", recording)
    for abc, p, e in ORACLE_SETUPS:
        setup, diag = BesselSetup(*abc, p), _diag_at(p)
        for mu in MultChar.primitive_chars(ResidueRing(p, e))[:2]:
            for u, s in ORACLE_POINTS:
                pr.zeta_case2_3_cosets(setup, e, mu, u, s, diag)
    deep = 0
    for p, e, k, pk, r0 in sorted(keys):
        mu = MultChar(ResidueRing(p, e), k)
        got, want = real(mu, pk, r0), pr._unit_integral_sum(mu, pk, r0)
        if pk <= p**e:
            assert got == want, (p, e, k, pk, r0)
        else:
            deep += 1
            assert abs(got - want) <= 1e-15, (p, e, k, pk, r0, got, want)
    assert deep and deep < len(keys)


def test_weyl_lift_has_valuation_e():
    # the oracle lifts v = 0, or v with ord_p(v) > e, to v + p^e
    rng = random.Random(23)
    for p in (3, 5, 7):
        for e in (1, 2, 3):
            for _ in range(20):
                w = rng.choice([x for x in range(-60, 61) if x % p])
                k = rng.randint(1, 3)
                for v in (Fraction(0), Fraction(p ** (e + k) * w, 4)):
                    assert ord_p(v + p**e, p) == e


def test_oracle_grid_meets_lifted_cosets():
    """The grid of test_coset_oracle_equals_parent_code reaches both kinds
    of lifted Weyl coset, v = 0 and ord_p(v) > e, so the lift is pinned."""
    kinds = set()
    for abc, p, e in ORACLE_SETUPS:
        setup = BesselSetup(*abc, p)
        for b2 in range(p**e):
            for b3 in range(p**e):
                v = Fraction(setup.a**6 * setup.disc, 4) + setup.norm_basis(b2, b3)
                if v == 0 or ord_p(v, p) > e:
                    kinds.add(v == 0)
    assert kinds == {True, False}


def test_coset_oracle_sums_each_key_once_per_call(monkeypatch):
    """Over the benchmark's 24 coset inputs of seed 501, round 4, the
    oracle sums each distinct (p^k, r0) once per call."""
    import besselzeta.padicring as pr

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    # record the key of every unit integral the parent oracle takes, and
    # every sum the oracle under test makes
    keys, summed = [], []
    parent_unit, real_sum = _parent_unit_psi_mu_integral, pr._oracle_unit_integral

    def recording_unit(mu, n, scale=Fraction(1)):
        p = mu.ring.p
        keys.append(_p_adic_frac(Fraction(p) ** n * Fraction(scale), p))
        return parent_unit(mu, n, scale)

    def counting_sum(mu, pk, r0):
        summed.append((pk, r0))
        return real_sum(mu, pk, r0)

    monkeypatch.setattr(sys.modules[__name__], "_parent_unit_psi_mu_integral", recording_unit)
    monkeypatch.setattr(pr, "_oracle_unit_integral", counting_sum)
    diags = {}
    n_parent_calls = n_keys = n_sums = 0
    for p, abc, k, u, s in workloads.exhaustive_round(501, 4)["cosets"]:
        setup, mu = BesselSetup(*abc, p), MultChar(ResidueRing(p, 1), k)
        diag = diags.setdefault(p, _diag_at(p))
        keys.clear()
        summed.clear()
        want = _parent_zeta_case2_3_cosets(setup, 1, mu, u, s, diag)
        got = pr.zeta_case2_3_cosets(setup, 1, mu, u, s, diag)
        assert got == want
        assert sorted(summed) == sorted(set(keys)), (p, abc, k)
        n_parent_calls += len(keys)
        n_keys += len(set(keys))
        n_sums += len(summed)
    assert (n_parent_calls, n_keys, n_sums) == (4744, 1072, 1072)

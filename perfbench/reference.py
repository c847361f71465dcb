"""Independent reference values for the benchmark's correctness checks.

Nothing here imports besselzeta.  Each function recomputes, from the
definitions, the closed form a verdict must agree with: character values
on the stored generator of (Z/p^e)^*, the normalized Gauss sum W_F, the
closed forms of the character-sum lemmas and of the ramified-twist zeta
integrals, and the elementary divisors of Y_eta.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def factorize(n: int) -> list:
    """[(p, k), ...] with n = prod p^k, primes ascending."""
    out, d = [], 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi_pk(p: int, k: int) -> int:
    """|(Z/p^k)^*|, with phi(p^0) = 1."""
    return p ** (k - 1) * (p - 1) if k else 1


@lru_cache(maxsize=None)
def _dlog_table(p: int, e: int) -> dict:
    # the character index k of the library means mu(g) = exp(2 pi i k / phi)
    # for g the least primitive root mod p, lifted to g + p when
    # g^(p-1) = 1 mod p^2; this convention is what fixes the meaning of k
    g = next(
        x for x in range(2, p)
        if all(pow(x, (p - 1) // r, p) != 1 for r, _ in factorize(p - 1))
    )
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    pe, table, x = p**e, {}, 1
    for i in range(phi_pk(p, e)):
        table[x] = i
        x = x * g % pe
    return table


def char_value(p: int, e: int, k: int, a: int) -> complex:
    """mu_k(a) for a unit a modulo p^e."""
    n = phi_pk(p, e)
    return cmath.exp(2j * cmath.pi * (k * _dlog_table(p, e)[a % p**e] % n) / n)


def is_exact_conductor(p: int, e: int, k: int) -> bool:
    """True when mu_k on (Z/p^e)^* is nontrivial on 1 + p^(e-1) Z."""
    return k % p != 0 if e > 1 else k % (p - 1) != 0


def w_f(p: int, e: int, k: int, pi: complex = 1.0) -> complex:
    """W_F = p^(-e/2) pi^(-e) sum_{a unit mod p^e} e(a/p^e) mu_k(a)."""
    pe = p**e
    total = sum(
        cmath.exp(2j * cmath.pi * a / pe) * char_value(p, e, k, a)
        for a in range(1, pe) if a % p
    )
    return pe**-0.5 * pi ** (-e) * total


def w_l_closed(p: int, e: int, k: int, pi: complex = 1.0) -> complex:
    """W_L by the splitting lemma: (-1)^e W_F^2."""
    return (-1) ** e * w_f(p, e, k, pi) ** 2


def unit_integral_closed(p: int, e: int, k: int, n: int) -> complex:
    """Closed form of the unit-integral lemma: 0 unless n = -e."""
    if n != -e:
        return 0j
    return p ** (1 - e / 2) / (p - 1) * w_f(p, e, k)


def norm_sum_closed(p: int, e: int, k: int, u: int) -> complex:
    """Norm-sum lemma: (-1)^e p^e mu_k(u)."""
    return (-1) ** e * p**e * char_value(p, e, k, u)


def rational_mod(x: Fraction, m: int) -> int:
    return x.numerator * pow(x.denominator, -1, m) % m


def zeta_case2_3_closed(abc, p, e, k, pi, s, lam=1.0):
    """The two closed forms of the ramified-twist proposition, from W_F
    and the splitting lemma."""
    a, b, c = abc
    d = b * b - 4 * a * c
    pe = p**e
    wf = w_f(p, e, k, pi)
    wl = (-1) ** e * wf**2
    lead = 1.0 / ((p**4 - 1) * (p - 1))
    mu_inv = char_value(p, e, k, rational_mod(Fraction(-d, 2), pe)).conjugate()
    z_phi = p ** (e * (s - 5.5) + 5) * lead * mu_inv * wf
    z_hat = (
        (-1) ** e * p ** (e * (3 * s - 5.5) + 5) * lead * lam ** (-e)
        * char_value(p, e, k, rational_mod(Fraction(-a * a, 2), pe)) * wl * wf
    )
    return z_phi, z_hat


# ---------------------------------------------------------------------------
# integer matrices


def det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def y_eta_divisors(abc, p, b2, b3):
    """Elementary divisors of Y_eta = -a^2 S^dagger + X_eta, cleared of
    its (prime-to-p) denominators, and j = ord_p(a^6 d/4 + N(eta))."""
    a, b, c = abc
    d = b * b - 4 * a * c
    y = [
        [Fraction(-(a**2) * c) - Fraction(b * b2 + c * b3, a),
         Fraction(a**2 * b, 2) + b2],
        [Fraction(a**2 * b, 2) + b2, Fraction(-(a**3)) + b3],
    ]
    mult = math.lcm(*(x.denominator for row in y for x in row))
    m = [[int(x * mult) for x in row] for row in y]
    d1 = math.gcd(*(x for row in m for x in row))
    v = Fraction(a**6 * d, 4) + a * (a * b2 * b2 + b * b2 * b3 + c * b3 * b3)
    return (d1, abs(det2(m)) // d1), ord_p(v, p)


def ord_p(x: Fraction, p: int) -> int:
    x = Fraction(x)
    v, n, dd = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while dd % p == 0:
        dd //= p
        v -= 1
    return v

"""Residue rings Z/p^e, the unramified quadratic Galois ring, characters,
Gauss sums, and the brute-force side of the ramified-twist computations.

Only odd p is supported: the unit group of Z/2^e is not cyclic and the
global setup excludes p = 2 anyway.  Character values are exact roots of
unity carried as integer exponents: a multiplicative character's exponent
modulo the unit-group order, an additive character's p-adic residue
modulo p^k.  Each ring keeps, per modulus n it meets, a table of
exp(2 pi i j / n) built on first use, and the sums index those tables by
exponent; floats enter only as those table entries and as the running
sums, which are compared at 1e-9 (the character-sum lemmas) or at 1e-8
times max(1, |closed form|) (the coset-sum oracle).

The Galois ring GR(p^e, 2) is realized as Z/p^e[x]/(x^2 - c) with c a
quadratic non-residue mod p; the nontrivial automorphism is x -> -x, so
norm and trace are N(a+bx) = a^2 - c b^2 and tr(a+bx) = 2a.

Enumeration kernels are pure functions over immutable ring tables.
unit_psi_mu_integral, the vanishing lemma's brute force, sums psi(pi^n a)
mu(a) over every unit.  The coset-sum oracle sums each distinct unit
integral once per call: the integral at (n, scale) is a function of the
character and of the exact key {p^n scale}_p = r0 / p^k alone, so a
repeated key reuses the float its first sum gave, bit for bit.  At p^k > p^e
it sums over a = b + p^e t, a sum over the units b mod p^e times a
character-free sum over t, both enumerated.  No sum is kept between calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 by trial division: ((p, k), ...) with
    p increasing; factorize(1) is ()."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_squarefree(n: int) -> bool:
    return all(k == 1 for _, k in factorize(n))


def is_odd_prime(p: int) -> bool:
    return p > 2 and factorize(p) == ((p, 1),)


def _check_odd_prime_power(p: int, e: int):
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if e < 1:
        raise ValueError("exponent e must be >= 1")


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def ord_p(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rational_mod(x: Fraction, modulus: int) -> int:
    """Reduce a rational with denominator prime to the modulus."""
    x = Fraction(x)
    if math.gcd(x.denominator, modulus) != 1:
        raise ValueError("denominator not invertible modulo the modulus")
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


class ResidueRing:
    """Z/p^e for an odd prime p, with its cyclic unit group tabulated."""

    def __init__(self, p: int, e: int):
        _check_odd_prime_power(p, e)
        self.p = p
        self.e = e
        self.modulus = p**e
        self.unit_order = p ** (e - 1) * (p - 1)
        self.generator = self._find_generator()
        self._dlog = {}
        x = 1
        for k in range(self.unit_order):
            self._dlog[x] = k
            x = x * self.generator % self.modulus
        self._root_tables = {}

    def _find_generator(self) -> int:
        # a generator of (Z/p)^* lifts to (Z/p^e)^* unless g^(p-1) = 1 mod p^2
        p, pe = self.p, self.modulus
        for g in range(2, p):
            if all(
                pow(g, (p - 1) // r, p) != 1 for r, _ in factorize(p - 1)
            ):
                if self.e == 1 or pow(g, p - 1, p * p) != 1:
                    return g
                return g + p
        raise RuntimeError("no generator found")  # unreachable for prime p

    def units(self):
        return (a for a in range(1, self.modulus) if a % self.p != 0)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def dlog(self, a: int) -> int:
        a %= self.modulus
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit modulo {self.modulus}")
        return self._dlog[a]

    def _roots(self, n: int) -> list:
        """[exp(2 pi i j / n) for j in range(n)], built on first use."""
        table = self._root_tables.get(n)
        if table is None:
            table = [cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
            self._root_tables[n] = table
        return table

    def __repr__(self):
        return f"ResidueRing(p={self.p}, e={self.e})"


class MultChar:
    """Multiplicative character on (Z/p^e)^*, fixed by its exponent k on
    the stored generator: mu(g) = exp(2 pi i k / unit_order)."""

    def __init__(self, ring: ResidueRing, k: int):
        self.ring = ring
        self.k = k % ring.unit_order
        # mu kills 1 + p^f o, the subgroup of order p^(e-f), iff p^(e-f) | k;
        # a nonzero k < p^e has ord_p(k) < e
        self.conductor = 0 if self.k == 0 else ring.e - ord_p(self.k, ring.p)
        # the value at each residue mod p^e, None at non-units
        roots = ring._roots(ring.unit_order)
        self._values = [None] * ring.modulus
        for a, log in ring._dlog.items():
            self._values[a] = roots[self.k * log % ring.unit_order]

    @property
    def order(self) -> int:
        return self.ring.unit_order // math.gcd(self.ring.unit_order, self.k)

    def value_exponent(self, a: int) -> int:
        """Exponent of the value as a unit_order-th root of unity."""
        return self.k * self.ring.dlog(a) % self.ring.unit_order

    def __call__(self, a: int) -> complex:
        a %= self.ring.modulus
        value = self._values[a]
        if value is None:
            raise ValueError(f"{a} is not a unit modulo {self.ring.modulus}")
        return value

    def inverse(self) -> "MultChar":
        return MultChar(self.ring, -self.k)

    def value_at_rational(self, x) -> complex:
        return self(rational_mod(Fraction(x), self.ring.modulus))

    @staticmethod
    def all_chars(ring: ResidueRing):
        return [MultChar(ring, k) for k in range(ring.unit_order)]

    @staticmethod
    def primitive_chars(ring: ResidueRing):
        return [c for c in MultChar.all_chars(ring) if c.conductor == ring.e]

    def __repr__(self):
        return f"MultChar(p={self.ring.p}, e={self.ring.e}, k={self.k})"


def _p_adic_frac(x: Fraction, p: int) -> tuple:
    """(p^k, r) with {x}_p = r / p^k: p^k is the p-part of the denominator
    of x, and r its residue mod p^k (so (1, 0) for p-integral x)."""
    den = x.denominator
    pk = 1
    while den % p == 0:
        den //= p
        pk *= p
    return pk, x.numerator * pow(den, -1, pk) % pk


def psi_frac(x: Fraction, p: int) -> complex:
    """Additive character of conductor 0 on Q_p: exp(2 pi i {x}_p).

    {x}_p is the p-adic fractional part: only the p-power part of the
    denominator contributes; prime-to-p denominators are p-adic units and
    give integral x, i.e. psi(x) = 1.
    """
    pk, residue = _p_adic_frac(Fraction(x), p)
    if pk == 1:
        return 1.0 + 0j
    return cmath.exp(2j * cmath.pi * residue / pk)


class GaloisRing:
    """GR(p^e, 2) = Z/p^e [x]/(x^2 - c), c a non-residue mod p."""

    def __init__(self, p: int, e: int, c: int | None = None):
        _check_odd_prime_power(p, e)
        self.p, self.e = p, e
        self.modulus = p**e
        if c is None:
            c = next(x for x in range(2, p) if legendre(x, p) == -1)
        c %= self.modulus
        if legendre(c, p) != -1:
            raise ValueError("c must reduce to a quadratic non-residue mod p")
        self.c = c

    # elements are pairs (a, b) meaning a + b sqrt(c)
    def elements(self):
        m = self.modulus
        return ((a, b) for a in range(m) for b in range(m))

    def units(self):
        p = self.p
        return (
            (a, b)
            for (a, b) in self.elements()
            if (a % p, b % p) != (0, 0)
        )

    def is_unit(self, z) -> bool:
        a, b = z
        return (a % self.p, b % self.p) != (0, 0)

    def mul(self, z, w):
        a, b = z
        x, y = w
        m = self.modulus
        return ((a * x + self.c * b * y) % m, (a * y + b * x) % m)

    def conj(self, z):
        a, b = z
        return (a, -b % self.modulus)

    def norm(self, z) -> int:
        a, b = z
        return (a * a - self.c * b * b) % self.modulus

    def trace(self, z) -> int:
        return 2 * z[0] % self.modulus

    def frobenius(self, z):
        """The nontrivial ring automorphism (Galois-ring Frobenius)."""
        return self.conj(z)

    def __repr__(self):
        return f"GaloisRing(p={self.p}, e={self.e}, c={self.c})"


# ---------------------------------------------------------------------------
# Gauss sums and the character-sum lemmas


def gauss_sum_F(mu: MultChar, pi_choice: complex = 1.0) -> complex:
    """Normalized Gauss sum W_F(mu, psi) = q^{-e/2} mu(pi)^{-e} sum psi(pi^{-e} a) mu(a).

    Requires the conductor of mu to be exactly e; the result has modulus 1.
    """
    ring = mu.ring
    if mu.conductor != ring.e:
        raise ValueError(
            f"conductor {mu.conductor} != e = {ring.e}; W_F needs an exact-"
            "conductor character"
        )
    pe = ring.modulus
    return pe ** -0.5 * pi_choice ** (-ring.e) * _unit_char_sum(mu, pe, 1)


def unit_psi_mu_integral(mu: MultChar, n: int) -> complex:
    """Brute force of the multiplicative unit integral
    int_{o^*} psi(pi^n a) mu(a) d^x a  with vol(o^*) = 1,
    an exact average over the units modulo p^K, K = max(e, -n, 1).
    """
    p = mu.ring.p
    return _unit_integral_sum(mu, *_p_adic_frac(Fraction(p) ** n, p))


def _unit_integral_sum(mu: MultChar, pk: int, r0: int) -> complex:
    """The unit integral with {x}_p = r0 / p^k: the character sum over the
    units modulo p^K, K = max(e, k, 1), divided by their count."""
    p = mu.ring.p
    pK = max(mu.ring.modulus, pk, p)
    return _unit_char_sum(mu, pk, r0) / (pK - pK // p)


def _unit_char_sum(mu: MultChar, pk: int, r0: int) -> complex:
    """sum psi(r0 a / p^k) mu(a) over the units a modulo p^K, K = max(e, k, 1),
    in increasing order of a.

    The term at a unit a is psi(r0 a / p^k) = exp(2 pi i (r0 a mod p^k) / p^k):
    a is prime to p, so it leaves the p-part of the denominator unchanged.
    """
    ring = mu.ring
    p, pe = ring.p, ring.modulus
    psi, values = ring._roots(pk), mu._values
    total = 0j
    for a in range(1, max(pe, pk, p)):
        if a % p:
            total += psi[r0 * a % pk] * values[a % pe]
    return total


def _oracle_unit_integral(mu: MultChar, pk: int, r0: int) -> complex:
    """The unit integral with {x}_p = r0 / p^k, as the coset oracle takes it.

    At p^k <= p^e it is _unit_integral_sum.  At p^k > p^e each unit a mod
    p^k is b + p^e t with b a unit mod p^e, so mu(a) = mu(b) and
    psi(r0 a / p^k) = psi(r0 b / p^k) psi(r0 t / p^(k-e)): the sum is a sum
    over b times the character-free sum over t, and both are enumerated,
    not assumed to vanish.
    """
    ring = mu.ring
    p, pe = ring.p, ring.modulus
    if pk <= pe:
        return _unit_integral_sum(mu, pk, r0)
    psi, values = ring._roots(pk), mu._values
    outer = 0j
    for b in range(1, pe):
        if b % p:
            outer += psi[r0 * b % pk] * values[b]
    inner = 0j
    for t in range(0, pk, pe):
        inner += psi[r0 * t % pk]
    return outer * inner / (pk - pk // p)


def gauss_sum_lemma_value(mu: MultChar, n: int) -> complex:
    """Closed form of the unit-integral lemma: nonzero only at n = -e.

    The lemma's factor mu(pi)^e W_F(mu, psi) does not depend on mu(pi),
    which cancels against the mu(pi)^{-e} inside W_F."""
    ring = mu.ring
    if n != -ring.e:
        return 0j
    p, e = ring.p, ring.e
    return p ** (-e / 2 + 1) / (p - 1) * gauss_sum_F(mu)


def gauss_sum_L(mu: MultChar, gring: GaloisRing, pi_choice: complex = 1.0) -> complex:
    """W_L(mu_L, psi_L) over the unramified quadratic extension.

    mu_L = mu o N and psi_L = psi o tr are built internally; the lemma
    W_L = (-1)^e W_F^2 is asserted by the test suite, not here.
    """
    ring = mu.ring
    if (gring.p, gring.e) != (ring.p, ring.e):
        raise ValueError("Galois ring and character live over different rings")
    # N maps 1 + p^f o_L onto 1 + p^f o (L/F unramified), so mu o N has
    # the conductor of mu
    if mu.conductor != ring.e:
        raise ValueError("W_L needs an exact-conductor character")
    p, pe, c = ring.p, ring.modulus, gring.c
    qL = p**2
    psi, values = ring._roots(pe), mu._values
    # z = x + y sqrt(c) over the units, in the order of gring.units():
    # tr z = 2x and N z = x^2 - c y^2, a unit since z is one
    every_y = [c * y * y for y in range(pe)]
    unit_y = [cyy for y, cyy in enumerate(every_y) if y % p]
    total = 0j
    for x in range(pe):
        psi_x, xx = psi[2 * x % pe], x * x
        for t in every_y if x % p else unit_y:
            total += psi_x * values[(xx - t) % pe]
    mu_L_pi = pi_choice**2  # mu_L(pi) = mu(N pi) = mu(pi)^2
    return qL ** (-ring.e / 2) * mu_L_pi ** (-ring.e) * total


def norm_char_sum(gring: GaloisRing, mu: MultChar, u: int) -> complex:
    """sum over eta in GR of mu(u + N(eta)) restricted to unit arguments.

    Equals (-1)^e q^e mu(u) by the norm-sum lemma (asserted in tests).
    """
    ring = mu.ring
    if (gring.p, gring.e) != (ring.p, ring.e):
        raise ValueError("Galois ring and character live over different rings")
    if not ring.is_unit(u):
        raise ValueError("u must be a unit")
    pe, c, values = ring.modulus, gring.c, mu._values
    # eta = x + y sqrt(c) in the order of gring.elements()
    cyy = [c * y * y for y in range(pe)]
    total = 0j
    for x in range(pe):
        ux = u + x * x
        for t in cyy:
            value = values[(ux - t) % pe]
            if value is not None:
                total += value
    return total


# ---------------------------------------------------------------------------
# Smith normal form over Z, with unimodular transforms


def smith_normal_form(m) -> tuple:
    """Smith normal form of an integer matrix, with unimodular transforms.

    Returns (diag, U, V) where U m V is diagonal with the entries of
    ``diag`` on the main diagonal, nonnegative, in divisibility order, and
    U, V are square unimodular integer matrices.
    """
    rows = len(m)
    cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("expected a rectangular matrix")
    # each row of ``a`` is [row of m | row of U], and V is kept transposed
    a = [[int(x) for x in row] + [int(i == j) for j in range(rows)]
         for i, row in enumerate(m)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]

    def add_col(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        vt[i] = [x + k * y for x, y in zip(vt[i], vt[j])]

    def smallest_pivot(t):  # a smallest-magnitude nonzero entry of the trailing block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        return pivot

    for t in range(min(rows, cols)):
        pivot = smallest_pivot(t)
        if pivot is None:
            break
        while True:
            # move the pivot to (t,t), then reduce its row and column by it;
            # a nonzero remainder is smaller than the pivot and becomes the next one
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    dirty = dirty or a[t][j] != 0
            if not dirty:
                # row and column t are clear; enforce divisibility into the
                # remaining block by adding the first offending row to row t
                offender = next(
                    (i for i in range(t + 1, rows)
                     if any(a[i][j] % a[t][t] for j in range(t + 1, cols))),
                    None,
                )
                if offender is None:
                    break
                add_row(t, offender, 1)
            pivot = smallest_pivot(t)
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, [row[cols:] for row in a], [list(col) for col in zip(*vt)]


def smith_form_2x2(m) -> tuple:
    """Smith normal form of a nonsingular 2x2 integer matrix.

    Returns (d1, d2, U, V) with U m V = diag(d1, d2), d1 | d2, d1, d2 > 0
    and U, V unimodular.
    """
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError("expected a 2x2 matrix")
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
        raise ValueError("singular matrix has no Smith form here")
    diag, U, V = smith_normal_form(m)
    return diag[0], diag[1], U, V


# ---------------------------------------------------------------------------
# the symmetric matrix S, the Y_eta lemma, and the ramified zeta integrals


@dataclass(frozen=True)
class BesselSetup:
    """Integral data S = [[a, b/2], [b/2, c]] defining the quadratic space.

    Validates the inert ramified-case hypotheses at the odd prime p:
    a is a unit, d = b^2 - 4ac is a unit and a non-square mod p (so the
    quadratic extension is an unramified field), and d/2 is a unit.
    """

    a: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")
        if self.a % self.p == 0:
            raise ValueError("a must be a p-unit")
        if self.disc % self.p == 0:
            raise ValueError("d = b^2 - 4ac must be a p-unit (so is d/2)")

    @property
    def disc(self) -> int:
        return self.b**2 - 4 * self.a * self.c

    @property
    def is_inert(self) -> bool:
        """True when d is a non-square mod p, i.e. L/F is an unramified field."""
        return legendre(self.disc, self.p) == -1

    def norm_basis(self, b2: int, b3: int) -> int:
        """N(eta) for eta = b2*a + b3*theta0 in the o-basis {a, theta0}."""
        a, b, c = self.a, self.b, self.c
        return a * (a * b2**2 + b * b2 * b3 + c * b3**2)

    def galois_ring(self, e: int) -> GaloisRing:
        if not self.is_inert:
            raise ValueError("d is a square mod p; the extension splits")
        return GaloisRing(self.p, e, self.disc % self.p**e)


def y_eta_matrix(setup: BesselSetup, b2: int, b3: int):
    """Y_eta = -a^2 S^dagger + X_eta as an exact rational 2x2 matrix."""
    a, b, c = setup.a, setup.b, setup.c
    half_b = Fraction(b, 2)
    s_dag = [[Fraction(c), -half_b], [-half_b, Fraction(a)]]
    x_eta = [
        [Fraction(-(b * b2 + c * b3), a), Fraction(b2)],
        [Fraction(b2), Fraction(b3)],
    ]
    return [
        [-a**2 * s_dag[i][j] + x_eta[i][j] for j in range(2)] for i in range(2)
    ]


def y_eta_check(setup: BesselSetup, b2: int, b3: int, e: int) -> dict:
    """Verify the determinant, trace, and Smith-form claims for Y_eta.

    Checks, exactly over Q:
      det Y_eta = -a^4 d / 4 - N(eta) / a^2,
      tr(Y_eta S) = a^2 d / 2,
    and that the p-parts of the elementary divisors of Y_eta are (1, p^j)
    with j = ord_p(a^6 d / 4 + N(eta)).
    """
    a, b, c, p = setup.a, setup.b, setup.c, setup.p
    d = setup.disc
    y = y_eta_matrix(setup, b2, b3)
    n_eta = setup.norm_basis(b2, b3)
    det_y = y[0][0] * y[1][1] - y[0][1] * y[1][0]
    det_ok = det_y == Fraction(-(a**4) * d, 4) - Fraction(n_eta, a**2)
    s_mat = [[Fraction(a), Fraction(b, 2)], [Fraction(b, 2), Fraction(c)]]
    tr_ys = sum(y[i][0] * s_mat[0][i] + y[i][1] * s_mat[1][i] for i in range(2))
    trace_ok = tr_ys == Fraction(a**2 * d, 2)
    v = Fraction(a**6 * d, 4) + n_eta
    # at v = 0 the lemma's hypothesis (a^6 d/4 + N(eta) in pi^j o^*) fails
    # for this lift, and only the determinant and trace identities stand
    j_raw = divisors = smith_ok = None
    if v:
        j_raw = ord_p(v, p)
        # clear denominators by a p-unit and take the integer Smith form
        mult = math.lcm(*(entry.denominator for row in y for entry in row))
        if mult % p == 0:
            raise RuntimeError("denominator not prime to p; setup violated")
        m_int = [[int(entry * mult) for entry in row] for row in y]
        d1, d2, _, _ = smith_form_2x2(m_int)
        divisors = (d1, d2)
        smith_ok = ord_p(Fraction(d1), p) == 0 and ord_p(Fraction(d2), p) == j_raw
    return {
        "det_identity": det_ok,
        "trace_identity": trace_ok,
        "j": None if j_raw is None else min(j_raw, e),
        "j_raw": j_raw,
        "elementary_divisors": divisors,
        "smith_p_part": smith_ok,
        "hypothesis_holds": v != 0,
        "ok": det_ok and trace_ok and (v == 0 or smith_ok),
    }


def zeta_case2_3_closed(
    setup: BesselSetup, e: int, mu: MultChar, pi_choice: complex, s: complex,
) -> tuple:
    """The two displayed closed forms of the ramified-twist proposition,
    at Lambda(pi) = 1: Lambda(pi) enters only Z(phi-hat), as the factor
    Lambda(pi)^{-e}, which the caller applies."""
    p = setup.p
    d = setup.disc
    a = setup.a
    w_f = gauss_sum_F(mu, pi_choice)
    w_l = gauss_sum_L(mu, setup.galois_ring(e), pi_choice)
    lead = 1.0 / ((p**4 - 1) * (p - 1))
    z_phi = (
        p ** (e * (s - 5.5) + 5)
        * lead
        * mu.inverse().value_at_rational(Fraction(-d, 2))
        * w_f
    )
    z_phi_hat = (
        (-1) ** e
        * p ** (e * (3 * s - 5.5) + 5)
        * lead
        * mu.value_at_rational(Fraction(-(a**2), 2))
        * w_l
        * w_f
    )
    return z_phi, z_phi_hat


# the coset sum takes the unit integrals at n within _COSET_WINDOW of the
# valuation where the lemma puts their support, and drops terms below _COSET_TOL
_COSET_WINDOW = 3
_COSET_TOL = 1e-12


def zeta_case2_3_cosets(
    setup: BesselSetup,
    e: int,
    mu: MultChar,
    pi_choice: complex,
    s: complex,
    bessel_diag,
) -> tuple:
    """Independent route: the finite coset sum over K_0^#(p^e) \\ K^#,
    at Lambda(pi) = 1 as in zeta_case2_3_closed: Lambda(pi) enters only the
    Weyl-type section values, as the factor Lambda(pi)^{-e} on Z(phi-hat).

    Representatives are lower-unipotents [[1,0],[xi,1]] (xi in p o_L/p^e)
    and Weyl-type [[0,-1],[1,eta^dagger]] (eta in o_L/p^e).  Section
    values come from the f-lemma, the Bessel-argument reduction from the
    Y_eta lemma, unit integrals are enumerated, and the diagonal Bessel
    values B0(h(l,0)) are supplied by the caller (the spherical series).

    Each distinct unit integral is summed once per call.  Its value is a
    function of the exact key (p^k, r0) with {p^n * scale}_p = r0/p^k, so
    a repeated key gets the very float its first sum gave; likewise a Weyl
    coset's inner sum depends on eta only through the valuation v it
    reduces to.  Nothing is kept between calls.  At p^k > p^e the sum runs
    over a = b + p^e t, a sum over the units b mod p^e times a sum over t,
    with both factors enumerated.

    A Weyl coset's v = a^6 d/4 + N(eta) is p-integral, and when v = 0 or
    ord_p(v) > e its lift v + p^e has valuation exactly e, the smaller of
    the two summands' valuations.
    """
    p = setup.p
    d, a_s = setup.disc, setup.a
    pe = p**e
    u = pi_choice
    prefactor = p ** (-2 * e + 2) / (p**2 + 1)
    sums = {}                   # (p^k, r0) -> enumerated unit integral
    weights = {}                # n -> u^n q^{-n(s-1)}

    def term(n: int, scale: Fraction) -> complex:
        key = _p_adic_frac(Fraction(p) ** n * scale, p)
        integral = sums.get(key)
        if integral is None:
            integral = sums[key] = _oracle_unit_integral(mu, *key)
        weight = weights.get(n)
        if weight is None:
            weight = weights[n] = u**n * p ** (-n * (s - 1))
        return weight * integral

    def bessel_value(l: int, m: int) -> complex:
        if l < 0:
            return 0.0  # support condition
        if m == 0:
            return bessel_diag(l)
        raise RuntimeError(
            "needed a Bessel value off the diagonal; this cannot happen when "
            "the unit integrals vanish where the lemma says they do"
        )

    # phi route: only unipotent representatives can meet the f-support,
    # and among those [[1,0],[xi,1]] with xi in p o_L/p^e, f vanishes unless
    # xi = 0 mod p^e, so the identity is the one term left
    f_id = p ** float(-2 * e + 2) / (p**2 - 1)
    acc = 0j
    for n in range(-e, -e + _COSET_WINDOW + 1):
        coef = term(n, Fraction(-d, 2))
        if abs(coef) > _COSET_TOL:
            acc += coef * bessel_value(e + n, 0)
    z_phi = f_id * acc * prefactor

    # phi-hat route: only the Weyl-type representatives survive (c must be
    # a unit), each contributing through its Y_eta reduction
    w_l = gauss_sum_L(mu, setup.galois_ring(e), pi_choice)
    f_hat = p ** (e * (2 * s - 3) + 2) / (p**2 - 1) * w_l
    inner = {}                  # v -> the coset's sum over n
    z_hat = 0j
    for b2 in range(pe):
        for b3 in range(pe):
            v = Fraction(a_s**6 * d, 4) + setup.norm_basis(b2, b3)
            if v == 0 or ord_p(v, p) > e:
                v += pe  # the lift of eta putting the valuation exactly at e
            acc = inner.get(v)
            if acc is None:
                j = ord_p(v, p)
                scale = Fraction(-(a_s**4) * d, 2) / v
                acc = 0j
                for n in range(j - e - _COSET_WINDOW, j - e + _COSET_WINDOW + 1):
                    coef = term(n, scale)
                    if abs(coef) > _COSET_TOL:
                        acc += coef * bessel_value(e + n - 2 * j, j)
                inner[v] = acc
            z_hat += f_hat * acc
    z_hat *= prefactor
    return z_phi, z_hat


def zeta_case2_3_numeric(
    setup: BesselSetup,
    e: int,
    mu: MultChar,
    pi_choice: complex,
    s: complex,
    bessel_diag,
    tol: float = 1e-8,
) -> dict:
    """Closed forms and coset-sum oracle for the ramified-twist integrals,
    at Lambda(pi) = 1 (Z(phi-hat) carries Lambda(pi)^{-e} otherwise).

    Returns both routes and their absolute differences; raises if the
    routes disagree beyond ``tol`` times max(1, |closed form|).
    """
    closed = zeta_case2_3_closed(setup, e, mu, pi_choice, s)
    oracle = zeta_case2_3_cosets(setup, e, mu, pi_choice, s, bessel_diag)
    errs = tuple(abs(c - o) for c, o in zip(closed, oracle))
    scale = max(1.0, max(abs(c) for c in closed))
    if max(errs) > tol * scale:
        raise ValueError(
            f"coset-sum oracle disagrees with the closed forms: errors {errs}"
        )
    return {
        "Z_phi": closed[0],
        "Z_phi_hat": closed[1],
        "oracle_Z_phi": oracle[0],
        "oracle_Z_phi_hat": oracle[1],
        "abs_errors": errs,
    }

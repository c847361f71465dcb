"""Class groups of positive definite binary quadratic forms.

Forms (a, b, c) stand for a x^2 + b x y + c y^2 with discriminant
D = b^2 - 4ac < 0 and a > 0.  SL_2(Z) acts on the right; each class has a
unique reduced representative (|b| <= a <= c, with b >= 0 when |b| = a or
a = c).  For a fundamental discriminant the reduced primitive forms make
up the class group under Gauss composition, computed by the two Bezout
steps of Cohen's Algorithm 5.4.7 and then reduced.

The group structure (invariant factors, coordinates) is extracted from the
relation lattice of a greedy generating set via the integer Smith normal
form, which also parametrizes the character group.  The Galois conjugation
acts by b -> -b and coincides with inversion.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .padicring import is_squarefree, smith_normal_form


@dataclass(frozen=True, order=True)
class QuadForm:
    """An integral binary quadratic form a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc < 0

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, m) -> "QuadForm":
        """Right action by m = [[p, q], [r, s]] in SL_2(Z)."""
        (p, q), (r, s) = m
        if p * s - q * r != 1:
            raise ValueError("transform needs a determinant-1 matrix")
        a = self.value(p, r)
        c = self.value(q, s)
        b = 2 * (self.a * p * q + self.c * r * s) + self.b * (p * s + q * r)
        return QuadForm(a, b, c)

    def conjugate(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)

    def __repr__(self):
        return f"QuadForm({self.a}, {self.b}, {self.c})"


def reduce_form(f: QuadForm) -> QuadForm:
    """Reduced representative of the SL_2(Z)-class of f."""
    if not f.is_positive_definite():
        raise ValueError("reduction needs a positive definite form")
    a, b, c = f.a, f.b, f.c
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
            continue
        if b < 0 and a == c:
            a, b, c = c, -b, a
            continue
        break
    return QuadForm(a, b, c)


def is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return is_squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(-m)
    return False


def unit_count(d: int) -> int:
    """Number of units of the order of discriminant d < 0: 6 for d = -3,
    4 for d = -4, else 2."""
    return {-3: 6, -4: 4}.get(d, 2)


def reduced_forms(d: int):
    """All reduced primitive forms of discriminant d < 0, sorted.

    This is the independent |b| <= a <= c enumeration; it does not go
    through reduction or composition.
    """
    if d >= 0:
        raise ValueError("negative discriminants only")
    out = []
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            f = QuadForm(a, b, c)
            if not f.is_primitive():
                continue
            if not f.is_reduced():
                continue
            out.append(f)
    return sorted(out)


def t_theta(d: int, tr: int, nm: int) -> QuadForm:
    """The principal-type form (1, t, n) attached to theta with trace t,
    norm n; requires t^2 - 4n = d."""
    if tr * tr - 4 * nm != d:
        raise ValueError("trace/norm do not match the discriminant")
    f = QuadForm(1, tr, nm)
    if not f.is_positive_definite():
        raise ValueError("resulting form is not positive definite")
    if not f.is_primitive():
        raise ValueError("resulting form is not primitive")
    return f


def compose_forms(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition of primitive forms, reduced output.

    Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    5.4.7: with s = (b1 + b2)/2, d = gcd(a1, a2) and d1 = gcd(s, d), two
    Bezout steps give the composite (a1 a2 / d1^2, b2 + 2 (a2/d1) r, .)
    directly.
    """
    if f.disc != g.disc:
        raise ValueError("cannot compose forms of different discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise ValueError("composition needs primitive forms")
    if not (f.is_positive_definite() and g.is_positive_definite()):
        raise ValueError("composition needs positive definite forms")
    a1, a2 = f.a, g.a
    s = (f.b + g.b) // 2
    d = math.gcd(a1, a2)
    d1 = math.gcd(s, d)
    # y1 a2 = d mod a1 and x2 s - y2 d = d1; pow(x, -1, 1) == 0 covers the
    # cases a1 | a2 and d | s
    y1 = pow(a2 // d, -1, a1 // d)
    x2 = pow(s // d1, -1, d // d1)
    y2 = (x2 * s - d1) // d
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * (g.b - s) - x2 * g.c) % v1
    a3, b3 = v1 * v2, g.b + 2 * v2 * r
    return reduce_form(QuadForm(a3, b3, (b3 * b3 - f.disc) // (4 * a3)))


class ClassGroup:
    """The form class group of a fundamental discriminant D < 0.

    Classes are indexed by their sorted reduced representatives; the
    composition table, invariant-factor structure and class coordinates
    are precomputed. Immutable once built.
    """

    def __init__(self, d: int):
        if not is_fundamental(d):
            raise ValueError(f"{d} is not a fundamental discriminant < 0")
        self.D = d
        self.classes = tuple(reduced_forms(d))
        self.h = len(self.classes)
        self._index = {f: i for i, f in enumerate(self.classes)}
        self.table = tuple(
            tuple(
                self._index[compose_forms(f, g)] for g in self.classes
            )
            for f in self.classes
        )
        self.identity = self._index[reduce_form(t_theta_principal(d))]
        self._build_structure()

    @property
    def w(self) -> int:
        return unit_count(self.D)

    def index(self, f: QuadForm) -> int:
        g = f if f.is_reduced() else reduce_form(f)
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"{f} is not a primitive form of discriminant {self.D}")

    def compose(self, f: QuadForm, g: QuadForm) -> QuadForm:
        return self.classes[self.table[self.index(f)][self.index(g)]]

    def conjugate_class(self, f: QuadForm) -> QuadForm:
        return self.classes[self.index(self.classes[self.index(f)].conjugate())]

    def _order_of(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def _build_structure(self):
        # one greedy generating pass: the first class not yet reached is the
        # next generator g, and the cosets H g, H g^2, ... of the subgroup H
        # reached so far are added until a power of g lands in H; every class
        # keeps the exponent vector it was reached by
        vectors = {self.identity: ()}
        gens = []
        for i in range(self.h):
            if i in vectors:
                continue
            gens.append(i)
            subgroup = vectors
            vectors = {x: e + (0,) for x, e in subgroup.items()}
            power, n = i, 1
            while power not in subgroup:
                for x, e in subgroup.items():
                    vectors[self.table[x][power]] = e + (n,)
                power, n = self.table[power][i], n + 1
        k = len(gens)
        if k == 0:
            self.invariants = ()
            self._coords = vectors
            return
        orders = [self._order_of(g) for g in gens]
        # relation lattice: diag(orders) plus every relation inside the
        # fundamental box (these generate the full kernel of Z^k -> G)
        relations = [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
        for vec in itertools.product(*[range(o) for o in orders]):
            if not any(vec):
                continue
            x = self.identity
            for idx, gi in enumerate(gens):
                for _ in range(vec[idx]):
                    x = self.table[x][gi]
            if x == self.identity:
                relations.append(list(vec))
        mat = [list(col) for col in zip(*relations)]  # k x (#relations)
        diag, U, _ = smith_normal_form(mat)
        trimmed = [i for i, d in enumerate(diag) if d > 1]
        self.invariants = tuple(diag[i] for i in trimmed)
        # coordinates in the invariant-factor presentation: x -> U e(x)
        self._coords = {}
        for cls, e in vectors.items():
            ue = [sum(U[i][j] * e[j] for j in range(k)) for i in range(k)]
            self._coords[cls] = tuple(
                ue[i] % diag[i] for i in trimmed
            )

    def coords(self, f: QuadForm) -> tuple:
        return self._coords[self.index(f)]

    def structure_label(self) -> str:
        if not self.invariants:
            return "C1"
        return " x ".join(f"C{d}" for d in self.invariants)

    def __repr__(self):
        return f"ClassGroup(D={self.D}, h={self.h}, {self.structure_label()})"


def t_theta_principal(d: int) -> QuadForm:
    """The form of the canonical integral generator theta of o_E.

    theta = sqrt(D)/2 for even D (trace 0, norm -D/4) and (1+sqrt(D))/2
    for odd D (trace 1, norm (1-D)/4).
    """
    if d % 2 == 0:
        return t_theta(d, 0, -d // 4)
    return t_theta(d, 1, (1 - d) // 4)


class ClassChar:
    """A character of the class group, given by exponents on the invariant
    factors; values are exact roots of unity."""

    def __init__(self, group: ClassGroup, exponents: tuple):
        if len(exponents) != len(group.invariants):
            raise ValueError("one exponent per invariant factor")
        self.group = group
        self.exponents = tuple(
            e % d for e, d in zip(exponents, group.invariants)
        )
        # the value is exp(2 pi i n / L), n = sum e x (L / d) mod L, with L
        # the lcm of the orders; n / L is the correctly rounded float of
        # the rational n/L that value_fraction returns
        self._turn = math.lcm(*group.invariants)
        self._weights = tuple(
            e * (self._turn // d) for e, d in zip(self.exponents, group.invariants)
        )

    def _turns(self, f: QuadForm) -> int:
        """n with value exp(2 pi i n / L), 0 <= n < L."""
        return sum(w * x for w, x in zip(self._weights, self.group.coords(f))) % self._turn

    def value_fraction(self, f: QuadForm):
        """The value as a rational multiple of a full turn."""
        return Fraction(self._turns(f), self._turn)

    def __call__(self, f: QuadForm) -> complex:
        return cmath.exp(2j * cmath.pi * (self._turns(f) / self._turn))

    def inverse(self) -> "ClassChar":
        return ClassChar(self.group, tuple(-e for e in self.exponents))

    conjugate = inverse  # Galois conjugate = inverse = complex conjugate

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @staticmethod
    def all_chars(group: ClassGroup):
        chars = [()]
        for d in group.invariants:
            chars = [c + (e,) for c in chars for e in range(d)]
        return [ClassChar(group, c) for c in chars]

    def __repr__(self):
        return f"ClassChar({self.exponents} on {self.group!r})"


def bessel_coeff_sum(group: ClassGroup, coeffs, chi: ClassChar) -> complex:
    """sum over classes of coeffs(class) * chi(class)^{-1}.

    ``coeffs`` maps each reduced representative to a value; a missing
    class is an error.
    """
    inv = chi.inverse()
    total = 0j
    for f in group.classes:
        if f not in coeffs:
            raise ValueError(f"no coefficient assigned to the class of {f}")
        total += complex(coeffs[f]) * inv(f)
    return total

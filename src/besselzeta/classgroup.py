"""Class groups of positive definite binary quadratic forms.

Forms (a, b, c) stand for a x^2 + b x y + c y^2 with discriminant
D = b^2 - 4ac < 0 and a > 0.  SL_2(Z) acts on the right; each class has a
unique reduced representative (|b| <= a <= c, with b >= 0 when |b| = a or
a = c).  For a fundamental discriminant the reduced primitive forms make
up the class group under Gauss composition, here realized through
concordant forms with coprime leading coefficients.

The group structure (invariant factors, generators, coordinates) is
extracted from the relation lattice of a generating set via the integer
Smith normal form, which also parametrizes the character group.  The
Galois conjugation acts by b -> -b and coincides with inversion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


_IDENT = ((1, 0), (0, 1))
_S = ((0, -1), (1, 0))


def reduce_form(f: QuadForm):
    """Reduced representative of the SL_2(Z)-class of f, with a witness.

    Returns (g, m) where m is in SL_2(Z) and f.transform(m) == g.
    """
    if not f.is_positive_definite():
        raise ValueError("reduction needs a positive definite form")
    a, b, c = f.a, f.b, f.c
    m = _IDENT
    while True:
        if a > c:
            a, b, c = c, -b, a
            m = _mat_mul(m, _S)
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
            m = _mat_mul(m, ((1, k), (0, 1)))
            continue
        if b < 0 and a == c:
            a, b, c = c, -b, a
            m = _mat_mul(m, _S)
            continue
        break
    return QuadForm(a, b, c), m


def is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return is_squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(-m)
    return False


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
    """Gauss composition via concordant forms, reduced output.

    Replaces g by an equivalent form whose leading coefficient is coprime
    to that of f, aligns middle coefficients by CRT, and multiplies the
    resulting concordant pair.
    """
    if f.disc != g.disc:
        raise ValueError("cannot compose forms of different discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise ValueError("composition needs primitive forms")
    a1 = f.a
    g2 = _equivalent_with_coprime_lead(g, a1)
    a2 = g2.a
    # solve B = b1 mod 2 a1, B = b2 mod 2 a2  (b1, b2 share the parity of D)
    b1, b2 = f.b, g2.b
    gcd_, x, _ = _xgcd(2 * a1, 2 * a2)
    assert (b2 - b1) % gcd_ == 0
    bb = (b1 + 2 * a1 * x * ((b2 - b1) // gcd_)) % (4 * a1 * a2 // gcd_)
    assert (bb - b1) % (2 * a1) == 0 and (bb - b2) % (2 * a2) == 0
    cc_num = bb * bb - f.disc
    assert cc_num % (4 * a1 * a2) == 0
    composed = QuadForm(a1 * a2, bb, cc_num // (4 * a1 * a2))
    return reduce_form(composed)[0]


def _equivalent_with_coprime_lead(g: QuadForm, n: int) -> QuadForm:
    """An SL_2(Z)-equivalent form whose leading coefficient is prime to n."""
    for x in range(1, 4 * max(n, 2) + 2):
        for y in range(0, 4 * max(n, 2) + 2):
            if math.gcd(x, y) != 1:
                continue
            if math.gcd(g.value(x, y), n) == 1:
                gcd_, s, t = _xgcd(x, y)
                # complete (x, y) to [[x, -t], [y, s]] of determinant 1
                m = ((x, -t), (y, s))
                return g.transform(m)
    raise RuntimeError("no coprime representation found; form not primitive?")


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class ClassGroup:
    """The form class group of a fundamental discriminant D < 0.

    Classes are indexed by their sorted reduced representatives; the
    composition table, inverses, invariant-factor structure and class
    coordinates are precomputed. Immutable once built; queries are
    thread-safe.
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
        self.identity = self._index[reduce_form(t_theta_principal(d))[0]]
        self.inverse = tuple(
            next(
                j
                for j in range(self.h)
                if self.table[i][j] == self.identity
            )
            for i in range(self.h)
        )
        self._build_structure()

    @property
    def w(self) -> int:
        """Number of units of the order: 6 for D=-3, 4 for D=-4, else 2."""
        return {-3: 6, -4: 4}.get(self.D, 2)

    def index(self, f: QuadForm) -> int:
        g = f if f.is_reduced() else reduce_form(f)[0]
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
        # greedy generating set, then Smith on the relation lattice
        gens = []
        generated = {self.identity}
        for i in range(self.h):
            if i in generated:
                continue
            gens.append(i)
            new = set(generated)
            frontier = set(generated)
            for _ in range(self.h):
                nxt = {self.table[x][i] for x in frontier}
                if nxt <= new:
                    break
                frontier = nxt - new
                new |= nxt
            generated = new
            if len(generated) == self.h:
                break
        self.generators = tuple(gens)
        k = len(gens)
        if k == 0:
            self.invariants = ()
            self._coords = {self.identity: ()}
            self._char_orders = ()
            return
        # exponent vectors for every class by BFS over the generators
        coords = {self.identity: tuple([0] * k)}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                e = coords[x]
                for idx, gi in enumerate(gens):
                    y = self.table[x][gi]
                    if y not in coords:
                        e2 = list(e)
                        e2[idx] += 1
                        coords[y] = tuple(e2)
                        nxt.append(y)
            frontier = nxt
        orders = [self._order_of(g) for g in gens]
        # relation lattice: diag(orders) plus every relation inside the
        # fundamental box (these generate the full kernel of Z^k -> G)
        import itertools

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
        invariants = [d for d in diag if d > 1]
        self.invariants = tuple(invariants)
        # coordinates in the invariant-factor presentation: x -> U e(x)
        trimmed = [i for i, d in enumerate(diag) if d > 1]
        self._coords = {}
        for cls, e in coords.items():
            ue = [sum(U[i][j] * e[j] for j in range(k)) for i in range(k)]
            self._coords[cls] = tuple(
                ue[i] % diag[i] for i in trimmed
            )
        self._char_orders = tuple(diag[i] for i in trimmed)

    def coords(self, f: QuadForm) -> tuple:
        return self._coords[self.index(f)]

    def structure_label(self) -> str:
        if not self.invariants:
            return "C1"
        return " x ".join(f"C{d}" for d in self.invariants)

    def __repr__(self):
        return f"ClassGroup(D={self.D}, h={self.h}, {self.structure_label()})"


def enumerate_classes(d: int) -> ClassGroup:
    """The class group of the fundamental discriminant d < 0."""
    return ClassGroup(d)


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
        if len(exponents) != len(group._char_orders):
            raise ValueError("one exponent per invariant factor")
        self.group = group
        self.exponents = tuple(
            e % d for e, d in zip(exponents, group._char_orders)
        )

    def value_fraction(self, f: QuadForm):
        """The value as a rational multiple of a full turn."""
        from fractions import Fraction

        coords = self.group.coords(f)
        total = Fraction(0)
        for e, x, d in zip(self.exponents, coords, self.group._char_orders):
            total += Fraction(e * x, d)
        return total % 1

    def __call__(self, f: QuadForm) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.value_fraction(f)))

    def inverse(self) -> "ClassChar":
        return ClassChar(self.group, tuple(-e for e in self.exponents))

    conjugate = inverse  # Galois conjugate = inverse = complex conjugate

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @staticmethod
    def all_chars(group: ClassGroup):
        chars = [()]
        for d in group._char_orders:
            chars = [c + (e,) for c in chars for e in range(d)]
        return [ClassChar(group, c) for c in chars]

    def __repr__(self):
        return f"ClassChar({self.exponents} on {self.group!r})"


def bessel_coeff_sum(group: ClassGroup, coeffs, chi: ClassChar) -> complex:
    """sum over classes of coeffs(class) * chi(class)^{-1}.

    ``coeffs`` maps each reduced representative to a value; a missing
    class is an error.
    """
    total = 0j
    for f in group.classes:
        if f not in coeffs:
            raise ValueError(f"no coefficient assigned to the class of {f}")
        total += complex(coeffs[f]) * chi.inverse()(f)
    return total

"""Exact multivariate Laurent rational functions over the rationals.

Everything symbolic in this package lives in the field Q(Q, T, A, B, G, ...)
of rational functions in named variables with integer (Laurent) exponents.
The builtin variable registry covers the quantities that recur throughout
the local computations:

    Q   square root of the residue cardinality, q = Q**2
    T   q**(-s)
    A   Satake parameter alpha
    B   Satake parameter beta
    G   Satake parameter gamma
    U   twist value mu(pi) at a uniformizer
    L   unramified character value Lambda(pi) at a uniformizer

Q is treated as strictly positive in the documentation sense only; no
ordering of values is ever used.  Any further identifier can be introduced
as an extension variable (series variables, recursion scalars, opaque unit
symbols).

Numerators and denominators are Laurent polynomials with integer
coefficients; a rational constant is an integer numerator over an integer
denominator.  A polynomial stores its sorted variable names once and each
monomial as a tuple of exponents over them, the one format that the
arithmetic, the coprimality proof and sympy's from_dict and terms() read.
Rational functions are kept fully canonical: numerator and denominator
are integer-primitive polynomials with no common factor, no common
monomial, and the denominator has positive leading coefficient in lex
order over the sorted names.  Equality of canonical forms is therefore
structural.

Sums, products and quotients follow Henrici's algorithm (Knuth, TAOCP
vol. 2, 4.5.1): since every operand is canonical, a/b + c/d takes
gcd(b, d) and one more gcd of the new numerator with it, which is free
when the first is 1; (a/b)(c/d) takes gcd(a, d) and gcd(c, b).  These are
gcds of the operands, never of their products.  x + 0, x * 1 and x * 0
return at once, and negation, inverse and integer powers take no gcd.
subst brings every substituted term over one common denominator and
reduces once.  The one place that calls sympy is _gcd_cofactors, which
serves these operations and the general constructor RatFunc(num, den)
alike.  A pair of polynomials that both have two or more terms, and
differ, first meets Brown's modular coprimality proof (_provably_coprime):
images mod the prime 2^61 - 1 at one fixed point prove most gcds to be a
monomial times an integer, exactly when sympy's gcd would have one term.
Only the pairs it cannot settle go to the ``cofactors`` of sympy's sparse
polynomial rings over ZZ.  All other arithmetic is self-contained.
Terms keep the order the arithmetic built them in; only the cofactors of
a gcd that sympy finds to have two or more terms arrive in sympy's order.
evaluate() sums in stored order, so its floats follow that order, and the
golden report pins them.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import ast
import operator
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd as _int_gcd
from typing import Iterable, Mapping

from sympy import ZZ
from sympy.polys.rings import ring as _sympy_ring

BUILTIN_VARS = ("Q", "T", "A", "B", "G", "U", "L")


def _union(a: tuple, b: tuple) -> tuple:
    """The sorted union of two sorted tuples of variable names."""
    return a if a == b else tuple(sorted({*a, *b}))


class LaurentPoly:
    """Finite sum of monomials with integer coefficients.

    ``names`` is the sorted tuple of the variables that occur, and ``terms``
    maps each monomial, a tuple of exponents over ``names``, to its
    coefficient.  Exponents may be negative.  No zero coefficient is ever
    stored, and a variable whose exponent is zero in every term is dropped
    from ``names``, so the representation is canonical and structural
    equality is mathematical equality.  A coefficient that is not an
    integer (a Fraction, a float) raises TypeError; rational constants are
    RatFuncs.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple, terms: Mapping[tuple, int]):
        if (any(map(operator.ge, names, names[1:]))
                or not {len(names)}.issuperset(map(len, terms))):
            raise ValueError("LaurentPoly needs strictly increasing names and "
                             "one exponent per name in every monomial")
        terms = {m: c for m, c in zip(terms, map(operator.index, terms.values()))
                 if c}
        used = list(map(any, zip(*terms)))
        if sum(used) < len(names):
            terms = {tuple(compress(m, used)): c for m, c in terms.items()}
            names = tuple(compress(names, used))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly((), {(): c})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError(f"invalid variable name {name!r}")
        return LaurentPoly((name,), {(exp,): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.names

    def const_value(self) -> int:
        if self.is_const():
            return self.terms.get((), 0)
        raise ValueError("not a constant")

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def variables(self) -> tuple:
        return self.names

    def _over(self, names: tuple) -> dict:
        """The terms as exponent tuples over names, a sorted superset of self.names."""
        if names == self.names:
            return self.terms
        columns = dict(zip(self.names, zip(*self.terms)))
        zero = (0,) * len(self.terms)
        return dict(zip(zip(*(columns.get(n, zero) for n in names)), self.terms.values()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        names = _union(self.names, other.names)
        d = dict(self._over(names))
        for mono, c in other._over(names).items():
            s = d.get(mono, 0) + c
            if s:
                d[mono] = s
            else:
                del d[mono]
        return LaurentPoly(names, d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.names, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return _ZERO
        if not self.names:
            self, other = other, self
        if not other.names:  # most products have a constant factor: no loop
            c = other.terms[()]
            return self if c == 1 else LaurentPoly(
                self.names, {m: c * v for m, v in self.terms.items()})
        names = _union(self.names, other.names)
        rhs = other._over(names).items()
        d = {}
        for m1, c1 in self._over(names).items():
            for m2, c2 in rhs:
                m = tuple(map(operator.add, m1, m2))
                s = d.get(m, 0) + c1 * c2
                if s:
                    d[m] = s
                elif m in d:
                    del d[m]
        return LaurentPoly(names, d)

    def mono_shift(self, names: tuple, shift: tuple) -> "LaurentPoly":
        """self times the monomial with exponents shift over names, a sorted
        superset of self.names."""
        return LaurentPoly(names, {tuple(map(operator.add, m, shift)): c
                                   for m, c in self._over(names).items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a LaurentPoly; use RatFunc")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def min_exponents(self) -> tuple:
        """Per-variable minimum exponent over all terms, over self.names."""
        return tuple(map(min, zip(*self.terms)))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.names == other.names
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({poly_text(self)!r})"


_ZERO = LaurentPoly((), {})
_ONE = LaurentPoly.const(1)


def poly_text(poly: LaurentPoly) -> str:
    """Deterministic text form: monomials in descending lex order."""
    if poly.is_zero:
        return "0"
    pieces = []
    for mono, coeff in sorted(poly.terms.items(), reverse=True):
        factors = []
        if abs(coeff) != 1 or not any(mono):
            factors.append(str(abs(coeff)))
        for name, e in zip(poly.names, mono):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@lru_cache(maxsize=None)
def _ring_for(names: tuple):
    return _sympy_ring(list(names), ZZ)[0]


# Brown's coprimality proof works in F_P at one fixed point.
_P = 2**61 - 1


def _point(i: int) -> int:
    """The fixed value mod _P of the i-th variable (in sorted name order)."""
    return pow(0x9E3779B97F4A7C15, i + 1, _P)


def _rem_mod_p(f: list, g: list) -> list:
    """f mod g in F_P[t], coefficients from the top degree down; g[0] != 0."""
    f = list(f)
    inv = pow(g[0], -1, _P)
    while len(f) >= len(g):
        q = f[0] * inv % _P
        if q:
            for i in range(1, len(g)):
                f[i] = (f[i] - q * g[i]) % _P
        f.pop(0)
    while f and not f[0]:
        f.pop(0)
    return f


def _provably_coprime(xv: dict, yv: dict) -> bool:
    """Whether the gcd of two polynomials, given as their terms over the
    same names, is a monomial times an integer, by Brown's modular proof
    (J. ACM 18, 1971).  False means only that no proof was found.

    Let x', y' be x, y with their own monomial content divided out, and g
    their gcd over Z.  Take a variable v of positive degree in both.  Fix
    every other variable at _point mod _P; if the top coefficient in v of
    x' and of y' stays nonzero, then so does that of g, because lc_v(g)
    divides lc_v(x').  So g's image has degree deg_v g and divides both
    images, and a constant univariate gcd of the images forces
    deg_v g = 0.  A variable missing from x' or y' is missing from g.  When
    every shared variable passes, g is an integer, and gcd(x, y) is a
    monomial times an integer.  An unlucky point loses a degree or finds a
    spurious common root; both answer False, never a wrong True.
    """
    k = len(next(iter(xv)))
    point = [_point(i) for i in range(k)]
    # each term with its value at the whole point
    sides = []
    for vecs in (xv, yv):
        terms = []
        for exps, c in vecs.items():
            for a, e in zip(point, exps):
                if e:
                    c = c * pow(a, e, _P) % _P
            terms.append((exps, c))
        sides.append(terms)
    for v in range(k):
        spans = [(min(exps[v] for exps, _ in terms), max(exps[v] for exps, _ in terms))
                 for terms in sides]
        if any(lo == hi for lo, hi in spans):
            continue
        # the images in v of x' and y', from the top degree down: dividing
        # each term's value by v's own power leaves the other variables fixed
        inv = pow(point[v], -1, _P)
        images = []
        for terms, (lo, hi) in zip(sides, spans):
            coeffs = [0] * (hi - lo + 1)
            for exps, c in terms:
                coeffs[hi - exps[v]] += c * pow(inv, exps[v], _P)
            coeffs = [c % _P for c in coeffs]
            if not coeffs[0]:
                return False
            images.append(coeffs)
        f, g = images
        while g:
            f, g = g, _rem_mod_p(f, g)
        if len(f) > 1:
            return False
    return True


def _gcd_cofactors(x: LaurentPoly, y: LaurentPoly):
    """(g, x/g, y/g) for a gcd g of two nonzero polynomials.

    g is exact up to a monomial times an integer, a factor that the
    monomial shift and content steps of _canonicalize remove.  So when x or
    y is one term the answer is (1, x, y), and when x == y it is (x, 1, 1),
    both without sympy.  Otherwise _provably_coprime tries to prove that
    the gcd is a monomial times an integer, and on a proof answers
    (1, x, y), with x and y themselves, without sympy.  Only then do
    sympy's cofactors decide, from the same terms: a gcd of one term
    returns (1, x, y) with x and y themselves, and any other gcd returns
    all three in sympy's terms() order.  Since sympy's gcd has one term
    exactly when the gcd is a monomial times an integer, the proof changes
    no answer.  Exponents must be nonnegative, as in every canonical
    numerator and denominator.
    """
    if x.is_monomial() or y.is_monomial():
        return _ONE, x, y
    if x == y:
        return x, _ONE, _ONE
    names = _union(x.names, y.names)
    xv, yv = x._over(names), y._over(names)
    if _provably_coprime(xv, yv):
        return _ONE, x, y
    R = _ring_for(names)
    g, a, b = R.from_dict(xv).cofactors(R.from_dict(yv))
    if len(g) == 1:
        return _ONE, x, y
    return tuple(LaurentPoly(names, dict(p.terms())) for p in (g, a, b))


class RatFunc:
    """A rational function num/den in canonical reduced form.

    Canonical means: common monomial factors and content are removed, the
    polynomial gcd of numerator and denominator is 1, and the denominator's
    leading coefficient (lex order over sorted variable names) is positive.
    Two RatFuncs are equal iff they are the same function.

    ``_coprime=True`` is the arithmetic's private promise that num and den
    have no common polynomial factor, so the gcd is skipped.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE, *, _coprime=False):
        if den.is_zero:
            raise ZeroDivisionError("RatFunc with zero denominator")
        num, den = _canonicalize(num, den, _coprime)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return RatFunc(LaurentPoly.const(c.numerator), LaurentPoly.const(c.denominator))

    @staticmethod
    def var(name: str, exp: int = 1) -> "RatFunc":
        if exp >= 0:
            return RatFunc(LaurentPoly.var(name, exp) if exp else _ONE)
        return RatFunc(_ONE, LaurentPoly.var(name, -exp))

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, LaurentPoly):
            return RatFunc(value)
        return RatFunc.const(value)

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

    def variables(self) -> tuple:
        return _union(self.num.names, self.den.names)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        # Henrici: h = gcd(b, d), then one gcd of the new numerator with h
        a, b, c, d = self.num, self.den, other.num, other.den
        h, b_h, d_h = _gcd_cofactors(b, d)
        num = a * d_h + c * b_h
        if num.is_zero:
            return RF_ZERO
        _, num, h_rest = _gcd_cofactors(num, h)
        return RatFunc(num, b_h * d_h * h_rest, _coprime=True)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _coprime=True)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if self.is_zero or other.is_zero:
            return RF_ZERO
        if other == RF_ONE:
            return self
        if self == RF_ONE:
            return other
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division of RatFunc by zero")
        if self.is_zero:
            return RF_ZERO
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero RatFunc")
        return RatFunc(self.den, self.num, _coprime=True)

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inv() ** (-k)
        return RatFunc(self.num**k, self.den**k, _coprime=True)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            try:
                other = RatFunc.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- substitution and evaluation ------------------------------------
    def subst(self, bindings: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Substitute variables by rational functions, exactly.

        Let each bound x have the value n_x/d_x and largest exponent E_x in
        num or den (canonical exponents are >= 0).  Multiplying num and den
        by prod d_x^E_x turns both into polynomials, each term c*m becoming
        c * prod n_x^e_x d_x^(E_x - e_x) times m's unbound variables, and
        the quotient is reduced once.  Raises ZeroDivisionError if the
        denominator vanishes identically under the binding.
        """
        bind = {k: RatFunc.coerce(v) for k, v in bindings.items()}
        top = {}
        for poly in (self.num, self.den):
            for name, col in zip(poly.names, zip(*poly.terms)):
                if name in bind:
                    top[name] = max(top.get(name, 0), *col)
        factors = {}  # (x, e) -> n_x^e * d_x^(E_x - e)

        def image(poly: LaurentPoly) -> LaurentPoly:
            out = _ZERO
            for mono, coeff in poly.terms.items():
                exps = dict(zip(poly.names, mono))
                free = tuple(0 if n in top else e for n, e in exps.items())
                term = LaurentPoly(poly.names, {free: coeff})
                for name, top_e in top.items():
                    e = exps.get(name, 0)
                    f = factors.get((name, e))
                    if f is None:
                        value = bind[name]
                        f = factors[name, e] = value.num**e * value.den**(top_e - e)
                    term = term * f
                out = out + term
            return out

        num, den = image(self.num), image(self.den)
        if den.is_zero:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RatFunc(num, den)

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be bound."""
        num = _poly_eval(self.num, values)
        den = _poly_eval(self.den, values)
        if den == 0:
            raise ZeroDivisionError("denominator evaluates to zero")
        return num / den

    # -- text form -------------------------------------------------------
    def to_text(self) -> str:
        num = poly_text(self.num)
        if self.den == _ONE:
            return num
        return f"({num}) / ({poly_text(self.den)})"

    def __repr__(self):
        return f"RatFunc({self.to_text()!r})"


def _canonicalize(num: LaurentPoly, den: LaurentPoly, coprime: bool = False):
    """Canonical form of num/den; ``coprime`` skips the polynomial gcd.

    The arithmetic on canonical f = a/b and g = c/d builds its result from
    smaller gcds (Henrici; Knuth, TAOCP vol. 2, 4.5.1), already reduced, and
    passes coprime=True.  Here "monomial" allows an integer factor.
    - f + g: let h = gcd(b, d) and t = a(d/h) + c(b/h).  A non-monomial
      prime p dividing t and b/h, say, divides a(d/h) and not a, so it
      divides d/h, which is coprime to b/h: impossible.  So the result
      t/gcd(t, h) over (b/h)(d/h)(h/gcd(t, h)) is reduced.  When h is a
      monomial, _gcd_cofactors returns it as 1 and b/h, d/h as b, d, so
      this is (a*d + c*b)/(b*d).
    - f * g: gcd(a*c, b*d) = gcd(a, d) gcd(c, b), since gcd(a, b) and
      gcd(c, d) are 1, so the product of the cofactors is reduced.  f / g
      is f * (d/c).
    - -f, 1/f and f**k keep gcd 1 (gcd(a^k, b^k) = 1).
    With coprime=True the shift and content steps leave an integer
    polynomial gcd of exactly 1, and a gcd of 1 leaves num and den
    untouched, so skipping it changes no term and no term order.
    """
    if num.is_zero:
        return _ZERO, _ONE
    # joint monomial shift so that each variable's minimum exponent over
    # numerator and denominator together is zero
    names = _union(num.names, den.names)
    mins_n = dict(zip(num.names, num.min_exponents()))
    mins_d = dict(zip(den.names, den.min_exponents()))
    shift = tuple(-min(mins_n.get(n, 0), mins_d.get(n, 0)) for n in names)
    if any(shift):
        num, den = num.mono_shift(names, shift), den.mono_shift(names, shift)
    # joint content, so that the coefficients are primitive integers
    content = _int_gcd(*num.terms.values(), *den.terms.values())
    if content > 1:
        num = LaurentPoly(num.names, {m: c // content for m, c in num.terms.items()})
        den = LaurentPoly(den.names, {m: c // content for m, c in den.terms.items()})
    # polynomial gcd; monomials carry none after the shift and content steps
    if not coprime:
        _, num, den = _gcd_cofactors(num, den)
    # positive leading coefficient of the denominator
    if den.terms[max(den.terms)] < 0:
        num, den = -num, -den
    return num, den


def _product(a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly) -> RatFunc:
    """(a/b) * (c/d) for gcd(a, b) = gcd(c, d) = 1, by Henrici: the gcds
    of a with d and of c with b, never of the products."""
    _, a, d = _gcd_cofactors(a, d)
    _, c, b = _gcd_cofactors(c, b)
    return RatFunc(a * c, b * d, _coprime=True)


def _poly_eval(poly: LaurentPoly, values: Mapping[str, complex]):
    for name in poly.names:
        if name not in values:
            raise KeyError(f"no value bound for variable {name}")
    points = [complex(values[name]) for name in poly.names]
    total = 0
    for mono, coeff in poly.terms.items():
        term = complex(coeff)
        for v, e in zip(points, mono):
            if e:
                term *= v ** e
        total += term
    return total


RF_ZERO = RatFunc(_ZERO)
RF_ONE = RatFunc(_ONE)


def rf_var(name: str, exp: int = 1) -> RatFunc:
    return RatFunc.var(name, exp)


# ---------------------------------------------------------------------------
# matrices


class RatMatrix:
    """A rectangular matrix of RatFuncs with dimension-checked arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(RatFunc.coerce(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def _entrywise(self, op, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return RatMatrix([[op(a, b) for a, b in zip(row, other_row)]
                          for row, other_row in zip(self.entries, other.entries)])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._entrywise(operator.sub, other)

    def scale(self, c) -> "RatMatrix":
        c = RatFunc.coerce(c)
        return RatMatrix([[e * c for e in row] for row in self.entries])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        return RatMatrix(
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                        RF_ZERO,
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self) -> RatFunc:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), RF_ZERO)

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """The X with self * X == rhs, by Gauss-Jordan elimination over the
        RatFunc field.  Raises ValueError if self is singular.

        Rows are cleared below each pivot first and above them afterwards,
        last pivot first, so a triangular system of either orientation
        costs one substitution sweep.
        """
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        if rhs.rows != self.rows:
            raise ValueError("matrix shape mismatch in solve")
        n = self.rows
        work = [list(row) + list(rhs_row) for row, rhs_row in
                zip(self.entries, rhs.entries)]

        def eliminate(r, col):
            # work[col] is zero left of col, so only entries from col on change
            factor = work[r][col]
            if not factor.is_zero:
                work[r][col:] = [a - factor * b
                                 for a, b in zip(work[r][col:], work[col][col:])]

        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
            if pivot is None:
                raise ValueError("singular matrix")
            work[col], work[pivot] = work[pivot], work[col]
            inv_p = work[col][col].inv()
            work[col][col:] = [e * inv_p for e in work[col][col:]]
            for r in range(col + 1, n):
                eliminate(r, col)
        for col in reversed(range(n)):
            for r in range(col):
                eliminate(r, col)
        return RatMatrix([row[n:] for row in work])

    def inverse(self) -> "RatMatrix":
        """Exact inverse, solve(identity)."""
        return self.solve(RatMatrix.identity(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.to_text() for e in row) for row in self.entries
        )
        return f"RatMatrix([{body}])"


def geom_resolvent(m: RatMatrix, x) -> RatMatrix:
    """Closed form of the geometric series sum_{l>=0} M^l x^l = (I - x M)^{-1}.

    Raises ValueError if I - x M is singular over the function field.
    """
    if m.rows != m.cols:
        raise ValueError("geom_resolvent needs a square matrix")
    x = RatFunc.coerce(x)
    return (RatMatrix.identity(m.rows) - m.scale(x)).inverse()


# ---------------------------------------------------------------------------
# parsing


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def parse_ratfunc(text: str, extra_vars: Iterable[str] = ()) -> RatFunc:
    """Parse + - * / ^, parentheses, integers, variables and integer exponents.

    Python's expression parser reads the text, with ^ in place of ** and
    whitespace runs as single spaces; the walk accepts decimal integer
    literals, allowed names, unary minus, + - * / and ^ with a decimal
    integer exponent negated at most once, and raises ValueError on any
    other syntax, and on text nested too deeply to parse.  Operations apply
    left to right, as written.
    Variable names must be builtin (Q T A B G U L) or listed in extra_vars.
    """
    allowed = set(BUILTIN_VARS) | set(extra_vars)
    if "**" in text or "#" in text:  # a comment would hide the rest of the text
        raise ValueError("'**' and '#' are not part of the grammar")
    source = " ".join(text.split()).replace("^", "**")

    def literal(node) -> bool:  # ast reads 1_0, 0x10 and True as ints too
        return (isinstance(node, ast.Constant)
                and ast.get_source_segment(source, node).isdigit())

    def walk(node) -> RatFunc:
        # a chain of + - * / nests down its left operands: follow that spine
        # in a loop, then apply the operations left to right
        chain = []
        while isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            chain.append(node)
            node = node.left
        value = operand(node)
        for link in reversed(chain):
            value = _BINOPS[type(link.op)](value, walk(link.right))
        return value

    def operand(node) -> RatFunc:
        if literal(node):
            return RatFunc.const(node.value)
        if isinstance(node, ast.Name):
            name = ast.get_source_segment(source, node)  # as written, not NFKC-folded
            if name not in allowed:
                raise ValueError(f"unknown variable {name!r}")
            return RatFunc.var(name)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exp, sign = walk(node.left), node.right, 1
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                exp, sign = exp.operand, -1
            if not literal(exp):
                raise ValueError("exponent must be an integer")
            return base ** (sign * exp.value)
        raise ValueError(f"unexpected {ast.get_source_segment(source, node)!r}")

    try:
        with warnings.catch_warnings():  # e.g. "invalid decimal literal" for 2if
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(source, mode="eval")
        return walk(tree.body)
    except SyntaxError as exc:
        raise ValueError(f"malformed expression: {exc.msg}") from None
    except RecursionError:  # from ast.parse, or a long run of unary minus
        raise ValueError("expression nests too deeply") from None
